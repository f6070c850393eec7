"""Benchmark command for moograd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. One process, one caller: rounds of the
workload run back to back for S seconds (the last round is finished), then
every output is checked. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``setup_s`` is the median import time (this process and two fresh
interpreters) plus the median of three complete set-ups of the workload;
``work_per_s`` is the median over rounds of the round's work per second. A
traced run alternates untraced and traced rounds; the per-layer metrics come
from the traced ones, and ``trace.overhead_pct`` compares the two.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 3
# Times, in a fresh interpreter, the imports this process made before set-up.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import argparse, json, os, resource, shutil, statistics, subprocess, sys; "
    "sys.path[:0] = sys.argv[1:]; import moograd, spans, workloads; "
    "print(time.perf_counter() - t)"
)


def per_layer_metrics(tr, rounds, workload, overhead_pct):
    """Per-layer metrics of the traced rounds; counts and times are per round."""
    c = tr.counts.get
    solves = tr.calls("minnorm.solve")
    backward = tr.calls("autodiff.backward")
    decisions = c("guard.decisions", 0.0)
    per = {
        "minnorm.solve_calls": (solves, "count"),
        "minnorm.solve_self_ms": (tr.self_ms("minnorm.solve"), "ms"),
        "minnorm.fw_iterations": (c("minnorm.fw_iterations", 0.0), "count"),
        "minnorm.nonconverged": (c("minnorm.nonconverged", 0.0), "count"),
        "problems.averaged_gradient_ms": (tr.total_ms("problems.averaged_gradient"), "ms"),
        "problems.gradient_draws": (c("problems.gradient_draws", 0.0), "count"),
        "problems.sample_gradient_ms": (tr.total_ms("problems.sample_gradient"), "ms"),
        "problems.full_jacobian_ms": (tr.total_ms("problems.full_jacobian"), "ms"),
        "problems.eval_calls": (
            tr.calls("problems.eval", "problems.eval_batch", "problems.eval_terms"), "count"),
        "problems.eval_ms": (tr.total_ms("problems.eval"), "ms"),
        "problems.eval_batch_ms": (tr.total_ms("problems.eval_batch"), "ms"),
        "problems.eval_terms_ms": (tr.total_ms("problems.eval_terms"), "ms"),
        "autodiff.backward_ms": (tr.total_ms("autodiff.backward"), "ms"),
        "ml2o.direction_calls": (tr.calls("ml2o.direction"), "count"),
        "ml2o.unroll_window_self_ms": (tr.self_ms("ml2o.unroll_window"), "ms"),
        "ml2o.meta_train_self_ms": (tr.self_ms("ml2o.meta_train"), "ms"),
        "optimizers.step_self_ms": (tr.self_ms("optimizers.step"), "ms"),
        "optimizers.run_steps_self_ms": (tr.self_ms("optimizers.run_steps"), "ms"),
        "guard.select_self_ms": (tr.self_ms("guard.select"), "ms"),
        "guard.loop_self_ms": (tr.self_ms("guard.loop"), "ms"),
        "guard.learned_wins": (c("guard.learned_wins", 0.0), "count"),
        "harness.run_experiment_self_ms": (tr.self_ms("harness.run_experiment"), "ms"),
        "harness.csv_bytes": (c("harness.csv_bytes", 0.0), "bytes"),
        "metrics.extract_front_ms": (tr.total_ms("metrics.extract_front"), "ms"),
        "metrics.front_points": (c("metrics.front_points", 0.0), "count"),
        "metrics.hypervolume_ms": (tr.total_ms("metrics.hypervolume"), "ms"),
    }
    out = {name: (value / rounds, unit) for name, (value, unit) in per.items()}
    out.update({
        "minnorm.solve_us_p50": (1e6 * tr.median_s("minnorm.solve"), "us"),
        "minnorm.converged_ratio": (
            1.0 - c("minnorm.nonconverged", 0.0) / solves if solves else 0.0, "ratio"),
        "autodiff.tape_nodes_per_window": (
            c("autodiff.tape_nodes", 0.0) / backward if backward else 0.0, "count"),
        "ml2o.direction_ms_p50": (1e3 * tr.median_s("ml2o.direction"), "ms"),
        "guard.learned_win_ratio": (
            c("guard.learned_wins", 0.0) / decisions if decisions else 0.0, "ratio"),
        "harness.load_checkpoint_ms": (workload.load_checkpoint_ms, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "moograd", "__init__.py")):
        print(f"perfbench: no moograd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, so that the single caller is the only thread computing
    # (the matrices are small). Must be set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import moograd
    if os.path.dirname(os.path.dirname(os.path.abspath(moograd.__file__))) != SRC:
        print(f"perfbench: imported moograd from {moograd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans  # noqa: F401  (imported here so that import_s counts it)
    import workloads
    import_times = [time.perf_counter() - T_START]
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                               capture_output=True, text=True, check=True, timeout=120)
        import_times.append(float(probe.stdout))
    import_s = statistics.median(import_times)

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(out_dir)
    try:
        return measure(args, import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, import_s, out_dir):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = spans.Tracer()
    attempted = failed = 0
    run_errors, check_errors = [], []
    rates = {False: [], True: []}  # traced? -> work per second of each round
    t_begin = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - t_begin < args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rnd = workload.round(i)
        except Exception as exc:  # an operation that raises is a failed operation
            rnd = workloads.Round(1, 1, 0.0, None)
            run_errors.append(f"round {i} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        rates[traced].append(rnd.work / elapsed)
        attempted += rnd.attempted
        failed += rnd.failed
        if rnd.output is not None:
            check_errors += [f"round {i}: {e}" for e in workload.check_round(i, rnd)]
            if traced:
                for name, value in rnd.counts.items():
                    tracer.add(name, value)
        i += 1
    check_errors += workload.final_check()

    # Rounds of one workload do equal work, so the median round rate is robust
    # to the slow drifts in speed that other tenants of a shared machine cause.
    work_per_s = statistics.median(rates[False])
    print(f"workload {workload.name}: seed {args.seed}, {i} rounds, {attempted} operations, "
          f"{failed} failed")
    for e in run_errors + check_errors:
        print("ERROR", e)
    if args.trace:
        overhead_pct = 100.0 * (work_per_s / statistics.median(rates[True]) - 1.0)
        metrics = per_layer_metrics(tracer, len(rates[True]), workload, overhead_pct)
        table = tracer.table()
        with open(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json"), "w") as fh:
            json.dump(table, fh, indent=1)
        for row in table:
            print(f"span {row['span']:<28} calls {row['calls']:>9}  "
                  f"total {row['total_ms']:>11.3f} ms  self {row['self_ms']:>11.3f} ms")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "work_per_s": (work_per_s, "1/s"),
        }
        print(f"{workload.work_metric} = {work_per_s:.6g} {workload.work_unit} (as work_per_s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
