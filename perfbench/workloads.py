"""The benchmark's four workloads and the checks on their outputs.

A workload is set up (inputs generated from the seed, problem and model
built, a small warm-up call made), then runs timed rounds back to back: one
caller, each round starting when the previous one ends. A round is the
operation a user of that layer waits for. The checks run between rounds and
after the last one, outside the timed spans, and compare each output with
a reference computation from ``refs`` or with a property the method must
have.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from moograd import autodiff, guard, harness, metrics, minnorm, ml2o, optimizers, problems

import refs

PURPOSE_INIT, PURPOSE_DRAWS, PURPOSE_GUARD = 0, 1, 2


def member_rng(seed, member, purpose):
    """The documented per-run stream: SeedSequence(seed, spawn_key=(member, purpose))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(member, purpose)))


@dataclass
class Round:
    attempted: int
    failed: int
    work: float  # work units done, for the throughput metric
    output: object
    counts: dict = field(default_factory=dict)  # per-layer counts measured by the checks


class Workload:
    name = ""
    work_metric = ""  # the workload's own name for work_per_s, printed alongside it
    work_unit = ""
    load_checkpoint_ms = 0.0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> Round:
        raise NotImplementedError

    def check_round(self, i: int, rnd: Round) -> list[str]:
        return []

    def final_check(self) -> list[str]:
        return []


# --- population_front -------------------------------------------------------

FRONT_OPTIMIZERS = ("smg", "dssmg")


def front_config(problem_seed, seeds, population=200, steps=100, dim=8):
    """The criterion-6 experiment, less its seed count."""
    return {
        "problem": {"name": "quadratic_pair",
                    "params": {"dim": dim, "seed": problem_seed, "noise_sigma": 0.5}},
        "steps": steps,
        "step_schedule": {"kind": "constant", "alpha": 0.5},
        "sample_schedule": {"n_base": 32, "q": 0.1},
        "seeds": list(seeds),
        "population": population,
    }


def read_floats(path):
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), -1)


def check_front_run(out_dir, cfg, centers) -> list[str]:
    """Manifest, CSV, front and convergence checks on one run_experiment directory."""
    errors = []
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        runs = json.load(fh)["runs"]
    population, seeds, dim = cfg["population"], cfg["seeds"], cfg["problem"]["params"]["dim"]
    if len(runs) != population * len(seeds):
        return [f"{out_dir}: {len(runs)} runs in the manifest, expected {population * len(seeds)}"]
    for run in runs:
        with open(os.path.join(out_dir, run["file"])) as fh:
            text = fh.read()
        if refs.csv_content_hash(text) != run["content_hash"]:
            errors.append(f"{run['file']}: content hash differs from the manifest")
        if len(text.splitlines()) != cfg["steps"] + 1:
            errors.append(f"{run['file']}: {len(text.splitlines()) - 1} rows, expected {cfg['steps']}")
        want = refs.quadratic_losses(np.array(run["final_x"]), centers)
        if not np.allclose(run["final_losses"], want, rtol=1e-12, atol=1e-15):
            errors.append(f"{run['file']}: final_losses {run['final_losses']} != reference {want}")
    for seed in seeds:
        mine = [r for r in runs if r["seed"] == seed]
        pts = np.array([r["final_losses"] for r in mine])
        front = read_floats(os.path.join(out_dir, f"front_seed{seed}.csv"))
        expected = pts[refs.nondominated(pts)]
        if front.shape != expected.shape or not np.array_equal(front, expected):
            errors.append(f"front_seed{seed}.csv: {len(front)} points, "
                          f"not the {len(expected)} non-dominated final points")
        start = np.mean([refs.point_segment_distance(
            member_rng(seed, r["member"], PURPOSE_INIT).uniform(-1.0, 1.0, dim), *centers)
            for r in mine])
        end = np.mean([refs.point_segment_distance(np.array(r["final_x"]), *centers)
                       for r in mine])
        if not end < start:
            errors.append(f"seed {seed}: mean distance to the Pareto segment {end:.4g} "
                          f"at the end is not below {start:.4g} at the start")
    return errors


def front_hypervolumes(fronts):
    """Criterion-6 comparison: each optimizer's front hypervolume against a shared reference."""
    ref = metrics.front_reference(*fronts)
    return ref, [metrics.hypervolume_2d(f, ref) for f in fronts]


def check_hypervolumes(fronts, ref, hvs) -> list[str]:
    stacked = np.vstack(fronts)
    top = stacked.max(axis=0)
    want_ref = top + 0.1 * np.maximum(top - stacked.min(axis=0), 1e-12)
    errors = []
    if not np.allclose(ref, want_ref, rtol=1e-12, atol=0.0):
        errors.append(f"hypervolume reference {ref} != {want_ref}")
    for front, hv in zip(fronts, hvs):
        want = refs.hypervolume_2d(front, want_ref)
        if not math.isclose(hv, want, rel_tol=1e-9, abs_tol=1e-15):
            errors.append(f"hypervolume {hv} != reference {want}")
    return errors


class PopulationFront(Workload):
    name = "population_front"
    work_metric = "front_member_steps_per_s"
    work_unit = "member-steps/s"

    def setup(self):
        problem_seed, *run_seeds = (int(v) for v in np.random.default_rng(self.seed).integers(0, 2**31, 3))
        self.cfg = front_config(problem_seed, run_seeds)
        self.centers = problems.make_problem("quadratic_pair", **self.cfg["problem"]["params"]).centers
        warm = dict(front_config(problem_seed, run_seeds[:1], population=2, steps=2),
                    optimizer={"name": "dssmg", "params": {}}, outputs=self._dir("warmup"))
        harness.run_experiment(warm, threads=1, write_front=True)
        shutil.rmtree(self._dir("warmup"))

    def _dir(self, name):
        return os.path.join(self.out_dir, name)

    def round(self, i):
        by_seed = {seed: [] for seed in self.cfg["seeds"]}
        for name in FRONT_OPTIMIZERS:
            cfg = dict(self.cfg, optimizer={"name": name, "params": {}}, outputs=self._dir(name))
            results = harness.run_experiment(cfg, threads=1, write_front=True)
            for seed in by_seed:
                pts = np.array([r.record.final_losses for r in results if r.seed == seed])
                by_seed[seed].append(metrics.extract_front(pts))
        hvs = {seed: front_hypervolumes(fronts) for seed, fronts in by_seed.items()}
        work = len(FRONT_OPTIMIZERS) * len(by_seed) * self.cfg["population"] * self.cfg["steps"]
        return Round(1, 0, work, (by_seed, hvs))

    def check_round(self, i, rnd):
        by_seed, hvs = rnd.output
        errors, csv_bytes = [], 0
        for name in FRONT_OPTIMIZERS:
            cfg = dict(self.cfg, optimizer={"name": name, "params": {}})
            errors += [f"{name}: {e}" for e in check_front_run(self._dir(name), cfg, self.centers)]
            csv_bytes += sum(e.stat().st_size for e in os.scandir(self._dir(name))
                             if e.name.endswith(".csv"))
            shutil.rmtree(self._dir(name))
        for seed, (ref, hv) in hvs.items():
            errors += check_hypervolumes(by_seed[seed], ref, hv)
        rnd.counts["harness.csv_bytes"] = csv_bytes
        return errors


# --- meta_train ---------------------------------------------------------------

# The criterion-8 training recipe at H=8.
TRAIN = dict(dim=8, noise_sigma=0.1, hidden=8, steps=200, window=20, meta_lr=0.05, alpha=0.35)


def quadratic_sampler(rng):
    return problems.make_quadratic_pair(TRAIN["dim"], seed=int(rng.integers(2**31 - 1)),
                                        noise_sigma=TRAIN["noise_sigma"])


def taped_window(params, problem, x0, draw_rng, window, alpha):
    """One training window through unroll_window and autodiff.backward.

    Returns the window's meta-loss, the parameter gradients and the gradient
    stacks drawn, which the tape treats as constants.
    """
    stacks = []

    def draw(j, xv):
        stacks.append(problem.sample_gradient(xv, draw_rng))
        return stacks[-1]

    store = ml2o.store_from_params(params)
    tape = autodiff.Tape()
    leafs = {name: tape.param(store, name) for name in store.names()}
    state = ml2o.init_state(params.m, params.hidden, problem.dim)
    mean, _, _ = ml2o.unroll_window(problem, x0.reshape(-1, 1), state, leafs, window, alpha, draw)
    autodiff.backward(tape, mean)
    return float(mean.value), {k: v.copy() for k, v in store.grads.items()}, stacks


def reference_window_loss(arrays, m, hidden, x0, stacks, centers, alpha):
    """Mean over the window of max_i (f_i(x_k) - f_i(x_{k-1})), x_k = x_{k-1} - alpha g_k."""
    state = refs.ml2o_init_state(m, hidden, x0.size)
    x = x0.reshape(-1)
    f_prev = refs.quadratic_losses(x, centers)
    total = 0.0
    for y in stacks:
        g, state = refs.ml2o_forward(y, state, arrays)
        x = x - alpha * g
        f = refs.quadratic_losses(x, centers)
        total += float(np.max(f - f_prev))
        f_prev = f
    return total / len(stacks)


def check_meta_gradient(loss, grads, ref_loss, arrays, rng, directions=3, eps=1e-5, rtol=1e-4):
    """Tape gradient against central differences of ``ref_loss`` along random unit directions."""
    errors = []
    if not math.isclose(loss, ref_loss(arrays), rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"taped window loss {loss} != reference forward {ref_loss(arrays)}")
    for d in range(directions):
        v = {k: rng.standard_normal(a.shape) for k, a in arrays.items()}
        norm = math.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
        v = {k: a / norm for k, a in v.items()}
        hi = ref_loss({k: arrays[k] + eps * v[k] for k in arrays})
        lo = ref_loss({k: arrays[k] - eps * v[k] for k in arrays})
        fd = (hi - lo) / (2 * eps)
        ad = sum(float(np.sum(grads[k] * v[k])) for k in arrays)
        if abs(fd - ad) > rtol * max(abs(fd), abs(ad), 1e-8):
            errors.append(f"direction {d}: tape {ad:.10g} vs central difference {fd:.10g}")
    return errors


class MetaTrain(Workload):
    name = "meta_train"
    work_metric = "train_epochs_per_s"
    work_unit = "epochs/s"

    def setup(self):
        self.params0 = ml2o.init_params(2, TRAIN["hidden"], self.seed)
        self.params = self.params0
        ml2o.meta_train(quadratic_sampler, self.params0, steps=2, window=2, meta_lr=0.0,
                        epochs=1, seed=self.seed)

    def round(self, i):
        self.params, trace = ml2o.meta_train(
            quadratic_sampler, self.params, steps=TRAIN["steps"], window=TRAIN["window"],
            meta_lr=TRAIN["meta_lr"], epochs=1, seed=self.seed, alpha=TRAIN["alpha"],
            start_epoch=i, draw_mode="sample")
        return Round(1, 0, 1, trace)

    def check_round(self, i, rnd):
        periods = TRAIN["steps"] // TRAIN["window"]
        if [(e, p) for e, p, _ in rnd.output] != [(i, p) for p in range(periods)]:
            return [f"epoch {i}: trace rows {[(e, p) for e, p, _ in rnd.output]}"]
        return [f"epoch {i} period {p}: meta-loss {v}" for _, p, v in rnd.output
                if not math.isfinite(v)]

    def final_check(self):
        rng = np.random.default_rng(self.seed)
        problem = quadratic_sampler(rng)
        x0 = problem.initial_point(rng)
        loss, grads, stacks = taped_window(self.params0, problem, x0, rng,
                                           TRAIN["window"], TRAIN["alpha"])
        ref_loss = lambda arrays: reference_window_loss(
            arrays, 2, TRAIN["hidden"], x0, stacks, problem.centers, TRAIN["alpha"])
        return check_meta_gradient(loss, grads, ref_loss, self.params0.arrays, rng)


# --- guarded_mtl --------------------------------------------------------------

GUARD = dict(hidden=20, train_epochs=10, steps=200, alpha=0.5, guard_batch=512)


def guarded_run(problem, params, x0, seed, steps, alpha, guard_batch, keep_iterates=False):
    return guard.gml2o_run(
        problem, params, optimizers.StepSchedule("constant", alpha),
        optimizers.SampleSchedule(1, 0.1), steps, x0,
        member_rng(seed, 0, PURPOSE_DRAWS), guard_rng=member_rng(seed, 0, PURPOSE_GUARD),
        guard_batch=guard_batch, keep_iterates=keep_iterates)


def mtl_losses(problem, x, idx=None):
    return refs.toy_mtl_cross_entropy(x, problem.xs, problem.labels, problem.hidden,
                                      problem.n_classes, idx)


def check_guarded_record(problem, record, x0) -> list[str]:
    """Guard choices are the argmin (ties to the fallback); the run descends both tasks."""
    errors = []
    for row, d in zip(record.rows, record.meta["decisions"], strict=True):
        want = "fallback" if d.fallback_delta <= d.learned_delta else "learned"
        if d.chosen != want or row.guard_choice != d.chosen:
            errors.append(f"step {row.k}: chose {row.guard_choice}/{d.chosen}, argmin is {want}")
    final_x = record.meta["final_x"]
    start, end = mtl_losses(problem, x0), mtl_losses(problem, final_x)
    if not np.allclose(problem.eval(final_x), end, rtol=1e-12, atol=1e-14):
        errors.append(f"problem.eval(final_x) {problem.eval(final_x)} != reference {end}")
    if not np.all(end < start):
        errors.append(f"final full-data losses {end} not below start {start}")
    return errors


def verify_guarded_steps(problem, params, record, stacks, batches, alpha, tol=1e-9) -> list[str]:
    """Recompute every step of a guarded run from its gradient stacks and guard batches.

    ml2o_direction must match the reference forward; each iterate must be the
    chosen candidate; the recorded increases, the argmin and the guard
    inequality are checked against reference losses on the step's batch.
    """
    errors = []
    state = ml2o.init_state(params.m, params.hidden, problem.dim)
    ref_state = refs.ml2o_init_state(params.m, params.hidden, problem.dim)
    z = record.iterates
    for k, (y, idx, d, row) in enumerate(zip(stacks, batches, record.meta["decisions"],
                                             record.rows, strict=True), start=1):
        g, state = ml2o.ml2o_direction(y, state, params)
        g_ref, ref_state = refs.ml2o_forward(y, ref_state, params.arrays)
        if not np.allclose(g, g_ref, rtol=1e-9, atol=1e-12):
            errors.append(f"step {k}: ml2o_direction differs from the reference forward "
                          f"by {np.max(np.abs(g - g_ref)):.3g}")
        cands = {"learned": z[k - 1] - alpha * g_ref,
                 "fallback": z[k - 1] - alpha * (y.T @ refs.min_norm_2obj(y))}
        f_z = mtl_losses(problem, z[k - 1], idx)
        deltas = {c: float(np.max(mtl_losses(problem, x, idx) - f_z)) for c, x in cands.items()}
        if abs(deltas["fallback"] - d.fallback_delta) > tol or abs(deltas["learned"] - d.learned_delta) > tol:
            errors.append(f"step {k}: recorded increases ({d.fallback_delta}, {d.learned_delta}) "
                          f"!= reference ({deltas['fallback']}, {deltas['learned']})")
        if not np.allclose(z[k], cands[d.chosen], rtol=0.0, atol=1e-8):
            errors.append(f"step {k}: iterate is not the {d.chosen} candidate")
        f_next = mtl_losses(problem, z[k], idx)
        if not np.allclose(row.losses, f_next, rtol=1e-12, atol=1e-14):
            errors.append(f"step {k}: row losses {row.losses} != reference {f_next}")
        if float(np.max(f_next - f_z)) > deltas["fallback"] + tol:
            errors.append(f"step {k}: guard inequality fails")
    return errors


def replay_guarded_run(problem, params, x0, seed, steps, alpha, guard_batch):
    """Run guarded_run keeping iterates, recording each step's gradient stack and guard batch."""
    stacks, batches = [], []

    def recording(fn, sink):
        def call(*args, **kwargs):
            sink.append(np.array(fn(*args, **kwargs), copy=True))
            return sink[-1]
        return call

    problem.averaged_gradient = recording(problem.averaged_gradient, stacks)
    problem.sample_batch_indices = recording(problem.sample_batch_indices, batches)
    try:
        record = guarded_run(problem, params, x0, seed, steps, alpha, guard_batch, keep_iterates=True)
    finally:
        del problem.averaged_gradient, problem.sample_batch_indices
    return record, stacks, batches


class GuardedMtl(Workload):
    name = "guarded_mtl"
    work_metric = "guarded_steps_per_s"
    work_unit = "steps/s"

    def setup(self):
        self.problem = problems.make_toy_mtl(seed=self.seed)
        p0 = ml2o.init_params(2, GUARD["hidden"], self.seed)
        trained, _ = ml2o.meta_train(
            quadratic_sampler, p0, steps=TRAIN["steps"], window=TRAIN["window"],
            meta_lr=TRAIN["meta_lr"], epochs=GUARD["train_epochs"], seed=self.seed,
            alpha=TRAIN["alpha"])
        path = os.path.join(self.out_dir, "h20_checkpoint.json")
        ml2o.save_checkpoint(trained, path)
        t0 = time.perf_counter()
        self.params = ml2o.load_checkpoint(path)
        self.load_checkpoint_ms = 1e3 * (time.perf_counter() - t0)
        self.x0 = self.problem.initial_point(member_rng(self.seed, 0, PURPOSE_INIT))
        guarded_run(self.problem, self.params, self.x0, self.seed, 2, GUARD["alpha"], GUARD["guard_batch"])
        self.first = None

    def round(self, i):
        record = guarded_run(self.problem, self.params, self.x0, self.seed, GUARD["steps"],
                             GUARD["alpha"], GUARD["guard_batch"])
        return Round(1, 0, GUARD["steps"], record)

    def check_round(self, i, rnd):
        record = rnd.output
        if self.first is None:
            self.first = record
            return check_guarded_record(self.problem, record, self.x0)
        same = (np.array_equal(record.meta["final_x"], self.first.meta["final_x"])
                and [r.guard_choice for r in record.rows] == [r.guard_choice for r in self.first.rows])
        return [] if same else [f"round {i}: differs from round 0 on identical inputs"]

    def final_check(self):
        if self.first is None:
            return ["no guarded run completed"]
        record, stacks, batches = replay_guarded_run(
            self.problem, self.params, self.x0, self.seed, GUARD["steps"], GUARD["alpha"],
            GUARD["guard_batch"])
        errors = []
        if not np.array_equal(record.meta["final_x"], self.first.meta["final_x"]):
            errors.append("the replayed run differs from the timed rounds")
        return errors + verify_guarded_steps(self.problem, self.params, record, stacks, batches,
                                             GUARD["alpha"])


# --- minnorm_kernel -----------------------------------------------------------

BATTERY_SEED = 231100559  # fixed: the non-converging instances must not depend on --seed
BATTERY_SIZE = 1000


def minnorm_battery(size=BATTERY_SIZE):
    """Criterion-2 style instances: M in 2..5 rows, N in 1..9 columns, N(0, 1) entries."""
    rng = np.random.default_rng(BATTERY_SEED)
    out = []
    for _ in range(size):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 10))
        out.append(rng.normal(size=(m, n)))
    return out


def check_min_norm(w, sol, tol) -> list[str]:
    m = w.shape[0]
    lam = sol.weights
    if lam.shape != (m,) or lam.min() < 0.0 or abs(lam.sum() - 1.0) > 1e-12:
        return [f"weights {lam} are not on the simplex"]
    errors = []
    comb = w.T @ lam
    scale = 1.0 + float(np.abs(w @ w.T).max())
    if not np.allclose(sol.combined, comb, rtol=1e-12, atol=1e-14) or not np.array_equal(
            sol.descent_direction, -sol.combined):
        errors.append("combined / descent_direction is not W' lam / its negation")
    if abs(sol.dual_norm_sq - float(comb @ comb)) > 1e-12 * scale:
        errors.append(f"dual_norm_sq {sol.dual_norm_sq} != |W' lam|^2 {float(comb @ comb)}")
    if sol.converged:
        gap = refs.simplex_gap(w, lam)
        if gap > tol + 1e-12 * scale:
            errors.append(f"reports converged with gap {gap:.3g} > tol {tol:g}")
        if np.any(w @ sol.descent_direction > -sol.dual_norm_sq + 10 * tol):
            errors.append("descent inequality fails")
        if m == 2:
            cf = w.T @ refs.min_norm_2obj(w)
            if abs(sol.dual_norm_sq - float(cf @ cf)) > 1e-9:
                errors.append(f"M=2 dual norm {sol.dual_norm_sq} != closed form {float(cf @ cf)}")
    return errors


class MinnormKernel(Workload):
    name = "minnorm_kernel"
    work_metric = "minnorm_solves_per_s"
    work_unit = "solves/s"
    tol = 1e-10

    def setup(self):
        battery = minnorm_battery()
        self.order = np.random.default_rng(self.seed).permutation(len(battery))
        self.ws = [battery[j] for j in self.order]
        for w in self.ws[:20]:
            minnorm.solve_min_norm(w, tol=self.tol)
        self.nonconverged = None

    def round(self, i):
        sols = [minnorm.solve_min_norm(w, tol=self.tol) for w in self.ws]
        failed = sum(not s.converged for s in sols)
        return Round(len(sols), failed, len(sols), sols)

    def check_round(self, i, rnd):
        errors = []
        for j, (w, sol) in enumerate(zip(self.ws, rnd.output)):
            errors += [f"instance {self.order[j]}: {e}" for e in check_min_norm(w, sol, self.tol)]
        missed = {int(self.order[j]) for j, s in enumerate(rnd.output) if not s.converged}
        if self.nonconverged is None:
            self.nonconverged = missed
        elif missed != self.nonconverged:
            errors.append(f"round {i}: a different set of instances failed to converge")
        return errors


WORKLOADS = {w.name: w for w in (PopulationFront, MetaTrain, GuardedMtl, MinnormKernel)}
