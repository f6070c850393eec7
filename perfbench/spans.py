"""Span tracing around the public calls of each moograd layer.

``Tracer.install`` replaces each traced function with a wrapper in every
``moograd`` module namespace that holds it (modules import each other's
functions by name) and on the classes that define traced methods;
``uninstall`` puts the originals back. A span's self time is its duration
minus the time of the traced spans it encloses. Spans are aggregated per
name in memory: call count, total and self seconds, and, for a few names,
every duration so that medians can be taken.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

from moograd import autodiff, guard, harness, metrics, minnorm, ml2o, optimizers, problems

# (owner, attribute, span name); owner is a module or a class.
TRACED = [
    (minnorm, "solve_min_norm", "minnorm.solve"),
    (problems.MooProblem, "averaged_gradient", "problems.averaged_gradient"),
    (problems.QuadraticPair, "averaged_gradient", "problems.averaged_gradient"),
    (problems.QuadraticPair, "sample_gradient", "problems.sample_gradient"),
    (problems.ToyMtlProblem, "sample_gradient", "problems.sample_gradient"),
    (problems.QuadraticPair, "full_jacobian", "problems.full_jacobian"),
    (problems.ToyMtlProblem, "full_jacobian", "problems.full_jacobian"),
    (problems.QuadraticPair, "eval", "problems.eval"),
    (problems.ToyMtlProblem, "eval", "problems.eval"),
    (problems.ToyMtlProblem, "eval_batch", "problems.eval_batch"),
    (problems.QuadraticPair, "eval_terms", "problems.eval_terms"),
    (autodiff, "backward", "autodiff.backward"),
    (ml2o, "ml2o_direction", "ml2o.direction"),
    (ml2o, "unroll_window", "ml2o.unroll_window"),
    (ml2o, "meta_train", "ml2o.meta_train"),
    (optimizers, "mgda_step", "optimizers.step"),
    (optimizers, "smg_step", "optimizers.step"),
    (optimizers, "dssmg_step", "optimizers.step"),
    (optimizers, "run_steps", "optimizers.run_steps"),
    (guard, "guard_select", "guard.select"),
    (guard, "_guarded_loop", "guard.loop"),
    (guard, "gml2o_run", "guard.gml2o_run"),
    (harness, "run_experiment", "harness.run_experiment"),
    (metrics, "extract_front", "metrics.extract_front"),
    (metrics, "hypervolume_2d", "metrics.hypervolume"),
]
SAMPLED = {"minnorm.solve", "ml2o.direction"}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.durations: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.counts: dict[str, float] = {}
        self._open: list[list] = []  # [name, child seconds] per active span
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, name, fn):
        spans, open_, durations = self.spans, self._open, self.durations.get(name)
        spans.setdefault(name, [0, 0.0, 0.0])
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            open_.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                open_.pop()
                if open_:
                    open_[-1][1] += dt
                row = spans[name]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if durations is not None:
                    durations.append(dt)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    # Counters read at the span boundary.
    def _on_minnorm_solve(self, args, kwargs, sol):
        self.add("minnorm.fw_iterations", sol.iterations)
        self.add("minnorm.nonconverged", 0 if sol.converged else 1)

    def _on_problems_averaged_gradient(self, args, kwargs, out):
        n = args[2] if len(args) > 2 else kwargs["n"]
        self.add("problems.gradient_draws", n)

    def _on_problems_sample_gradient(self, args, kwargs, out):
        # draws inside averaged_gradient are counted there
        if not self._open or self._open[-1][0] != "problems.averaged_gradient":
            self.add("problems.gradient_draws", 1)

    def _on_autodiff_backward(self, args, kwargs, out):
        tape = args[0] if args else kwargs["tape"]
        self.add("autodiff.tape_nodes", len(tape.nodes))

    def _on_metrics_extract_front(self, args, kwargs, front):
        self.add("metrics.front_points", len(front))

    def _on_guard_gml2o_run(self, args, kwargs, record):
        decisions = record.meta["decisions"]
        self.add("guard.learned_wins", sum(d.chosen == "learned" for d in decisions))
        self.add("guard.decisions", len(decisions))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "moograd" or n.startswith("moograd.")]
        for owner, attr, name in TRACED:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ms(self, *names: str) -> float:
        return 1e3 * sum(self.spans[n][2] for n in names if n in self.spans)

    def total_ms(self, *names: str) -> float:
        return 1e3 * sum(self.spans[n][1] for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def median_s(self, name: str) -> float:
        values = self.durations[name]
        return statistics.median(values) if values else 0.0

    def table(self) -> list[dict]:
        return [
            {"span": name, "calls": row[0], "total_ms": 1e3 * row[1], "self_ms": 1e3 * row[2]}
            for name, row in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
            if row[0]
        ]
