"""Guarded learned optimization: per-step selection against a convergent fallback.

Each iteration rebases both candidates at the current point z_k: the learned
update u = z - alpha * g and the fallback min-norm update x = z + alpha *
descent_direction, both computed from the same averaged gradient stack. The
candidate with the smaller worst-objective increase wins (ties go to the
fallback), which enforces
``max_i(f_i(z_{k+1}) - f_i(z_k)) <= max_i(f_i(x_{k+1}) - f_i(z_k))``
at every step by construction. The learned optimizer's recurrent state
advances regardless of the decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .minnorm import solve_min_norm
from .ml2o import Ml2oParams, check_compatible, init_state, ml2o_direction
from .optimizers import SampleSchedule, StepSchedule, sample_size
from .trace import RunRecord, StepRow


@dataclass
class GuardDecision:
    chosen: str  # "fallback" or "learned"
    fallback_delta: float
    learned_delta: float


def guard_select(z, cand_fallback, cand_learned, evaluator, f_z=None):
    """Pick the candidate with the smaller worst-objective increase over f(z).

    Returns ``(decision, z_next, f_chosen)``. ``f_z`` may carry a cached
    evaluation of the base point; the two candidate evaluations are always
    fresh.
    """
    if f_z is None:
        f_z = np.asarray(evaluator(z), dtype=np.float64)
    f_fb = np.asarray(evaluator(cand_fallback), dtype=np.float64)
    f_ln = np.asarray(evaluator(cand_learned), dtype=np.float64)
    fb_delta = float(np.max(f_fb - f_z))
    ln_delta = float(np.max(f_ln - f_z))
    if fb_delta <= ln_delta:
        return GuardDecision("fallback", fb_delta, ln_delta), cand_fallback, f_fb
    return GuardDecision("learned", fb_delta, ln_delta), cand_learned, f_ln


# sentinel: reuse the previous step's chosen losses as the base value
_REUSE = object()


def _guarded_loop(
    problem,
    params: Ml2oParams,
    schedule: StepSchedule,
    steps: int,
    x0: np.ndarray,
    grads_fn,
    evaluator_fn,
    keep_iterates: bool = True,
) -> RunRecord:
    """Common driver for the stochastic and deterministic guarded runs.

    ``grads_fn(k, z)`` returns ``(y_rows, n_samples)``; ``evaluator_fn(k)``
    returns ``(evaluator, f_z_cached)`` where ``f_z_cached`` is None when the
    base point must be re-evaluated under this step's yardstick.
    """
    check_compatible(params, problem)
    z = np.asarray(x0, dtype=np.float64).copy()
    state = init_state(params.m, params.hidden, problem.dim)
    record = RunRecord(meta={"eval_count": 0, "decisions": [], "nonconverged_solves": 0})
    if keep_iterates:
        record.iterates.append(z.copy())
    f_z_running = None
    for k in range(1, steps + 1):
        t0 = time.perf_counter()
        alpha = schedule.at(k)
        y_rows, n = grads_fn(k, z)
        g, state = ml2o_direction(y_rows, state, params)
        cand_learned = z - alpha * g
        sol = solve_min_norm(y_rows)
        record.meta["nonconverged_solves"] += not sol.converged
        cand_fallback = z + alpha * sol.descent_direction

        evaluator, f_z = evaluator_fn(k)
        if f_z is None:
            f_z = np.asarray(evaluator(z), dtype=np.float64)
            record.meta["eval_count"] += 1
        elif f_z is _REUSE:
            f_z = f_z_running
            if f_z is None:
                f_z = np.asarray(evaluator(z), dtype=np.float64)
                record.meta["eval_count"] += 1
        decision, z_next, f_chosen = guard_select(
            z, cand_fallback, cand_learned, evaluator, f_z=f_z
        )
        record.meta["eval_count"] += 2
        chosen_delta = float(np.max(f_chosen - f_z))
        if chosen_delta > decision.fallback_delta:
            raise AssertionError(
                f"guard invariant violated at k={k}: "
                f"{chosen_delta} > {decision.fallback_delta}"
            )
        record.meta["decisions"].append(decision)
        record.rows.append(
            StepRow(
                k=k,
                losses=f_chosen,
                direction_norm=float(np.linalg.norm(sol.combined)),
                alpha=alpha,
                n_samples=n,
                guard_choice=decision.chosen,
                wall_time=time.perf_counter() - t0,
            )
        )
        z = z_next
        f_z_running = f_chosen
        if keep_iterates:
            record.iterates.append(z.copy())
    record.meta["final_x"] = z.copy()
    return record


def gml2o_run(
    problem,
    params: Ml2oParams,
    schedule: StepSchedule,
    samples: SampleSchedule,
    steps: int,
    x0: np.ndarray,
    draws_rng: np.random.Generator,
    guard_rng: np.random.Generator | None = None,
    guard_batch: int = 512,
    keep_iterates: bool = True,
) -> RunRecord:
    """Guarded run with the dynamic-sampling stochastic fallback.

    The averaged gradient stack for step k is shared by both candidates. On
    problems with mini-batch evaluation the guard compares losses on a fresh
    per-step batch (shared by base point and both candidates); analytic
    problems use exact losses with the base value carried from the previous
    step, costing exactly one extra vector evaluation pair per step.

    Each row's ``direction_norm`` is the norm of the min-norm common-descent
    direction of the step's gradient stack, whichever candidate won. Both
    guarded runs record it: it is the criticality measure that criterion 11
    and ``test_deterministic_guard_converges_on_quadratic`` read from
    :func:`gml2o_deterministic_run`.
    """

    def grads_fn(k, z):
        n = sample_size(k, samples)
        return problem.averaged_gradient(z, n, draws_rng), n

    batched = hasattr(problem, "eval_batch")
    if batched and guard_rng is None:
        raise ValueError("guard_rng is required for mini-batch guard evaluation")

    def evaluator_fn(k):
        if batched:
            idx = problem.sample_batch_indices(guard_batch, guard_rng)
            return (lambda x: problem.eval_batch(x, idx)), None
        return problem.eval, _REUSE

    return _guarded_loop(problem, params, schedule, steps, x0, grads_fn, evaluator_fn, keep_iterates)


def gml2o_deterministic_run(
    problem,
    params: Ml2oParams,
    alpha: float,
    steps: int,
    x0: np.ndarray,
    keep_iterates: bool = True,
) -> RunRecord:
    """Guarded run with the exact-gradient min-norm fallback and constant step.

    ``direction_norm`` rows monitor the exact common-descent direction norm
    at each base point, the quantity driven to zero by the guard.
    """

    def grads_fn(k, z):
        return problem.full_jacobian(z), None

    def evaluator_fn(k):
        return problem.eval, _REUSE

    schedule = StepSchedule("constant", alpha)
    return _guarded_loop(problem, params, schedule, steps, x0, grads_fn, evaluator_fn, keep_iterates)
