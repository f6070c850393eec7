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

import functools
from dataclasses import dataclass

import numpy as np

from .minnorm import solve_min_norm_many
from .ml2o import Ml2oParams, check_compatible, learned_directions
from .optimizers import SampleSchedule, StepSchedule, row_norms, run_steps, sample_size
from .trace import RunRecord


@dataclass
class GuardDecision:
    chosen: str  # "fallback" or "learned"
    fallback_delta: float
    learned_delta: float


def guard_select(z, cand_fallback, cand_learned, evaluator, f_z=None):
    """Pick the candidate with the smaller worst-objective increase over f(z).

    Returns ``(decision, z_next, f_chosen)``. ``f_z`` may carry a cached
    evaluation of the base point; the two candidate evaluations are always
    fresh. The learned candidate wins only when its increase is strictly
    smaller, so ties and non-finite losses go to the fallback.
    """
    if f_z is None:
        f_z = np.asarray(evaluator(z), dtype=np.float64)
    f_fb = np.asarray(evaluator(cand_fallback), dtype=np.float64)
    f_ln = np.asarray(evaluator(cand_learned), dtype=np.float64)
    fb_delta = float(np.max(f_fb - f_z))
    ln_delta = float(np.max(f_ln - f_z))
    if ln_delta < fb_delta:
        return GuardDecision("learned", fb_delta, ln_delta), cand_learned, f_ln
    return GuardDecision("fallback", fb_delta, ln_delta), cand_fallback, f_fb


def _guarded_loop(problem, xs, k, alpha, rngs, memory, model: Ml2oParams,
                  samples: SampleSchedule | None = None, guard_rngs=None, *,
                  guard_batch: int = 512):
    """The guarded population step (the ``gml2o`` optimizer), one ``guard_select`` per row.

    The gradient stacks are the mean of N_k draws under ``samples``, or the
    exact Jacobians without it; each row's stack is shared by its two
    candidates. With ``guard_rngs`` on a problem with mini-batch evaluation,
    row p compares losses on a fresh batch from ``guard_rngs[p]`` each step
    (base point included: three evaluations); otherwise it compares exact
    losses with the base value carried from the previous step (two, plus
    one on the first step). Returns the step-function tuple plus ``(losses,
    decisions, evals)``: the chosen points' losses, one
    :class:`GuardDecision` per row and the evaluations per row.
    """
    check_compatible(model, problem)
    if samples is None:
        grads, n = problem.jacobian_many(xs), None
    else:
        n = sample_size(k, samples)
        grads = problem.averaged_gradient_many(xs, n, rngs)
    learned = xs - alpha * learned_directions(grads, memory, model)

    if guard_rngs is not None and hasattr(problem, "eval_batch"):
        evaluators = [
            functools.partial(problem.eval_batch, idx=problem.sample_batch_indices(guard_batch, rng))
            for rng in guard_rngs
        ]
        base = None
    else:
        evaluators = [problem.eval] * len(xs)
        base = memory.get("guard_losses")
    sol = solve_min_norm_many(grads)
    chosen, losses, decisions = [], [], []
    for p, evaluator in enumerate(evaluators):
        if base is None:
            f_z = np.asarray(evaluator(xs[p]), dtype=np.float64)
        else:
            f_z = base[p]
        decision, z_next, f_chosen = guard_select(
            xs[p], xs[p] + alpha * sol.descent_direction[p], learned[p], evaluator, f_z=f_z
        )
        chosen_delta = float(np.max(f_chosen - f_z))
        if not chosen_delta <= decision.fallback_delta:
            raise AssertionError(
                f"guard invariant violated at k={k}: "
                f"{chosen_delta} > {decision.fallback_delta}"
            )
        chosen.append(z_next)
        losses.append(f_chosen)
        decisions.append(decision)
    memory["guard_losses"] = losses
    evals = 2 if base is not None else 3
    return np.array(chosen), row_norms(sol.combined), n, sol.converged, losses, decisions, evals


def gml2o_det_step(problem, xs, k, alpha, rngs, memory, model: Ml2oParams):
    """The ``gml2o_det`` population step: exact Jacobians and exact losses."""
    return _guarded_loop(problem, xs, k, alpha, rngs, memory, model)


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
    if hasattr(problem, "eval_batch") and guard_rng is None:
        raise ValueError("guard_rng is required for mini-batch guard evaluation")
    step = functools.partial(
        _guarded_loop,
        model=params,
        samples=samples,
        guard_rngs=None if guard_rng is None else [guard_rng],
        guard_batch=guard_batch,
    )
    return run_steps(problem, step, x0, steps, schedule, draws_rng, keep_iterates)


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
    step = functools.partial(gml2o_det_step, model=params)
    schedule = StepSchedule("constant", alpha)
    return run_steps(problem, step, x0, steps, schedule, None, keep_iterates)
