"""Hand-designed multi-objective optimizers.

MGDA and its stochastic counterparts step along the min-norm common-descent
direction; the dynamic-sampling variant averages a growing number of
gradient draws per iteration. Momentum-tracking, composite-weights and
scalarized single-objective baselines share the same step interface: every
step function is pure in (state, rng) and returns ``(new_state, StepInfo)``.
The min-norm step is written once, for a whole population of points
(``min_norm_step_many``, driven by ``run_population``); ``mgda_step``,
``smg_step`` and ``dssmg_step`` are its one-point case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .minnorm import solve_min_norm, solve_min_norm_many
from .trace import RunRecord, StepRow


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes: constant alpha, harmonic 1/k, or scaled-harmonic c/k."""

    kind: str = "constant"
    alpha: float = 0.01

    KINDS = ("constant", "harmonic", "scaled_harmonic")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown step schedule {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def at(self, k: int) -> float:
        if self.kind == "constant":
            return self.alpha
        if self.kind == "harmonic":
            return 1.0 / k
        return self.alpha / k


@dataclass(frozen=True)
class SampleSchedule:
    """Per-iteration draw count N_k = max(N_B, ceil(k^q))."""

    n_base: int = 1
    q: float = 0.1

    def __post_init__(self):
        if self.n_base < 1:
            raise ValueError("n_base must be >= 1")
        if self.q <= 0:
            raise ValueError("q must be positive")


def sample_size(k: int, schedule: SampleSchedule) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(schedule.n_base, math.ceil(k**schedule.q))


@dataclass
class OptimizerState:
    x: np.ndarray
    k: int = 1
    memory: dict[str, Any] = field(default_factory=dict)


@dataclass
class StepInfo:
    direction: np.ndarray  # update direction d; the step applied is -alpha * d
    alpha: float
    n_samples: int | None = None
    solver_converged: bool | None = None


def _advance(state: OptimizerState, x_new: np.ndarray, **memory) -> OptimizerState:
    mem = dict(state.memory)
    mem.update(memory)
    return OptimizerState(x=x_new, k=state.k + 1, memory=mem)


MIN_NORM_METHODS = ("mgda", "smg", "dssmg")


def min_norm_step_many(
    problem,
    method: str,
    xs: np.ndarray,
    k: int,
    schedule: StepSchedule,
    rngs: list[np.random.Generator] | None = None,
    samples: SampleSchedule | None = None,
):
    """One min-norm step from every row of ``xs`` (P, N), all at iteration ``k``.

    ``mgda`` uses the exact Jacobians, ``smg`` one gradient draw and
    ``dssmg`` the mean of N_k draws; row p draws from ``rngs[p]`` only.
    Returns ``(xs_new, solution, n_samples)``, where ``xs_new`` is
    ``xs + alpha * descent_direction`` and the solution's fields carry a
    leading P axis.
    """
    if method == "mgda":
        n, grads = None, problem.jacobian_many(xs)
    elif method in ("smg", "dssmg"):
        n = 1 if method == "smg" else sample_size(k, samples)
        grads = problem.averaged_gradient_many(xs, n, rngs)
    else:
        raise ValueError(f"unknown min-norm method {method!r}; choose from {MIN_NORM_METHODS}")
    sol = solve_min_norm_many(grads)
    return xs + schedule.at(k) * sol.descent_direction, sol, n


def _min_norm_step(problem, method, state: OptimizerState, schedule, rng=None, samples=None):
    rngs = None if rng is None else [rng]
    xs, sol, n = min_norm_step_many(problem, method, state.x[None], state.k, schedule, rngs, samples)
    info = StepInfo(
        sol.combined[0], schedule.at(state.k), n_samples=n, solver_converged=bool(sol.converged[0])
    )
    return _advance(state, xs[0]), info


def mgda_step(problem, state: OptimizerState, schedule: StepSchedule):
    """Deterministic min-norm step on the exact Jacobian."""
    return _min_norm_step(problem, "mgda", state, schedule)


def smg_step(problem, state: OptimizerState, schedule: StepSchedule, rng: np.random.Generator):
    """Min-norm step on a single stochastic gradient draw."""
    return _min_norm_step(problem, "smg", state, schedule, rng)


def dssmg_step(
    problem,
    state: OptimizerState,
    schedule: StepSchedule,
    samples: SampleSchedule,
    rng: np.random.Generator,
):
    """Min-norm step on the mean of N_k stochastic gradient draws."""
    return _min_norm_step(problem, "dssmg", state, schedule, rng, samples)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def moco_like_step(
    problem,
    state: OptimizerState,
    schedule: StepSchedule,
    rng: np.random.Generator,
    beta: float = 0.5,
    gamma: float = 0.1,
    rho: float = 1e-8,
    track_bound: float = 1e3,
):
    """Momentum-tracking step: blend fresh draws into per-objective tracking
    variables, take a projected simplex-weight gradient step, move along the
    weighted tracked direction."""
    m = problem.objectives
    y = state.memory.get("moco_y")
    lam = state.memory.get("moco_lam")
    if y is None:
        y = np.zeros((m, problem.dim))
        lam = np.full(m, 1.0 / m)
    g = problem.sample_gradient(state.x, rng)
    y = np.clip(beta * g + (1.0 - beta) * y, -track_bound, track_bound)
    gram = y @ y.T
    lam = project_simplex(lam - gamma * ((gram + rho * np.eye(m)) @ lam))
    d = y.T @ lam
    alpha = schedule.at(state.k)
    info = StepInfo(d, alpha, n_samples=1)
    return _advance(state, state.x - alpha * d, moco_y=y, moco_lam=lam), info


def composite_weight_step(
    problem,
    state: OptimizerState,
    schedule: StepSchedule,
    rng: np.random.Generator,
    beta: float = 0.5,
):
    """Exponentially average past simplex weights with the fresh min-norm ones."""
    m = problem.objectives
    lam_prev = state.memory.get("cw_lam")
    if lam_prev is None:
        lam_prev = np.full(m, 1.0 / m)
    g = problem.sample_gradient(state.x, rng)
    sol = solve_min_norm(g)
    lam = beta * lam_prev + (1.0 - beta) * sol.weights
    d = g.T @ lam
    alpha = schedule.at(state.k)
    info = StepInfo(d, alpha, n_samples=1, solver_converged=sol.converged)
    return _advance(state, state.x - alpha * d, cw_lam=lam), info


SCALARIZED_RULES = ("sgd", "momentum", "adam", "rmsprop", "adadelta")


def scalarized_step(
    problem,
    state: OptimizerState,
    schedule: StepSchedule,
    rng: np.random.Generator,
    rule: str = "sgd",
    momentum: float = 0.9,
    beta1: float = 0.9,
    beta2: float = 0.999,
    rms_decay: float = 0.99,
    ada_decay: float = 0.9,
    eps: float = 1e-8,
):
    """Single-objective update on the mean loss (1/M) sum_i f_i."""
    if rule not in SCALARIZED_RULES:
        raise ValueError(f"unknown scalarized rule {rule!r}; choose from {SCALARIZED_RULES}")
    g = problem.sample_gradient(state.x, rng).mean(axis=0)
    alpha = schedule.at(state.k)
    mem = {}
    if rule == "sgd":
        d = g
    elif rule == "momentum":
        v = state.memory.get("sc_v", np.zeros_like(g))
        v = momentum * v + g
        d = v
        mem["sc_v"] = v
    elif rule == "adam":
        m1 = state.memory.get("sc_m", np.zeros_like(g))
        v2 = state.memory.get("sc_v2", np.zeros_like(g))
        m1 = beta1 * m1 + (1.0 - beta1) * g
        v2 = beta2 * v2 + (1.0 - beta2) * g * g
        mhat = m1 / (1.0 - beta1**state.k)
        vhat = v2 / (1.0 - beta2**state.k)
        d = mhat / (np.sqrt(vhat) + eps)
        mem["sc_m"], mem["sc_v2"] = m1, v2
    elif rule == "rmsprop":
        s = state.memory.get("sc_s", np.zeros_like(g))
        s = rms_decay * s + (1.0 - rms_decay) * g * g
        d = g / (np.sqrt(s) + eps)
        mem["sc_s"] = s
    else:  # adadelta
        eg = state.memory.get("sc_eg", np.zeros_like(g))
        ed = state.memory.get("sc_ed", np.zeros_like(g))
        eg = ada_decay * eg + (1.0 - ada_decay) * g * g
        delta = np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed = ada_decay * ed + (1.0 - ada_decay) * delta * delta
        d = delta
        mem["sc_eg"], mem["sc_ed"] = eg, ed
    info = StepInfo(d, alpha, n_samples=1)
    return _advance(state, state.x - alpha * d, **mem), info


StepFn = Callable[[OptimizerState, np.random.Generator], tuple[OptimizerState, StepInfo]]


def run_steps(
    problem,
    step_fn: StepFn,
    x0: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    keep_iterates: bool = True,
) -> RunRecord:
    """Drive a step function for ``steps`` iterations, recording the trace.

    Each row holds the losses at the new iterate, so the driver performs one
    vector evaluation per step. ``meta["nonconverged_solves"]`` counts the
    steps whose min-norm solve reported ``converged=False``.
    """
    state = OptimizerState(x=np.asarray(x0, dtype=np.float64).copy())
    record = RunRecord(meta={"eval_count": 0, "nonconverged_solves": 0})
    if keep_iterates:
        record.iterates.append(state.x.copy())
    for _ in range(steps):
        t0 = time.perf_counter()
        state, info = step_fn(state, rng)
        losses = problem.eval(state.x)
        record.meta["eval_count"] += 1
        record.meta["nonconverged_solves"] += info.solver_converged is False
        record.rows.append(
            StepRow(
                k=state.k - 1,
                losses=losses,
                direction_norm=float(np.linalg.norm(info.direction)),
                alpha=info.alpha,
                n_samples=info.n_samples,
                wall_time=time.perf_counter() - t0,
            )
        )
        if keep_iterates:
            record.iterates.append(state.x.copy())
    record.meta["final_x"] = state.x.copy()
    return record


def run_population(
    problem,
    method: str,
    xs0: np.ndarray,
    steps: int,
    schedule: StepSchedule,
    rngs: list[np.random.Generator] | None = None,
    samples: SampleSchedule | None = None,
) -> list[RunRecord]:
    """Run ``steps`` min-norm steps from every row of ``xs0`` (P, N) as one array.

    Row p gets the record ``run_steps`` gives the same method from ``xs0[p]``
    with ``rngs[p]`` (``keep_iterates=False``), bit for bit, except for
    ``wall_time``: every member's row of step k holds the wall time of the
    whole population step k.
    """
    xs = np.array(xs0, dtype=np.float64)
    pop = len(xs)
    records = [RunRecord(meta={"eval_count": steps}) for _ in range(pop)]
    nonconverged = np.zeros(pop, dtype=np.int64)
    for k in range(1, steps + 1):
        t0 = time.perf_counter()
        xs, sol, n = min_norm_step_many(problem, method, xs, k, schedule, rngs, samples)
        losses = problem.eval_many(xs)
        c = sol.combined
        norms = np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0]).tolist()
        nonconverged += ~sol.converged
        alpha = schedule.at(k)
        wall = time.perf_counter() - t0
        for record, f, norm in zip(records, losses, norms):
            record.rows.append(StepRow(k, f, norm, alpha, n, wall_time=wall))
    for record, x, bad in zip(records, xs, nonconverged.tolist()):
        record.meta["nonconverged_solves"] = bad
        record.meta["final_x"] = x.copy()
    return records
