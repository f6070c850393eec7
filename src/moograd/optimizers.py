"""Hand-designed multi-objective optimizers.

MGDA and its stochastic counterparts step along the min-norm common-descent
direction; the dynamic-sampling variant averages a growing number of
gradient draws per iteration. Momentum-tracking, composite-weights and
scalarized single-objective baselines share the same step interface: every
step function is pure in (state, rng) and returns ``(new_state, StepInfo)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .minnorm import solve_min_norm
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


def _min_norm_step(state: OptimizerState, grads: np.ndarray, alpha: float, n: int | None):
    sol = solve_min_norm(grads)
    x_new = state.x + alpha * sol.descent_direction
    info = StepInfo(sol.combined, alpha, n_samples=n, solver_converged=sol.converged)
    return _advance(state, x_new), info


def mgda_step(problem, state: OptimizerState, schedule: StepSchedule):
    """Deterministic min-norm step on the exact Jacobian."""
    return _min_norm_step(state, problem.full_jacobian(state.x), schedule.at(state.k), None)


def smg_step(problem, state: OptimizerState, schedule: StepSchedule, rng: np.random.Generator):
    """Min-norm step on a single stochastic gradient draw."""
    return _min_norm_step(state, problem.sample_gradient(state.x, rng), schedule.at(state.k), 1)


def dssmg_step(
    problem,
    state: OptimizerState,
    schedule: StepSchedule,
    samples: SampleSchedule,
    rng: np.random.Generator,
):
    """Min-norm step on the mean of N_k stochastic gradient draws."""
    n = sample_size(state.k, samples)
    grads = problem.averaged_gradient(state.x, n, rng)
    return _min_norm_step(state, grads, schedule.at(state.k), n)


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
