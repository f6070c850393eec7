"""Hand-designed multi-objective optimizers and the one run driver.

Every optimizer is a population step: ``step(problem, xs, k, alpha, rngs,
memory, ...)`` moves every row of the iterates ``xs`` (P, N), all at
iteration ``k`` with step size ``alpha``, and returns ``(xs_new, norms,
n_samples, converged)``: the new iterates, each row's direction norm, the
draw count of the step (None for exact gradients) and each row's min-norm
solve flag. Row p draws from ``rngs[p]`` only and keeps its optimizer state
(momentum, tracking variables, recurrent state) in ``memory``, a dict the
driver owns for one run. A step's keyword-only parameters are its config
hyperparameters. ``run_population`` drives a step and records one trace per
row; ``run_steps`` is its one-row case.

MGDA and its stochastic counterparts step along the min-norm common-descent
direction; the dynamic-sampling variant averages a growing number of
gradient draws per iteration. Momentum-tracking, composite-weights and
scalarized single-objective baselines complete the hand-designed family.
Every dot product is a stacked matmul, which equals the per-row product bit
for bit, so a row's trace does not depend on the population it runs in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .minnorm import solve_min_norm_many
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


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``d`` (P, N), each equal to ``np.linalg.norm(d[p])``."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def descend(xs, alpha, d, n=1, converged=None):
    """The step ``xs - alpha * d`` along directions ``d`` (P, N), as a step function returns it.

    ``converged`` defaults to all True, for steps that make no min-norm solve.
    """
    if converged is None:
        converged = np.ones(len(xs), dtype=bool)
    return xs - alpha * d, row_norms(d), n, converged


def _min_norm_descend(xs, alpha, grads, n):
    """x + alpha * descent_direction, i.e. x - alpha * combined, at every row."""
    sol = solve_min_norm_many(grads)
    return descend(xs, alpha, sol.combined, n, sol.converged)


def mgda_step(problem, xs, k, alpha, rngs, memory):
    """Deterministic min-norm step on the exact Jacobians."""
    return _min_norm_descend(xs, alpha, problem.jacobian_many(xs), None)


def smg_step(problem, xs, k, alpha, rngs, memory):
    """Min-norm step on a single stochastic gradient draw."""
    return _min_norm_descend(xs, alpha, problem.averaged_gradient_many(xs, 1, rngs), 1)


def dssmg_step(problem, xs, k, alpha, rngs, memory, samples: SampleSchedule):
    """Min-norm step on the mean of N_k stochastic gradient draws."""
    n = sample_size(k, samples)
    return _min_norm_descend(xs, alpha, problem.averaged_gradient_many(xs, n, rngs), n)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of a (..., M) stack onto the simplex (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    m = v.shape[-1]
    cond = u - css / np.arange(1, m + 1) > 0
    rho = m - 1 - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)  # last index where cond holds
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def moco_like_step(problem, xs, k, alpha, rngs, memory, *, beta: float = 0.5,
                   gamma: float = 0.1, rho: float = 1e-8, track_bound: float = 1e3):
    """Momentum-tracking step: blend fresh draws into per-objective tracking
    variables, take a projected simplex-weight gradient step, move along the
    weighted tracked direction."""
    g = problem.averaged_gradient_many(xs, 1, rngs)
    m = g.shape[1]
    y = memory.get("y", np.zeros_like(g))
    lam = memory.get("lam", np.full(g.shape[:2], 1.0 / m))
    y = np.clip(beta * g + (1.0 - beta) * y, -track_bound, track_bound)
    gram = y @ y.transpose(0, 2, 1)
    lam = lam - gamma * ((gram + rho * np.eye(m)) @ lam[:, :, None])[:, :, 0]
    lam = project_simplex(lam)
    memory["y"], memory["lam"] = y, lam
    return descend(xs, alpha, (y.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0])


def composite_weight_step(problem, xs, k, alpha, rngs, memory, *, beta: float = 0.5):
    """Exponentially average past simplex weights with the fresh min-norm ones."""
    g = problem.averaged_gradient_many(xs, 1, rngs)
    sol = solve_min_norm_many(g)
    lam = memory.get("lam", np.full(sol.weights.shape, 1.0 / g.shape[1]))
    lam = beta * lam + (1.0 - beta) * sol.weights
    memory["lam"] = lam
    d = (g.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0]
    return descend(xs, alpha, d, 1, sol.converged)


# Scalarized baselines: single-objective updates on the mean loss (1/M) sum_i f_i.


def _mean_gradient(problem, xs, rngs):
    return problem.averaged_gradient_many(xs, 1, rngs).mean(axis=1)


def sgd_step(problem, xs, k, alpha, rngs, memory):
    """Gradient descent on the mean loss."""
    return descend(xs, alpha, _mean_gradient(problem, xs, rngs))


def momentum_step(problem, xs, k, alpha, rngs, memory, *, momentum: float = 0.9):
    """Heavy-ball momentum on the mean loss."""
    g = _mean_gradient(problem, xs, rngs)
    v = momentum * memory.get("v", np.zeros_like(g)) + g
    memory["v"] = v
    return descend(xs, alpha, v)


def adam_step(problem, xs, k, alpha, rngs, memory, *, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """Adam on the mean loss, with bias-corrected moments."""
    g = _mean_gradient(problem, xs, rngs)
    m1 = beta1 * memory.get("m", np.zeros_like(g)) + (1.0 - beta1) * g
    v2 = beta2 * memory.get("v", np.zeros_like(g)) + (1.0 - beta2) * g * g
    memory["m"], memory["v"] = m1, v2
    mhat = m1 / (1.0 - beta1**k)
    vhat = v2 / (1.0 - beta2**k)
    return descend(xs, alpha, mhat / (np.sqrt(vhat) + eps))


def rmsprop_step(problem, xs, k, alpha, rngs, memory, *, rms_decay: float = 0.99,
                 eps: float = 1e-8):
    """RMSProp on the mean loss."""
    g = _mean_gradient(problem, xs, rngs)
    s = rms_decay * memory.get("s", np.zeros_like(g)) + (1.0 - rms_decay) * g * g
    memory["s"] = s
    return descend(xs, alpha, g / (np.sqrt(s) + eps))


def adadelta_step(problem, xs, k, alpha, rngs, memory, *, ada_decay: float = 0.9,
                  eps: float = 1e-8):
    """Adadelta on the mean loss."""
    g = _mean_gradient(problem, xs, rngs)
    ed = memory.get("ed", np.zeros_like(g))
    eg = ada_decay * memory.get("eg", np.zeros_like(g)) + (1.0 - ada_decay) * g * g
    delta = np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
    memory["eg"], memory["ed"] = eg, ada_decay * ed + (1.0 - ada_decay) * delta * delta
    return descend(xs, alpha, delta)


StepFn = Callable[..., tuple]


def run_population(
    problem,
    step: StepFn,
    xs0: np.ndarray,
    steps: int,
    schedule: StepSchedule,
    rngs: list[np.random.Generator] | None = None,
    keep_iterates: bool = False,
) -> list[RunRecord]:
    """Run ``steps`` iterations of ``step`` from every row of ``xs0`` (P, N).

    Returns one record per row. Each row of step k holds the losses at the
    new iterate: the driver evaluates them with one ``eval_many`` per step,
    except for a guarded step, which returns three more things, ``(losses,
    decisions, evals)``: the losses it already computed for its chosen
    points, one ``GuardDecision`` per row (kept in ``meta["decisions"]``)
    and the number of evaluations per row it made. ``meta["eval_count"]``
    counts evaluations per run and ``meta["nonconverged_solves"]`` the steps
    whose min-norm solve reported ``converged=False``. Every member's row of
    step k holds the wall time of the whole population step k.
    """
    xs = np.array(xs0, dtype=np.float64)
    records = [RunRecord(meta={"eval_count": 0, "nonconverged_solves": 0}) for _ in xs]
    if keep_iterates:
        for record, x in zip(records, xs):
            record.iterates.append(x.copy())
    memory: dict = {}
    nonconverged = np.zeros(len(xs), dtype=np.int64)
    evals = 0
    for k in range(1, steps + 1):
        t0 = time.perf_counter()
        alpha = schedule.at(k)
        xs, norms, n, converged, *guarded = step(problem, xs, k, alpha, rngs, memory)
        if guarded:
            losses, decisions, step_evals = guarded
            choices = [d.chosen for d in decisions]
            for record, decision in zip(records, decisions):
                record.meta.setdefault("decisions", []).append(decision)
        else:
            losses, choices, step_evals = problem.eval_many(xs), [None] * len(xs), 1
        evals += step_evals
        nonconverged += ~converged
        wall = time.perf_counter() - t0
        for record, f, norm, choice in zip(records, losses, norms.tolist(), choices):
            record.rows.append(StepRow(k, f, norm, alpha, n, choice, wall))
        if keep_iterates:
            for record, x in zip(records, xs):
                record.iterates.append(x.copy())
    for record, x, bad in zip(records, xs, nonconverged.tolist()):
        record.meta.update(eval_count=evals, nonconverged_solves=bad, final_x=x.copy())
    return records


def run_steps(
    problem,
    step: StepFn,
    x0: np.ndarray,
    steps: int,
    schedule: StepSchedule,
    rng: np.random.Generator | None = None,
    keep_iterates: bool = True,
) -> RunRecord:
    """One run of ``step`` from ``x0``: :func:`run_population` with one row."""
    xs0 = np.asarray(x0, dtype=np.float64)[None]
    return run_population(problem, step, xs0, steps, schedule, [rng], keep_iterates)[0]
