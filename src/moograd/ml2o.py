"""Recurrent learned optimizer for multi-objective problems.

One LSTM cell per objective reads that objective's preprocessed gradient, a
shared LSTM (hidden width M * H) fuses the per-objective features, and a
linear head emits the update scalar. The network is applied coordinatewise:
cell parameters are shared across the N decision coordinates while each
coordinate carries its own recurrent state, so the parameter count is
independent of N.

Training minimizes the worst per-objective one-step increase,
``max_i(f_i(x_k) - f_i(x_{k-1}))``, averaged over truncation windows and
backpropagated through the unrolled update chain; the gradients fed to the
network are treated as constants, so no second-order terms appear.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tape, Var
from .optimizers import descend, sample_size

GATES = ("i", "f", "g", "o")
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


class MetaTrainDiverged(RuntimeError):
    pass


def cell_array_shapes(input_width: int, hidden_width: int) -> dict[str, tuple[int, int]]:
    shapes: dict[str, tuple[int, int]] = {}
    for gate in GATES:
        shapes[f"wx_{gate}"] = (input_width, hidden_width)
        shapes[f"wh_{gate}"] = (hidden_width, hidden_width)
        shapes[f"bx_{gate}"] = (1, hidden_width)
        shapes[f"bh_{gate}"] = (1, hidden_width)
    return shapes


def param_array_shapes(m: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Full parameter layout for an M-objective optimizer of width ``hidden``."""
    shapes: dict[str, tuple[int, int]] = {}
    for i in range(m):
        for name, shape in cell_array_shapes(2, hidden).items():
            shapes[f"specific{i}.{name}"] = shape
    for name, shape in cell_array_shapes(m * hidden, m * hidden).items():
        shapes[f"shared.{name}"] = shape
    shapes["head.w"] = (m * hidden, 1)
    shapes["head.b"] = (1, 1)
    return shapes


@dataclass
class Ml2oParams:
    m: int
    hidden: int
    arrays: dict[str, np.ndarray]

    def validate(self) -> None:
        shapes = param_array_shapes(self.m, self.hidden)
        if set(shapes) != set(self.arrays):
            missing = sorted(set(shapes) - set(self.arrays))
            extra = sorted(set(self.arrays) - set(shapes))
            raise ShapeError(f"parameter names mismatch: missing={missing} extra={extra}")
        for name, shape in shapes.items():
            if self.arrays[name].shape != shape:
                raise ShapeError(
                    f"array {name!r}: shape {self.arrays[name].shape} != expected {shape}"
                )

    def copy(self) -> "Ml2oParams":
        return Ml2oParams(self.m, self.hidden, {k: v.copy() for k, v in self.arrays.items()})


def init_params(m: int, hidden: int, seed: int, *, scale: float = 0.1) -> Ml2oParams:
    """Uniform U[-scale, scale] entries from a dedicated stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))
    arrays = {
        name: rng.uniform(-scale, scale, shape)
        for name, shape in param_array_shapes(m, hidden).items()
    }
    return Ml2oParams(m, hidden, arrays)


@dataclass
class Ml2oState:
    """Recurrent state, h then c: ``spec`` (2, M, N, H) of the M objective
    cells and ``shared`` (2, N, M * H) of the shared cell."""

    spec: object
    shared: object

    def detached(self) -> "Ml2oState":
        return Ml2oState(ad.value(self.spec), ad.value(self.shared))


def init_state(m: int, hidden: int, n_coords: int) -> Ml2oState:
    return Ml2oState(np.zeros((2, m, n_coords, hidden)), np.zeros((2, n_coords, m * hidden)))


def preprocess_gradient(g: np.ndarray, p: float = 10.0) -> np.ndarray:
    """Two-channel bounded encoding of a gradient vector or stack of them.

    Coordinates with |g| >= e^-p map to (log|g|/p, sign g); smaller ones to
    (-1, e^p * g). A (..., N) input gives a (..., N, 2) array of constants.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    g = np.asarray(g, dtype=np.float64)
    out = np.empty(g.shape + (2,))
    mag = np.abs(g)
    big = mag >= math.exp(-p)
    with np.errstate(divide="ignore"):
        out[..., 0] = np.where(big, np.log(np.maximum(mag, 1e-300)) / p, -1.0)
    out[..., 1] = np.where(big, np.sign(g), math.exp(p) * g)
    return out


def _fused_cell(arrays, prefix: str) -> tuple:
    """Stack one cell's per-gate arrays into the ``(wx, wh, b)`` of ``ad.lstm``.

    Built with taped ``concat``/``add`` when the arrays are Vars, so their
    gradients flow back to the per-gate parameters.
    """
    stack = lambda kind: ad.concat([arrays[f"{prefix}{kind}_{k}"] for k in ad.LSTM_GATES], axis=1)
    return stack("wx"), stack("wh"), ad.add(stack("bx"), stack("bh"))


def _fuse(arrays, m: int) -> tuple:
    """Fused cells and head of an M-objective optimizer, built once per window or call.

    The M objective cells are stacked on a leading axis into one ``ad.lstm``
    cell.
    """
    specific = [_fused_cell(arrays, f"specific{i}.") for i in range(m)]
    stacked = tuple(ad.stack(parts) for parts in zip(*specific))
    return stacked, _fused_cell(arrays, "shared."), arrays["head.w"], arrays["head.b"]


def _direction_core(y_rows: np.ndarray, state: Ml2oState, fused) -> tuple:
    """Shared forward pass; returns ((N,1) update column, new state)."""
    specific, shared, head_w, head_b = fused
    spec = ad.lstm(preprocess_gradient(y_rows), state.spec, *specific)
    s_sh = ad.concat([ad.slice_(spec, (0, i)) for i in range(len(y_rows))], axis=1)
    sh = ad.lstm(s_sh, state.shared, *shared)
    g_col = ad.add(ad.matmul(ad.slice_(sh, 0), head_w), head_b)
    return g_col, Ml2oState(spec, sh)


def ml2o_direction(y_rows: np.ndarray, state: Ml2oState, params: Ml2oParams):
    """Map the (M, N) gradient stack plus recurrent state to an update vector.

    Returns ``(g, new_state)`` with ``g`` of shape (N,). Coordinates are
    processed as a batch, so permuting them permutes the output identically.
    """
    y_rows = np.asarray(y_rows, dtype=np.float64)
    if y_rows.ndim != 2 or y_rows.shape[0] != params.m:
        raise ShapeError(f"expected ({params.m}, N) gradient stack, got {y_rows.shape}")
    g_col, new_state = _direction_core(y_rows, state, _fuse(params.arrays, params.m))
    return np.asarray(g_col).reshape(-1), new_state


def learned_directions(ys: np.ndarray, memory: dict, params: Ml2oParams) -> np.ndarray:
    """``ml2o_direction`` of every gradient stack in ``ys`` (P, M, N), stacked as (P, N).

    Row p carries its own recurrent state in ``memory["ml2o_states"]``,
    created on the first call.
    """
    if "ml2o_states" not in memory:
        memory["ml2o_states"] = [init_state(params.m, params.hidden, ys.shape[2]) for _ in ys]
    states = memory["ml2o_states"]
    out = np.empty((ys.shape[0], ys.shape[2]))
    for p, y in enumerate(ys):
        out[p], states[p] = ml2o_direction(y, states[p], params)
    return out


def learned_step(problem, xs, k, alpha, rngs, memory, model: Ml2oParams, samples=None, *,
                 exact: bool = False):
    """The ml2o population step: x <- x - alpha * g, g from :func:`ml2o_direction`.

    Gradients are the exact Jacobians when ``exact``, otherwise the mean of
    N_k draws under the sample schedule ``samples``, or one draw without it.
    """
    if exact:
        grads, n = problem.jacobian_many(xs), None
    else:
        n = 1 if samples is None else sample_size(k, samples)
        grads = problem.averaged_gradient_many(xs, n, rngs)
    return descend(xs, alpha, learned_directions(grads, memory, model), n)


def meta_loss(f_curr, f_prev):
    """Worst per-objective increase max_i(f_curr_i - f_prev_i).

    Accepts arrays or sequences of scalars/Vars; returns a float for plain
    inputs or a Var when any input is taped.
    """
    terms = [ad.sub(c, p) for c, p in zip(list(f_curr), list(f_prev), strict=True)]
    out = ad.maxlist(terms)
    return out if isinstance(out, Var) else float(out)


def unroll_window(problem, x_col, state: Ml2oState, arrays, window: int,
                  alpha, draw_fn: Callable[[int, np.ndarray], np.ndarray],
                  k_offset: int = 0):
    """Unroll ``window`` learned steps and average the per-step meta-loss.

    ``draw_fn(j, x_value)`` supplies the (M, N) gradient stack for local step
    j; its output is detached. ``alpha`` is a constant or a callable of the
    global step index (1-based, offset by ``k_offset``). Works identically on
    plain arrays (evaluation) and tape Vars (training).
    """
    alpha_at = alpha if callable(alpha) else (lambda k: alpha)
    fused = _fuse(arrays, ad.value(state.spec).shape[1])
    f_prev = problem.eval_terms(x_col)
    losses = []
    x = x_col
    for j in range(window):
        y_rows = draw_fn(j, ad.value(x).reshape(-1))
        g_col, state = _direction_core(np.asarray(y_rows, dtype=np.float64), state, fused)
        x = ad.sub(x, ad.scale(g_col, float(alpha_at(k_offset + j + 1))))
        f_curr = problem.eval_terms(x)
        losses.append(meta_loss(f_curr, f_prev))
        f_prev = f_curr
    total = losses[0]
    for term in losses[1:]:
        total = ad.add(total, term)
    mean = ad.scale(total, 1.0 / window)
    return mean, x, state


def _draw_fn(problem, draw_mode: str, rng: np.random.Generator):
    """The ``draw_fn`` of :func:`unroll_window` for ``draw_mode``.

    ``"exact"`` gives the exact Jacobian; ``"sample"`` one noisy draw from ``rng``.
    """
    if draw_mode == "exact":
        return lambda j, xv: problem.full_jacobian(xv)
    if draw_mode == "sample":
        return lambda j, xv: problem.sample_gradient(xv, rng)
    raise ValueError(f"draw_mode must be 'sample' or 'exact', got {draw_mode!r}")


def _leaf_vars(tape: Tape, store: ParamStore) -> dict[str, Var]:
    return {name: tape.param(store, name) for name in store.names()}


def store_from_params(params: Ml2oParams) -> ParamStore:
    store = ParamStore()
    for name, arr in params.arrays.items():
        store.add(name, arr.copy())
    return store


def meta_train(
    problem_sampler: Callable[[np.random.Generator], object],
    params0: Ml2oParams,
    steps: int,
    window: int,
    meta_lr: float,
    epochs: int,
    seed: int,
    alpha: float = 0.1,
    start_epoch: int = 0,
    draw_mode: str = "sample",
) -> tuple[Ml2oParams, list[tuple[int, int, float]]]:
    """Truncated-BPTT training loop.

    Each epoch samples a fresh problem and start point, unrolls ``steps``
    learned updates in ``steps // window`` truncation windows, and applies a
    plain gradient step on the window-mean meta-loss after each window.
    Recurrent state and iterate carry across windows (detached) and reset per
    epoch. Epoch streams derive from ``(seed, epoch_index)``, so a run can be
    resumed exactly by passing ``start_epoch``.
    """
    if steps % window != 0:
        raise ValueError(f"window {window} must divide steps {steps}")
    if meta_lr < 0:
        raise ValueError("meta_lr must be >= 0")
    periods = steps // window
    store = store_from_params(params0)
    trace: list[tuple[int, int, float]] = []
    for epoch in range(start_epoch, start_epoch + epochs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(104, epoch)))
        problem = problem_sampler(rng)
        if problem.objectives != params0.m:
            raise ShapeError(
                f"optimizer built for m={params0.m} objectives, problem has {problem.objectives}"
            )
        x = problem.initial_point(rng).reshape(-1, 1)
        state = init_state(params0.m, params0.hidden, problem.dim)
        draw_fn = _draw_fn(problem, draw_mode, rng)
        for period in range(periods):
            tape = Tape()
            leafs = _leaf_vars(tape, store)
            mean_var, x_var, state_var = unroll_window(
                problem, x, state, leafs, window, alpha, draw_fn, k_offset=period * window
            )
            loss_val = float(ad.value(mean_var))
            if not math.isfinite(loss_val):
                raise MetaTrainDiverged(
                    f"non-finite meta-loss at epoch {epoch} period {period}: "
                    f"|x|={np.linalg.norm(ad.value(x_var)):.3e}"
                )
            ad.backward(tape, mean_var)
            for name in store.names():
                store.params[name] = store.params[name] - meta_lr * store.grads[name]
            store.zero_grad()
            trace.append((epoch, period, loss_val))
            x = ad.value(x_var)
            state = state_var.detached()
    trained = Ml2oParams(params0.m, params0.hidden, store.copy_params())
    return trained, trace


def evaluate_meta_loss(
    problems: Sequence,
    params: Ml2oParams,
    steps: int,
    alpha: float,
    seed: int,
    draw_mode: str = "exact",
) -> float:
    """Mean meta-loss of running the frozen optimizer on each problem."""
    totals = []
    for idx, problem in enumerate(problems):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(105, idx)))
        x = problem.initial_point(rng).reshape(-1, 1)
        state = init_state(params.m, params.hidden, problem.dim)
        draw_fn = _draw_fn(problem, draw_mode, rng)
        mean, _, _ = unroll_window(problem, x, state, params.arrays, steps, alpha, draw_fn)
        totals.append(float(ad.value(mean)))
    return float(np.mean(totals))


def save_checkpoint(params: Ml2oParams, path: str) -> None:
    params.validate()
    doc = {
        "version": CHECKPOINT_VERSION,
        "m": params.m,
        "hidden": params.hidden,
        "out_width": 1,
        "arrays": {name: arr.reshape(-1).tolist() for name, arr in params.arrays.items()},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Ml2oParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint file {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint file {path!r}: {exc}") from exc
    for key in ("version", "m", "hidden", "out_width", "arrays"):
        if key not in doc:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"field 'version': expected {CHECKPOINT_VERSION}, found {doc['version']}"
        )
    if doc["out_width"] != 1:
        raise CheckpointError(f"field 'out_width': expected 1, found {doc['out_width']}")
    m, hidden = int(doc["m"]), int(doc["hidden"])
    shapes = param_array_shapes(m, hidden)
    arrays = {}
    for name, shape in shapes.items():
        if name not in doc["arrays"]:
            raise CheckpointError(f"checkpoint missing array {name!r}")
        flat = np.asarray(doc["arrays"][name], dtype=np.float64)
        if flat.size != shape[0] * shape[1]:
            raise CheckpointError(
                f"array {name!r}: {flat.size} values cannot fill shape {shape}"
            )
        if not ad.all_finite(flat):
            raise CheckpointError(f"array {name!r}: non-finite values")
        arrays[name] = flat.reshape(shape)
    extra = sorted(set(doc["arrays"]) - set(shapes))
    if extra:
        raise CheckpointError(f"checkpoint has unexpected arrays: {extra}")
    return Ml2oParams(m, hidden, arrays)


def check_compatible(params: Ml2oParams, problem) -> None:
    if params.m != problem.objectives:
        raise ShapeError(
            f"field 'm': checkpoint has {params.m} objectives, problem has {problem.objectives}"
        )
