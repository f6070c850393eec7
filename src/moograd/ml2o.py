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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tape
from .optimizers import descend, sample_size

GATES = ("i", "f", "g", "o")
CHECKPOINT_VERSION = 1
PREPROCESS_P = 10.0  # the gradient encoding's scale p (:func:`preprocess_gradient`)


class CheckpointError(RuntimeError):
    pass


class MetaTrainDiverged(RuntimeError):
    pass


def fused_shapes(m: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The stored arrays of an M-objective optimizer of width ``hidden``.

    The M objective cells (``spec``) are stacked on a leading axis, and each
    cell's four gates sit side by side in :data:`ad.LSTM_GATES` column order.
    """
    h4, mh = 4 * hidden, m * hidden
    return {
        "spec.wx": (m, 2, h4), "spec.wh": (m, hidden, h4),
        "spec.bx": (m, 1, h4), "spec.bh": (m, 1, h4),
        "shared.wx": (mh, 4 * mh), "shared.wh": (mh, 4 * mh),
        "shared.bx": (1, 4 * mh), "shared.bh": (1, 4 * mh),
        "head.w": (mh, 1), "head.b": (1, 1),
    }


def gate_views(fused: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The checkpoint's per-gate arrays as views into the :func:`fused_shapes` arrays.

    Names run cell by cell, gates in :data:`GATES` order, each gate as
    ``wx``, ``wh``, ``bx``, ``bh``; ``head.w`` and ``head.b`` are the fused
    arrays themselves. This is the one place where the name order of
    :data:`GATES` meets the column order of :data:`ad.LSTM_GATES`.
    """
    m = fused["spec.wx"].shape[0]
    cells = [(f"specific{i}.", "spec.", (i,)) for i in range(m)] + [("shared.", "shared.", ())]
    views = {}
    for name, prefix, lead in cells:
        width = fused[prefix + "wh"].shape[-2]
        for gate in GATES:
            lo = ad.LSTM_GATES.index(gate) * width
            cols = lead + (slice(None), slice(lo, lo + width))
            for kind in ("wx", "wh", "bx", "bh"):
                views[f"{name}{kind}_{gate}"] = fused[prefix + kind][cols]
    views["head.w"], views["head.b"] = fused["head.w"], fused["head.b"]
    return views


@dataclass
class Ml2oParams:
    """An optimizer stored as the :func:`fused_shapes` arrays ``fused``.

    ``arrays`` maps each checkpoint name to a view into ``fused``
    (:func:`gate_views`): an edit in place through it edits the model.
    """

    m: int
    hidden: int
    fused: Mapping[str, np.ndarray]
    arrays: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = fused_shapes(self.m, self.hidden)
        got = {name: np.shape(arr) for name, arr in self.fused.items()}
        if got != shapes:
            raise ShapeError(f"fused arrays {got} do not fit m={self.m}, hidden={self.hidden}")
        self.fused = MappingProxyType(
            {k: np.ascontiguousarray(v, dtype=np.float64) for k, v in self.fused.items()}
        )
        self.arrays = MappingProxyType(gate_views(self.fused))

    def copy(self) -> "Ml2oParams":
        return Ml2oParams(self.m, self.hidden, {k: v.copy() for k, v in self.fused.items()})


def _blank_params(m: int, hidden: int) -> Ml2oParams:
    return Ml2oParams(m, hidden, {k: np.empty(s) for k, s in fused_shapes(m, hidden).items()})


def init_params(m: int, hidden: int, seed: int, *, scale: float = 0.1) -> Ml2oParams:
    """Uniform U[-scale, scale] entries from a dedicated stream, drawn in checkpoint order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))
    params = _blank_params(m, hidden)
    for view in params.arrays.values():
        view[...] = rng.uniform(-scale, scale, view.shape)
    return params


@dataclass
class Ml2oState:
    """Recurrent state, h then c: ``spec`` (2, ..., M, N, H) of the M objective
    cells and ``shared`` (2, ..., N, M * H) of the shared cell. Leading axes,
    such as a population's P, stack independent states."""

    spec: object
    shared: object

    def detached(self) -> "Ml2oState":
        return Ml2oState(ad.value(self.spec), ad.value(self.shared))


def init_state(m: int, hidden: int, n_coords: int, lead: tuple[int, ...] = ()) -> Ml2oState:
    return Ml2oState(np.zeros((2, *lead, m, n_coords, hidden)),
                     np.zeros((2, *lead, n_coords, m * hidden)))


def preprocess_gradient(g: np.ndarray) -> np.ndarray:
    """Two-channel bounded encoding of a gradient vector or stack of them.

    Coordinates with |g| >= e^-p map to (log|g|/p, sign g); smaller ones to
    (-1, e^p * g), with p = :data:`PREPROCESS_P`. A (..., N) input gives a
    (..., N, 2) array of constants.
    """
    g = np.asarray(g, dtype=np.float64)
    out = np.empty(g.shape + (2,))
    mag = np.abs(g)
    big = mag >= math.exp(-PREPROCESS_P)
    out[..., 0] = np.where(big, np.log(np.maximum(mag, 1e-300)) / PREPROCESS_P, -1.0)
    out[..., 1] = np.where(big, np.sign(g), math.exp(PREPROCESS_P) * g)
    return out


def _direction_core(y_rows: np.ndarray, state: Ml2oState, fused) -> tuple:
    """Shared forward pass; returns ((..., N, 1) update columns, new state).

    ``fused`` maps the :func:`fused_shapes` names to arrays or to their Vars.
    """
    cell = lambda p: [fused[p + kind] for kind in ("wx", "wh", "bx", "bh")]
    spec = ad.lstm(preprocess_gradient(y_rows), state.spec, *cell("spec."))
    sh = ad.lstm(ad.concat_h(spec), state.shared, *cell("shared."))
    return ad.head(sh, fused["head.w"], fused["head.b"]), Ml2oState(spec, sh)


def ml2o_direction(y_rows: np.ndarray, state: Ml2oState, params: Ml2oParams):
    """Map (..., M, N) gradient stacks plus their recurrent state to update vectors.

    Returns ``(g, new_state)`` with ``g`` of shape (..., N); the state's
    leading axes match the stacks'. Each stack's update equals, bit for bit,
    that of the stack run alone. Coordinates are processed as a batch, so
    permuting them permutes the output identically.
    """
    y_rows = np.asarray(y_rows, dtype=np.float64)
    if y_rows.ndim < 2 or y_rows.shape[-2] != params.m:
        raise ShapeError(f"expected (..., {params.m}, N) gradient stacks, got {y_rows.shape}")
    g_col, new_state = _direction_core(y_rows, state, params.fused)
    return g_col[..., 0], new_state


def learned_directions(ys: np.ndarray, memory: dict, params: Ml2oParams) -> np.ndarray:
    """:func:`ml2o_direction` of the gradient stacks ``ys`` (P, M, N) in one call, as (P, N).

    The population's state is one :class:`Ml2oState` with a leading P axis,
    kept in ``memory["ml2o_state"]`` and created on the first call.
    """
    if "ml2o_state" not in memory:
        memory["ml2o_state"] = init_state(params.m, params.hidden, ys.shape[2], ys.shape[:1])
    g, memory["ml2o_state"] = ml2o_direction(ys, memory["ml2o_state"], params)
    return g


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


def unroll_window(problem, x_col, state: Ml2oState, fused, window: int, alpha: float,
                  draw_fn: Callable[[int, np.ndarray], np.ndarray]):
    """Unroll ``window`` learned steps; return their window loss, the iterate and the state.

    The window loss is the mean over the steps of the worst per-objective
    increase (:func:`ad.window_loss`). ``draw_fn(j, x_value)`` supplies the
    (M, N) gradient stack for local step j; its output is detached. Every
    step has size ``alpha``. ``fused`` maps the :func:`fused_shapes` names to
    plain arrays (evaluation) or tape Vars (training); both run the same
    arithmetic.
    """
    fs = [problem.eval_terms(x_col)]
    x = x_col
    for j in range(window):
        y_rows = draw_fn(j, ad.value(x).reshape(-1))
        g_col, state = _direction_core(np.asarray(y_rows, dtype=np.float64), state, fused)
        x = ad.sub_scaled(x, g_col, alpha)
        fs.append(problem.eval_terms(x))
    return ad.window_loss(fs), x, state


def _draw_fn(problem, draw_mode: str, rng: np.random.Generator):
    """The ``draw_fn`` of :func:`unroll_window` for ``draw_mode``.

    ``"exact"`` gives the exact Jacobian; ``"sample"`` one noisy draw from ``rng``.
    """
    if draw_mode == "exact":
        return lambda j, xv: problem.full_jacobian(xv)
    if draw_mode == "sample":
        return lambda j, xv: problem.sample_gradient(xv, rng)
    raise ValueError(f"draw_mode must be 'sample' or 'exact', got {draw_mode!r}")


def store_from_params(params: Ml2oParams) -> ParamStore:
    """A store of copies of the fused arrays, one leaf each."""
    store = ParamStore()
    for name, arr in params.fused.items():
        store.add(name, arr.copy())
    # perfbench reads gradients by checkpoint name: alias each to a view of the fused gradient
    store.grads.update(gate_views(store.grads))
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
            leafs = {name: tape.param(store, name) for name in store.names()}
            mean_var, x_var, state_var = unroll_window(problem, x, state, leafs, window, alpha,
                                                       draw_fn)
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
) -> float:
    """Mean meta-loss of running the frozen optimizer on each problem, on exact gradients."""
    totals = []
    for idx, problem in enumerate(problems):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(105, idx)))
        x = problem.initial_point(rng).reshape(-1, 1)
        state = init_state(params.m, params.hidden, problem.dim)
        draw_fn = _draw_fn(problem, "exact", rng)
        mean, _, _ = unroll_window(problem, x, state, params.fused, steps, alpha, draw_fn)
        totals.append(float(ad.value(mean)))
    return float(np.mean(totals))


def save_checkpoint(params: Ml2oParams, path: str) -> None:
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
    if m < 1 or hidden < 1:
        raise CheckpointError(f"fields 'm' and 'hidden' must be positive, found {m} and {hidden}")
    params = _blank_params(m, hidden)
    for name, view in params.arrays.items():
        if name not in doc["arrays"]:
            raise CheckpointError(f"checkpoint missing array {name!r}")
        flat = np.asarray(doc["arrays"][name], dtype=np.float64)
        if flat.size != view.size:
            raise CheckpointError(
                f"array {name!r}: {flat.size} values cannot fill shape {view.shape}"
            )
        if not ad.all_finite(flat):
            raise CheckpointError(f"array {name!r}: non-finite values")
        view[...] = flat.reshape(view.shape)
    extra = sorted(set(doc["arrays"]) - set(params.arrays))
    if extra:
        raise CheckpointError(f"checkpoint has unexpected arrays: {extra}")
    return params


def check_compatible(params: Ml2oParams, problem) -> None:
    if params.m != problem.objectives:
        raise ShapeError(
            f"field 'm': checkpoint has {params.m} objectives, problem has {problem.objectives}"
        )
