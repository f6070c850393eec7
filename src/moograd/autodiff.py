"""Dense float64 array math with a minimal reverse-mode tape.

All tensors are row-major ``numpy.float64`` arrays. The primitive set is
fixed to what the recurrent optimizer and its training loss need, six
primitives in all:

- one fused LSTM cell, :func:`lstm`, which sums its two bias rows itself;
- the shared cell's input, :func:`concat_h`, and the head, :func:`head`;
- the iterate update ``x - d * alpha``, :func:`sub_scaled`;
- the training loss: :func:`quadratic_losses` and :func:`window_loss` (the
  window mean of the worst per-objective increase).

Each fused primitive runs the float operations of the chain of simpler nodes
it replaces in their order, so its value and adjoints are the chain's bit
for bit. Every primitive accepts either plain arrays (untaped, fast path) or
:class:`Var` handles bound to a :class:`Tape`. Plain arrays among taped
operands are constants: they get no node, and :func:`backward` skips them.

Each primitive is one function: it computes its value and, on a tape,
records a node holding its input ids and a closure that maps the output
adjoint to one adjoint per input. :func:`backward` sweeps the tape in
reverse and knows no primitive. No closure holds a :class:`Var`: that would
make a cycle (tape, node, closure, Var, tape), and every dropped tape would
then wait for the cycle collector.

No window of ``moograd`` runs the primitives step by step. Every unrolled
window, meta-training's and evaluation's alike, is ``ml2o.unroll_window``:
one node per window on a tape and none without one. Its forward runs the
cells' arithmetic, and its backward calls the same private formula functions
as the primitives' backwards (:func:`_lstm_local_adjoints`,
:func:`_lstm_leaf_adjoints`, :func:`_head_leaf_adjoints`,
:func:`_quadratic_adjoints`, :func:`_window_loss_adjoints`), each on a whole
window's stacked steps where it can be. The primitives' taped forms are the
reference that the window is checked against, bit for bit; untaped,
:func:`lstm`, :func:`concat_h` and :func:`head` run ``ml2o.ml2o_direction``.

Elementwise ops require equal shapes; only :func:`head` broadcasts its
``(1, out)`` bias row, and an untaped :func:`lstm` its weights.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Column blocks of the fused (in, 4H) gate matrices of the ``lstm`` primitive:
# the three sigmoid gates first, then the tanh candidate.
LSTM_GATES = ("i", "f", "o", "g")


class ShapeError(ValueError):
    pass


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 array, rejecting NaN/Inf."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def all_finite(x) -> bool:
    return bool(np.isfinite(x).all())


class TapeNode:
    """A value; ``backward(g)`` gives one adjoint (or None) per input.

    ``inputs`` holds the node id of each taped input and None for each
    constant one, in argument order.
    """

    __slots__ = ("inputs", "value", "backward")

    def __init__(self, inputs: tuple[int, ...], value: np.ndarray, backward):
        self.inputs = inputs
        self.value = value
        self.backward = backward


class Var:
    """Handle to a node on a tape. ``value`` is the forward array."""

    __slots__ = ("tape", "nid", "value")

    def __init__(self, tape: "Tape", nid: int, value: np.ndarray):
        self.tape = tape
        self.nid = nid
        self.value = value


def value(x) -> np.ndarray:
    """The forward array of a :class:`Var`, or ``x`` as a float64 array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


class ParamStore:
    """Named float64 parameters with a matching gradient accumulator."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self.params:
            raise KeyError(f"parameter {name!r} already registered")
        arr = as_tensor(value, name)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)

    def zero_grad(self) -> None:
        for name in self.params:
            self.grads[name].fill(0.0)

    def names(self) -> list[str]:
        return list(self.params)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


class Tape:
    """Append-only DAG of primitives in topological order (single-owner)."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _append(self, inputs, value, backward) -> Var:
        self.nodes.append(TapeNode(inputs, value, backward))
        return Var(self, len(self.nodes) - 1, value)

    def param(self, store: ParamStore, name: str) -> Var:
        def accumulate(g):
            store.grads[name] += g
            return ()

        return self._append((), store.params[name], accumulate)


def _record(inputs, out: np.ndarray, backward):
    """``out`` itself when no input is taped, else a Var of a new node on their tape."""
    tape, ids = None, []
    for x in inputs:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("operands live on different tapes")
            ids.append(x.nid)
        else:
            ids.append(None)
    if tape is None:
        return out
    return tape._append(tuple(ids), out, backward)


def sub_scaled(x, d, alpha):
    """``x - d * alpha`` for equal-shape ``x`` and ``d`` and a float ``alpha``.

    Value and adjoints equal, bit for bit, those of a node for ``d * alpha``
    followed by one for the subtraction.
    """
    xv, dv, alpha = value(x), value(d), float(alpha)
    if xv.shape != dv.shape:
        raise ShapeError(f"sub_scaled: incompatible shapes {xv.shape} and {dv.shape}")
    return _record((x, d), xv - dv * alpha, lambda g: (g, -g * alpha))


def head(hc, w, b):
    """``hc[0] w + b``: the h half of a (2, ..., N, K) state times a (K, out)
    ``w`` plus a (1, out) bias row, as (..., N, out).

    Value and adjoints equal, bit for bit, those of a node for the slice
    ``hc[0]`` followed by one for the affine map; ``hc``'s adjoint is zero in
    its c half.
    """
    hv, wv, bv = value(hc), value(w), value(b)
    if (hv.ndim < 3 or hv.shape[0] != 2 or wv.ndim != 2 or hv.shape[-1] != wv.shape[0]
            or bv.shape != (1, wv.shape[1])):
        raise ShapeError(f"head: incompatible shapes {hv.shape}, {wv.shape} and {bv.shape}")
    h = hv[0]

    def backward(g):
        dhc = np.zeros(hv.shape)
        dhc[0] = g @ wv.T
        return dhc, *_head_leaf_adjoints(h.reshape(-1, wv.shape[0]), g.reshape(-1, wv.shape[1]))

    return _record((hc, w, b), h @ wv + bv, backward)


def _head_leaf_adjoints(h, g):
    """The adjoints ``h' g`` and ``sum(g)`` of the head's weight and bias row from
    its input rows ``h`` (..., R, K) and output adjoints ``g`` (..., R, out).
    Leading axes stack the steps of a window."""
    return h.swapaxes(-1, -2) @ g, g.sum(axis=-2, keepdims=True)


def concat_h(hc):
    """The h half of a (2, ..., M, N, H) state with its M slices side by side, (..., N, M * H)."""
    x = value(hc)
    *lead, m, n, hid = x.shape[1:]

    def backward(g):
        dhc = np.zeros(x.shape)
        dhc[0] = g.reshape(*lead, n, m, hid).swapaxes(-3, -2)
        return (dhc,)

    return _record((hc,), x[0].swapaxes(-3, -2).reshape(*lead, n, m * hid), backward)


def quadratic_losses(x, centers, mats=None):
    """``f_i = 0.5 (x - c_i)' A_i (x - c_i)`` for each row ``c_i`` of ``centers``, as (M,).

    ``x`` is an (N, 1) column, ``centers`` (M, N) and ``mats`` the (M, N, N)
    stack of the A_i, or None for A_i = I. The node lists ``x`` once per
    objective, the last objective first, so that the backward sweep adds the
    objectives' adjoints into x's in the order a chain of one node per
    operation would. An objective whose adjoint is zero contributes nothing.
    """
    xv = value(x)
    if xv.shape != (centers.shape[1], 1):
        raise ShapeError(
            f"quadratic_losses: x {xv.shape} is not an ({centers.shape[1]}, 1) column"
        )
    d, q, out = _quadratic_terms(xv, centers, mats)

    def backward(g):
        dx = _quadratic_adjoints(g * 0.5, d, q, mats)
        return [None if g[i] == 0.0 else dx[i] for i in reversed(range(len(g)))]

    return _record((x,) * len(centers), out, backward)


def _quadratic_terms(xs, centers, mats):
    """``(d, q, f)`` of the (..., N, 1) columns ``xs``: the offsets ``d_i = x - c_i``
    and ``q_i = A_i d_i``, each (..., M, N, 1), and the losses ``0.5 d_i' q_i``, (..., M).

    Each column's values equal, bit for bit, those of the column alone.
    """
    d = xs[..., None, :, :] - centers[:, :, None]
    q = d if mats is None else mats @ d
    return d, q, (d * q).sum(axis=(-2, -1)) * 0.5


def _quadratic_adjoints(t, d, q, mats):
    """The adjoints ``t_i q_i + A_i' (t_i d_i)`` of x from each loss, (..., M, N, 1),
    for half the loss adjoints, ``t`` (..., M), and :func:`_quadratic_terms`' d and q."""
    t = t[..., None, None]
    dq = t * d
    return t * q + (dq if mats is None else mats.swapaxes(-1, -2) @ dq)


def window_loss(fs):
    """The window mean of ``max_i(f_k,i - f_{k-1},i)`` over the (M,) losses ``f_0, ..., f_K``.

    Step k's worst increase ``d_k`` is taken at its lowest-index maximum
    ``a_k``; the mean is ``d_1 + ... + d_K`` summed from left to right, times
    ``1 / K``. The adjoint of ``f_k`` is ``-g / K`` at ``a_{k+1}`` plus
    ``g / K`` at ``a_k``, summed as a sweep over one node per step's increase
    and one for the mean would sum them.
    """
    fs = tuple(fs)
    vals = [value(f) for f in fs]
    if len(vals) < 2 or vals[0].ndim != 1 or any(v.shape != vals[0].shape for v in vals):
        raise ShapeError(f"window_loss: needs two or more equal (M,) vectors, "
                         f"got shapes {[v.shape for v in vals]}")
    args, out = _window_loss_terms(np.stack(vals))
    return _record(fs, out, lambda g: list(_window_loss_adjoints(args, len(vals[0]), g)))


def _window_loss_terms(fs):
    """``(a, loss)`` of the stacked losses ``fs`` (K + 1, M): each step's
    lowest-index worst objective a_k, (K,), and the window loss as a 0-d array."""
    diff = fs[1:] - fs[:-1]
    args = diff.argmax(axis=1)
    total = np.add.accumulate(diff[np.arange(len(args)), args])[-1]
    return args, np.asarray(total * (1.0 / len(args)))


def _window_loss_adjoints(args, m, g):
    """The (K + 1, M) adjoints of the stacked losses from the window loss's adjoint ``g``."""
    gk = g * (1.0 / len(args))
    adj = np.zeros((len(args) + 1, m))
    steps = np.arange(len(args))
    adj[steps, args] = -gk
    adj[steps + 1, args] += gk
    return adj


# An untaped cell whose gate block (N x 4H, per stacked slice) has more entries
# than this (128 KiB, glibc's default mmap threshold) runs slice by slice in
# tiles of _TILE_GATE_ENTRIES // 4H rows on one tile-sized gate buffer and one
# tanh(c') buffer. Whole blocks that large made malloc return the heap top
# after each call and fault it in on the next, and kept the largest block's
# temporaries resident. Smaller cells, and every taped cell (whose gates and
# tanh(c') the backward keeps), run as one call over all their slices.
_TILE_GATE_ENTRIES = 2**14


def lstm(s, hc, wx, wh, bx, bh):
    """One LSTM cell update as a single tape node; returns the new state ``hc'``.

    ``s`` is (..., N, in) and ``hc`` is (2, ..., N, H), holding h then c;
    ``wx`` (..., in, 4H), ``wh`` (..., H, 4H) and the two bias rows ``bx``
    and ``bh`` (..., 1, 4H) hold the gates in :data:`LSTM_GATES` column
    order. Leading axes stack independent cells, and each slice of the
    result equals, bit for bit, the call on that slice alone. With
    ``pre = s wx + h wh + (bx + bh)`` split into gates i, f, o, g:
    ``c' = sigmoid(f) c + sigmoid(i) tanh(g)`` and
    ``h' = sigmoid(o) tanh(c')``, returned as one (2, ..., N, H) array.
    An untaped call also takes weights and bias rows with fewer leading axes
    (the cells' last ones) and broadcasts them over the cells' first ones.
    Taped and untaped calls run the same arithmetic. ``bx`` and ``bh`` get
    the same adjoint, as they would through a node for ``bx + bh``.
    """
    args = (s, hc, wx, wh, bx, bh)
    sv, hv, wxv, whv, bxv, bhv = vals = [value(x) for x in args]
    if bxv.shape != bhv.shape:
        raise ShapeError(f"lstm: bias shapes bx {bxv.shape} and bh {bhv.shape} differ")
    taped = [isinstance(x, Var) for x in args]
    lead, hid = sv.shape[:-2], hv.shape[-1]
    wlead = lead if any(taped) else lead[len(lead) + 2 - wxv.ndim :]
    if not (sv.ndim >= 2 and hv.shape == (2,) + sv.shape[:-1] + (hid,)
            and wxv.shape == wlead + (sv.shape[-1], 4 * hid)
            and whv.shape == wlead + (hid, 4 * hid) and bxv.shape == wlead + (1, 4 * hid)):
        raise ShapeError(f"lstm: incompatible shapes s {sv.shape}, hc {hv.shape}, "
                         f"wx {wxv.shape}, wh {whv.shape}, b {bxv.shape}")
    if not any(taped):
        return _lstm_forward(sv, hv, wxv, whv, bxv + bhv)
    out, gates, tc = _lstm_cell(sv, hv, wxv, whv, bxv + bhv)

    def backward(g):
        *adj, db = _lstm_backward(g, gates, tc, *vals[:4], *taped[:2])
        return *adj, db, db

    return _record(args, out, backward)


def _lstm_forward(s, hc, wx, wh, b):
    """The untaped ``hc'`` of :func:`lstm`, in row tiles when the gate block is
    large; row tiles equal the whole cell bit for bit."""
    lead, (n, hid) = s.shape[:-2], hc.shape[-2:]
    if n * 4 * hid <= _TILE_GATE_ENTRIES:
        return _lstm_cell(s, hc, wx, wh, b)[0]
    rows = _TILE_GATE_ENTRIES // (4 * hid)
    out = np.empty(hc.shape)
    gates, tc = np.empty((rows, 4 * hid)), np.empty((rows, hid))
    for i in np.ndindex(lead):
        w = i[len(i) + 2 - wx.ndim :]
        for lo in range(0, n, rows):
            tile = i + (slice(lo, lo + rows),)
            both = (slice(None),) + tile
            _lstm_cell(s[tile], hc[both], wx[w], wh[w], b[w], out[both], gates[: n - lo],
                       tc[: n - lo])
    return out


def _lstm_cell(s, hc, wx, wh, b, out=None, gates=None, tc=None):
    """The forward of :func:`lstm`; returns ``(hc', gates, tanh(c'))``, each
    written into its buffer when one is given."""
    hid = hc.shape[-1]
    gates = np.matmul(s, wx, out=gates)
    gates += hc[0] @ wh
    gates += b
    # Activations in place; sigmoid(z) = 0.5 + 0.5 tanh(z / 2) cannot overflow.
    # One tanh covers the halved sigmoid block and the candidate block.
    sig, cand = gates[..., : 3 * hid], gates[..., 3 * hid :]
    sig *= 0.5
    np.tanh(gates, out=gates)
    sig *= 0.5
    sig += 0.5
    gi, gf, go = sig[..., :hid], sig[..., hid : 2 * hid], sig[..., 2 * hid :]
    if out is None:
        out = np.empty(hc.shape)
    h_new, c_new = out
    np.multiply(gf, hc[1], out=c_new)
    np.multiply(gi, cand, out=h_new)  # h_new holds i*g until h' is written
    c_new += h_new
    tc = np.tanh(c_new, out=tc)
    np.multiply(go, tc, out=h_new)
    return out, gates, tc


def _lstm_backward(g, gates, tc, s, hc, wx, wh, need_s, need_hc):
    """Adjoints of (s, hc, wx, wh, bx + bh) from the output adjoint g = (dh', dc'):
    :func:`_lstm_local_adjoints` then :func:`_lstm_leaf_adjoints`."""
    dpre, ds, dhc = _lstm_local_adjoints(g, gates, tc, _lstm_derivatives(gates, tc), hc[1], wx,
                                         wh, need_s, need_hc)
    return ds, dhc, *_lstm_leaf_adjoints(s, hc[0], dpre)


def _lstm_derivatives(gates, tc):
    """The activations' derivatives from the activated ``gates`` and ``tanh(c')``
    of any stack of cells: ``s (1 - s)`` of the three sigmoid gates, ``1 - g^2``
    of the candidate and ``1 - tanh(c')^2``."""
    hid = tc.shape[-1]
    sig, cand = gates[..., : 3 * hid], gates[..., 3 * hid :]
    return sig * (1.0 - sig), 1.0 - cand * cand, 1.0 - tc * tc


def _lstm_local_adjoints(g, gates, tc, derivs, c, wx, wh, need_s, need_hc, dpre=None):
    """``(dpre, ds, dhc)`` of a cell from its output adjoint g = (dh', dc').

    ``dpre`` is the adjoint of the pre-activation gates, written into
    ``dpre`` when given; ``c`` is the input state's c half and ``derivs``
    :func:`_lstm_derivatives` of the cell. The adjoints of ``s`` and ``hc``
    are None unless ``need_s`` and ``need_hc``: a constant input's adjoint is
    never read.
    """
    hid = tc.shape[-1]
    gi, gf, go, cand = (gates[..., k * hid : (k + 1) * hid] for k in range(4))
    dsig, dcand, dtc = derivs
    dh_new, dc_new = g
    dc_tot = dh_new * go
    dc_tot *= dtc
    dc_tot += dc_new
    if dpre is None:
        dpre = np.empty_like(gates)
    np.multiply(dc_tot, cand, out=dpre[..., :hid])
    np.multiply(dc_tot, c, out=dpre[..., hid : 2 * hid])
    np.multiply(dh_new, tc, out=dpre[..., 2 * hid : 3 * hid])
    np.multiply(dc_tot, gi, out=dpre[..., 3 * hid :])
    dpre[..., : 3 * hid] *= dsig
    dpre[..., 3 * hid :] *= dcand
    ds = dpre @ wx.swapaxes(-1, -2) if need_s else None
    dhc = None
    if need_hc:
        dhc = np.empty((2,) + c.shape)
        np.matmul(dpre, wh.swapaxes(-1, -2), out=dhc[0])
        np.multiply(dc_tot, gf, out=dhc[1])
    return dpre, ds, dhc


def _lstm_leaf_adjoints(s, h, dpre):
    """The adjoints of ``wx``, ``wh`` and ``bx + bh`` from the cell's input ``s``,
    its input state's h half and ``dpre``: ``s' dpre``, ``h' dpre`` and the
    column sums of ``dpre``. Leading axes stack cells, or one cell's steps."""
    return (s.swapaxes(-1, -2) @ dpre, h.swapaxes(-1, -2) @ dpre,
            dpre.sum(axis=-2, keepdims=True))


def backward(tape: Tape, output: Var) -> None:
    """Accumulate d(output)/d(param) into each leaf's ParamStore gradients.

    The output must be scalar. Repeated calls keep accumulating until the
    stores' ``zero_grad`` is called.

    A node's adjoint is its first contribution, and each later one is added
    into a new array, never in place: one array may be the adjoint of
    several nodes (``lstm`` hands one to both bias rows). Constant inputs
    (id None) get no adjoint.
    """
    if output.tape is not tape:
        raise ValueError("output does not belong to this tape")
    nodes = tape.nodes
    out_node = nodes[output.nid]
    if out_node.value.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {out_node.value.shape}")

    adj: list[np.ndarray | None] = [None] * len(nodes)
    adj[output.nid] = np.ones_like(out_node.value)

    for nid in range(output.nid, -1, -1):
        g = adj[nid]
        if g is None:
            continue
        node = nodes[nid]
        for iid, contrib in zip(node.inputs, node.backward(g)):
            if iid is None or contrib is None:
                continue
            prev = adj[iid]
            adj[iid] = contrib if prev is None else prev + contrib


def finite_diff_gradient(
    f: Callable[[ParamStore], float], store: ParamStore, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of the store."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grads: dict[str, np.ndarray] = {}
    for name in store.names():
        arr = store.params[name]
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(store)
            flat[i] = orig - eps
            lo = f(store)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads
