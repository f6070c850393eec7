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
        hs, gs = h.reshape(-1, wv.shape[0]), g.reshape(-1, wv.shape[1])
        return dhc, hs.T @ gs, gs.sum(axis=0, keepdims=True)

    return _record((hc, w, b), h @ wv + bv, backward)


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
    ds = [xv - c.reshape(-1, 1) for c in centers]
    qs = ds if mats is None else [a @ d for a, d in zip(mats, ds)]
    out = np.array([(d * q).sum() * 0.5 for d, q in zip(ds, qs)])

    def backward(g):
        dx = []
        for i in reversed(range(len(ds))):
            if g[i] == 0.0:
                dx.append(None)
                continue
            t = np.full(xv.shape, g[i] * 0.5)
            dq = t * ds[i]
            dx.append(t * qs[i] + (dq if mats is None else mats[i].T @ dq))
        return dx

    return _record((x,) * len(ds), out, backward)


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
    shape, steps = vals[0].shape, len(vals) - 1
    factor = 1.0 / steps
    args, total = [], None
    for prev, curr in zip(vals, vals[1:]):
        diff = curr - prev
        args.append(int(np.argmax(diff)))
        total = diff[args[-1]] if total is None else total + diff[args[-1]]

    def backward(g):
        gk = g * factor
        adj = [None] * (steps + 1)
        for k in reversed(range(steps)):  # step k + 1 compares f_{k+1} with f_k
            up, down = np.zeros(shape), np.zeros(shape)
            up[args[k]], down[args[k]] = gk, -gk
            adj[k + 1] = up if adj[k + 1] is None else adj[k + 1] + up
            adj[k] = down
        return adj

    return _record(fs, np.asarray(total * factor), backward)


# A cell whose gate block (N x 4H, per stacked slice) has more entries than
# this (128 KiB, glibc's default mmap threshold) runs slice by slice in tiles
# of _TILE_GATE_ENTRIES // 4H rows; an untaped run reuses one tile-sized gate
# buffer and one tanh(c') buffer for every tile. Whole blocks that large made
# malloc return the heap top after each call and fault it in on the next, and
# kept the largest block's temporaries resident. Smaller cells, such as
# meta-training's N = 8, H = 8 ones, run as one call over all their slices.
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
    vals = [value(x) for x in args]
    if vals[4].shape != vals[5].shape:
        raise ShapeError(f"lstm: bias shapes bx {vals[4].shape} and bh {vals[5].shape} differ")
    taped = [isinstance(x, Var) for x in args]
    out, gates, tc = _lstm_forward(*vals[:4], vals[4] + vals[5], keep=any(taped))

    def backward(g):
        *adj, db = _lstm_backward(g, gates, tc, *vals[:4], *taped[:2])
        return *adj, db, db

    return _record(args, out, backward)


def _lstm_forward(s, hc, wx, wh, b, keep):
    """``(hc', gates, tanh(c'))``, the last two for the backward.

    A tiled run keeps them only when ``keep`` (a taped call), and an untaped
    one returns None for both; row tiles equal the whole cell bit for bit.
    """
    lead, (n, hid) = s.shape[:-2], hc.shape[-2:]
    wlead = lead if keep else lead[len(lead) + 2 - wx.ndim :]
    shapes_ok = (
        s.ndim >= 2 and hc.shape == (2,) + s.shape[:-1] + (hid,)
        and wx.shape == wlead + (s.shape[-1], 4 * hid)
        and wh.shape == wlead + (hid, 4 * hid)
        and b.shape == wlead + (1, 4 * hid)
    )
    if not shapes_ok:
        raise ShapeError(f"lstm: incompatible shapes s {s.shape}, hc {hc.shape}, "
                         f"wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    if n * 4 * hid <= _TILE_GATE_ENTRIES:
        return _lstm_cell(s, hc, wx, wh, b)
    rows = _TILE_GATE_ENTRIES // (4 * hid)
    out = np.empty(hc.shape)
    if keep:
        gates, tc = np.empty(s.shape[:-1] + (4 * hid,)), np.empty(s.shape[:-1] + (hid,))
    else:
        gates = tc = None
        gate_buf, tc_buf = np.empty((rows, 4 * hid)), np.empty((rows, hid))
    for i in np.ndindex(lead):
        w = i[len(i) - len(wlead) :]
        for lo in range(0, n, rows):
            tile = i + (slice(lo, lo + rows),)
            both = (slice(None),) + tile
            kept = (gates[tile], tc[tile]) if keep else (gate_buf[: n - lo], tc_buf[: n - lo])
            _lstm_cell(s[tile], hc[both], wx[w], wh[w], b[w], out[both], *kept)
    return out, gates, tc


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
    """Adjoints of (s, hc, wx, wh, bx + bh) from the output adjoint g = (dh', dc').

    The adjoints of ``s`` and ``hc`` are None unless ``need_s`` and
    ``need_hc``: a constant input's adjoint is never read.
    """
    hid = tc.shape[-1]
    gi, gf, go, cand = (gates[..., k * hid : (k + 1) * hid] for k in range(4))
    dh_new, dc_new = g
    dc_tot = dh_new * go
    dc_tot *= 1.0 - tc * tc
    dc_tot += dc_new
    dpre = np.empty_like(gates)
    np.multiply(dc_tot, cand, out=dpre[..., :hid])
    np.multiply(dc_tot, hc[1], out=dpre[..., hid : 2 * hid])
    np.multiply(dh_new, tc, out=dpre[..., 2 * hid : 3 * hid])
    np.multiply(dc_tot, gi, out=dpre[..., 3 * hid :])
    sig = gates[..., : 3 * hid]
    dpre[..., : 3 * hid] *= sig * (1.0 - sig)
    dpre[..., 3 * hid :] *= 1.0 - cand * cand
    ds = dpre @ wx.swapaxes(-1, -2) if need_s else None
    dhc = None
    if need_hc:
        dhc = np.empty(hc.shape)
        np.matmul(dpre, wh.swapaxes(-1, -2), out=dhc[0])
        np.multiply(dc_tot, gf, out=dhc[1])
    return (ds, dhc, s.swapaxes(-1, -2) @ dpre, hc[0].swapaxes(-1, -2) @ dpre,
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
