"""Dense float64 array math with a minimal reverse-mode tape.

All tensors are row-major ``numpy.float64`` arrays. The primitive set is
fixed to what the recurrent optimizer and its training loss need: add, sub,
mul (Hadamard), matmul, concat, slice, scale, sum, max-over-list and one
fused LSTM cell, plus ``stack``. Every primitive accepts either plain arrays
(untaped, fast path) or :class:`Var` handles bound to a :class:`Tape`. Plain
arrays among taped operands are constants: they get no node, and
:func:`backward` skips them.

Each primitive is one function: it computes its value and, on a tape,
records a node holding its input ids and a closure that maps the output
adjoint to one adjoint per input. :func:`backward` sweeps the tape in
reverse and knows no primitive.

Elementwise ops require equal shapes, with one deliberate exception: a
``(1, H)`` row may be added to / multiplied with an ``(N, H)`` matrix (bias
rows). Anything broader is rejected.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Column blocks of the fused (in, 4H) gate matrices of the ``lstm`` primitive:
# the three sigmoid gates first, then the tanh candidate.
LSTM_GATES = ("i", "f", "o", "g")


class ShapeError(ValueError):
    pass


def as_tensor(x, name: str = "tensor", check_finite: bool = True) -> np.ndarray:
    """Coerce to a float64 array, rejecting NaN/Inf when ``check_finite``."""
    arr = np.asarray(x, dtype=np.float64)
    if check_finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def all_finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


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
        for name in self.grads:
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


def _check_elementwise(a: np.ndarray, b: np.ndarray, kind: str) -> None:
    if a.shape == b.shape:
        return
    # row-bias exception: (1, H) against (N, H)
    if a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[1] and 1 in (a.shape[0], b.shape[0]):
        return
    raise ShapeError(f"{kind}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    return grad.sum(axis=0, keepdims=True)


def add(a, b):
    x, y = value(a), value(b)
    _check_elementwise(x, y, "add")
    return _record((a, b), x + y,
                   lambda g: (_unbroadcast(g, x.shape), _unbroadcast(g, y.shape)))


def sub(a, b):
    x, y = value(a), value(b)
    _check_elementwise(x, y, "sub")
    return _record((a, b), x - y,
                   lambda g: (_unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)))


def mul(a, b):
    x, y = value(a), value(b)
    _check_elementwise(x, y, "mul")
    return _record((a, b), x * y,
                   lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


def matmul(a, b):
    x, y = value(a), value(b)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}")
    return _record((a, b), x @ y, lambda g: (g @ y.T, x.T @ g))


def concat(parts, axis=0):
    parts = tuple(parts)
    vals = [value(p) for p in parts]

    def backward(g):
        idx = [slice(None)] * g.ndim
        pieces, lo = [], 0
        for v in vals:
            idx[axis] = slice(lo, lo + v.shape[axis])
            pieces.append(g[tuple(idx)])
            lo += v.shape[axis]
        return pieces

    return _record(parts, np.concatenate(vals, axis=axis), backward)


def slice_(a, key):
    """``a[key]`` for any basic-indexing key."""
    x = value(a)

    def backward(g):
        dx = np.zeros(x.shape)
        dx[key] = g
        return (dx,)

    return _record((a,), np.asarray(x[key], dtype=np.float64), backward)


def scale(a, factor):
    factor = float(factor)
    return _record((a,), value(a) * factor, lambda g: (g * factor,))


def sum_(a):
    x = value(a)
    return _record((a,), np.asarray(x.sum()),
                   lambda g: (np.full(x.shape, g),))


def maxlist(parts):
    """The largest of scalar ``parts``; its adjoint goes to the first maximum only."""
    parts = tuple(parts)
    vals = [value(p) for p in parts]
    for v in vals:
        if v.size != 1:
            raise ShapeError("maxlist expects scalar inputs")
    flat = np.array([float(v) for v in vals])
    arg = int(np.argmax(flat))  # lowest index on ties
    shape, n = vals[arg].shape, len(vals)
    return _record(parts, np.asarray(flat[arg]),
                   lambda g: [g.reshape(shape) if i == arg else None for i in range(n)])


def stack(parts):
    """The arrays ``parts`` stacked on a new leading axis."""
    parts = tuple(parts)
    return _record(parts, np.stack([value(p) for p in parts]), tuple)


# A stacked cell runs slice by slice once one slice's gate block (N x 4H) has
# this many entries (128 KiB, glibc's default mmap threshold). Whole stacked
# blocks that large made malloc give the freed heap top back to the system
# after each call and fault it in again on the next: at N = 1870, H = 20,
# M = 2, about 1100 page faults and 40 % more time per ml2o_direction. Smaller
# stacks, such as meta-training's N = 8, H = 8 cells, run as one call.
_SLICE_GATE_ENTRIES = 2**14


def lstm(s, hc, wx, wh, b):
    """One LSTM cell update as a single tape node; returns the new state ``hc'``.

    ``s`` is (..., N, in) and ``hc`` is (2, ..., N, H), holding h then c;
    ``wx`` (..., in, 4H), ``wh`` (..., H, 4H) and ``b`` (..., 1, 4H) hold
    the gates in :data:`LSTM_GATES` column order. Leading axes stack
    independent cells, and each slice of the result equals, bit for bit, the
    call on that slice alone. With ``pre = s wx + h wh + b`` split into gates
    i, f, o, g: ``c' = sigmoid(f) c + sigmoid(i) tanh(g)`` and
    ``h' = sigmoid(o) tanh(c')``, returned as one (2, ..., N, H) array.
    Taped and untaped calls run the same arithmetic.
    """
    args = (s, hc, wx, wh, b)
    vals = [value(x) for x in args]
    taped = [isinstance(x, Var) for x in args]
    out, gates, tc = _lstm_forward(*vals, keep=any(taped))
    return _record(args, out, lambda g: _lstm_backward(g, gates, tc, *vals[:4], *taped[:2]))


def _lstm_forward(s, hc, wx, wh, b, keep):
    """``(hc', gates, tanh(c'))``, the last two for the backward.

    A slice-by-slice run keeps them only when ``keep``; an untaped run frees
    each slice's buffers as it goes. Buffers are allocated in the order one
    cell needs them (gates, hc', tanh(c')): at N = 1870 the heap then reuses
    its pages across calls, where allocating all three up front made it
    fault in about 1100 more pages per ``ml2o_direction`` call.
    """
    lead, hid = s.shape[:-2], hc.shape[-1]
    shapes_ok = (
        s.ndim >= 2 and hc.shape == (2,) + s.shape[:-1] + (hid,)
        and wx.shape == lead + (s.shape[-1], 4 * hid)
        and wh.shape == lead + (hid, 4 * hid)
        and b.shape == lead + (1, 4 * hid)
    )
    if not shapes_ok:
        raise ShapeError(
            f"lstm: incompatible shapes s {s.shape}, hc {hc.shape}, "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    if not (lead and s.shape[-2] * 4 * hid >= _SLICE_GATE_ENTRIES):
        return _lstm_cell(s, hc, wx, wh, b)
    out = np.empty(hc.shape)
    gates = tc = None
    if keep:
        gates, tc = np.empty(s.shape[:-1] + (4 * hid,)), np.empty(s.shape[:-1] + (hid,))
    for i in np.ndindex(lead):
        both = (slice(None),) + i
        kept = (gates[i], tc[i]) if keep else ()
        _lstm_cell(s[i], hc[both], wx[i], wh[i], b[i], out[both], *kept)
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
    """Adjoints of (s, hc, wx, wh, b) from the output adjoint g = (dh', dc').

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
    several nodes (``add`` hands its ``g`` to both inputs). Constant inputs
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
