"""Dense float64 array math with a minimal reverse-mode tape.

All tensors are row-major ``numpy.float64`` arrays. The primitive set is
fixed to what the recurrent optimizer and its training loss need: add, sub,
mul (Hadamard), matmul, concat, slice, scale, sum, max-over-list and one
fused LSTM cell. Every primitive accepts either plain arrays (untaped, fast
path) or :class:`Var` handles bound to a :class:`Tape`; mixing the two lifts
arrays to constants on the operand's tape.

Elementwise ops require equal shapes, with one deliberate exception: a
``(1, H)`` row may be added to / multiplied with an ``(N, H)`` matrix (bias
rows). Anything broader is rejected.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

OP_KINDS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "matmul",
        "concat",
        "slice",
        "lstm",
        "scale",
        "sum",
        "maxlist",
        "const",
        "param",
    }
)


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
    __slots__ = ("kind", "inputs", "value", "aux")

    def __init__(self, kind: str, inputs: tuple[int, ...], value: np.ndarray, aux=None):
        self.kind = kind
        self.inputs = inputs
        self.value = value
        self.aux = aux


class Var:
    """Handle to a node on a tape. ``value`` is the forward array."""

    __slots__ = ("tape", "nid")

    def __init__(self, tape: "Tape", nid: int):
        self.tape = tape
        self.nid = nid

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.nid].value


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

    def set_(self, name: str, value) -> None:
        arr = as_tensor(value, name)
        if arr.shape != self.params[name].shape:
            raise ShapeError(f"parameter {name!r}: shape {arr.shape} != {self.params[name].shape}")
        self.params[name] = arr

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

    def _append(self, kind, inputs, value, aux=None) -> Var:
        self.nodes.append(TapeNode(kind, inputs, value, aux))
        return Var(self, len(self.nodes) - 1)

    def constant(self, value) -> Var:
        return self._append("const", (), np.asarray(value, dtype=np.float64))

    def param(self, store: ParamStore, name: str) -> Var:
        return self._append("param", (), store.params[name], aux=(store, name))


def _lift(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands live on different tapes")
        return x
    return tape.constant(x)


def _find_tape(args: Iterable) -> Tape | None:
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


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


def primitive_forward(kind: str, inputs: Sequence, **attrs):
    """Apply one primitive. Taped when any input is a :class:`Var`.

    ``scale`` takes ``factor``, ``concat`` takes ``axis``, ``slice`` takes
    ``key`` (any basic-indexing key). ``lstm`` returns ``h'`` and ``c'``
    stacked into one (2, N, H) array; see :func:`lstm`.
    """
    if kind not in OP_KINDS or kind in ("const", "param"):
        raise ValueError(f"unknown primitive kind {kind!r}")
    tape = _find_tape(inputs)
    vals = [_val(x) for x in inputs]

    if kind == "add" or kind == "sub" or kind == "mul":
        a, b = vals
        _check_elementwise(a, b, kind)
        if kind == "add":
            out = a + b
        elif kind == "sub":
            out = a - b
        else:
            out = a * b
        aux = None
    elif kind == "matmul":
        a, b = vals
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        out = a @ b
        aux = None
    elif kind == "concat":
        axis = attrs.get("axis", 0)
        out = np.concatenate(vals, axis=axis)
        aux = (axis, [v.shape[axis] for v in vals])
    elif kind == "slice":
        (a,) = vals
        key = attrs["key"]
        out = np.asarray(a[key], dtype=np.float64)
        aux = (key, a.shape)
    elif kind == "lstm":
        out, aux = _lstm_forward(*vals)
    elif kind == "scale":
        (a,) = vals
        factor = float(attrs["factor"])
        out = a * factor
        aux = factor
    elif kind == "sum":
        (a,) = vals
        out = np.asarray(a.sum())
        aux = a.shape
    elif kind == "maxlist":
        for v in vals:
            if v.size != 1:
                raise ShapeError("maxlist expects scalar inputs")
        flat = np.array([float(v) for v in vals])
        arg = int(np.argmax(flat))  # lowest index on ties
        out = np.asarray(flat[arg])
        aux = arg
    else:  # pragma: no cover
        raise ValueError(kind)

    if tape is None:
        return out
    ids = tuple(_lift(tape, x).nid for x in inputs)
    return tape._append(kind, ids, out, aux)


def add(a, b):
    return primitive_forward("add", (a, b))


def sub(a, b):
    return primitive_forward("sub", (a, b))


def mul(a, b):
    return primitive_forward("mul", (a, b))


def matmul(a, b):
    return primitive_forward("matmul", (a, b))


def concat(parts, axis=0):
    return primitive_forward("concat", tuple(parts), axis=axis)


def slice_(a, key):
    return primitive_forward("slice", (a,), key=key)


def lstm(s, h, c, wx, wh, b):
    """One LSTM cell update as a single tape node; returns ``(h', c')``.

    ``s`` is (N, in), ``h`` and ``c`` are (N, H); ``wx`` (in, 4H), ``wh``
    (H, 4H) and ``b`` (1, 4H) hold the gates in :data:`LSTM_GATES` column
    order. With ``pre = s wx + h wh + b`` split into gates i, f, o, g:
    ``c' = sigmoid(f) c + sigmoid(i) tanh(g)`` and
    ``h' = sigmoid(o) tanh(c')``. Taped and untaped calls run the same code.
    """
    hc = primitive_forward("lstm", (s, h, c, wx, wh, b))
    return slice_(hc, 0), slice_(hc, 1)


def _lstm_forward(s, h, c, wx, wh, b):
    shapes_ok = (
        s.ndim == 2 and c.ndim == 2 and h.shape == c.shape and s.shape[0] == c.shape[0]
        and wx.shape == (s.shape[1], 4 * c.shape[1])
        and wh.shape == (c.shape[1], 4 * c.shape[1])
        and b.shape == (1, 4 * c.shape[1])
    )
    if not shapes_ok:
        raise ShapeError(
            f"lstm: incompatible shapes s {s.shape}, h {h.shape}, c {c.shape}, "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    n, hid = c.shape
    gates = s @ wx
    gates += h @ wh
    gates += b
    # Activations in place; sigmoid(z) = 0.5 + 0.5 tanh(z / 2) cannot overflow.
    sig = gates[:, : 3 * hid]
    sig *= 0.5
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    cand = gates[:, 3 * hid :]
    np.tanh(cand, out=cand)
    gi, gf, go = sig[:, :hid], sig[:, hid : 2 * hid], sig[:, 2 * hid :]
    out = np.empty((2, n, hid))
    h_new, c_new = out
    np.multiply(gf, c, out=c_new)
    np.multiply(gi, cand, out=h_new)  # h_new holds i*g until h' is written
    c_new += h_new
    tc = np.tanh(c_new)
    np.multiply(go, tc, out=h_new)
    return out, (gates, tc)


def _lstm_backward(g, gates, tc, s, h, c, wx, wh):
    """Adjoints of (s, h, c, wx, wh, b) from the stacked output adjoint g = (dh', dc')."""
    hid = tc.shape[1]
    gi, gf, go, cand = (gates[:, k * hid : (k + 1) * hid] for k in range(4))
    dh_new, dc_new = g
    dc_tot = dh_new * go
    dc_tot *= 1.0 - tc * tc
    dc_tot += dc_new
    dpre = np.empty_like(gates)
    np.multiply(dc_tot, cand, out=dpre[:, :hid])
    np.multiply(dc_tot, c, out=dpre[:, hid : 2 * hid])
    np.multiply(dh_new, tc, out=dpre[:, 2 * hid : 3 * hid])
    np.multiply(dc_tot, gi, out=dpre[:, 3 * hid :])
    sig = gates[:, : 3 * hid]
    dpre[:, : 3 * hid] *= sig * (1.0 - sig)
    dpre[:, 3 * hid :] *= 1.0 - cand * cand
    return (dpre @ wx.T, dpre @ wh.T, dc_tot * gf, s.T @ dpre, h.T @ dpre,
            dpre.sum(axis=0, keepdims=True))


def scale(a, factor):
    return primitive_forward("scale", (a,), factor=factor)


def sum_(a):
    return primitive_forward("sum", (a,))


def maxlist(parts):
    return primitive_forward("maxlist", tuple(parts))


def backward(tape: Tape, output: Var) -> None:
    """Accumulate d(output)/d(param) into each leaf's ParamStore gradients.

    The output must be scalar. Repeated calls keep accumulating until the
    stores' ``zero_grad`` is called.
    """
    if output.tape is not tape:
        raise ValueError("output does not belong to this tape")
    out_node = tape.nodes[output.nid]
    if out_node.value.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {out_node.value.shape}")

    adj: list[np.ndarray | None] = [None] * len(tape.nodes)
    adj[output.nid] = np.ones_like(out_node.value)

    for nid in range(output.nid, -1, -1):
        g = adj[nid]
        if g is None:
            continue
        node = tape.nodes[nid]
        kind = node.kind

        def send(iid: int, contrib: np.ndarray) -> None:
            if adj[iid] is None:
                adj[iid] = contrib.copy()
            else:
                adj[iid] = adj[iid] + contrib

        if kind == "const":
            continue
        if kind == "param":
            store, name = node.aux
            store.grads[name] += g
            continue
        ins = node.inputs
        if kind == "add":
            a, b = (tape.nodes[i].value for i in ins)
            send(ins[0], _unbroadcast(g, a.shape))
            send(ins[1], _unbroadcast(g, b.shape))
        elif kind == "sub":
            a, b = (tape.nodes[i].value for i in ins)
            send(ins[0], _unbroadcast(g, a.shape))
            send(ins[1], _unbroadcast(-g, b.shape))
        elif kind == "mul":
            a, b = (tape.nodes[i].value for i in ins)
            send(ins[0], _unbroadcast(g * b, a.shape))
            send(ins[1], _unbroadcast(g * a, b.shape))
        elif kind == "matmul":
            a, b = (tape.nodes[i].value for i in ins)
            send(ins[0], g @ b.T)
            send(ins[1], a.T @ g)
        elif kind == "concat":
            axis, sizes = node.aux
            offset = 0
            for iid, size in zip(ins, sizes):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + size)
                send(iid, g[tuple(idx)])
                offset += size
        elif kind == "slice":
            key, in_shape = node.aux
            if adj[ins[0]] is None:
                adj[ins[0]] = np.zeros(in_shape)
            adj[ins[0]][key] += g  # adjoint buffers are owned, never shared
        elif kind == "lstm":
            s, h, c, wx, wh, _ = (tape.nodes[i].value for i in ins)
            for iid, contrib in zip(ins, _lstm_backward(g, *node.aux, s, h, c, wx, wh)):
                send(iid, contrib)
        elif kind == "scale":
            send(ins[0], g * node.aux)
        elif kind == "sum":
            send(ins[0], np.broadcast_to(g, node.aux).astype(np.float64))
        elif kind == "maxlist":
            arg = node.aux
            send(ins[arg], g.reshape(tape.nodes[ins[arg]].value.shape))
        else:  # pragma: no cover
            raise ValueError(kind)


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
