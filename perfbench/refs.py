"""Reference computations for the benchmark's correctness checks.

Each function is written from the documented definition with plain numpy,
apart from the package under test, so that a check compares the program
with an independent computation rather than with itself.
"""

from __future__ import annotations

import hashlib

import numpy as np


# --- ML2O forward ---------------------------------------------------------

def preprocess(g, p=10.0):
    """(log|g|/p, sign g) where |g| >= e^-p, else (-1, e^p g); shape (N, 2)."""
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    big = np.abs(g) >= np.exp(-p)
    out = np.empty((g.size, 2))
    safe = np.where(big, np.abs(g), 1.0)
    out[:, 0] = np.where(big, np.log(safe) / p, -1.0)
    out[:, 1] = np.where(big, np.sign(g), np.exp(p) * g)
    return out


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_cell(s, h, c, arrays, prefix):
    """Gates i, f, g, o; c' = f*c + i*g; h' = o*tanh(c')."""

    def pre(gate):
        a = lambda name: arrays[f"{prefix}{name}_{gate}"]
        return s @ a("wx") + a("bx") + h @ a("wh") + a("bh")

    i, f, o = _sigmoid(pre("i")), _sigmoid(pre("f")), _sigmoid(pre("o"))
    g = np.tanh(pre("g"))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def ml2o_init_state(m, hidden, n):
    """Zero state: per-objective (h, c) of width H and shared (h, c) of width M*H."""
    zeros = lambda w: np.zeros((n, w))
    return ([zeros(hidden) for _ in range(m)], [zeros(hidden) for _ in range(m)],
            zeros(m * hidden), zeros(m * hidden))


def ml2o_forward(y_rows, state, arrays):
    """One coordinatewise step of the learned optimizer: returns (g (N,), new state).

    Objective i's cell reads preprocess(y_i); the shared cell reads the
    concatenated per-objective hidden states; a linear head maps the shared
    hidden state to the update.
    """
    spec_h, spec_c, sh_h, sh_c = state
    new_h, new_c = [], []
    for i, row in enumerate(np.asarray(y_rows, dtype=np.float64)):
        h, c = lstm_cell(preprocess(row), spec_h[i], spec_c[i], arrays, f"specific{i}.")
        new_h.append(h)
        new_c.append(c)
    sh_h, sh_c = lstm_cell(np.concatenate(new_h, axis=1), sh_h, sh_c, arrays, "shared.")
    g = sh_h @ arrays["head.w"] + arrays["head.b"]
    return g.reshape(-1), (new_h, new_c, sh_h, sh_c)


# --- problems ---------------------------------------------------------------

def quadratic_losses(x, centers):
    """0.5 |x - c_i|^2 for each centre (identity curvature)."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([0.5 * float(np.sum((x - c) ** 2)) for c in centers])


def point_segment_distance(x, a, b):
    """Euclidean distance from x to the segment [a, b]."""
    seg = b - a
    t = float(np.clip(np.dot(x - a, seg) / np.dot(seg, seg), 0.0, 1.0))
    return float(np.linalg.norm(x - (a + t * seg)))


def toy_mtl_cross_entropy(x, xs, labels, hidden, classes, idx=None):
    """Per-task mean cross-entropy of the shared tanh encoder with two linear heads.

    ``x`` is laid out as encoder weights (F, H), encoder bias (H), then for
    each task head weights (H, C) and head bias (C).
    """
    x = np.asarray(x, dtype=np.float64)
    if idx is not None:
        xs, labels = xs[idx], labels[:, idx]
    f = xs.shape[1]
    w_enc = x[: f * hidden].reshape(f, hidden)
    b_enc = x[f * hidden : f * hidden + hidden]
    hid = np.tanh(xs @ w_enc + b_enc)
    out = np.empty(2)
    off = f * hidden + hidden
    for t in range(2):
        w = x[off : off + hidden * classes].reshape(hidden, classes)
        b = x[off + hidden * classes : off + hidden * classes + classes]
        off += hidden * classes + classes
        logits = hid @ w + b
        top = logits.max(axis=1)
        lse = top + np.log(np.sum(np.exp(logits - top[:, None]), axis=1))
        out[t] = float(np.mean(lse - logits[np.arange(len(logits)), labels[t]]))
    return out


# --- min-norm subproblem ----------------------------------------------------

def simplex_gap(w, lam):
    """Frank-Wolfe gap 2 (lam' G lam - min_i (G lam)_i) of the simplex QP, G = W W'."""
    gl = (w @ w.T) @ lam
    return 2.0 * (float(lam @ gl) - float(gl.min()))


def min_norm_2obj(w):
    """Closed-form minimiser of |W' lam|^2 over the 2-simplex."""
    diff = w[0] - w[1]
    denom = float(diff @ diff)
    if denom == 0.0:
        return np.array([1.0, 0.0])
    t = float(np.clip(-(diff @ w[1]) / denom, 0.0, 1.0))
    return np.array([t, 1.0 - t])


# --- fronts and run files ---------------------------------------------------

def nondominated(points):
    """Mask of points no other point dominates (<= everywhere, < somewhere)."""
    p = np.asarray(points, dtype=np.float64)
    le = np.all(p[:, None, :] <= p[None, :, :], axis=2)
    lt = np.any(p[:, None, :] < p[None, :, :], axis=2)
    dominated_by = le & lt  # [j, i]: j dominates i
    return ~dominated_by.any(axis=0)


def hypervolume_2d(front, ref):
    """Area between a 2-objective front and a reference point (minimisation)."""
    pts = sorted(map(tuple, np.asarray(front, dtype=np.float64)))
    area, ceiling = 0.0, ref[1]
    for f1, f2 in pts:
        if f2 < ceiling:
            area += (ref[0] - f1) * (ceiling - f2)
            ceiling = f2
    return area


def csv_content_hash(text):
    """SHA-256 over the CSV lines, each with its last (wall-time) cell blanked."""
    digest = hashlib.sha256()
    for line in text.splitlines():
        digest.update((line[: line.rfind(",") + 1] + "\n").encode())
    return digest.hexdigest()
