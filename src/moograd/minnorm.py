"""Min-norm-over-simplex subproblem and the common-descent direction.

Given a stack of per-objective gradient rows W (M x N), solve
``min_{lam in simplex} |W' lam|^2`` exactly with an active-set method on the
M x M Gram matrix, in the style of Wolfe's min-norm-point algorithm (Wolfe
1976, "Finding the nearest point in a polytope"). The solve runs on Python
floats from the Gram's ``tolist()`` to the weights: the affine minimiser of
two vertices is the closed form of the edge, that of more is Gaussian
elimination without pivoting, which gives up (None) on a pivot that is not
positive; numpy only forms the Gram and ``W' lam``. ``combined`` is ``W' lam``
(the convex combination of the rows); ``descent_direction`` is its negation,
and every optimizer in this package updates
``x <- x + alpha * descent_direction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import all_finite


def validate_gradient_matrix(w, ndim: int = 2) -> np.ndarray:
    """``w`` as float64: an (M, N) matrix, or a (P, M, N) stack when ``ndim`` is 3."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != ndim:
        raise ValueError(f"gradient matrix must be {ndim}-D, got shape {w.shape}")
    m, n = w.shape[-2:]
    if m < 2 or n < 1:
        raise ValueError(f"gradient matrix needs M >= 2 rows and N >= 1 cols, got {w.shape}")
    if not all_finite(w):
        raise ValueError("gradient matrix contains non-finite entries")
    return w


def _solver_limits(tol, max_iter, m: int) -> tuple[float, int]:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 100 * m
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return float(tol), int(max_iter)


@dataclass
class MinNormSolution:
    """One solve; :func:`solve_min_norm_many` fills each field with a leading P axis."""

    weights: np.ndarray          # lam on the simplex, shape (M,)
    combined: np.ndarray         # W' lam, shape (N,)
    descent_direction: np.ndarray  # -combined
    dual_norm_sq: float          # |W' lam|^2 from the Gram, floored at 0.0 against rounding
    gap: float                   # simplex gap 2 (lam' G lam - min_j (G lam)_j) of lam
    iterations: int              # active-set (major) iterations
    converged: bool              # gap <= tol


def _affine_minimizer(gram, active):
    """Weights summing to one that minimise ``|sum_k x_k w_{active[k]}|^2``.

    This is the KKT system of the equality-constrained problem with the
    multiplier eliminated: relative to the base row ``a = active[0]`` the
    offsets ``t`` solve ``D t = G_aa - G_ia`` with
    ``D_ij = G_ij - G_ia - G_aj + G_aa``, which is positive definite while the
    active rows are affinely independent. Two vertices take the closed form
    of the edge; more take Gaussian elimination without pivoting, on Python
    floats. Returns None when a pivot (the edge's denominator included) is
    not positive.
    """
    a = active[0]
    if len(active) == 1:
        return [1.0]
    gaa = gram[a][a]
    if len(active) == 2:  # the closed form of the edge
        b = active[1]
        denom = gaa - 2.0 * gram[a][b] + gram[b][b]
        if denom <= 0.0:
            return None
        t = (gaa - gram[a][b]) / denom
        return [1.0 - t, t]
    rest = active[1:]
    n = len(rest)
    # the rows of [D | G_aa - G_ia]
    d = [[gram[i][j] - gram[i][a] - gram[a][j] + gaa for j in rest] + [gaa - gram[i][a]]
         for i in rest]
    for k, dk in enumerate(d):
        piv = dk[k]
        if not piv > 0.0:
            return None
        for di in d[k + 1:]:
            f = di[k] / piv
            for j in range(k + 1, n + 1):
                di[j] -= f * dk[j]
    t = [0.0] * n
    for k in range(n - 1, -1, -1):
        dk = d[k]
        s = dk[n]
        for j in range(k + 1, n):
            s -= dk[j] * t[j]
        t[k] = s / dk[k]
    return [1.0 - sum(t)] + t


def _active_set(gram, tol, max_iter):
    """Wolfe-style active-set solve of ``min lam' G lam`` over the simplex.

    ``gram`` is a list of rows: M is a handful of objectives, so Python floats
    beat numpy's per-call overhead here. Each major iteration adds the vertex
    with the smallest ``(G lam)_j`` and moves to the affine minimiser of the
    active set; minor iterations step back along the segment to the first
    weight that reaches zero and drop it. Stops when the gap is at most
    ``tol``, after ``max_iter`` major iterations, or at the limit of working
    precision: when the chosen vertex is already active, or a major iteration
    no longer lowers the objective. ``G lam`` is summed row by row in active
    order, starting from the integer 0. Returns ``(lam, lam' G lam, gap,
    iterations)`` with ``lam`` a list.
    """
    m = len(gram)
    diag = [gram[i][i] for i in range(m)]
    j = diag.index(min(diag))
    active, weights = [j], [1.0]
    g = gram[j]  # G lam, by symmetry of G
    obj = g[j]
    it = 0
    for it in range(1, max_iter + 1):
        g_min = min(g)
        if 2.0 * (obj - g_min) <= tol:
            break
        j = g.index(g_min)
        if j in active:
            break
        cand, cur = active + [j], weights + [0.0]
        while True:
            x = _affine_minimizer(gram, cand)
            if x is None or min(x) > 0.0:
                break
            theta, out = min(
                (c / (c - v) if c > v else 0.0, k)
                for k, (c, v) in enumerate(zip(cur, x))
                if v <= 0.0
            )
            cur = [c + theta * (v - c) for c, v in zip(cur, x)]
            cur[out] = 0.0
            cand = [i for i, c in zip(cand, cur) if c > 0.0]
            cur = [c for c in cur if c > 0.0]
        if x is None:
            break
        g_new = [0] * m
        for i, v in zip(cand, x):
            g_new = [s + r * v for s, r in zip(g_new, gram[i])]
        obj_new = 0
        for i, v in zip(cand, x):
            obj_new += g_new[i] * v
        if not obj_new < obj:
            break
        active, weights, g, obj = cand, x, g_new, obj_new
    lam = [0.0] * m
    for i, v in zip(active, weights):
        lam[i] = v
    return lam, obj, 2.0 * (obj - min(g)), it


def solve_min_norm(w, tol: float = 1e-10, max_iter: int | None = None) -> MinNormSolution:
    """Min-norm convex combination of the rows of ``w``.

    Never fails silently: if the gap of the returned weights is above
    ``tol`` (after ``max_iter`` major iterations, default ``100 * M``, or at
    the limit of working precision) the solution is returned with
    ``converged=False``.
    """
    w = validate_gradient_matrix(w)
    tol, max_iter = _solver_limits(tol, max_iter, w.shape[0])
    lam, obj, gap, iters = _active_set((w @ w.T).tolist(), tol, max_iter)
    lam = np.array(lam)
    combined = w.T @ lam
    return MinNormSolution(
        weights=lam,
        combined=combined,
        descent_direction=-combined,
        dual_norm_sq=max(obj, 0.0),
        gap=gap,
        iterations=iters,
        converged=bool(gap <= tol),
    )


def _two_vertex_steps(gram, tol, max_iter):
    """The first two major iterations of ``_active_set`` on a stack of 2 x 2 Grams.

    Start at the shorter row ``a`` (ties go to row 0); if its gap is above
    ``tol``, move to the affine minimiser of the edge ``[a, b]`` in closed
    form. Every float operation is the one ``_active_set`` and
    ``_affine_minimizer`` make on Python floats, in the same order
    (``_active_set`` sums ``G lam`` as a running sum of Gram rows scaled by
    the weights in active order, from the integer 0, so entry k of the edge
    is ``(0.0 + G_ak x_a) + G_bk x_b``, and ``lam' G lam`` likewise), so a
    certified row equals the scalar solve bit for bit. Returns
    ``(certified, lam, obj, gap, iterations)``; a row is certified when its
    gap is at most ``tol`` after the vertex or after the edge step. The other
    rows (a non-positive
    edge denominator, an edge weight that is not positive, no decrease, a
    gap still above ``tol``, or ``max_iter`` < 2) hold no result.
    """
    rows = np.arange(len(gram))
    a = np.where(gram[:, 0, 0] <= gram[:, 1, 1], 0, 1)
    b = 1 - a
    ga, gb = gram[rows, a], gram[rows, b]  # rows a and b of each Gram
    gaa, gab, gbb = ga[rows, a], ga[rows, b], gb[rows, b]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap_vertex = 2.0 * (gaa - ga.min(axis=1))
        denom = gaa - 2.0 * gab + gbb
        t = (gaa - gab) / denom
        x0 = 1.0 - t
        g_edge = (0.0 + ga * x0[:, None]) + gb * t[:, None]  # G lam on the edge
        obj_edge = (0.0 + g_edge[rows, a] * x0) + g_edge[rows, b] * t
        gap_edge = 2.0 * (obj_edge - g_edge.min(axis=1))
    at_vertex = gap_vertex <= tol
    on_edge = (
        (gap_vertex > tol)
        & (denom > 0.0)
        & (np.minimum(x0, t) > 0.0)
        & (obj_edge < gaa)
        & (gap_edge <= tol)
        & (max_iter >= 2)
    )
    lam = np.zeros((len(gram), 2))
    lam[rows, a] = np.where(at_vertex, 1.0, x0)
    lam[rows, b] = np.where(at_vertex, 0.0, t)
    obj = np.where(at_vertex, gaa, obj_edge)
    gap = np.where(at_vertex, gap_vertex, gap_edge)
    return at_vertex | on_edge, lam, obj, gap, np.where(at_vertex, 1, 2)


def solve_min_norm_many(ws, tol: float = 1e-10, max_iter: int | None = None) -> MinNormSolution:
    """``solve_min_norm`` of every (M, N) matrix in the stack ``ws`` (P, M, N).

    Returns one :class:`MinNormSolution` whose fields carry a leading P
    axis, each row equal bit for bit to ``solve_min_norm(ws[p], tol,
    max_iter)``. A one-row stack is that solve itself, whose fixed cost is
    lower; it validates the matrix once. Otherwise the Grams come from one
    stacked matmul and, at M = 2, the first two active-set iterations run on
    all rows at once (:func:`_two_vertex_steps`); rows they do not certify,
    and every row at M > 2, run ``_active_set`` one at a time.
    """
    ws = np.asarray(ws, dtype=np.float64)
    if ws.ndim == 3 and len(ws) == 1:
        one = solve_min_norm(ws[0], tol, max_iter)
        return MinNormSolution(*(np.array([v]) for v in vars(one).values()))
    ws = validate_gradient_matrix(ws, ndim=3)
    tol, max_iter = _solver_limits(tol, max_iter, ws.shape[1])
    gram = ws @ ws.transpose(0, 2, 1)
    p, m = gram.shape[:2]
    if m == 2:
        done, lam, obj, gap, iters = _two_vertex_steps(gram, tol, max_iter)
    else:
        done, lam = np.zeros(p, dtype=bool), np.zeros((p, m))
        obj, gap, iters = np.zeros(p), np.zeros(p), np.zeros(p, dtype=np.int64)
    for i in np.flatnonzero(~done):
        lam[i], obj[i], gap[i], iters[i] = _active_set(gram[i].tolist(), tol, max_iter)
    combined = (lam[:, None, :] @ ws)[:, 0, :]
    # as max(obj, 0.0) in solve_min_norm: the two differ only at -0.0, and no
    # objective is -0.0, since every one is a sum that starts at +0.0
    return MinNormSolution(
        weights=lam,
        combined=combined,
        descent_direction=-combined,
        dual_norm_sq=np.maximum(obj, 0.0),
        gap=gap,
        iterations=iters,
        converged=gap <= tol,
    )


def min_norm_2obj_oracle(g1, g2) -> np.ndarray:
    """Closed-form simplex weights for the two-row case.

    ``lam1 = clip(((g2-g1).g2) / |g1-g2|^2, 0, 1)``; identical rows return
    ``(1, 0)`` by convention.
    """
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if g1.shape != g2.shape:
        raise ValueError(f"rows must have equal length, got {g1.shape} and {g2.shape}")
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom == 0.0:
        return np.array([1.0, 0.0])
    lam1 = float(np.clip(((g2 - g1) @ g2) / denom, 0.0, 1.0))
    return np.array([lam1, 1.0 - lam1])


def simplex_grid_oracle(w, resolution: int = 500) -> np.ndarray:
    """Brute-force grid minimizer of ``|W' lam|^2`` over the simplex (M<=3)."""
    w = validate_gradient_matrix(w)
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    m = w.shape[0]
    if m == 2:
        t = np.arange(resolution + 1) / resolution
        lams = np.stack([t, 1.0 - t], axis=1)
    elif m == 3:
        i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
        keep = (i + j) <= resolution
        a = i[keep] / resolution
        b = j[keep] / resolution
        lams = np.stack([a, b, 1.0 - a - b], axis=1)
    else:
        raise ValueError(f"grid oracle supports M in (2, 3), got M={m}")
    objs = np.einsum("ij,ij->i", lams @ w, lams @ w)
    return lams[int(np.argmin(objs))]


def criticality_measure(problem, x, tol: float = 1e-10) -> float:
    """``|grad_F(x)' lam*(x)|`` from the exact Jacobian; zero iff Pareto critical."""
    jac = problem.full_jacobian(np.asarray(x, dtype=np.float64))
    sol = solve_min_norm(jac, tol=tol)
    return float(np.linalg.norm(sol.combined))
