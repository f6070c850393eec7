import numpy as np
import pytest

from moograd import minnorm
from moograd.minnorm import (
    criticality_measure,
    min_norm_2obj_oracle,
    simplex_grid_oracle,
    solve_min_norm,
    solve_min_norm_many,
)
from moograd.problems import QuadraticPair


def test_symmetric_unit_axes():
    sol = solve_min_norm(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-10)
    assert sol.dual_norm_sq == pytest.approx(0.5, abs=1e-10)
    assert np.array_equal(sol.descent_direction, -sol.combined)


def test_identical_rows():
    g = np.array([0.3, -1.2, 0.7])
    sol = solve_min_norm(np.stack([g, g]))
    assert np.allclose(sol.combined, g)
    assert sol.dual_norm_sq == pytest.approx(float(g @ g))


def test_pareto_critical_opposed_rows():
    sol = solve_min_norm(np.array([[2.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(sol.weights, [1 / 3, 2 / 3], atol=1e-8)
    assert np.allclose(sol.combined, 0.0, atol=1e-10)
    assert np.allclose(sol.descent_direction, 0.0, atol=1e-10)


def test_not_converged_flag_instead_of_silent_failure():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 4))
    sol = solve_min_norm(w, tol=1e-16, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1


def test_rejects_bad_matrices():
    with pytest.raises(ValueError, match="M >= 2"):
        solve_min_norm(np.ones((1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        solve_min_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="tol"):
        solve_min_norm(np.eye(2), tol=0.0)


def brute_force_lambda1(g1, g2, points=10**6):
    """Dense 1-D scan of |lam g1 + (1-lam) g2|^2, independent of the oracle."""
    lam = np.linspace(0.0, 1.0, points)
    combos = lam[:, None] * g1 + (1 - lam)[:, None] * g2
    return lam[np.argmin(np.einsum("ij,ij->i", combos, combos))]


def test_2obj_oracle_against_dense_scan():
    g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert min_norm_2obj_oracle(g1, g2)[0] == pytest.approx(brute_force_lambda1(g1, g2), abs=1e-5)
    g1, g2 = np.array([2.0, 0.0]), np.array([-1.0, 0.0])
    assert min_norm_2obj_oracle(g1, g2)[0] == pytest.approx(1 / 3, abs=1e-9)
    assert min_norm_2obj_oracle(g1, g2)[0] == pytest.approx(brute_force_lambda1(g1, g2), abs=1e-5)


def test_2obj_oracle_degenerate_convention():
    g = np.array([0.5, 0.5])
    assert np.array_equal(min_norm_2obj_oracle(g, g), [1.0, 0.0])


def test_grid_oracle():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(simplex_grid_oracle(w, 1000), [0.5, 0.5], atol=1e-3)
    lam3 = simplex_grid_oracle(np.eye(3), 300)
    assert np.allclose(lam3, [1 / 3, 1 / 3, 1 / 3], atol=1 / 300 + 1e-12)
    w0 = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert np.array_equal(simplex_grid_oracle(w0, 100), [1.0, 0.0])
    with pytest.raises(ValueError, match="M in"):
        simplex_grid_oracle(np.eye(4), 100)


def test_fw_matches_2obj_oracle_bulk():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = rng.integers(1, 11)
        w = rng.uniform(-1, 1, size=(2, n))
        sol = solve_min_norm(w)
        lam = min_norm_2obj_oracle(w[0], w[1])
        obj_oracle = float(np.sum((w.T @ lam) ** 2))
        assert abs(sol.dual_norm_sq - obj_oracle) <= 1e-9


def simplex_gap(w, lam):
    """2 (lam' G lam - min_j (G lam)_j) with G = W W', recomputed from lam."""
    gl = (w @ w.T) @ lam
    return 2.0 * (float(lam @ gl) - float(gl.min()))


def hard_battery(seed):
    """Random stacks at M = 2..8 plus the degenerate shapes an exact solver must handle."""
    rng = np.random.default_rng(seed)
    out = []
    for m in range(2, 9):
        out += [rng.normal(size=(m, int(rng.integers(1, 10)))) for _ in range(10)]
        out.append(rng.normal(size=(m, 1)))  # N = 1: rank-1 Gram
        dup = rng.normal(size=(m, 3))
        dup[-1] = dup[0]
        out.append(dup)
        zero = rng.normal(size=(m, 4))
        zero[m // 2] = 0.0
        out.append(zero)
        for n in (m - 1, 2):  # origin strictly inside the hull (the rows' centroid)
            w = rng.normal(size=(m, n))
            out.append(w - w.mean(axis=0))
        out.append(rng.normal(size=(m, 5)) + 3.0)  # hull far from the origin
    return out


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_every_solve_converges_on_hard_battery(scale):
    tol = 1e-10 * scale  # the problem and its gap both scale with the Gram
    for w in hard_battery(17):
        w = w * np.sqrt(scale)
        sol = solve_min_norm(w, tol=tol)
        assert sol.converged, (w.shape, sol.gap)
        assert sol.weights.min() >= 0.0 and abs(sol.weights.sum() - 1.0) <= 1e-12
        assert simplex_gap(w, sol.weights) <= tol
        assert sol.gap == pytest.approx(simplex_gap(w, sol.weights), abs=1e-3 * tol)
        assert np.allclose(sol.combined, w.T @ sol.weights, rtol=1e-12, atol=1e-14 * np.sqrt(scale))


SOLUTION_FIELDS = (
    "weights", "combined", "descent_direction", "dual_norm_sq", "gap", "iterations", "converged"
)


def stacked_handoffs(monkeypatch, ws, **kw):
    """Solve ``ws`` stacked and one by one; assert equal bits; return the stacked
    solve's number of per-row ``_active_set`` calls."""
    calls = []
    real = minnorm._active_set

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(minnorm, "_active_set", counting)
    many = solve_min_norm_many(ws, **kw)
    handoffs = len(calls)
    for p, w in enumerate(ws):
        one = solve_min_norm(w, **kw)
        for name in SOLUTION_FIELDS:
            got, want = getattr(many, name)[p], getattr(one, name)
            assert np.array_equal(got, want), (w, name, got, want)
    return handoffs


def test_solve_min_norm_many_matches_scalar_solve_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 40):
        ws = rng.normal(size=(300, 2, n))
        assert stacked_handoffs(monkeypatch, ws) == 0  # the closed form certifies all
        ws[::7, 1] = ws[::7, 0]  # duplicate rows
        ws[::11, 0] = 0.0  # a zero row
        assert stacked_handoffs(monkeypatch, ws) == 0
    near = rng.normal(size=(200, 1, 6))
    near = np.concatenate([near, near * (1 + 1e-9 * rng.normal(size=(200, 1, 1)))], axis=1)
    stacked_handoffs(monkeypatch, near)
    # rows the closed form leaves to _active_set: a gap above an unreachable
    # tol, or no room for the edge step
    ws = rng.normal(size=(200, 2, 5)) * 1e3
    assert 0 < stacked_handoffs(monkeypatch, ws, tol=1e-20) < 200
    assert 0 < stacked_handoffs(monkeypatch, ws, max_iter=1) < 200
    for m in (3, 5):  # M > 2 runs _active_set row by row
        assert stacked_handoffs(monkeypatch, rng.normal(size=(40, m, 4))) == 40


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_solve_min_norm_many_matches_scalar_solve_on_hard_battery(monkeypatch, scale):
    by_shape = {}
    for w in hard_battery(17):
        w = w * np.sqrt(scale)
        stacked_handoffs(monkeypatch, w[None], tol=1e-10 * scale)
        by_shape.setdefault(w.shape, []).append(w)
    for ws in by_shape.values():
        stacked_handoffs(monkeypatch, np.stack(ws), tol=1e-10 * scale)


def test_one_row_stack_is_one_scalar_solve(monkeypatch):
    """One ``solve_min_norm`` call, which validates once, with its fields as (1, ...) arrays."""
    ws = np.random.default_rng(2).normal(size=(1, 3, 4))
    calls = {"scalar": 0, "validate": 0, "solve": 0}

    def counted(name, real):
        def wrapper(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)

        return wrapper

    monkeypatch.setattr(minnorm, "solve_min_norm", counted("scalar", minnorm.solve_min_norm))
    monkeypatch.setattr(
        minnorm, "validate_gradient_matrix", counted("validate", minnorm.validate_gradient_matrix)
    )
    monkeypatch.setattr(minnorm, "_active_set", counted("solve", minnorm._active_set))
    sol = solve_min_norm_many(ws)
    assert calls == {"scalar": 1, "validate": 1, "solve": 1}
    assert sol.weights.shape == (1, 3) and sol.combined.shape == (1, 4)
    assert sol.gap.shape == sol.iterations.shape == sol.converged.shape == (1,)
    one = solve_min_norm(ws[0])
    for name in SOLUTION_FIELDS:
        got, want = getattr(sol, name), np.array([getattr(one, name)])
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_solve_min_norm_many_rejects_bad_stacks():
    with pytest.raises(ValueError, match="3-D"):
        solve_min_norm_many(np.eye(2))
    with pytest.raises(ValueError, match="M >= 2"):
        solve_min_norm_many(np.ones((4, 1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        solve_min_norm_many(np.array([[[1.0, np.inf], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="tol"):
        solve_min_norm_many(np.ones((1, 2, 2)), tol=-1.0)


def test_matches_grid_oracle_three_objectives():
    rng = np.random.default_rng(21)
    resolution = 400
    for _ in range(60):
        w = rng.uniform(-1, 1, size=(3, int(rng.integers(1, 9))))
        sol = solve_min_norm(w)
        lam_grid = simplex_grid_oracle(w, resolution)
        obj_grid = float(np.sum((w.T @ lam_grid) ** 2))
        # the exact minimum is below every grid point, and the grid's best point
        # is within 3 grid steps (in L1) of the minimizer
        step_bound = 6.0 * float(np.abs(w @ w.T).max()) / resolution
        assert sol.dual_norm_sq <= obj_grid + 1e-12
        assert obj_grid - sol.dual_norm_sq <= step_bound


def test_descent_property():
    rng = np.random.default_rng(7)
    tol = 1e-10
    for _ in range(200):
        w = rng.normal(size=(rng.integers(2, 6), rng.integers(1, 8)))
        sol = solve_min_norm(w, tol=tol)
        assert sol.converged
        slack = -sol.dual_norm_sq + 10 * tol
        assert np.all(w @ sol.descent_direction <= slack + 1e-15)


def test_holder_continuity_two_objectives():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = rng.integers(1, 9)
        w = rng.uniform(-1, 1, size=(2, n))
        if rng.random() < 0.5:
            v = w + rng.uniform(-1, 1, size=w.shape) * 10.0 ** rng.integers(-6, 0)
        else:
            v = rng.uniform(-1, 1, size=(2, n))
        c = max(np.linalg.norm(w), np.linalg.norm(v))
        dw = w.T @ min_norm_2obj_oracle(w[0], w[1])
        dv = v.T @ min_norm_2obj_oracle(v[0], v[1])
        bound = np.sqrt(2 * c) * np.linalg.norm(w - v) ** 0.5 + 1e-8
        assert np.linalg.norm(dw - dv) <= bound


def test_criticality_on_quadratic_pair():
    c1, c2 = np.zeros(3), np.array([1.0, 1.0, 0.0])
    prob = QuadraticPair(c1, c2)
    assert criticality_measure(prob, (c1 + c2) / 2) == pytest.approx(0.0, abs=1e-8)
    assert criticality_measure(prob, c1) == pytest.approx(0.0, abs=1e-8)
    off = (c1 + c2) / 2 + np.array([0.0, 0.0, 0.5])
    assert criticality_measure(prob, off) > 0.01


def test_criticality_zero_iff_origin_in_hull():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.uniform(-1, 1, size=(2, 3))
        sol = solve_min_norm(w)
        lam = simplex_grid_oracle(w, 2000)
        hull_min = np.linalg.norm(w.T @ lam)
        assert (np.sqrt(sol.dual_norm_sq) < 1e-6) == (hull_min < 1e-3)
