import numpy as np
import pytest

from moograd.metrics import (
    MonitorSeries,
    _nondominated_mask,
    dominates,
    extract_front,
    front_reference,
    hypervolume_2d,
    hypervolume_3d,
    theorem_monitor,
)
from moograd.optimizers import StepSchedule, mgda_step, run_steps
from moograd.problems import QuadraticPair, make_quadratic_pair
from moograd.trace import RunRecord, StepRow


def test_dominates_basics():
    assert dominates([1, 1], [2, 2])
    assert not dominates([1, 2], [2, 1])
    assert not dominates([1, 1], [1, 1])
    assert dominates([1, 1], [1, 2])


def brute_front(values):
    keep = []
    for i, a in enumerate(values):
        if not any(dominates(b, a) for j, b in enumerate(values) if j != i):
            keep.append(i)
    return keep


def test_extract_front_small_cases():
    same = np.tile([1.0, 2.0], (5, 1))
    assert len(extract_front(same)) == 5
    line = np.array([[t, 1 - t] for t in np.linspace(0, 1, 9)])
    assert len(extract_front(line)) == 9


def test_extract_front_matches_bruteforce_and_is_stable():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, size=(200, 2))
    front = extract_front(vals)
    expected = vals[brute_front(vals)]
    assert np.array_equal(front, expected)
    assert np.flatnonzero(_nondominated_mask(vals)).tolist() == brute_front(vals)


def test_nondominated_mask_basics():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.flatnonzero(_nondominated_mask(pts)).tolist() == [0, 1, 3]
    assert np.array_equal(extract_front(pts), pts[[0, 1, 3]])


@pytest.mark.parametrize("m", [2, 3])
def test_extract_front_matches_double_loop_with_ties_and_duplicates(m):
    rng = np.random.default_rng(m)
    for n in (1, 7, 300, 600):  # 600 spans more than one block of the pairwise compare
        vals = rng.integers(0, 6, size=(n, m)).astype(float)  # coarse grid: many ties
        vals[rng.integers(0, n, size=n // 5)] = vals[0]  # exact duplicates
        keep = []
        for i in range(n):
            dominated = False
            for j in range(n):
                if all(vals[j] <= vals[i]) and any(vals[j] < vals[i]):
                    dominated = True
                    break
            if not dominated:
                keep.append(i)
        assert np.flatnonzero(_nondominated_mask(vals)).tolist() == keep
        assert np.array_equal(extract_front(vals), vals[keep])


def test_extract_front_idempotent():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0, 1, size=(150, 3))
    once = extract_front(vals)
    twice = extract_front(once)
    assert np.array_equal(once, twice)


def test_hypervolume_2d_cases():
    assert hypervolume_2d(np.array([[0.0, 0.0]]), [1.0, 1.0]) == pytest.approx(1.0)
    assert hypervolume_2d(np.array([[0.0, 1.0], [1.0, 0.0]]), [2.0, 2.0]) == pytest.approx(3.0)
    assert hypervolume_2d(np.empty((0, 2)), [1.0, 1.0]) == 0.0
    with pytest.raises(ValueError, match="dominate"):
        hypervolume_2d(np.array([[2.0, 0.0]]), [1.0, 1.0])


def mc_hypervolume(values, ref, n=400_000, seed=0):
    rng = np.random.default_rng(seed)
    lo = values.min(axis=0)
    pts = rng.uniform(lo, ref, size=(n, values.shape[1]))
    covered = np.zeros(n, dtype=bool)
    for v in values:
        covered |= np.all(pts >= v, axis=1)
    return covered.mean() * np.prod(ref - lo)


def test_hypervolume_2d_matches_monte_carlo():
    rng = np.random.default_rng(3)
    vals = extract_front(rng.uniform(0, 1, size=(40, 2)))
    ref = np.array([2.0, 2.0])
    exact = hypervolume_2d(vals, ref)
    approx = mc_hypervolume(np.asarray(vals), ref)
    assert exact == pytest.approx(approx, rel=0.02)


def test_hypervolume_3d_matches_monte_carlo():
    rng = np.random.default_rng(4)
    vals = extract_front(rng.uniform(0, 1, size=(30, 3)))
    ref = np.array([1.5, 1.5, 1.5])
    exact = hypervolume_3d(vals, ref)
    approx = mc_hypervolume(np.asarray(vals), ref)
    assert exact == pytest.approx(approx, rel=0.03)


def test_hypervolume_monotone_under_nondominated_addition():
    rng = np.random.default_rng(5)
    vals = extract_front(rng.uniform(0.2, 1, size=(20, 2)))
    ref = np.array([2.0, 2.0])
    base = hypervolume_2d(vals, ref)
    extra = np.vstack([vals, [[0.05, 0.05]]])
    assert hypervolume_2d(extract_front(extra), ref) >= base


def test_front_reference_margin():
    a = np.array([[0.0, 1.0]])
    b = np.array([[1.0, 0.0]])
    ref = front_reference(a, b)
    assert np.all(ref > 1.0)


def test_theorem_monitor_empty_and_critical():
    prob = QuadraticPair([0.0, 0.0], [1.0, 0.0])
    empty = theorem_monitor(RunRecord(), prob)
    assert len(empty) == 0
    # run stuck at a Pareto critical point
    x = np.array([0.5, 0.0])
    rec = RunRecord(
        rows=[StepRow(k=i + 1, losses=prob.eval(x), direction_norm=0.0, alpha=0.1) for i in range(3)],
        iterates=[x.copy() for _ in range(4)],
    )
    series = theorem_monitor(rec, prob)
    assert np.allclose(series.criticality_sq, 0.0, atol=1e-16)
    assert np.allclose(series.partial_sums, 0.0, atol=1e-16)


def test_theorem_monitor_partial_sums_nondecreasing():
    prob = make_quadratic_pair(4, seed=2)
    x0 = prob.initial_point(np.random.default_rng(0))
    sched = StepSchedule("harmonic")
    rec = run_steps(prob, mgda_step, x0, 50, sched)
    series = theorem_monitor(rec, prob)
    assert len(series) == 50
    assert np.all(np.diff(series.partial_sums) >= -1e-18)
