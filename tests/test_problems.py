import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from moograd.problems import (
    QuadraticPair,
    ToyMtlProblem,
    UnsupportedCapability,
    make_problem,
    make_quadratic_pair,
    make_toy_mtl,
    register_named_problem,
)


def fd_jacobian(problem, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    jac = np.zeros((problem.objectives, problem.dim))
    for j in range(problem.dim):
        step = np.zeros_like(x)
        step[j] = eps
        jac[:, j] = (problem.eval(x + step) - problem.eval(x - step)) / (2 * eps)
    return jac


def test_quadratic_values():
    prob = QuadraticPair([0.0], [1.0])
    assert np.allclose(prob.eval(np.array([0.5])), [0.125, 0.125])
    assert prob.eval(np.array([0.0]))[0] == 0.0


def test_quadratic_zero_noise_draw_is_exact():
    prob = make_quadratic_pair(4, seed=0, noise_sigma=0.0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=4)
    assert np.array_equal(prob.sample_gradient(x, rng), prob.full_jacobian(x))
    assert np.array_equal(prob.averaged_gradient(x, 16, rng), prob.full_jacobian(x))


@pytest.mark.parametrize("factory", [lambda: make_quadratic_pair(5, seed=3, noise_sigma=0.2),
                                     lambda: make_toy_mtl(seed=3, samples=128, batch=16)])
def test_jacobian_matches_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(0)
    x = prob.initial_point(rng)
    jac = prob.full_jacobian(x)
    fd = fd_jacobian(prob, x)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(jac - fd) / denom < 1e-5


def test_sample_gradient_unbiased():
    prob = make_quadratic_pair(3, seed=2, noise_sigma=0.5)
    rng = np.random.default_rng(9)
    x = prob.initial_point(rng)
    draws = np.stack([prob.sample_gradient(x, rng) for _ in range(10_000)])
    err = draws.mean(axis=0) - prob.full_jacobian(x)
    # 3 sigma of the mean estimator, per entry
    assert np.all(np.abs(err) < 3 * 0.5 / np.sqrt(10_000) + 1e-12)


def test_mean_converges_at_sqrt_rate():
    prob = make_quadratic_pair(4, seed=5, noise_sigma=0.5)
    rng = np.random.default_rng(4)
    x = prob.initial_point(rng)
    jac = prob.full_jacobian(x)
    ns = [100, 1000, 10_000, 100_000]
    errs = []
    for n in ns:
        trials = [np.linalg.norm(prob.averaged_gradient(x, n, rng) - jac) for _ in range(12)]
        errs.append(np.mean(trials))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_toy_mtl_mean_converges_at_sqrt_rate():
    prob = make_toy_mtl(seed=6, samples=512, batch=16)
    rng = np.random.default_rng(3)
    x = prob.initial_point(rng)
    jac = prob.full_jacobian(x)
    plan = [(100, 30), (1000, 10), (10_000, 3), (100_000, 1)]
    errs = []
    for n, reps in plan:
        trials = [np.linalg.norm(prob.averaged_gradient(x, n, rng) - jac) for _ in range(reps)]
        errs.append(np.mean(trials))
    slope = np.polyfit(np.log([n for n, _ in plan]), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_toy_mtl_batch_gradient_unbiased():
    prob = make_toy_mtl(seed=1, samples=256, batch=32)
    rng = np.random.default_rng(2)
    x = prob.initial_point(rng)
    draws = np.stack([prob.sample_gradient(x, rng) for _ in range(3000)])
    err = np.linalg.norm(draws.mean(axis=0) - prob.full_jacobian(x))
    scale = np.linalg.norm(prob.full_jacobian(x))
    assert err < 0.1 * max(scale, 0.05)


def test_toy_mtl_untrained_loss_near_log_classes():
    expected = np.log(10)
    for seed in range(10):
        prob = make_toy_mtl(seed=seed)
        x = prob.initial_point(np.random.default_rng(seed))
        losses = prob.eval(x)
        assert np.all(np.abs(losses - expected) < 0.15)
        assert np.all(losses > 0)


def test_toy_mtl_full_batch_draw_equals_jacobian():
    prob = make_toy_mtl(seed=0, samples=64, batch=64)
    rng = np.random.default_rng(0)
    x = prob.initial_point(rng)
    assert np.array_equal(prob.sample_gradient(x, rng), prob.full_jacobian(x))


def test_toy_mtl_duplicated_dataset_same_eval():
    base = make_toy_mtl(seed=4, samples=128, batch=16)
    doubled = ToyMtlProblem(
        np.vstack([base.xs, base.xs]),
        np.hstack([base.labels, base.labels]),
        batch_size=16,
        hidden=base.hidden,
    )
    x = base.initial_point(np.random.default_rng(0))
    assert np.allclose(base.eval(x), doubled.eval(x), atol=1e-12)


def test_toy_mtl_validation():
    with pytest.raises(ValueError, match="batch"):
        make_toy_mtl(seed=0, samples=16, batch=32)
    with pytest.raises(ValueError, match="classes"):
        make_toy_mtl(seed=0, classes=1)


def test_dataset_determinism():
    def digest(seed):
        prob = make_toy_mtl(seed=seed, samples=64, batch=8)
        h = hashlib.sha256()
        h.update(prob.xs.tobytes())
        h.update(prob.labels.tobytes())
        return h.hexdigest()

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_registry_roundtrip_and_errors():
    prob = make_problem("quadratic_pair", dim=3, seed=1)
    assert isinstance(prob, QuadraticPair)
    with pytest.raises(KeyError, match="unknown problem"):
        make_problem("nope")
    with pytest.raises(ValueError, match="already registered"):
        register_named_problem("quadratic_pair", make_quadratic_pair)


def test_registered_problem_jacobian_consistency():
    prob = make_problem("toy_mtl", seed=9, samples=96, batch=12)
    x = prob.initial_point(np.random.default_rng(3))
    fd = fd_jacobian(prob, x)
    assert np.linalg.norm(prob.full_jacobian(x) - fd) / np.linalg.norm(fd) < 1e-5


def segment_scan_distance(x, c1, c2, points=10**6):
    ts = np.linspace(0.0, 1.0, points)
    pts = c1[None, :] + ts[:, None] * (c2 - c1)[None, :]
    return np.min(np.linalg.norm(pts - x[None, :], axis=1))


def test_distance_to_front():
    c1, c2 = np.zeros(3), np.array([1.0, 0.0, 0.0])
    prob = QuadraticPair(c1, c2)
    on_seg = np.array([0.3, 0.0, 0.0])
    assert prob.distance_to_front(on_seg) == pytest.approx(0.0, abs=1e-12)
    off = np.array([0.3, 0.4, 0.0])
    assert prob.distance_to_front(off) == pytest.approx(0.4, abs=1e-12)
    assert prob.distance_to_front(off) == pytest.approx(
        segment_scan_distance(off, c1, c2), abs=1e-6
    )
    one_d = QuadraticPair([0.0], [1.0])
    assert one_d.distance_to_front(np.array([2.0])) == pytest.approx(1.0)


def test_distance_to_front_requires_capability():
    prob = make_toy_mtl(seed=0, samples=32, batch=4)
    with pytest.raises(UnsupportedCapability):
        prob.distance_to_front(prob.initial_point(np.random.default_rng(0)))


def test_quadratic_criticality_zero_only_on_segment():
    from moograd.minnorm import criticality_measure

    prob = make_quadratic_pair(4, seed=11)
    c1, c2 = prob.centers
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = rng.uniform(0, 1)
        on = c1 + t * (c2 - c1)
        assert criticality_measure(prob, on) < 1e-8
        off = rng.uniform(-1.5, 1.5, 4)
        if prob.distance_to_front(off) >= 0.1:
            assert criticality_measure(prob, off) > 0.01


def random_spd(rng, n):
    q = rng.normal(size=(n, n))
    return q @ q.T + 0.1 * np.eye(n)


BATCHED = {
    "quadratic_identity": lambda rng: make_quadratic_pair(6, seed=4, noise_sigma=0.3),
    "quadratic_curved": lambda rng: QuadraticPair(
        rng.normal(size=6), rng.normal(size=6), random_spd(rng, 6), random_spd(rng, 6), 0.7
    ),
    "quadratic_noise_free": lambda rng: make_quadratic_pair(5, seed=2),
    "toy_mtl_fallback": lambda rng: make_toy_mtl(seed=2, samples=64, batch=8, hidden=5, input_dim=4),
}


@pytest.mark.parametrize("case", sorted(BATCHED))
def test_batched_oracles_match_per_point_bitwise(case):
    rng = np.random.default_rng(13)
    prob = BATCHED[case](rng)
    xs = rng.normal(size=(9, prob.dim))
    jac, losses = prob.jacobian_many(xs), prob.eval_many(xs)
    assert jac.shape == (9, 2, prob.dim) and losses.shape == (9, 2)
    for p, x in enumerate(xs):
        assert np.array_equal(jac[p], prob.full_jacobian(x))
        assert np.array_equal(losses[p], prob.eval(x))
    for n in (1, 4):
        batch_rngs = [np.random.default_rng(s) for s in range(9)]
        point_rngs = [np.random.default_rng(s) for s in range(9)]
        grads = prob.averaged_gradient_many(xs, n, batch_rngs)
        for p, x in enumerate(xs):
            assert np.array_equal(grads[p], prob.averaged_gradient(x, n, point_rngs[p]))
            if n == 1:  # one draw is sample_gradient, bit for bit
                again = np.random.default_rng(p)
                assert np.array_equal(grads[p], prob.sample_gradient(x, again))
        # each row consumed exactly its own stream
        assert [r.random() for r in batch_rngs] == [r.random() for r in point_rngs]
    with pytest.raises(ValueError):
        prob.averaged_gradient_many(xs, 2, batch_rngs[:3])


@pytest.mark.parametrize("case", ["quadratic_identity", "quadratic_curved"])
def test_quadratic_oracles_match_loop_formula_bitwise(case):
    """The stacked quadratic oracles equal the per-objective formula, bit for bit."""
    rng = np.random.default_rng(13)
    prob = BATCHED[case](rng)
    mats = [np.eye(prob.dim)] * 2 if prob.mats is None else prob.mats
    xs = rng.normal(size=(9, prob.dim))
    jac, losses = prob.jacobian_many(xs), prob.eval_many(xs)
    for p, x in enumerate(xs):
        for i, (c, a) in enumerate(zip(prob.centers, mats)):
            assert np.array_equal(jac[p, i], a @ (x - c))
            assert losses[p, i] == 0.5 * (x - c) @ (a @ (x - c))


def test_perfbench_tracer_wraps_and_restores_quadratic_oracles():
    """perfbench traces ``vars(QuadraticPair)[name]``: the oracles must stay defined there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = vars(QuadraticPair)["eval"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        make_quadratic_pair(3, seed=0).eval(np.zeros(3))
    finally:
        tracer.uninstall()
    assert tracer.calls("problems.eval") == 1
    assert vars(QuadraticPair)["eval"] is original
