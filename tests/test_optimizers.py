import numpy as np
import pytest

from moograd.optimizers import (
    OptimizerState,
    SampleSchedule,
    StepSchedule,
    composite_weight_step,
    dssmg_step,
    mgda_step,
    moco_like_step,
    min_norm_step_many,
    project_simplex,
    run_population,
    run_steps,
    sample_size,
    scalarized_step,
    smg_step,
)
from moograd.problems import QuadraticPair, make_quadratic_pair, make_toy_mtl


@pytest.fixture
def noisy_pair():
    return make_quadratic_pair(4, seed=1, noise_sigma=0.3)


def test_sample_size():
    assert sample_size(100, SampleSchedule(32, 0.1)) == 32
    assert sample_size(10**6, SampleSchedule(1, 0.5)) == 1000
    assert sample_size(1, SampleSchedule(5, 0.9)) == 5
    sched = SampleSchedule(2, 0.3)
    sizes = [sample_size(k, sched) for k in range(1, 2000)]
    assert sizes == sorted(sizes)
    with pytest.raises(ValueError):
        sample_size(0, sched)


def test_step_schedules():
    assert StepSchedule("constant", 0.5).at(17) == 0.5
    assert StepSchedule("harmonic").at(4) == 0.25
    assert StepSchedule("scaled_harmonic", 2.0).at(4) == 0.5
    with pytest.raises(ValueError):
        StepSchedule("nope")


def test_mgda_fixed_point_at_pareto_critical():
    prob = QuadraticPair([0.0, 0.0], [1.0, 0.0])
    state = OptimizerState(x=np.array([0.5, 0.0]))
    new, info = mgda_step(prob, state, StepSchedule("constant", 0.1))
    assert np.allclose(new.x, state.x, atol=1e-9)
    assert new.k == 2


def test_mgda_moves_toward_segment():
    prob = QuadraticPair([0.0], [1.0])
    state = OptimizerState(x=np.array([2.0]))
    new, _ = mgda_step(prob, state, StepSchedule("constant", 0.1))
    assert new.x[0] < 2.0


def test_mgda_identical_objectives_is_gradient_descent():
    c = np.array([0.3, -0.2])
    prob = QuadraticPair(c, c)
    x0 = np.array([1.0, 1.0])
    state, _ = mgda_step(prob, OptimizerState(x=x0.copy()), StepSchedule("constant", 0.1))
    assert np.allclose(state.x, x0 - 0.1 * (x0 - c), atol=1e-12)


def test_smg_equals_mgda_without_noise():
    prob = make_quadratic_pair(3, seed=2, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    x0 = prob.initial_point(rng)
    s1 = OptimizerState(x=x0.copy())
    s2 = OptimizerState(x=x0.copy())
    sched = StepSchedule("constant", 0.05)
    for _ in range(10):
        s1, _ = mgda_step(prob, s1, sched)
        s2, _ = smg_step(prob, s2, sched, rng)
    assert np.array_equal(s1.x, s2.x)


def test_smg_direction_bias_monte_carlo(noisy_pair):
    # biased estimator: mean sampled direction differs from the exact one
    prob = make_quadratic_pair(2, seed=4, noise_sigma=0.5)
    c1, c2 = prob.centers
    x = c1 + 0.3 * (c2 - c1) + 0.05 * np.array([1.0, -1.0])
    from moograd.minnorm import solve_min_norm

    exact = solve_min_norm(prob.full_jacobian(x)).combined
    rng = np.random.default_rng(11)
    mean_dir = np.zeros_like(x)
    for _ in range(10_000):
        mean_dir += solve_min_norm(prob.sample_gradient(x, rng)).combined
    mean_dir /= 10_000
    assert np.linalg.norm(mean_dir - exact) > 1e-2


def test_smg_nonzero_expected_step_at_critical_point():
    prob = make_quadratic_pair(2, seed=4, noise_sigma=0.5)
    c1, c2 = prob.centers
    x = 0.5 * (c1 + c2)
    from moograd.minnorm import solve_min_norm

    rng = np.random.default_rng(3)
    mags = [
        np.linalg.norm(solve_min_norm(prob.sample_gradient(x, rng)).combined)
        for _ in range(2000)
    ]
    assert np.mean(mags) > 1e-2


def test_dssmg_zero_noise_equals_mgda():
    prob = make_quadratic_pair(3, seed=5, noise_sigma=0.0)
    rng = np.random.default_rng(1)
    x0 = prob.initial_point(rng)
    sched = StepSchedule("harmonic")
    samp = SampleSchedule(4, 0.2)
    s1 = OptimizerState(x=x0.copy())
    s2 = OptimizerState(x=x0.copy())
    for _ in range(20):
        s1, _ = mgda_step(prob, s1, sched)
        s2, _ = dssmg_step(prob, s2, sched, samp, rng)
    assert np.array_equal(s1.x, s2.x)


def test_dssmg_variance_scales_inversely_with_samples():
    sigma = 0.4
    prob = make_quadratic_pair(3, seed=6, noise_sigma=sigma)
    rng = np.random.default_rng(7)
    x = prob.initial_point(rng)
    jac = prob.full_jacobian(x)
    sigma_sq_vec = prob.dim * sigma**2  # Gaussian per entry => vector bound
    for n in (1, 8, 64):
        sq = [
            np.linalg.norm(prob.averaged_gradient(x, n, rng)[0] - jac[0]) ** 2
            for _ in range(1000)
        ]
        assert np.mean(sq) <= 1.5 * sigma_sq_vec / n


def test_dssmg_constant_schedule_is_fixed_minibatch():
    samp = SampleSchedule(16, 0.05)
    assert all(sample_size(k, samp) == 16 for k in range(1, 10_000))


def test_project_simplex():
    assert np.allclose(project_simplex(np.array([0.6, 0.6])), [0.5, 0.5])
    v = np.array([0.1, -0.5, 1.7])
    p = project_simplex(v)
    assert p.sum() == pytest.approx(1.0) and np.all(p >= 0)
    # brute-force check on a fine simplex grid
    grid = np.array(
        [[a, b, 1 - a - b] for a in np.linspace(0, 1, 301) for b in np.linspace(0, 1, 301) if a + b <= 1]
    )
    best = grid[np.argmin(((grid - v) ** 2).sum(axis=1))]
    assert np.linalg.norm(p - best) < 2e-2


def test_moco_step_behaviour(noisy_pair):
    rng = np.random.default_rng(2)
    x0 = noisy_pair.initial_point(rng)
    state = OptimizerState(x=x0.copy())
    sched = StepSchedule("constant", 0.05)
    # beta = 1: tracking variable equals the fresh draw
    rng_probe = np.random.default_rng(5)
    new, _ = moco_like_step(noisy_pair, OptimizerState(x=x0.copy()), sched, rng_probe, beta=1.0)
    expected = noisy_pair.sample_gradient(x0, np.random.default_rng(5))
    assert np.allclose(new.memory["moco_y"], expected)
    # gamma = 0: weights never change
    state = OptimizerState(x=x0.copy())
    for _ in range(5):
        state, _ = moco_like_step(noisy_pair, state, sched, rng, beta=0.5, gamma=0.0)
    assert np.allclose(state.memory["moco_lam"], [0.5, 0.5])


def test_composite_weight_step(noisy_pair):
    rng = np.random.default_rng(3)
    x0 = noisy_pair.initial_point(rng)
    sched = StepSchedule("constant", 0.05)
    # beta = 1 freezes the uniform initial weights
    state = OptimizerState(x=x0.copy())
    for _ in range(4):
        state, _ = composite_weight_step(noisy_pair, state, sched, rng, beta=1.0)
        assert np.allclose(state.memory["cw_lam"], [0.5, 0.5])
    # beta = 0 equals smg with the same stream
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    s1, _ = composite_weight_step(noisy_pair, OptimizerState(x=x0.copy()), sched, r1, beta=0.0)
    s2, _ = smg_step(noisy_pair, OptimizerState(x=x0.copy()), sched, r2)
    assert np.array_equal(s1.x, s2.x)
    # blended weights stay on the simplex
    rng = np.random.default_rng(10)
    state = OptimizerState(x=x0.copy())
    for _ in range(10):
        state, _ = composite_weight_step(noisy_pair, state, sched, rng, beta=0.3)
        lam = state.memory["cw_lam"]
        assert lam.sum() == pytest.approx(1.0, abs=1e-12) and np.all(lam >= 0)


def test_scalarized_sgd_converges_on_shared_minimum():
    c = np.array([0.4, -0.7])
    prob = QuadraticPair(c, c)
    state = OptimizerState(x=np.zeros(2))
    rng = np.random.default_rng(0)
    sched = StepSchedule("constant", 0.2)
    for _ in range(200):
        state, _ = scalarized_step(prob, state, sched, rng, rule="sgd")
    assert np.allclose(state.x, c, atol=1e-6)


def test_adam_first_step_magnitude_is_learning_rate():
    prob = QuadraticPair([5.0, -3.0], [5.0, -3.0])
    lr = 0.001
    state = OptimizerState(x=np.zeros(2))
    rng = np.random.default_rng(0)
    new, _ = scalarized_step(prob, state, StepSchedule("constant", lr), rng, rule="adam")
    steps = np.abs(new.x - state.x)
    assert np.all(np.abs(steps - lr) < lr * 1e-3)


def test_momentum_zero_equals_sgd():
    prob = make_quadratic_pair(3, seed=8, noise_sigma=0.1)
    x0 = prob.initial_point(np.random.default_rng(0))
    sched = StepSchedule("constant", 0.05)
    r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
    s1 = OptimizerState(x=x0.copy())
    s2 = OptimizerState(x=x0.copy())
    for _ in range(5):
        s1, _ = scalarized_step(prob, s1, sched, r1, rule="momentum", momentum=0.0)
        s2, _ = scalarized_step(prob, s2, sched, r2, rule="sgd")
    assert np.array_equal(s1.x, s2.x)


def test_unknown_rule_rejected(noisy_pair):
    with pytest.raises(ValueError, match="unknown scalarized rule"):
        scalarized_step(
            noisy_pair,
            OptimizerState(x=np.zeros(4)),
            StepSchedule("constant", 0.1),
            np.random.default_rng(0),
            rule="nadam",
        )


def test_monotone_max_descent_small_step():
    prob = make_quadratic_pair(5, seed=12)  # identity curvature => L = 1
    state = OptimizerState(x=prob.initial_point(np.random.default_rng(2)))
    sched = StepSchedule("constant", 1.0)  # alpha = 1/L
    prev = prob.eval(state.x)
    for _ in range(50):
        state, _ = mgda_step(prob, state, sched)
        cur = prob.eval(state.x)
        assert np.max(cur - prev) <= 1e-12
        prev = cur


def test_run_steps_trace_and_determinism():
    prob = make_quadratic_pair(3, seed=3, noise_sigma=0.2)
    sched = StepSchedule("harmonic")
    samp = SampleSchedule(4, 0.1)

    def once():
        rng = np.random.default_rng(42)
        x0 = prob.initial_point(np.random.default_rng(1))
        step = lambda st, r: dssmg_step(prob, st, sched, samp, r)
        return run_steps(prob, step, x0, 30, rng)

    a, b = once(), once()
    assert [r.k for r in a.rows] == list(range(1, 31))
    assert len(a.iterates) == 31
    a.validate()
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.losses, rb.losses)
    assert np.array_equal(a.final_x, b.final_x)
    assert a.meta["eval_count"] == 30


POINT_STEPS = {
    "mgda": lambda prob, sched, samp: lambda st, r: mgda_step(prob, st, sched),
    "smg": lambda prob, sched, samp: lambda st, r: smg_step(prob, st, sched, r),
    "dssmg": lambda prob, sched, samp: lambda st, r: dssmg_step(prob, st, sched, samp, r),
}


@pytest.mark.parametrize("method", sorted(POINT_STEPS))
@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_quadratic_pair(5, seed=8, noise_sigma=0.4),
        lambda: QuadraticPair(
            [0.5, -1.0, 0.2],
            [-0.3, 0.8, 1.0],
            np.diag([1.0, 0.3, 2.0]),
            [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
            noise_sigma=0.2,
        ),
        lambda: make_toy_mtl(seed=4, samples=64, batch=8, hidden=5, input_dim=4, classes=3),
    ],
    ids=["quadratic", "curved", "toy_mtl"],
)
def test_run_population_matches_run_steps_per_member(method, factory):
    # the per-point loop is the reference: every row of the population run
    # must equal the member run alone, bit for bit
    prob = factory()
    sched, samp = StepSchedule("harmonic", 0.5), SampleSchedule(3, 0.3)
    x0s = np.random.default_rng(100).normal(scale=0.5, size=(5, prob.dim))
    records = run_population(
        prob, method, x0s, 7, sched, [np.random.default_rng(p) for p in range(5)], samp
    )
    step = POINT_STEPS[method](prob, sched, samp)
    for p, rec in enumerate(records):
        alone = run_steps(prob, step, x0s[p], 7, np.random.default_rng(p), keep_iterates=False)
        assert [(r.k, r.alpha, r.n_samples) for r in rec.rows] == [
            (r.k, r.alpha, r.n_samples) for r in alone.rows
        ]
        for got, want in zip(rec.rows, alone.rows):
            assert np.array_equal(got.losses, want.losses)
            assert got.direction_norm == want.direction_norm
        assert np.array_equal(rec.meta["final_x"], alone.meta["final_x"])
        assert rec.meta["eval_count"] == alone.meta["eval_count"] == 7
        assert rec.meta["nonconverged_solves"] == alone.meta["nonconverged_solves"] == 0


def test_min_norm_step_many_rejects_unknown_method():
    prob = make_quadratic_pair(2, seed=1)
    with pytest.raises(ValueError, match="unknown min-norm method"):
        min_norm_step_many(prob, "moco", np.zeros((1, 2)), 1, StepSchedule())
