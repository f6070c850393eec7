import tracemalloc
from functools import partial

import numpy as np
import pytest

from moograd.guard import _guarded_loop
from moograd.harness import validate_run_config
from moograd.minnorm import solve_min_norm
from moograd.ml2o import init_params
from moograd.optimizers import (
    SampleSchedule,
    StepSchedule,
    adam_step,
    composite_weight_step,
    dssmg_step,
    mgda_step,
    moco_like_step,
    momentum_step,
    project_simplex,
    run_population,
    run_steps,
    sample_size,
    sgd_step,
    smg_step,
)
from moograd.problems import QuadraticPair, make_quadratic_pair, make_toy_mtl


def one_step(step, prob, x, alpha, rng=None, memory=None, k=1):
    """One step of a population step function from the single point ``x``."""
    xs, *_ = step(prob, np.asarray(x, dtype=np.float64)[None], k, alpha, [rng],
                  {} if memory is None else memory)
    return xs[0]


def iterate(step, prob, x0, steps, sched, rng=None):
    """Final iterate of ``steps`` steps from ``x0``."""
    return run_steps(prob, step, x0, steps, sched, rng, keep_iterates=False).meta["final_x"]


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
    x = np.array([0.5, 0.0])
    assert np.allclose(one_step(mgda_step, prob, x, 0.1), x, atol=1e-9)


def test_mgda_moves_toward_segment():
    prob = QuadraticPair([0.0], [1.0])
    assert one_step(mgda_step, prob, np.array([2.0]), 0.1)[0] < 2.0


def test_mgda_identical_objectives_is_gradient_descent():
    c = np.array([0.3, -0.2])
    prob = QuadraticPair(c, c)
    x0 = np.array([1.0, 1.0])
    assert np.allclose(one_step(mgda_step, prob, x0, 0.1), x0 - 0.1 * (x0 - c), atol=1e-12)


def test_smg_equals_mgda_without_noise():
    prob = make_quadratic_pair(3, seed=2, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    x0 = prob.initial_point(rng)
    sched = StepSchedule("constant", 0.05)
    assert np.array_equal(
        iterate(mgda_step, prob, x0, 10, sched), iterate(smg_step, prob, x0, 10, sched, rng)
    )


def test_smg_direction_bias_monte_carlo(noisy_pair):
    # biased estimator: mean sampled direction differs from the exact one
    prob = make_quadratic_pair(2, seed=4, noise_sigma=0.5)
    c1, c2 = prob.centers
    x = c1 + 0.3 * (c2 - c1) + 0.05 * np.array([1.0, -1.0])
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
    dssmg = partial(dssmg_step, samples=samp)
    assert np.array_equal(
        iterate(mgda_step, prob, x0, 20, sched), iterate(dssmg, prob, x0, 20, sched, rng)
    )


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
    # a stack projects each row on its own, bit for bit like the one-row formula
    stack = np.random.default_rng(0).normal(size=(2, 5, 4))
    stack[0, 0] = [0.6, 0.6, 0.6, 0.6]
    for row, got in zip(stack.reshape(-1, 4), project_simplex(stack).reshape(-1, 4)):
        u = np.sort(row)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / np.arange(1, 5) > 0)[0][-1]
        assert np.array_equal(got, np.maximum(row - css[rho] / (rho + 1), 0.0))


def test_moco_step_behaviour(noisy_pair):
    rng = np.random.default_rng(2)
    x0 = noisy_pair.initial_point(rng)
    # beta = 1: tracking variable equals the fresh draw
    memory = {}
    one_step(partial(moco_like_step, beta=1.0), noisy_pair, x0, 0.05, np.random.default_rng(5), memory)
    expected = noisy_pair.sample_gradient(x0, np.random.default_rng(5))
    assert np.allclose(memory["y"][0], expected)
    # gamma = 0: weights never change
    memory, x = {}, x0.copy()
    for k in range(1, 6):
        x = one_step(partial(moco_like_step, beta=0.5, gamma=0.0), noisy_pair, x, 0.05, rng, memory, k)
    assert np.allclose(memory["lam"][0], [0.5, 0.5])


def test_composite_weight_step(noisy_pair):
    rng = np.random.default_rng(3)
    x0 = noisy_pair.initial_point(rng)
    # beta = 1 freezes the uniform initial weights
    memory, x = {}, x0.copy()
    for k in range(1, 5):
        x = one_step(partial(composite_weight_step, beta=1.0), noisy_pair, x, 0.05, rng, memory, k)
        assert np.allclose(memory["lam"][0], [0.5, 0.5])
    # beta = 0 equals smg with the same stream
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    s1 = one_step(partial(composite_weight_step, beta=0.0), noisy_pair, x0, 0.05, r1)
    s2 = one_step(smg_step, noisy_pair, x0, 0.05, r2)
    assert np.array_equal(s1, s2)
    # blended weights stay on the simplex
    rng = np.random.default_rng(10)
    memory, x = {}, x0.copy()
    for k in range(1, 11):
        x = one_step(partial(composite_weight_step, beta=0.3), noisy_pair, x, 0.05, rng, memory, k)
        lam = memory["lam"][0]
        assert lam.sum() == pytest.approx(1.0, abs=1e-12) and np.all(lam >= 0)


def test_scalarized_sgd_converges_on_shared_minimum():
    c = np.array([0.4, -0.7])
    prob = QuadraticPair(c, c)
    x = iterate(sgd_step, prob, np.zeros(2), 200, StepSchedule("constant", 0.2), np.random.default_rng(0))
    assert np.allclose(x, c, atol=1e-6)


def test_adam_first_step_magnitude_is_learning_rate():
    prob = QuadraticPair([5.0, -3.0], [5.0, -3.0])
    lr = 0.001
    steps = np.abs(one_step(adam_step, prob, np.zeros(2), lr, np.random.default_rng(0)))
    assert np.all(np.abs(steps - lr) < lr * 1e-3)


def test_momentum_zero_equals_sgd():
    prob = make_quadratic_pair(3, seed=8, noise_sigma=0.1)
    x0 = prob.initial_point(np.random.default_rng(0))
    sched = StepSchedule("constant", 0.05)
    r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
    heavy_ball = partial(momentum_step, momentum=0.0)
    assert np.array_equal(
        iterate(heavy_ball, prob, x0, 5, sched, r1), iterate(sgd_step, prob, x0, 5, sched, r2)
    )


def test_unknown_rule_rejected():
    # the scalarized rules are registry entries: an unknown rule is an unknown optimizer
    errors = validate_run_config({"optimizer": {"name": "nadam", "params": {}}})
    assert any("unknown optimizer 'nadam'" in e for e in errors)


def test_monotone_max_descent_small_step():
    prob = make_quadratic_pair(5, seed=12)  # identity curvature => L = 1
    x = prob.initial_point(np.random.default_rng(2))
    prev = prob.eval(x)
    for _ in range(50):
        x = one_step(mgda_step, prob, x, 1.0)  # alpha = 1/L
        cur = prob.eval(x)
        assert np.max(cur - prev) <= 1e-12
        prev = cur


def test_run_steps_trace_and_determinism():
    prob = make_quadratic_pair(3, seed=3, noise_sigma=0.2)
    sched = StepSchedule("harmonic")
    samp = SampleSchedule(4, 0.1)

    def once():
        rng = np.random.default_rng(42)
        x0 = prob.initial_point(np.random.default_rng(1))
        return run_steps(prob, partial(dssmg_step, samples=samp), x0, 30, sched, rng)

    a, b = once(), once()
    assert a.steps == 30 and a.losses.shape == (30, 2)
    assert len(a.iterates) == 31
    a.validate()
    a.iterates.pop()
    with pytest.raises(ValueError, match="iterates"):
        a.validate()
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.meta["final_x"], b.meta["final_x"])
    assert a.meta["eval_count"] == 30


POINT_STEPS = {
    "mgda": mgda_step,
    "smg": smg_step,
    "dssmg": dssmg_step,
}


def point_reference(prob, method, x0, steps, sched, samp, rng):
    """The per-point min-norm loop: one oracle call, one ``solve_min_norm``
    and one ``eval`` per step; returns the rows and the final iterate."""
    x, rows = np.array(x0, dtype=np.float64), []
    for k in range(1, steps + 1):
        if method == "mgda":
            n, w = None, prob.full_jacobian(x)
        else:
            n = 1 if method == "smg" else sample_size(k, samp)
            w = prob.averaged_gradient(x, n, rng)
        sol = solve_min_norm(w)
        x = x + sched.at(k) * sol.descent_direction
        rows.append((k, prob.eval(x), float(np.linalg.norm(sol.combined)), sched.at(k), n))
    return rows, x


def assert_same_columns(a, b):
    """Every column but the wall times is equal bit for bit."""
    for name in ("losses", "direction_norms", "alphas", "n_samples", "guard_codes"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    # and every one-member run must equal it, bit for bit
    prob = factory()
    sched, samp = StepSchedule("harmonic", 0.5), SampleSchedule(3, 0.3)
    step = POINT_STEPS[method]
    if method == "dssmg":
        step = partial(step, samples=samp)
    x0s = np.random.default_rng(100).normal(scale=0.5, size=(5, prob.dim))
    records = run_population(prob, step, x0s, 7, sched, [np.random.default_rng(p) for p in range(5)])
    for p, rec in enumerate(records):
        alone = run_steps(prob, step, x0s[p], 7, sched, np.random.default_rng(p), keep_iterates=False)
        assert_same_columns(rec, alone)
        ref_rows, ref_x = point_reference(prob, method, x0s[p], 7, sched, samp, np.random.default_rng(p))
        for got in (rec, alone):
            assert len(got.rows) == len(ref_rows)
            for row, (k, losses, norm, alpha, n) in zip(got.rows, ref_rows):
                assert (row.k, row.alpha, row.n_samples) == (k, alpha, n)
                assert np.array_equal(row.losses, losses)
                assert row.direction_norm == norm
            assert np.array_equal(got.meta["final_x"], ref_x)
            assert got.meta["eval_count"] == 7
            assert got.meta["nonconverged_solves"] == 0


def recording(step, problem, returned):
    """``step``, appending to ``returned`` each call's (k, alpha, norms, n, losses, choices)."""

    def call(prob, xs, k, alpha, rngs, memory):
        xs, norms, n, converged, *guarded = step(prob, xs, k, alpha, rngs, memory)
        if guarded:
            losses, choices = guarded[0], [d.chosen for d in guarded[1]]
        else:
            losses, choices = problem.eval_many(xs), [None] * len(xs)
        returned.append((k, alpha, norms.copy(), n, losses.copy(), choices))
        return (xs, norms, n, converged, *guarded)

    return call


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
def test_rows_hold_each_steps_values(guarded):
    prob = make_quadratic_pair(4, seed=6, noise_sigma=0.3)
    sched, samp = StepSchedule("harmonic", 0.5), SampleSchedule(2, 0.5)
    x0s = np.random.default_rng(7).normal(scale=0.5, size=(3, prob.dim))
    if guarded:
        step = partial(_guarded_loop, model=init_params(2, 4, seed=1), samples=samp)
    else:
        step = partial(dssmg_step, samples=samp)
    returned = []
    records = run_population(prob, recording(step, prob, returned), x0s, 9, sched,
                             [np.random.default_rng(p) for p in range(3)])
    for p, rec in enumerate(records):
        rec.validate()
        assert len(rec.rows) == rec.steps == 9
        for row, (k, alpha, norms, n, losses, choices), wall in zip(rec.rows, returned,
                                                                   rec.wall_times.tolist()):
            assert (row.k, row.alpha, row.n_samples, row.guard_choice) == (k, alpha, n, choices[p])
            assert row.direction_norm == norms[p]
            assert np.array_equal(row.losses, losses[p])
            assert row.wall_time == wall > 0.0
        if guarded:
            assert [row.guard_choice for row in rec.rows] == [d.chosen for d in rec.meta["decisions"]]
            alone = run_steps(prob, step, x0s[p], 9, sched, np.random.default_rng(p), keep_iterates=False)
            assert_same_columns(rec, alone)
    if guarded:
        assert {row.guard_choice for rec in records for row in rec.rows} == {"fallback", "learned"}


def test_population_trace_holds_no_object_per_member_step():
    # 400 members x 100 steps; one StepRow per member-step held 11.6 MiB
    prob = make_quadratic_pair(8, seed=3, noise_sigma=0.5)
    x0s = np.random.default_rng(0).uniform(-1.0, 1.0, (400, prob.dim))
    rngs = [np.random.default_rng(p) for p in range(400)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run_population(prob, smg_step, x0s, 100, StepSchedule("constant", 0.5), rngs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 * 2**20, f"{held / 2**20:.2f} MiB held"
    assert len(records) == 400 and records[-1].losses.shape == (100, 2)
