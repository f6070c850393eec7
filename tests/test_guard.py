import dataclasses
from functools import partial

import numpy as np
import pytest

from moograd import guard, minnorm, optimizers
from moograd.guard import GuardDecision, gml2o_deterministic_run, gml2o_run, guard_select
from moograd.ml2o import init_params
from moograd.optimizers import (
    SampleSchedule,
    StepSchedule,
    dssmg_step,
    mgda_step,
    run_population,
    run_steps,
)
from moograd.problems import make_quadratic_pair, make_toy_mtl


def test_guard_select_learned_wins():
    wins, fb_delta, ln_delta = guard_select(
        np.array([[1.0, 1.0]]), np.array([[0.7, 0.9]]), np.array([[0.5, 0.6]])
    )
    assert wins.tolist() == [True]
    assert fb_delta[0] == pytest.approx(-0.1)
    assert ln_delta[0] == pytest.approx(-0.4)


def test_guard_select_tie_goes_to_fallback():
    wins, _, _ = guard_select(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]), np.array([[0.5, 0.0]]))
    assert wins.tolist() == [False]


def test_guard_select_fallback_when_learned_regresses():
    wins, _, _ = guard_select(np.array([[1.0, 1.0]]), np.array([[0.9, 0.9]]), np.array([[1.4, 0.2]]))
    assert wins.tolist() == [False]


def test_guard_select_decides_each_row_alone():
    # rows: learned wins, tie, learned loss NaN, fallback loss NaN
    f_z = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    f_fb = np.array([[0.7, 0.9], [0.5, 0.0], [0.9, 0.9], [np.nan, 0.9]])
    f_ln = np.array([[0.5, 0.6], [0.5, 0.0], [np.nan, 0.2], [0.5, 0.6]])
    wins, fb_delta, ln_delta = guard_select(f_z, f_fb, f_ln)
    assert wins.tolist() == [True, False, False, False]
    for p in range(4):
        one = guard_select(f_z[p : p + 1], f_fb[p : p + 1], f_ln[p : p + 1])
        assert np.array_equal(np.array([wins[p], fb_delta[p], ln_delta[p]]),
                              np.concatenate(one), equal_nan=True)


@pytest.fixture
def trained_free_setup():
    prob = make_quadratic_pair(4, seed=3, noise_sigma=0.2)
    params = init_params(2, 4, seed=0, scale=0.0)  # zero head: learned step is a no-op
    return prob, params


def test_zero_head_guarded_run_equals_dssmg(trained_free_setup):
    # noise-free, moderate constant step: every fallback step strictly
    # descends, so the zero-step learned candidate never wins and the
    # trajectory matches the plain method bitwise
    prob = make_quadratic_pair(4, seed=3, noise_sigma=0.0)
    _, params = trained_free_setup
    sched = StepSchedule("constant", 0.15)
    samp = SampleSchedule(4, 0.1)
    x0 = prob.initial_point(np.random.default_rng(1))
    rec_guard = gml2o_run(
        prob, params, sched, samp, 25, x0, np.random.default_rng(9), keep_iterates=True
    )
    step = partial(dssmg_step, samples=samp)
    rec_plain = run_steps(prob, step, x0, 25, sched, np.random.default_rng(9), keep_iterates=True)
    assert all(d.chosen == "fallback" for d in rec_guard.meta["decisions"])
    for a, b in zip(rec_guard.iterates, rec_plain.iterates):
        assert np.array_equal(a, b)


def test_zero_head_noisy_fallback_chosen_iff_it_descends(trained_free_setup):
    prob, params = trained_free_setup  # noisy draws: fallback may step uphill
    sched = StepSchedule("constant", 0.5)
    samp = SampleSchedule(1, 0.1)
    x0 = prob.initial_point(np.random.default_rng(1))
    rec = gml2o_run(prob, params, sched, samp, 60, x0, np.random.default_rng(9))
    for dec in rec.meta["decisions"]:
        assert dec.learned_delta == 0.0  # zero step
        if dec.chosen == "fallback":
            assert dec.fallback_delta <= 0.0
        else:
            assert dec.fallback_delta > 0.0


def test_zero_alpha_keeps_base_point(trained_free_setup):
    prob, params = trained_free_setup
    sched = StepSchedule("constant", 1e-300)
    samp = SampleSchedule(2, 0.1)
    x0 = prob.initial_point(np.random.default_rng(0))
    rec = gml2o_run(prob, params, sched, samp, 10, x0, np.random.default_rng(2))
    assert all(d.chosen == "fallback" for d in rec.meta["decisions"])
    assert np.allclose(rec.meta["final_x"], x0)


def test_guard_invariant_and_decision_determinism():
    prob = make_quadratic_pair(5, seed=7, noise_sigma=0.4)
    params = init_params(2, 6, seed=4)  # random net, arbitrary quality
    sched = StepSchedule("constant", 0.3)
    samp = SampleSchedule(2, 0.1)
    x0 = prob.initial_point(np.random.default_rng(3))

    def run():
        rec = gml2o_run(prob, params, sched, samp, 60, x0, np.random.default_rng(11))
        return rec

    rec1, rec2 = run(), run()
    # per-step guard inequality, exact
    f_prev = prob.eval(x0)
    for row, dec in zip(rec1.rows, rec1.meta["decisions"]):
        chosen_delta = np.max(row.losses - f_prev)
        assert chosen_delta <= dec.fallback_delta + 1e-18
        f_prev = row.losses
    # decision sequence is reproducible
    assert [d.chosen for d in rec1.meta["decisions"]] == [d.chosen for d in rec2.meta["decisions"]]


def test_guard_overhead_one_extra_eval_pair_per_step():
    prob = make_quadratic_pair(3, seed=5, noise_sigma=0.1)
    params = init_params(2, 4, seed=1)
    sched = StepSchedule("constant", 0.2)
    samp = SampleSchedule(2, 0.1)
    x0 = prob.initial_point(np.random.default_rng(0))
    steps = 25
    guarded = gml2o_run(prob, params, sched, samp, steps, x0, np.random.default_rng(1))
    step = partial(dssmg_step, samples=samp)
    plain = run_steps(prob, step, x0, steps, sched, np.random.default_rng(1))
    # one vector evaluation per step for the trace, two for the guard
    # (base-point values are carried over), plus the initial base evaluation
    assert plain.meta["eval_count"] == steps
    assert guarded.meta["eval_count"] == 2 * steps + 1
    assert plain.meta["nonconverged_solves"] == guarded.meta["nonconverged_solves"] == 0


def test_nonconverged_solves_are_tallied(monkeypatch):
    calls = []

    def every_other_fails_many(ws):
        calls.append(None)
        sol = minnorm.solve_min_norm_many(ws)
        return dataclasses.replace(sol, converged=np.full(len(ws), len(calls) % 2 == 0))

    monkeypatch.setattr(guard, "solve_min_norm_many", every_other_fails_many)
    monkeypatch.setattr(optimizers, "solve_min_norm_many", every_other_fails_many)
    prob = make_quadratic_pair(3, seed=5, noise_sigma=0.1)
    params = init_params(2, 4, seed=1)
    sched = StepSchedule("constant", 0.2)
    samp = SampleSchedule(2, 0.1)
    x0 = prob.initial_point(np.random.default_rng(0))
    guarded = gml2o_run(prob, params, sched, samp, 9, x0, np.random.default_rng(1))
    assert guarded.meta["nonconverged_solves"] == 5
    calls.clear()
    step = partial(dssmg_step, samples=samp)
    plain = run_steps(prob, step, x0, 9, sched, np.random.default_rng(1))
    assert plain.meta["nonconverged_solves"] == 5
    calls.clear()
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    population = run_population(prob, step, np.stack([x0, x0]), 9, sched, rngs)
    assert [rec.meta["nonconverged_solves"] for rec in population] == [5, 5]


def test_guarded_run_on_minibatch_problem_uses_guard_batches():
    prob = make_toy_mtl(seed=2, samples=128, batch=16)
    params = init_params(2, 4, seed=2)
    sched = StepSchedule("constant", 0.1)
    samp = SampleSchedule(1, 0.1)
    x0 = prob.initial_point(np.random.default_rng(1))
    with pytest.raises(ValueError, match="guard_rng"):
        gml2o_run(prob, params, sched, samp, 3, x0, np.random.default_rng(0))
    rec = gml2o_run(
        prob, params, sched, samp, 12, x0,
        np.random.default_rng(0), guard_rng=np.random.default_rng(1), guard_batch=32,
    )
    assert len(rec.rows) == 12
    # guard yardstick is re-evaluated per step on a fresh batch: 3 evals/step
    assert rec.meta["eval_count"] == 3 * 12


def test_deterministic_guard_converges_on_quadratic():
    prob = make_quadratic_pair(4, seed=9)
    params = init_params(2, 4, seed=3)
    x0 = prob.initial_point(np.random.default_rng(5))
    rec = gml2o_deterministic_run(prob, params, alpha=1.0, steps=300, x0=x0)
    norms = [row.direction_norm for row in rec.rows]
    assert norms[-1] < 1e-4
    # start at a Pareto critical point: base never moves
    c1, c2 = prob.centers
    mid = 0.5 * (c1 + c2)
    rec2 = gml2o_deterministic_run(prob, params, alpha=1.0, steps=5, x0=mid)
    assert np.allclose(rec2.meta["final_x"], mid, atol=1e-12)


def test_deterministic_guard_equals_mgda_when_learned_is_worse():
    prob = make_quadratic_pair(3, seed=11)
    x0 = prob.initial_point(np.random.default_rng(2))
    plain = run_steps(prob, mgda_step, x0, 20, StepSchedule("constant", 0.5))
    # huge head bias: the learned candidate always jumps far away; a NaN one
    # gives NaN losses, which must never win
    for head_bias in (50.0, np.nan):
        params = init_params(2, 3, seed=0, scale=0.0)
        params.arrays["head.b"][...] = head_bias
        rec = gml2o_deterministic_run(prob, params, alpha=0.5, steps=20, x0=x0)
        assert all(d.chosen == "fallback" for d in rec.meta["decisions"])
        assert np.array_equal(rec.meta["final_x"], plain.meta["final_x"])
