import gc
import json
import math
import weakref
from functools import partial

import numpy as np
import pytest

from moograd import autodiff as ad
from moograd import ml2o
from moograd.guard import _guarded_loop, gml2o_det_step
from moograd.ml2o import (
    GATES,
    CheckpointError,
    Ml2oState,
    check_compatible,
    evaluate_meta_loss,
    init_params,
    init_state,
    learned_step,
    load_checkpoint,
    meta_train,
    ml2o_direction,
    preprocess_gradient,
    save_checkpoint,
    store_from_params,
    unroll_window,
)
from moograd.optimizers import SampleSchedule, StepSchedule, run_population, run_steps
from moograd.problems import make_quadratic_pair, make_toy_mtl


def make_cell(seed, in_w, hid, scale=0.5):
    """Per-gate arrays of one cell, keyed wx_i, wh_i, bx_i, bh_i, wx_f, ..."""
    rng = np.random.default_rng(seed)
    shapes = {"wx": (in_w, hid), "wh": (hid, hid), "bx": (1, hid), "bh": (1, hid)}
    return {f"{kind}_{gate}": rng.uniform(-scale, scale, shape)
            for gate in GATES for kind, shape in shapes.items()}


def cell_update(s, h, c, arrays):
    """One update of the cell through ``ad.lstm`` on its fused arrays; returns (h', c')."""
    fuse = lambda kind: np.concatenate([arrays[f"{kind}_{g}"] for g in ad.LSTM_GATES], axis=1)
    hc = ad.lstm(s, np.stack([h, c]), fuse("wx"), fuse("wh"), fuse("bx"), fuse("bh"))
    return hc[0], hc[1]


def cell_arrays(params, prefix):
    """The per-gate arrays of cell ``prefix`` of a full parameter set."""
    return {k.split(".", 1)[1]: v for k, v in params.arrays.items() if k.startswith(prefix + ".")}


def scalar_loop_cell(s, h, c, arrays):
    """Independent per-element reference for the LSTM update."""
    n, hid = h.shape
    h2 = np.zeros_like(h)
    c2 = np.zeros_like(c)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    for r in range(n):
        for j in range(hid):
            pre = {}
            for gate in ("i", "f", "g", "o"):
                tot = arrays[f"bx_{gate}"][0, j] + arrays[f"bh_{gate}"][0, j]
                for a in range(s.shape[1]):
                    tot += s[r, a] * arrays[f"wx_{gate}"][a, j]
                for b in range(hid):
                    tot += h[r, b] * arrays[f"wh_{gate}"][b, j]
                pre[gate] = tot
            ci = sig(pre["f"]) * c[r, j] + sig(pre["i"]) * math.tanh(pre["g"])
            c2[r, j] = ci
            h2[r, j] = sig(pre["o"]) * math.tanh(ci)
    return h2, c2


def test_preprocess_channels():
    p = ml2o.PREPROCESS_P
    out = preprocess_gradient(np.array([1.0, 0.0, math.exp(-p)]))
    assert np.allclose(out[0], [0.0, 1.0])
    assert np.allclose(out[1], [-1.0, 0.0])
    assert np.allclose(out[2], [-1.0, 1.0])  # boundary goes through the log branch
    g = np.random.default_rng(0).normal(scale=5.0, size=200)
    enc = preprocess_gradient(g)
    assert np.all(enc[:, 0] >= -1.0) and np.all(np.abs(enc[:, 1]) <= 1.0)
    assert np.all(enc[:, 0] <= max(1.0, np.log(np.abs(g).max()) / p))


def test_lstm_cell_all_zero():
    cell = make_cell(0, 2, 3, scale=0.0)
    h, c = cell_update(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 3)), cell)
    assert np.all(h == 0.0) and np.all(c == 0.0)


def test_lstm_cell_saturated_forget_keeps_memory():
    cell = make_cell(1, 2, 3, scale=0.0)
    cell["bx_f"] = np.full((1, 3), 50.0)  # forget gate pinned open
    c0 = np.array([[1.0, -2.0, 0.5]])
    s = np.zeros((1, 2))
    _, c1 = cell_update(s, np.zeros((1, 3)), c0, cell)
    # i = 0.5, g = 0 at zero weights, so c' = c exactly up to saturation error
    assert np.allclose(c1, c0, atol=1e-10)


def test_lstm_cell_matches_scalar_loop():
    cell = make_cell(7, 2, 2)
    rng = np.random.default_rng(3)
    s = rng.normal(size=(5, 2))
    h0 = rng.normal(size=(5, 2))
    c0 = rng.normal(size=(5, 2))
    h, c = cell_update(s, h0, c0, cell)
    h_ref, c_ref = scalar_loop_cell(s, h0, c0, cell)
    assert np.allclose(h, h_ref, atol=1e-12)
    assert np.allclose(c, c_ref, atol=1e-12)


def test_direction_zero_params_emit_head_bias():
    params = init_params(2, 4, seed=0, scale=0.0)
    params.arrays["head.b"][...] = 0.37
    g, _ = ml2o_direction(np.zeros((2, 6)), init_state(2, 4, 6), params)
    assert np.allclose(g, 0.37)


def test_direction_identical_coordinates_identical_outputs():
    params = init_params(2, 4, seed=2)
    y = np.ones((2, 5)) * np.array([[0.3], [-1.2]])
    g, _ = ml2o_direction(y, init_state(2, 4, 5), params)
    assert np.allclose(g, g[0])


def test_direction_permutation_covariant():
    params = init_params(2, 4, seed=3)
    rng = np.random.default_rng(1)
    y = rng.normal(size=(2, 7))
    perm = rng.permutation(7)
    g, _ = ml2o_direction(y, init_state(2, 4, 7), params)
    g_perm, _ = ml2o_direction(y[:, perm], init_state(2, 4, 7), params)
    assert np.array_equal(g_perm, g[perm])


def test_direction_matches_manual_unroll():
    params = init_params(2, 2, seed=9)
    rng = np.random.default_rng(4)
    y = rng.normal(size=(2, 1))
    state = init_state(2, 2, 1)
    g, new_state = ml2o_direction(y, state, params)
    # manual composition through the scalar-loop reference
    h1, c1 = scalar_loop_cell(
        preprocess_gradient(y[0]), state.spec[0, 0], state.spec[1, 0], cell_arrays(params, "specific0")
    )
    h2, c2 = scalar_loop_cell(
        preprocess_gradient(y[1]), state.spec[0, 1], state.spec[1, 1], cell_arrays(params, "specific1")
    )
    s_sh = np.concatenate([h1, h2], axis=1)
    h_sh, c_sh = scalar_loop_cell(s_sh, state.shared[0], state.shared[1], cell_arrays(params, "shared"))
    g_ref = h_sh @ params.arrays["head.w"] + params.arrays["head.b"]
    assert np.allclose(g, g_ref.reshape(-1), atol=1e-12)
    assert np.allclose(new_state.shared[1], c_sh, atol=1e-12)
    assert np.allclose(new_state.spec, [[h1, h2], [c1, c2]], atol=1e-12)


def test_direction_state_deterministic():
    params = init_params(2, 4, seed=5)
    y = np.random.default_rng(2).normal(size=(2, 3))
    g1, s1 = ml2o_direction(y, init_state(2, 4, 3), params)
    g2, s2 = ml2o_direction(y, init_state(2, 4, 3), params)
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1.shared, s2.shared) and np.array_equal(s1.spec, s2.spec)


def test_ml2o_step_zero_alpha_state_still_advances():
    params = init_params(2, 4, seed=6)
    prob = make_quadratic_pair(3, seed=1)
    x0 = prob.initial_point(np.random.default_rng(0))
    memory = {}
    xs1, *_ = learned_step(prob, x0[None], 1, 0.0, None, memory, params, exact=True)
    assert np.array_equal(x0, xs1[0])
    assert not np.allclose(memory["ml2o_state"].shared[0, 0], init_state(2, 4, 3).shared[0])
    params0 = init_params(2, 4, seed=6, scale=0.0)
    xs2, *_ = learned_step(prob, x0[None], 1, 0.5, None, {}, params0, exact=True)
    assert np.array_equal(x0, xs2[0])  # zero head leaves x unchanged


def test_unstacked_direction_is_a_row_of_the_stacked_one():
    params = init_params(2, 3, seed=8)
    y = np.random.default_rng(5).normal(size=(3, 2, 6))
    stacked = init_state(2, 3, 6, (3,))
    assert stacked.spec.shape == (2, 3, 2, 6, 3) and stacked.shared.shape == (2, 3, 6, 6)
    gs, new = ml2o_direction(y, stacked, params)
    assert gs.shape == (3, 6)
    for p in range(3):
        g, one = ml2o_direction(y[p], init_state(2, 3, 6), params)
        assert g.shape == (6,)
        assert np.array_equal(g, gs[p])
        assert np.array_equal(one.spec, new.spec[:, p])
        assert np.array_equal(one.shared, new.shared[:, p])
    with pytest.raises(ad.ShapeError, match="lstm"):  # an unstacked state for stacked input
        ml2o_direction(y, init_state(2, 3, 6), params)
    with pytest.raises(ad.ShapeError, match="gradient stacks"):
        ml2o_direction(y[0, 0], init_state(2, 3, 6), params)


def learned_population(name, params, guard_seeds):
    """The ``name`` population step, its guard batches drawn from ``guard_seeds``."""
    samples = SampleSchedule(2, 0.3)
    if name == "ml2o":
        return partial(learned_step, model=params, samples=samples)
    if name == "gml2o":
        return partial(_guarded_loop, model=params, samples=samples, guard_batch=8,
                       guard_rngs=[np.random.default_rng(100 + s) for s in guard_seeds])
    return partial(gml2o_det_step, model=params)


LEARNED = ["ml2o", "gml2o", "gml2o_det"]


def small_mtl():
    return make_toy_mtl(seed=4, samples=64, batch=8, hidden=5, input_dim=4, classes=3)


@pytest.mark.parametrize("name", LEARNED)
def test_population_step_makes_one_direction_call(name, monkeypatch):
    calls, direction = [], ml2o.ml2o_direction

    def counted(y, state, params):
        calls.append(np.shape(y))
        return direction(y, state, params)

    monkeypatch.setattr(ml2o, "ml2o_direction", counted)
    prob = small_mtl()
    x0s = np.random.default_rng(3).normal(scale=0.5, size=(5, prob.dim))
    step = learned_population(name, init_params(2, 3, seed=2), range(5))
    run_population(prob, step, x0s, 4, StepSchedule("constant", 0.3),
                   [np.random.default_rng(p) for p in range(5)])
    assert calls == [(5, 2, prob.dim)] * 4


@pytest.mark.parametrize("name", LEARNED)
def test_learned_population_rows_equal_solo_runs_bitwise(name):
    prob, params, sched = small_mtl(), init_params(2, 3, seed=2), StepSchedule("constant", 0.3)
    x0s = np.random.default_rng(3).normal(scale=0.5, size=(5, prob.dim))
    records = run_population(prob, learned_population(name, params, range(5)), x0s, 6, sched,
                             [np.random.default_rng(p) for p in range(5)], keep_iterates=True)
    for p, rec in enumerate(records):
        alone = run_steps(prob, learned_population(name, params, [p]), x0s[p], 6, sched,
                          np.random.default_rng(p))
        assert np.array_equal(rec.iterates, alone.iterates)
        for col in ("losses", "direction_norms", "n_samples", "guard_codes"):
            assert np.array_equal(getattr(rec, col), getattr(alone, col)), col
        assert rec.meta.get("decisions") == alone.meta.get("decisions")


def test_population_state_is_one_stacked_state():
    prob, params = make_quadratic_pair(4, seed=1), init_params(2, 3, seed=6)
    xs = np.random.default_rng(0).normal(size=(5, 4))
    memory = {}
    learned_step(prob, xs, 1, 0.1, None, memory, params, exact=True)
    state = memory["ml2o_state"]
    assert isinstance(state, Ml2oState)
    assert state.spec.shape == (2, 5, 2, 4, 3) and state.shared.shape == (2, 5, 4, 6)
    learned_step(prob, xs, 2, 0.1, None, memory, params, exact=True)
    assert memory["ml2o_state"].spec.shape == (2, 5, 2, 4, 3)


def meta_loss(f_curr, f_prev):
    """The one-step window loss max_i(f_curr_i - f_prev_i)."""
    return float(ad.window_loss((f_prev, f_curr)))


def test_meta_loss_values():
    assert meta_loss(np.array([1.0, 2.0]), np.array([1.5, 1.8])) == pytest.approx(0.2)
    f = np.array([0.3, -0.4])
    assert meta_loss(f, f) == 0.0
    assert meta_loss(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)


def test_meta_loss_monotone_in_curr():
    rng = np.random.default_rng(0)
    for _ in range(50):
        prev = rng.normal(size=4)
        cur = rng.normal(size=4)
        bumped = cur.copy()
        j = rng.integers(4)
        bumped[j] += abs(rng.normal())
        assert meta_loss(bumped, prev) >= meta_loss(cur, prev)


def test_preprocess_raises_no_float_warning():
    g = np.array([0.0, -0.0, 1e-320, np.inf, 1e-5])
    with np.errstate(divide="raise", invalid="raise"):
        out = preprocess_gradient(g)
    assert np.array_equal(out[:, 0], [-1.0, -1.0, -1.0, np.inf, -1.0])
    assert np.array_equal(out[:, 1], [0.0, -0.0, math.exp(10.0) * 1e-320, 1.0,
                                      math.exp(10.0) * 1e-5])


def test_gate_views_edit_the_model_in_place():
    params = init_params(2, 3, seed=4)
    y = np.random.default_rng(0).normal(size=(2, 5))
    g0, _ = ml2o_direction(y, init_state(2, 3, 5), params)
    twin = params.copy()
    params.arrays["shared.wx_o"][1, 2] += 1e-3
    g1, _ = ml2o_direction(y, init_state(2, 3, 5), params)
    assert not np.array_equal(g0, g1)
    g_twin, _ = ml2o_direction(y, init_state(2, 3, 5), twin)
    assert np.array_equal(g_twin, g0)  # the copy shares no storage
    assert not any(np.shares_memory(twin.fused[k], params.fused[k]) for k in params.fused)
    assert all(np.shares_memory(params.arrays[k], params.fused["shared.wx"])
               for k in params.arrays if k.startswith("shared.wx_"))
    with pytest.raises(TypeError):
        params.arrays["head.b"] = np.zeros((1, 1))
    with pytest.raises(TypeError):
        params.fused["head.b"] = np.zeros((1, 1))


def test_gate_views_follow_checkpoint_order_and_lstm_columns():
    params = init_params(2, 3, seed=1)
    assert list(params.arrays)[:5] == ["specific0.wx_i", "specific0.wh_i", "specific0.bx_i",
                                      "specific0.bh_i", "specific0.wx_f"]
    assert list(params.arrays)[-2:] == ["head.w", "head.b"]
    assert len(params.arrays) == 16 * 3 + 2
    for gate in GATES:
        k = ad.LSTM_GATES.index(gate)
        assert np.array_equal(params.arrays[f"specific1.wh_{gate}"],
                              params.fused["spec.wh"][1][:, 3 * k : 3 * k + 3])
        assert np.array_equal(params.arrays[f"shared.bx_{gate}"],
                              params.fused["shared.bx"][:, 6 * k : 6 * k + 6])


def test_preprocess_stack_equals_rows():
    y = np.random.default_rng(1).normal(size=(3, 6)) * np.logspace(-8, 1, 6)
    enc = preprocess_gradient(y)
    assert enc.shape == (3, 6, 2)
    for row, e in zip(y, enc):
        assert np.array_equal(preprocess_gradient(row), e)


def taped_window():
    """One H=8, dim-8 training window of 20 steps: its tape and window-mean meta-loss."""
    params = init_params(2, 8, seed=0)
    prob = make_quadratic_pair(8, seed=3, noise_sigma=0.1)
    rng = np.random.default_rng(0)
    store = store_from_params(params)
    tape = ad.Tape()
    leafs = {n: tape.param(store, n) for n in store.names()}
    x0 = prob.initial_point(rng).reshape(-1, 1)
    mean, _, _ = unroll_window(prob, x0, init_state(2, 8, 8), leafs, 20, 0.35,
                               lambda j, xv: prob.sample_gradient(xv, rng))
    return tape, mean


def test_unroll_window_records_few_nodes():
    """10 fused parameter leaves, 6 nodes a step (two LSTM cells, the shared
    cell's input, the head, the iterate update and the losses) and the window
    loss, no constants: 10 + 6 * 20 + 1."""
    tape, _ = taped_window()
    assert len(tape.nodes) == 131


def test_dropped_window_tape_is_freed_without_the_cycle_collector():
    """No backward closure of a training window holds a Var: a dropped tape
    goes with its last reference, not at the next full collection."""
    gc.disable()
    try:
        tape, mean = taped_window()
        ad.backward(tape, mean)
        ref = weakref.ref(tape)
        del tape, mean
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", [0, 3])
def test_taped_meta_gradient_matches_fd_with_the_draws_replayed(seed):
    """Criterion 7's instance, with each step's Jacobian recorded in the taped
    unroll and replayed in the central differences. The tape treats the
    gradient fed to the network as a constant; criterion 7's differences
    re-draw it at each perturbed trajectory and so also see the term the tape
    drops (8.88e-05 on seed 3). With the draws held fixed, only the tape's own
    error is left."""
    params = init_params(2, 3, seed)
    prob = make_quadratic_pair(2, seed=seed + 1000)
    x0 = prob.initial_point(np.random.default_rng(seed + 2000)).reshape(-1, 1)
    recorded = []

    def record(j, xv):
        recorded.append(prob.full_jacobian(xv))
        return recorded[-1]

    store = store_from_params(params)
    tape = ad.Tape()
    leafs = {n: tape.param(store, n) for n in store.names()}
    mean, _, _ = unroll_window(prob, x0, init_state(2, 3, 2), leafs, 4, 0.1, record)
    ad.backward(tape, mean)
    g_ad = np.concatenate([store.grads[n].ravel() for n in sorted(store.names())])

    def f(s):
        m, _, _ = unroll_window(prob, x0, init_state(2, 3, 2), s.params, 4, 0.1,
                                lambda j, xv: recorded[j])
        return float(m)

    g_fd_map = ad.finite_diff_gradient(f, store, eps=1e-5)
    g_fd = np.concatenate([g_fd_map[n].ravel() for n in sorted(g_fd_map)])
    assert len(recorded) == 4
    assert np.linalg.norm(g_ad - g_fd) <= 1e-7 * np.linalg.norm(g_fd)


def test_meta_train_zero_lr_keeps_params():
    params = init_params(2, 4, seed=0)
    sampler = lambda rng: make_quadratic_pair(3, seed=int(rng.integers(2**31 - 1)))
    trained, trace = meta_train(sampler, params, steps=20, window=10, meta_lr=0.0,
                                epochs=3, seed=0, alpha=0.1, draw_mode="exact")
    for name in params.arrays:
        assert np.array_equal(trained.arrays[name], params.arrays[name])
    assert len(trace) == 3 * 2  # epochs * periods


def test_meta_train_single_window_no_truncation():
    params = init_params(2, 3, seed=1)
    sampler = lambda rng: make_quadratic_pair(2, seed=int(rng.integers(2**31 - 1)))
    _, trace = meta_train(sampler, params, steps=8, window=8, meta_lr=0.01,
                          epochs=2, seed=1, alpha=0.1, draw_mode="exact")
    assert [t[1] for t in trace] == [0, 0]


def test_meta_train_resume_equivalence():
    params = init_params(2, 3, seed=2)
    sampler = lambda rng: make_quadratic_pair(2, seed=int(rng.integers(2**31 - 1)))
    kw = dict(steps=10, window=5, meta_lr=0.02, alpha=0.1, draw_mode="sample")
    full, _ = meta_train(sampler, params, epochs=4, seed=5, **kw)
    half, _ = meta_train(sampler, params, epochs=2, seed=5, **kw)
    resumed, _ = meta_train(sampler, half, epochs=2, seed=5, start_epoch=2, **kw)
    for name in full.arrays:
        assert np.array_equal(full.arrays[name], resumed.arrays[name])


def test_meta_train_window_must_divide():
    params = init_params(2, 3, seed=3)
    with pytest.raises(ValueError, match="divide"):
        meta_train(lambda rng: make_quadratic_pair(2, seed=1), params,
                   steps=10, window=3, meta_lr=0.1, epochs=1, seed=0)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_params(3, 4, seed=7)
    path = str(tmp_path / "ck.json")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.m == 3 and loaded.hidden == 4
    for name in params.arrays:
        assert np.array_equal(loaded.arrays[name], params.arrays[name])


def test_checkpoint_corrupt_and_version(tmp_path):
    params = init_params(2, 3, seed=0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(params, path)
    raw = open(path).read()
    open(path, "w").write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)
    doc = json.loads(raw)
    doc["version"] = 99
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    params.arrays["head.b"][...] = np.nan
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match="'head.b'.*non-finite"):
        load_checkpoint(path)


def test_checkpoint_rejects_other_out_width(tmp_path):
    path = str(tmp_path / "ck.json")
    save_checkpoint(init_params(2, 3, seed=0), path)
    doc = json.load(open(path))
    assert doc["out_width"] == 1
    doc["out_width"] = 2
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="'out_width'"):
        load_checkpoint(path)


@pytest.mark.parametrize("m, hidden", [(-1, 3), (2, -3), (0, 3), (2, 0)])
def test_checkpoint_rejects_non_positive_sizes(tmp_path, m, hidden):
    path = str(tmp_path / "ck.json")
    save_checkpoint(init_params(2, 3, seed=0), path)
    doc = json.load(open(path))
    doc["m"], doc["hidden"] = m, hidden
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="'m' and 'hidden'"):
        load_checkpoint(path)


def test_checkpoint_objective_mismatch(tmp_path):
    params = init_params(2, 3, seed=0)
    prob3 = type("P", (), {"objectives": 3})()
    with pytest.raises(ad.ShapeError, match="m"):
        check_compatible(params, prob3)


def test_evaluate_meta_loss_runs():
    params = init_params(2, 4, seed=1)
    problems = [make_quadratic_pair(4, seed=s) for s in range(3)]
    val = evaluate_meta_loss(problems, params, steps=10, alpha=0.1, seed=0)
    assert math.isfinite(val)
