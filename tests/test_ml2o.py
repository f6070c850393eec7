import json
import math

import numpy as np
import pytest

from moograd import autodiff as ad
from moograd.ml2o import (
    CheckpointError,
    Ml2oParams,
    _fused_cell,
    cell_array_shapes,
    check_compatible,
    evaluate_meta_loss,
    init_params,
    init_state,
    learned_step,
    load_checkpoint,
    meta_loss,
    meta_train,
    ml2o_direction,
    preprocess_gradient,
    save_checkpoint,
    store_from_params,
    unroll_window,
)
from moograd.problems import make_quadratic_pair


def make_cell(seed, in_w, hid, scale=0.5):
    """Per-gate arrays of one cell, keyed wx_i, wh_i, bx_i, bh_i, wx_f, ..."""
    rng = np.random.default_rng(seed)
    return {n: rng.uniform(-scale, scale, s) for n, s in cell_array_shapes(in_w, hid).items()}


def cell_update(s, h, c, arrays):
    """One update of the cell through ``ad.lstm`` on its fused arrays; returns (h', c')."""
    hc = ad.lstm(s, np.stack([h, c]), *_fused_cell(arrays, ""))
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
    p = 10.0
    out = preprocess_gradient(np.array([1.0, 0.0, math.exp(-p)]), p)
    assert np.allclose(out[0], [0.0, 1.0])
    assert np.allclose(out[1], [-1.0, 0.0])
    assert np.allclose(out[2], [-1.0, 1.0])  # boundary goes through the log branch
    g = np.random.default_rng(0).normal(scale=5.0, size=200)
    enc = preprocess_gradient(g, p)
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
    params.arrays["head.b"] = np.array([[0.37]])
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
    assert not np.allclose(memory["ml2o_states"][0].shared[0], init_state(2, 4, 3).shared[0])
    params0 = init_params(2, 4, seed=6, scale=0.0)
    xs2, *_ = learned_step(prob, x0[None], 1, 0.5, None, {}, params0, exact=True)
    assert np.array_equal(x0, xs2[0])  # zero head leaves x unchanged


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


def test_preprocess_stack_equals_rows():
    y = np.random.default_rng(1).normal(size=(3, 6)) * np.logspace(-8, 1, 6)
    enc = preprocess_gradient(y)
    assert enc.shape == (3, 6, 2)
    for row, e in zip(y, enc):
        assert np.array_equal(preprocess_gradient(row), e)


def test_unroll_window_records_few_nodes():
    """One H=8, dim-8 training window of 20 steps: 22 nodes a step, no constants."""
    params = init_params(2, 8, seed=0)
    prob = make_quadratic_pair(8, seed=3, noise_sigma=0.1)
    rng = np.random.default_rng(0)
    store = store_from_params(params)
    tape = ad.Tape()
    leafs = {n: tape.param(store, n) for n in store.names()}
    x0 = prob.initial_point(rng).reshape(-1, 1)
    unroll_window(prob, x0, init_state(2, 8, 8), leafs, 20, 0.35,
                  lambda j, xv: prob.sample_gradient(xv, rng))
    assert len(tape.nodes) <= 510


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
    params.arrays["head.b"] = np.array([[np.nan]])
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


def test_evaluate_meta_loss_rejects_unknown_draw_mode():
    params = init_params(2, 4, seed=1)
    problems = [make_quadratic_pair(4, seed=0)]
    with pytest.raises(ValueError, match="draw_mode"):
        evaluate_meta_loss(problems, params, steps=10, alpha=0.1, seed=0, draw_mode="Exact")
