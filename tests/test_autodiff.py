import gc
import weakref

import numpy as np
import pytest

from moograd import autodiff as ad


def scalar_store(**values):
    store = ad.ParamStore()
    for name, val in values.items():
        store.add(name, np.asarray(val, dtype=np.float64))
    return store


def test_primitive_trivia():
    v = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(ad.matmul(np.eye(3), v), v)


def test_shape_errors_name_the_kind():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError, match="lstm"):
        ad.lstm(np.zeros((2, 1)), np.zeros((2, 2, 3)),
                np.zeros((1, 12)), np.zeros((3, 12)), np.zeros((1, 3)))
    with pytest.raises(ad.ShapeError, match="lstm"):  # stack axes must agree
        ad.lstm(np.zeros((2, 4, 1)), np.zeros((2, 2, 4, 3)),
                np.zeros((3, 1, 12)), np.zeros((2, 3, 12)), np.zeros((2, 1, 12)))


def test_square_gradient():
    store = scalar_store(x=[[3.0]])
    tape = ad.Tape()
    x = tape.param(store, "x")
    y = ad.sum_(ad.mul(x, x))
    ad.backward(tape, y)
    assert store.grads["x"][0, 0] == pytest.approx(6.0, abs=1e-12)


def test_identity_matmul_sum_gradient():
    store = scalar_store(v=np.arange(3.0).reshape(3, 1))
    tape = ad.Tape()
    v = tape.param(store, "v")
    y = ad.sum_(ad.matmul(np.eye(3), v))
    ad.backward(tape, y)
    assert np.allclose(store.grads["v"], np.ones((3, 1)))


def test_backward_requires_scalar():
    store = scalar_store(v=np.ones((2, 1)))
    tape = ad.Tape()
    v = tape.param(store, "v")
    y = ad.mul(v, v)
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(tape, y)


def test_backward_accumulates_until_reset():
    store = scalar_store(x=[[2.0]])
    tape = ad.Tape()
    x = tape.param(store, "x")
    y = ad.sum_(ad.mul(x, x))
    ad.backward(tape, y)
    ad.backward(tape, y)
    assert store.grads["x"][0, 0] == pytest.approx(8.0)
    store.zero_grad()
    assert store.grads["x"][0, 0] == 0.0


def test_backward_linearity():
    rng = np.random.default_rng(0)
    store = scalar_store(a=rng.normal(size=(3, 2)), b=rng.normal(size=(3, 2)))

    def grads_of(build):
        tape = ad.Tape()
        a, b = tape.param(store, "a"), tape.param(store, "b")
        store.zero_grad()
        ad.backward(tape, build(a, b))
        return {k: v.copy() for k, v in store.grads.items()}

    f = lambda a, b: ad.sum_(ad.mul(a, a))
    g = lambda a, b: ad.sum_(ad.mul(ad.mul(a, b), b))
    both = grads_of(lambda a, b: ad.add(f(a, b), g(a, b)))
    gf, gg = grads_of(f), grads_of(g)
    for k in both:
        assert np.allclose(both[k], gf[k] + gg[k], atol=1e-14)


def test_maxlist_lowest_index_tie():
    store = scalar_store(a=[[1.0]], b=[[1.0]])
    tape = ad.Tape()
    a, b = tape.param(store, "a"), tape.param(store, "b")
    out = ad.maxlist([ad.sum_(a), ad.sum_(b)])
    assert float(out.value) == 1.0
    ad.backward(tape, out)
    assert store.grads["a"][0, 0] == 1.0
    assert store.grads["b"][0, 0] == 0.0


def test_concat_slice_roundtrip_gradient():
    store = scalar_store(a=np.ones((2, 2)), b=np.full((2, 3), 2.0))
    tape = ad.Tape()
    a, b = tape.param(store, "a"), tape.param(store, "b")
    joined = ad.concat([a, b], axis=1)
    piece = ad.slice_(joined, (slice(None), slice(1, 4)))
    ad.backward(tape, ad.sum_(piece))
    assert np.array_equal(store.grads["a"], [[0, 1], [0, 1]])
    assert np.array_equal(store.grads["b"], [[1, 1, 0], [1, 1, 0]])


def test_shared_adjoints_and_two_slices_match_fd():
    rng = np.random.default_rng(5)
    store = scalar_store(v=rng.normal(size=(3, 4)), w=rng.normal(size=(3, 4)))

    def build(st):
        tape = ad.Tape()
        v, w = tape.param(st, "v"), tape.param(st, "w")
        u = ad.add(v, v)  # one adjoint reaches both inputs
        left = ad.slice_(u, (slice(None), slice(0, 3)))
        right = ad.slice_(u, (slice(None), slice(1, 4)))
        # d's adjoint reaches u and w as one array before the slices add into u's
        d = ad.add(u, w)
        terms = [ad.sum_(ad.mul(left, left)), ad.sum_(ad.mul(right, right)),
                 ad.sum_(ad.mul(d, d))]
        return tape, ad.add(ad.add(terms[0], terms[1]), terms[2])

    tape, out = build(store)
    ad.backward(tape, out)
    g_fd = ad.finite_diff_gradient(lambda st: float(build(st)[1].value), store, eps=1e-5)
    for k in ("v", "w"):
        err = np.linalg.norm(store.grads[k] - g_fd[k]) / np.linalg.norm(g_fd[k])
        assert err < 1e-8, f"{k}: rel err {err}"


def test_dropped_tape_is_freed_without_the_cycle_collector():
    """No recorded backward holds a Var, so a tape and its arrays go with its last reference."""
    store = scalar_store(a=np.ones((2, 3)), w=np.ones((3, 12)), u=np.ones((3, 12)),
                         b=np.ones((1, 12)))
    gc.disable()
    try:
        tape = ad.Tape()
        a, w, u, b = (tape.param(store, k) for k in ("a", "w", "u", "b"))
        hc = ad.lstm(a, ad.stack([a, a]), w, u, b)
        h, c = ad.slice_(hc, 0), ad.slice_(hc, 1)
        x = ad.concat([ad.sub(h, c), ad.scale(ad.mul(h, c), 2.0)], axis=1)
        x = ad.slice_(ad.matmul(x, np.ones((6, 3))), (slice(None), slice(0, 2)))
        out = ad.maxlist([ad.sum_(x), ad.sum_(ad.add(a, a))])
        ad.backward(tape, out)
        ref = weakref.ref(tape)
        del tape, a, w, u, b, hc, h, c, x, out
        assert ref() is None
    finally:
        gc.enable()


def test_row_bias_broadcast_backward():
    store = scalar_store(b=np.zeros((1, 3)))
    tape = ad.Tape()
    b = tape.param(store, "b")
    out = ad.sum_(ad.add(np.ones((4, 3)), b))
    ad.backward(tape, out)
    assert np.array_equal(store.grads["b"], np.full((1, 3), 4.0))


def _random_lstm_loss(seed):
    """Two chained steps of a taped LSTM cell: a scalar of 4 parameter arrays."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    store.add("w", rng.normal(size=(2, 12)))
    store.add("u", rng.normal(size=(3, 12)))
    store.add("b", rng.normal(size=(1, 12)))
    store.add("h0", rng.normal(size=(4, 3)))
    s1, s2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))

    def build(st):
        tape = ad.Tape()
        w, u, b, h0 = (tape.param(st, n) for n in ("w", "u", "b", "h0"))
        hc1 = ad.lstm(s1, ad.stack([h0, np.zeros((4, 3))]), w, u, b)
        hc2 = ad.lstm(s2, hc1, w, u, b)
        h2, c2 = ad.slice_(hc2, 0), ad.slice_(hc2, 1)
        return tape, ad.add(ad.sum_(ad.mul(h2, h2)), ad.sum_(c2))

    return store, build


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_finite_differences(seed):
    store, build = _random_lstm_loss(seed)
    tape, out = build(store)
    ad.backward(tape, out)
    g_ad = {k: v.copy() for k, v in store.grads.items()}

    def f(st):
        _, o = build(st)
        return float(o.value)

    g_fd = ad.finite_diff_gradient(f, store, eps=1e-5)
    va = np.concatenate([g_ad[k].ravel() for k in sorted(g_ad)])
    vf = np.concatenate([g_fd[k].ravel() for k in sorted(g_fd)])
    assert np.linalg.norm(va - vf) / np.linalg.norm(vf) < 1e-4


def random_primitive_graph(seed):
    """Random taped scalar drawn from the full primitive set (dim <= 64)."""
    rng = np.random.default_rng(seed)
    n, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    store = ad.ParamStore()
    store.add("a", rng.normal(size=(n, h)))
    store.add("b", rng.normal(size=(n, h)))
    store.add("w", rng.normal(size=(h, h)))
    store.add("bias", rng.normal(size=(1, h)))
    store.add("wx4", rng.normal(size=(h, 4 * h)))
    store.add("wh4", rng.normal(size=(h, 4 * h)))
    store.add("b4", rng.normal(size=(1, 4 * h)))

    op_sequence = rng.integers(0, 7, size=4)

    def build(st):
        tape = ad.Tape()
        a, b, w, bias, wx4, wh4, b4 = (
            tape.param(st, k) for k in ("a", "b", "w", "bias", "wx4", "wh4", "b4")
        )
        x = ad.add(ad.matmul(a, w), bias)
        ops = [
            lambda v: ad.mul(v, v),
            lambda v: ad.slice_(ad.lstm(v, ad.stack([b, v]), wx4, wh4, b4), 0),
            lambda v: ad.mul(v, b),
            lambda v: ad.add(v, b),
            lambda v: ad.sub(v, b),
            lambda v: ad.scale(v, 0.7),
            lambda v: ad.slice_(ad.concat([v, b], axis=1), (slice(None), slice(0, h))),
        ]
        for idx in op_sequence:
            x = ops[idx](x)
        s1 = ad.sum_(x)
        s2 = ad.sum_(ad.mul(x, x))
        return tape, ad.maxlist([s1, s2])

    return store, build


@pytest.mark.parametrize("block", range(4))
def test_random_graph_gradients_match_fd_100_seeds(block):
    for seed in range(block * 25, (block + 1) * 25):
        store, build = random_primitive_graph(seed)
        tape, out = build(store)
        store.zero_grad()
        ad.backward(tape, out)
        g_ad = np.concatenate([store.grads[k].ravel() for k in sorted(store.grads)])

        def f(st):
            _, o = build(st)
            return float(o.value)

        g_fd_map = ad.finite_diff_gradient(f, store, eps=1e-5)
        g_fd = np.concatenate([g_fd_map[k].ravel() for k in sorted(g_fd_map)])
        rel = np.linalg.norm(g_ad - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
        assert rel < 1e-4, f"seed {seed}: rel err {rel}"


def _lstm_inputs(seed, n, in_w, hid, bias_scale=1.0, lead=()):
    """A store of ``s``, ``hc`` (h and c stacked), ``wx``, ``wh``, ``b`` and
    a random weighting of the output state."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    shapes = {"s": (n, in_w), "h": (n, hid), "c": (n, hid),
              "wx": (in_w, 4 * hid), "wh": (hid, 4 * hid)}
    vals = {name: rng.normal(size=lead + shape) for name, shape in shapes.items()}
    store.add("s", vals["s"])
    store.add("hc", np.stack([vals["h"], vals["c"]]))
    store.add("wx", vals["wx"])
    store.add("wh", vals["wh"])
    store.add("b", bias_scale * rng.normal(size=lead + (1, 4 * hid)))
    return store, rng.normal(size=(2,) + lead + (n, hid))


LSTM_ARGS = ("s", "hc", "wx", "wh", "b")


def _weighted_lstm_loss(r):
    def build(st):
        tape = ad.Tape()
        hc = ad.lstm(*(tape.param(st, k) for k in LSTM_ARGS))
        return tape, ad.sum_(ad.mul(hc, r))
    return build


def _check_lstm_gradient(store, build, eps):
    tape, out = build(store)
    ad.backward(tape, out)
    g_fd = ad.finite_diff_gradient(lambda st: float(build(st)[1].value), store, eps=eps)
    for k in LSTM_ARGS:
        assert np.any(store.grads[k] != 0.0), k
        err = np.linalg.norm(store.grads[k] - g_fd[k]) / max(np.linalg.norm(g_fd[k]), 1e-12)
        assert err < 1e-7, f"{k}: rel err {err}"
    assert np.any(store.grads["hc"][0] != 0.0) and np.any(store.grads["hc"][1] != 0.0)


@pytest.mark.parametrize(
    "n, in_w, hid, bias_scale",
    [(5, 3, 4, 1.0), (5, 3, 4, 20.0), (1, 2, 3, 1.0)],
    ids=["random", "saturated", "single_row"],
)
def test_lstm_gradient_matches_fd_all_inputs(n, in_w, hid, bias_scale):
    store, r = _lstm_inputs(11, n, in_w, hid, bias_scale)
    if bias_scale > 1.0:  # most gates saturated: sigmoid(4) = 0.982, tanh(4) = 0.9993
        p = store.params
        pre = p["s"] @ p["wx"] + p["hc"][0] @ p["wh"] + p["b"]
        assert np.mean(np.abs(pre) > 4.0) > 0.5
    _check_lstm_gradient(store, _weighted_lstm_loss(r), eps=1e-6)


def test_stacked_lstm_gradient_matches_fd():
    store, r = _lstm_inputs(13, 3, 2, 3, lead=(2,))
    _check_lstm_gradient(store, _weighted_lstm_loss(r), eps=1e-6)


def test_lstm_taped_and_untaped_outputs_bitwise_equal():
    store, _ = _lstm_inputs(12, 6, 3, 4)
    plain = ad.lstm(*(store.params[k] for k in LSTM_ARGS))
    tape = ad.Tape()
    taped = ad.lstm(*(tape.param(store, k) for k in LSTM_ARGS))
    assert isinstance(taped, ad.Var) and np.array_equal(plain, taped.value)


@pytest.mark.parametrize("lead, n, in_w, hid, sliced",
                         [((3,), 5, 2, 4, False), ((2,), 1870, 2, 20, True)],
                         ids=["small", "slice_by_slice"])
def test_stacked_lstm_equals_per_slice_calls_bitwise(lead, n, in_w, hid, sliced):
    assert (n * 4 * hid >= ad._SLICE_GATE_ENTRIES) == sliced
    store, r = _lstm_inputs(14, n, in_w, hid, lead=lead)
    p = store.params
    stacked = ad.lstm(*(p[k] for k in LSTM_ARGS))
    tape, out = _weighted_lstm_loss(r)(store)
    ad.backward(tape, out)
    for i in range(lead[0]):
        one = ad.ParamStore()
        for k in LSTM_ARGS:
            one.add(k, p[k][:, i] if k == "hc" else p[k][i])
        assert np.array_equal(stacked[:, i], ad.lstm(*(one.params[k] for k in LSTM_ARGS)))
        tape, out = _weighted_lstm_loss(r[:, i])(one)
        ad.backward(tape, out)
        for k in LSTM_ARGS:
            want = store.grads[k][:, i] if k == "hc" else store.grads[k][i]
            assert np.array_equal(one.grads[k], want), k


def test_taped_ops_record_no_constant_nodes():
    store = scalar_store(x=np.ones((2, 3)), hc=np.zeros((2, 2, 3)), wx=np.ones((1, 12)),
                         wh=np.ones((3, 12)), b=np.ones((1, 12)))
    tape = ad.Tape()
    x, hc, wx, wh, b = (tape.param(store, k) for k in ("x", "hc", "wx", "wh", "b"))
    y = ad.mul(ad.add(x, np.ones((2, 3))), np.full((2, 3), 2.0))
    state = ad.lstm(np.ones((2, 1)), hc, wx, wh, b)
    assert len(tape.nodes) == 8  # five params, add, mul, lstm
    assert tape.nodes[y.nid].inputs == (y.nid - 1, None)
    assert tape.nodes[state.nid].inputs == (None, hc.nid, wx.nid, wh.nid, b.nid)
    ad.backward(tape, ad.add(ad.sum_(y), ad.sum_(state)))
    assert np.array_equal(store.grads["x"], np.full((2, 3), 2.0))


def test_finite_diff_basics():
    store = scalar_store(x=[[1.0]])
    g = ad.finite_diff_gradient(lambda s: float(s.params["x"][0, 0] ** 2), store, eps=1e-5)
    assert g["x"][0, 0] == pytest.approx(2.0, abs=1e-8)
    g0 = ad.finite_diff_gradient(lambda s: 7.0, store, eps=1e-5)
    assert np.all(g0["x"] == 0.0)


def test_tape_replay_bitwise_deterministic():
    def run():
        store, build = _random_lstm_loss(123)
        tape, out = build(store)
        ad.backward(tape, out)
        return {k: v.copy() for k, v in store.grads.items()}

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_tensor_finite_check():
    with pytest.raises(ValueError, match="non-finite"):
        ad.as_tensor([1.0, np.nan])
    assert not ad.all_finite(np.array([1.0, np.inf]))
