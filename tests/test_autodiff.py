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


def weighted_sum(a, r=1.0):
    """``sum(r * a)`` as a test-only primitive, recorded the way autodiff's own are."""
    x = ad.value(a)
    return ad._record((a,), np.asarray((x * r).sum()), lambda g: (np.full(x.shape, g) * r,))


def plus(a, b):
    """``a + b`` as a test-only primitive: one adjoint array reaches both inputs."""
    return ad._record((a, b), ad.value(a) + ad.value(b), lambda g: (g, g))


def half_square(x):
    """``0.5 * sum(x * x)`` of an (N, 1) column, through the loss nodes."""
    return ad.window_loss([np.zeros(1), ad.quadratic_losses(x, np.zeros((1, ad.value(x).shape[0])))])


def check_fd(store, build, eps=1e-6, tol=1e-7):
    """Taped gradient of ``build(store)`` against central differences, every parameter nonzero."""
    tape, out = build(store)
    store.zero_grad()
    ad.backward(tape, out)
    g_fd = ad.finite_diff_gradient(lambda st: float(build(st)[1].value), store, eps=eps)
    for k in store.names():
        assert np.any(store.grads[k] != 0.0), k
        err = np.linalg.norm(store.grads[k] - g_fd[k]) / np.linalg.norm(g_fd[k])
        assert err < tol, f"{k}: rel err {err}"


def test_primitive_trivia():
    v = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(ad.head(np.stack([np.eye(3), np.ones((3, 3))]), v, np.zeros((1, 1))), v)
    assert np.array_equal(ad.quadratic_losses(v, np.zeros((2, 3)), np.stack([np.eye(3), 2 * np.eye(3)])),
                          [7.0, 14.0])
    assert ad.window_loss([np.array([0.0, 4.5, 0.5]), np.array([1.0, 5.0, 2.0])]) == 1.5
    # worst increases 1, 5 and 6: their mean
    assert ad.window_loss([np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 5.0]),
                           np.array([7.0, 5.0])]) == 4.0
    hc = np.arange(24.0).reshape(2, 2, 2, 3)
    assert np.array_equal(ad.concat_h(hc), np.concatenate([hc[0, 0], hc[0, 1]], axis=1))


def test_shape_errors_name_the_kind():
    with pytest.raises(ad.ShapeError, match="head"):
        ad.head(np.zeros((2, 2, 3)), np.zeros((2, 3)), np.zeros((1, 3)))
    with pytest.raises(ad.ShapeError, match="head"):
        ad.head(np.zeros((2, 2, 3)), np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ad.ShapeError, match="head"):  # a state, not its h half
        ad.head(np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((1, 1)))
    with pytest.raises(ad.ShapeError, match="quadratic_losses"):
        ad.quadratic_losses(np.zeros((3,)), np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError, match="window_loss"):
        ad.window_loss([np.zeros(2), np.zeros(3)])
    with pytest.raises(ad.ShapeError, match="window_loss"):  # no step
        ad.window_loss([np.zeros(2)])
    with pytest.raises(ad.ShapeError, match="window_loss"):
        ad.window_loss([])
    with pytest.raises(ad.ShapeError, match="window_loss"):
        ad.window_loss([np.zeros((2, 1)), np.zeros((2, 1))])
    with pytest.raises(ad.ShapeError, match="sub_scaled"):
        ad.sub_scaled(np.zeros((3, 1)), np.zeros((1, 3)), 0.5)
    with pytest.raises(ad.ShapeError, match="sub_scaled"):  # no row broadcast
        ad.sub_scaled(np.zeros((4, 3)), np.zeros((1, 3)), 0.5)
    with pytest.raises(ad.ShapeError, match="lstm"):
        ad.lstm(np.zeros((2, 1)), np.zeros((2, 2, 3)),
                np.zeros((1, 12)), np.zeros((3, 12)), np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ad.ShapeError, match="lstm"):  # stack axes must agree
        ad.lstm(np.zeros((2, 4, 1)), np.zeros((2, 2, 4, 3)), np.zeros((3, 1, 12)),
                np.zeros((2, 3, 12)), np.zeros((2, 1, 12)), np.zeros((2, 1, 12)))
    with pytest.raises(ad.ShapeError, match="lstm"):  # the bias rows do not broadcast
        ad.lstm(np.zeros((2, 1)), np.zeros((2, 2, 3)),
                np.zeros((1, 12)), np.zeros((3, 12)), np.zeros((1, 12)), np.zeros((2, 1, 12)))


def test_square_gradient():
    store = scalar_store(x=[[3.0]])
    tape = ad.Tape()
    x = tape.param(store, "x")
    y = half_square(x)
    assert y.value == 4.5
    ad.backward(tape, y)
    assert store.grads["x"][0, 0] == pytest.approx(3.0, abs=1e-12)


def test_identity_matmul_sum_gradient():
    """Curvature matrices equal to the identity give the identity losses and gradient, bit for bit."""
    rng = np.random.default_rng(2)
    store = scalar_store(v=rng.normal(size=(3, 1)))
    centers, r = rng.normal(size=(2, 3)), rng.normal(size=2)
    grads = []
    for mats in (None, np.stack([np.eye(3), np.eye(3)])):
        tape = ad.Tape()
        f = ad.quadratic_losses(tape.param(store, "v"), centers, mats)
        store.zero_grad()
        ad.backward(tape, weighted_sum(f, r))
        grads.append((f.value, store.grads["v"].copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])
    assert np.allclose(grads[0][1], ((store.params["v"].T - centers).T * r).sum(axis=1, keepdims=True))


def test_backward_requires_scalar():
    store = scalar_store(v=np.ones((2, 1)))
    tape = ad.Tape()
    v = tape.param(store, "v")
    y = ad.quadratic_losses(v, np.zeros((2, 2)))
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(tape, y)


def test_backward_accumulates_until_reset():
    store = scalar_store(x=[[2.0]])
    tape = ad.Tape()
    x = tape.param(store, "x")
    y = half_square(x)
    ad.backward(tape, y)
    ad.backward(tape, y)
    assert store.grads["x"][0, 0] == pytest.approx(4.0)
    store.zero_grad()
    assert store.grads["x"][0, 0] == 0.0


def test_backward_linearity():
    rng = np.random.default_rng(0)
    store = scalar_store(a=rng.normal(size=(3, 1)), b=rng.normal(size=(3, 1)))
    centers, mats = rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 3))

    def grads_of(build):
        tape = ad.Tape()
        a, b = tape.param(store, "a"), tape.param(store, "b")
        store.zero_grad()
        ad.backward(tape, build(a, b))
        return {k: v.copy() for k, v in store.grads.items()}

    f = lambda a, b: half_square(a)
    g = lambda a, b: ad.window_loss([np.zeros(2), ad.quadratic_losses(ad.sub_scaled(a, b, 1.0), centers, mats)])
    both = grads_of(lambda a, b: plus(f(a, b), g(a, b)))
    gf, gg = grads_of(f), grads_of(g)
    for k in both:
        assert np.allclose(both[k], gf[k] + gg[k], atol=1e-14)


def test_window_loss_lowest_index_tie():
    store = scalar_store(curr=[1.0, 3.0, 3.0], prev=[0.0, 2.0, 2.0])
    tape = ad.Tape()
    out = ad.window_loss([tape.param(store, "prev"), tape.param(store, "curr")])
    assert float(out.value) == 1.0
    ad.backward(tape, out)
    assert np.array_equal(store.grads["curr"], [1.0, 0.0, 0.0])
    assert np.array_equal(store.grads["prev"], [-1.0, 0.0, 0.0])


def test_window_loss_adjoints_are_the_per_step_sweep():
    """Each f_k's adjoint is -1/K at step k+1's (lowest-index) argmax plus 1/K at
    step k's; where both argmaxes agree they cancel to zero."""
    fs = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 1.0, 0.0], [2.0, 1.0, 4.0]]
    store = scalar_store(**{f"f{k}": f for k, f in enumerate(fs)})
    tape = ad.Tape()
    out = ad.window_loss([tape.param(store, f"f{k}") for k in range(4)])
    assert float(out.value) == (1.0 + 1.0 + 4.0) * (1.0 / 3.0)  # argmaxes 0 (a tie), 0 and 2
    ad.backward(tape, out)
    third = 1.0 / 3.0
    assert np.array_equal(store.grads["f0"], [-third, 0.0, 0.0])
    assert np.array_equal(store.grads["f1"], [0.0, 0.0, 0.0])
    assert np.array_equal(store.grads["f2"], [third, 0.0, -third])
    assert np.array_equal(store.grads["f3"], [0.0, 0.0, third])


def test_head_adjoint_is_zero_in_the_c_half():
    store = scalar_store(hc=np.ones((2, 4, 3)))
    tape = ad.Tape()
    col = ad.head(tape.param(store, "hc"), np.ones((3, 1)), np.zeros((1, 1)))
    ad.backward(tape, weighted_sum(col))
    assert np.array_equal(store.grads["hc"], np.stack([np.ones((4, 3)), np.zeros((4, 3))]))


def test_sub_scaled_equals_two_step_chain_bitwise():
    """The value is ``x - (d * alpha)``; the adjoints are those of a ``d * alpha``
    node followed by a subtraction node: ``g`` and ``(-g) * alpha``."""
    rng = np.random.default_rng(3)
    x0, d0, r = rng.normal(size=(3, 4, 1))
    store = scalar_store(x=x0, d=d0)
    tape = ad.Tape()
    out = ad.sub_scaled(tape.param(store, "x"), tape.param(store, "d"), 0.35)
    assert np.array_equal(out.value, x0 - d0 * 0.35)
    ad.backward(tape, weighted_sum(out, r))
    assert np.array_equal(store.grads["x"], r)
    assert np.array_equal(store.grads["d"], (-r) * 0.35)


def test_shared_adjoints_and_two_heads_match_fd():
    rng = np.random.default_rng(5)
    store = scalar_store(v=rng.normal(size=(2, 4, 2)), w=rng.normal(size=(2, 4, 2)))
    w1, w2, b = rng.normal(size=(2, 1)), rng.normal(size=(2, 1)), rng.normal(size=(1, 1))
    r = rng.normal(size=(2, 4, 2))

    def build(st):
        tape = ad.Tape()
        v, w = tape.param(st, "v"), tape.param(st, "w")
        u = plus(v, v)  # one adjoint reaches both inputs
        left = ad.head(u, w1, b)
        right = ad.head(u, w2, b)
        # d's adjoint reaches u and w as one array before the heads add into u's
        d = plus(u, w)
        return tape, plus(plus(half_square(left), half_square(right)), weighted_sum(d, r))

    tape, out = build(store)
    ad.backward(tape, out)
    g_fd = ad.finite_diff_gradient(lambda st: float(build(st)[1].value), store, eps=1e-5)
    for k in ("v", "w"):
        err = np.linalg.norm(store.grads[k] - g_fd[k]) / np.linalg.norm(g_fd[k])
        assert err < 1e-8, f"{k}: rel err {err}"


def test_dropped_tape_is_freed_without_the_cycle_collector():
    """No recorded backward holds a Var, so a tape and its arrays go with its last reference."""
    store = scalar_store(s=np.ones((1, 2, 3)), hc=np.ones((2, 1, 2, 3)), w=np.ones((1, 3, 12)),
                         u=np.ones((1, 3, 12)), bx=np.ones((1, 1, 12)), bh=np.ones((1, 1, 12)))
    gc.disable()
    try:
        tape = ad.Tape()
        s, hc, w, u, bx, bh = (tape.param(store, k) for k in ("s", "hc", "w", "u", "bx", "bh"))
        hc = ad.lstm(s, hc, w, u, bx, bh)
        x = ad.sub_scaled(ad.concat_h(hc), np.ones((2, 3)), 2.0)
        sh = ad.lstm(x, np.zeros((2, 2, 3)), np.ones((3, 12)), np.ones((3, 12)),
                     np.ones((1, 12)), np.ones((1, 12)))
        x = ad.head(sh, np.ones((3, 1)), np.ones((1, 1)))
        f = ad.quadratic_losses(x, np.ones((2, 2)), np.stack([np.eye(2), np.eye(2)]))
        out = ad.window_loss([np.zeros(2), f, ad.quadratic_losses(x, np.zeros((2, 2)))])
        ad.backward(tape, out)
        ref = weakref.ref(tape)
        del tape, s, hc, w, u, bx, bh, x, sh, f, out
        assert ref() is None
    finally:
        gc.enable()


def test_row_bias_broadcast_backward():
    store = scalar_store(b=np.zeros((1, 3)))
    tape = ad.Tape()
    b = tape.param(store, "b")
    out = weighted_sum(ad.head(np.ones((2, 4, 2)), np.zeros((2, 3)), b))
    ad.backward(tape, out)
    assert np.array_equal(store.grads["b"], np.full((1, 3), 4.0))


def _random_lstm_loss(seed):
    """Two chained steps of a taped LSTM cell: a scalar of 5 parameter arrays."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    store.add("w", rng.normal(size=(2, 12)))
    store.add("u", rng.normal(size=(3, 12)))
    store.add("bx", rng.normal(size=(1, 12)))
    store.add("bh", rng.normal(size=(1, 12)))
    store.add("hc0", np.stack([rng.normal(size=(4, 3)), np.zeros((4, 3))]))
    s1, s2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    v = rng.normal(size=(3, 1))
    c_half = np.stack([np.zeros((4, 3)), np.ones((4, 3))])

    def build(st):
        tape = ad.Tape()
        w, u, bx, bh, hc0 = (tape.param(st, n) for n in ("w", "u", "bx", "bh", "hc0"))
        hc1 = ad.lstm(s1, hc0, w, u, bx, bh)
        hc2 = ad.lstm(s2, hc1, w, u, bx, bh)
        return tape, plus(half_square(ad.head(hc2, v, np.zeros((1, 1)))),
                          weighted_sum(hc2, c_half))

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
    store.add("wc4", rng.normal(size=(2 * h, 4 * h)))
    store.add("wh4", rng.normal(size=(h, 4 * h)))
    store.add("bx4", rng.normal(size=(1, 4 * h)))
    store.add("bh4", rng.normal(size=(1, 4 * h)))
    store.add("u", rng.normal(size=(h, 1)))
    store.add("hc", rng.normal(size=(2, n, h)))
    store.add("hc2", rng.normal(size=(2, 2, n, h)))
    centers = rng.normal(size=(3, n))
    mats = None if seed % 2 else rng.normal(size=(3, n, n))
    f0 = rng.normal(size=3)

    op_sequence = rng.integers(0, 6, size=4)

    def build(st):
        tape = ad.Tape()
        a, b, w, bias, wx4, wc4, wh4, bx4, bh4, u, hc, hc2 = (
            tape.param(st, k)
            for k in ("a", "b", "w", "bias", "wx4", "wc4", "wh4", "bx4", "bh4", "u", "hc", "hc2")
        )
        cell = lambda s, state, wx=wx4: ad.lstm(s, state, wx, wh4, bx4, bh4)
        ops = [
            lambda v: ad.head(cell(v, hc), w, bias),
            lambda v: ad.head(cell(v, cell(v, hc)), w, bias),  # c' feeds the next cell
            lambda v: ad.sub_scaled(v, ad.head(cell(ad.concat_h(hc2), hc, wc4), w, bias), -0.5),
            lambda v: ad.sub_scaled(v, v, 0.25),
            lambda v: ad.sub_scaled(v, b, 0.7),
            lambda v: ad.sub_scaled(b, v, -1.3),
        ]
        x = a
        for idx in op_sequence:
            x = ops[idx](x)
        col = ad.head(cell(x, hc), u, np.zeros((1, 1)))
        return tape, ad.window_loss([f0, ad.quadratic_losses(col, centers, mats),
                                     ad.quadratic_losses(col, centers[::-1])])

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
    """A store of ``s``, ``hc`` (h and c stacked), ``wx``, ``wh``, ``bx``,
    ``bh`` and a random weighting of the output state."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    shapes = {"s": (n, in_w), "h": (n, hid), "c": (n, hid),
              "wx": (in_w, 4 * hid), "wh": (hid, 4 * hid)}
    vals = {name: rng.normal(size=lead + shape) for name, shape in shapes.items()}
    store.add("s", vals["s"])
    store.add("hc", np.stack([vals["h"], vals["c"]]))
    store.add("wx", vals["wx"])
    store.add("wh", vals["wh"])
    store.add("bx", bias_scale * rng.normal(size=lead + (1, 4 * hid)))
    store.add("bh", bias_scale * rng.normal(size=lead + (1, 4 * hid)))
    return store, rng.normal(size=(2,) + lead + (n, hid))


LSTM_ARGS = ("s", "hc", "wx", "wh", "bx", "bh")


def _weighted_lstm_loss(r):
    def build(st):
        tape = ad.Tape()
        hc = ad.lstm(*(tape.param(st, k) for k in LSTM_ARGS))
        return tape, weighted_sum(hc, r)
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
        pre = p["s"] @ p["wx"] + p["hc"][0] @ p["wh"] + (p["bx"] + p["bh"])
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
    assert (n * 4 * hid > ad._TILE_GATE_ENTRIES) == sliced
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


@pytest.mark.parametrize("n, hid", [(5, 4), (1870, 20)], ids=["small", "slice_by_slice"])
def test_untaped_lstm_broadcasts_weights_over_extra_leading_axes(n, hid):
    store, _ = _lstm_inputs(16, n, 2, hid, lead=(2,))
    p = store.params
    s = np.random.default_rng(17).normal(size=(3, 2, n, 2))
    hc = np.random.default_rng(18).normal(size=(2, 3, 2, n, hid))
    out = ad.lstm(s, hc, *(p[k] for k in LSTM_ARGS[2:]))
    for j in range(3):
        assert np.array_equal(out[:, j], ad.lstm(s[j], hc[:, j], *(p[k] for k in LSTM_ARGS[2:])))
    tape = ad.Tape()
    with pytest.raises(ad.ShapeError, match="lstm"):  # a taped call does not broadcast
        ad.lstm(s, hc, *(tape.param(store, k) for k in LSTM_ARGS[2:]))


@pytest.mark.parametrize("lead, n, hid", [((), 1870, 20), ((2,), 999, 8)],
                         ids=["one_cell", "stacked"])
def test_tiled_lstm_equals_whole_cell_bitwise(lead, n, hid):
    """An untaped call's row tiles, the last one ragged, give the whole cell's state bit for bit."""
    rows = ad._TILE_GATE_ENTRIES // (4 * hid)
    assert n > rows and n % rows != 0
    store, _ = _lstm_inputs(15, n, 3, hid, lead=lead)
    p = store.params
    whole, _, _ = ad._lstm_cell(*(p[k] for k in LSTM_ARGS[:4]), p["bx"] + p["bh"])
    assert np.array_equal(ad.lstm(*(p[k] for k in LSTM_ARGS)), whole)


def test_taped_ops_record_no_constant_nodes():
    store = scalar_store(x=np.ones((2, 3)), hc=np.zeros((2, 2, 3)), wx=np.ones((1, 12)),
                         wh=np.ones((3, 12)), bx=np.ones((1, 12)))
    tape = ad.Tape()
    x, hc, wx, wh, bx = (tape.param(store, k) for k in ("x", "hc", "wx", "wh", "bx"))
    y = ad.sub_scaled(x, np.full((2, 3), 2.0), 1.0)
    state = ad.lstm(np.ones((2, 1)), hc, wx, wh, bx, np.ones((1, 12)))
    col = ad.head(state, np.ones((3, 1)), np.ones((1, 1)))
    assert len(tape.nodes) == 8  # five params, sub_scaled, lstm, head
    assert tape.nodes[y.nid].inputs == (x.nid, None)
    assert tape.nodes[state.nid].inputs == (None, hc.nid, wx.nid, wh.nid, bx.nid, None)
    assert tape.nodes[col.nid].inputs == (state.nid, None, None)
    ad.backward(tape, plus(weighted_sum(y), weighted_sum(col)))
    assert np.array_equal(store.grads["x"], np.ones((2, 3)))


def _fused_node_loss(node, rng):
    """A store and a scalar builder that reach every parameter through ``node``."""
    if node.startswith("quadratic"):
        store = scalar_store(x=rng.normal(size=(4, 1)))
        centers, r = rng.normal(size=(3, 4)), rng.normal(size=3)
        mats = rng.normal(size=(3, 4, 4)) if node == "quadratic_curved" else None
        loss = lambda p: weighted_sum(ad.quadratic_losses(p["x"], centers, mats), r)
    elif node == "window_loss":
        # f_k peaks at index k over f_{k-1}: distinct argmaxes, so no f_k's adjoint cancels
        store = scalar_store(**{f"f{k}": rng.normal(size=4) + 5.0 * np.eye(4)[k] for k in range(4)})
        loss = lambda p: ad.window_loss([p[f"f{k}"] for k in range(4)])
    elif node.startswith("concat_h"):
        lead = (2,) if node.endswith("stacked") else ()
        store = scalar_store(hc=rng.normal(size=(2, *lead, 3, 4, 2)))
        r = rng.normal(size=lead + (4, 6))
        loss = lambda p: weighted_sum(ad.concat_h(p["hc"]), r)
    elif node == "head":
        store = scalar_store(hc=rng.normal(size=(2, 4, 3)), w=rng.normal(size=(3, 1)),
                             b=rng.normal(size=(1, 1)))
        loss = lambda p: half_square(ad.head(p["hc"], p["w"], p["b"]))
    elif node == "head_stacked":
        store = scalar_store(hc=rng.normal(size=(2, 2, 4, 3)), w=rng.normal(size=(3, 1)),
                             b=rng.normal(size=(1, 1)))
        r = rng.normal(size=(2, 4, 1))
        loss = lambda p: weighted_sum(ad.head(p["hc"], p["w"], p["b"]), r)
    else:
        store = scalar_store(x=rng.normal(size=(3, 1)), d=rng.normal(size=(3, 1)))
        loss = lambda p: half_square(ad.sub_scaled(p["x"], p["d"], 0.35))

    def build(st):
        tape = ad.Tape()
        return tape, loss({k: tape.param(st, k) for k in st.names()})

    return store, build


@pytest.mark.parametrize("node", ["quadratic_identity", "quadratic_curved", "window_loss",
                                  "concat_h", "concat_h_stacked", "head", "head_stacked",
                                  "sub_scaled"])
def test_fused_node_gradient_matches_fd(node):
    store, build = _fused_node_loss(node, np.random.default_rng(21))
    check_fd(store, build)


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
