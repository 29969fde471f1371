"""Unit and gradient tests for the autodiff tensor core."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from amimv import model as M
from amimv import tensor as T
from amimv.errors import ContractError, DimensionError

from _gradcheck import check_gradients


def t(x, **kw):
    return T.Tensor(np.asarray(x, dtype=np.float64), **kw)


class TestMatmul:
    def test_identity(self):
        b = t([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(t(np.eye(2)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_product(self):
        out = T.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        a = t(np.random.default_rng(0).normal(size=(3, 4)))
        out = T.matmul(a, t(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(2, 3, 5, 5)))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = T.conv2d(x, t(k))
        np.testing.assert_allclose(out.data, x.data)

    def test_ones_kernel_constant_image(self):
        c = 2.5
        x = t(np.full((1, 1, 6, 6), c))
        out = T.conv2d(x, t(np.ones((1, 1, 3, 3))))
        # direct summation oracle: every 3x3 window sums 9 constant pixels
        np.testing.assert_allclose(out.data, np.full((1, 1, 4, 4), 9 * c))

    def test_zero_kernel(self):
        x = t(np.random.default_rng(2).normal(size=(1, 2, 4, 4)))
        out = T.conv2d(x, t(np.zeros((3, 2, 3, 3))), stride=1, padding=1)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4, 4)))

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            T.conv2d(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 5, 5))))

    @pytest.mark.parametrize(
        "stride,pad,message",
        [
            (0, 0, "stride .*got 0"),
            (-1, 0, "stride .*got -1"),
            (1.5, 0, "stride .*got 1.5"),
            (1, -1, "padding .*got -1"),
            (2, 0, "stride .*got 2"),
            (1, 2, "padding .*got 2"),  # padding = kh = kw
        ],
    )
    def test_bad_stride_or_padding(self, stride, pad, message):
        with pytest.raises(DimensionError, match=message):
            T.conv2d(t(np.ones((1, 1, 4, 4))), t(np.ones((1, 1, 2, 2))), stride, pad)

    @pytest.mark.parametrize("k_hw", [(2, 3), (3, 2)])
    def test_padding_below_shorter_kernel_side(self, k_hw):
        # padding 2 is kh for a 2x3 kernel and kw for a 3x2 one
        with pytest.raises(DimensionError, match=r"padding .*\[0, 1\], got 2"):
            T.conv2d(t(np.ones((1, 1, 4, 4))), t(np.ones((1, 1) + k_hw)), 1, 2)

    @pytest.mark.parametrize("h,w,kh,kw,stride,pad", [
        (5, 5, 3, 3, 1, 0), (6, 7, 3, 2, 1, 1), (4, 4, 1, 1, 1, 0), (8, 5, 3, 3, 1, 2),
    ])
    def test_output_shape_formula(self, h, w, kh, kw, stride, pad):
        out = T.conv2d(t(np.zeros((1, 1, h, w))), t(np.zeros((2, 1, kh, kw))), stride, pad)
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (w + 2 * pad - kw) // stride + 1
        assert out.shape == (1, 2, ho, wo)


class TestL2Normalize:
    def test_hand_case(self):
        out = T.l2_normalize(t([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8])

    def test_unit_vector_fixed(self):
        v = t([1.0, 0.0, 0.0])
        np.testing.assert_allclose(T.l2_normalize(v).data, v.data, atol=1e-12)

    def test_zero_vector_guard(self):
        out = T.l2_normalize(t([0.0, 0.0]), epsilon=1e-12)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_rows_unit_norm(self):
        x = t(np.random.default_rng(3).normal(size=(5, 8)))
        out = T.l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-6)


class TestLogsumexp:
    def test_uniform(self):
        assert T.logsumexp(t([0.0, 0.0])).item() == pytest.approx(np.log(2.0))

    def test_singleton(self):
        assert T.logsumexp(t([3.25])).item() == pytest.approx(3.25)

    def test_no_overflow(self):
        # max-shift algebra: lse(1000,1000) = 1000 + ln 2
        out = T.logsumexp(t([1000.0, 1000.0])).item()
        assert np.isfinite(out)
        assert out == pytest.approx(1000.0 + np.log(2.0))

    def test_empty_axis(self):
        with pytest.raises(DimensionError):
            T.logsumexp(t(np.zeros((3, 0))))


class TestBackward:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant_loss_leaves_no_grad(self):
        x = t([1.0, 2.0], requires_grad=True)
        c = t(5.0)
        with T.Tape() as tape:
            loss = T.sum_(c)
        T.backward(loss, tape)
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(y, tape)

    def test_detach_blocks_gradient(self):
        x = t([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
            loss = T.sum_(T.mul(y.detach(), x))
        T.backward(loss, tape)
        # d/dx sum(c * x) with c = x^2 treated as constant
        np.testing.assert_allclose(x.grad, [1.0, 4.0])

    def test_no_grad_context(self):
        x = t([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            with T.no_grad():
                y = T.mul(x, x)
            loss = T.sum_(y)
        T.backward(loss, tape)
        assert x.grad is None

    def test_op_output_of_another_tape_is_a_leaf(self):
        w = t([1.0], requires_grad=True)
        with T.Tape():
            h = T.scale(w, 2.0)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(h, h))
        T.backward(loss, tape)
        np.testing.assert_array_equal(h.grad, [4.0])
        assert w.grad is None
        # the same for an inner tape: the outer tape's op output is a leaf on it
        with T.Tape():
            u = T.scale(w, 3.0)
            with T.Tape() as inner:
                loss = T.sum_(T.mul(u, u))
            T.backward(loss, inner)
        np.testing.assert_array_equal(u.grad, [6.0])
        assert w.grad is None

    def test_second_backward_on_a_replayed_tape_rejected(self):
        x = t([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        T.backward(loss, tape)
        with pytest.raises(ContractError, match="already replayed") as info:
            T.backward(loss, tape)
        assert "\n" not in str(info.value)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_relu_keeps_its_mask_as_bits(self):
        x = RNG.normal(size=(3, 5, 7))
        with T.Tape() as tape:
            T.relu(t(x, requires_grad=True))
        backward_fn = tape.records[-1].backward_fn
        assert sum(a.nbytes for a in _reachable_arrays([backward_fn])) <= -(-x.size // 8)
        g = RNG.normal(size=x.shape)
        np.testing.assert_array_equal(backward_fn(g)[0], g * (x > 0))

    def test_reused_leaf_accumulates(self):
        x = t([2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.add(T.mul(x, x), x))
        T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_tape_opened_inside_no_grad_records_nothing(self):
        x = t([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            with T.Tape() as tape:
                y = T.mul(x, x)
        assert tape.records == [] and y.record is None and not y.requires_grad

    @pytest.mark.parametrize("context", [T.no_grad, T.Tape])
    def test_stack_empty_after_an_exception(self, context):
        with pytest.raises(ZeroDivisionError):
            with T.Tape():
                with context():
                    raise ZeroDivisionError
        assert T._TAPE_STACK == []
        # a later tape records again
        x = t([3.0], requires_grad=True)
        with T.Tape() as tape:
            T.mul(x, x)
        assert len(tape.records) == 1


RNG = np.random.default_rng(2024)


def _shapes(n):
    return [RNG.normal(size=s) for s in n]


class TestGradcheck:
    """Every differentiable op against the finite-difference oracle."""

    @pytest.mark.parametrize("trial", range(3))
    def test_matmul(self, trial):
        a, b = _shapes([(3, 4), (4, 2)])
        check_gradients(lambda x, y: T.sum_(T.mul(m := T.matmul(x, y), m)), [a, b])

    @pytest.mark.parametrize(
        "pad,k_hw",
        [(0, (3, 3)), (1, (3, 3)), (1, (2, 3)), (0, (3, 2)), (0, (1, 2))],
        ids=["1-0", "1-1", "1-1-k2x3", "1-0-k3x2", "1-0-k1x2"],  # stride-padding[-kernel]
    )
    def test_conv2d(self, pad, k_hw):
        x, k = _shapes([(2, 2, 5, 5), (3, 2) + k_hw])
        check_gradients(
            lambda a, b: T.sum_(T.mul(c := T.conv2d(a, b, 1, pad), c)), [x, k]
        )

    def test_conv2d_kernel_gradient_in_chunks(self, monkeypatch):
        """At a budget of one image's im2col matrix the kernel gradient sums three chunk GEMMs."""
        x, k = _shapes([(3, 2, 5, 5), (3, 2, 3, 3)])
        monkeypatch.setattr(T, "_IM2COL_BYTES", 5 * 5 * 3 * 3 * 2 * 8)
        assert _chunked_dk(x, np.ones((3, 3, 5, 5)), 3, 3, 1)[1] == [1, 1, 1]
        check_gradients(lambda a, b: T.sum_(T.mul(c := T.conv2d(a, b, 1, 1), c)), [x, k])

    def test_add_sub_mul_div(self):
        a, b = _shapes([(3, 4), (3, 4)])
        b = np.abs(b) + 0.5
        check_gradients(lambda x, y: T.sum_(T.mul(T.add(x, y), T.sub(x, y))), [a, b])
        check_gradients(lambda x, y: T.sum_(T.div(x, y)), [a, b])

    def test_broadcast_add_mul(self):
        a, b = _shapes([(3, 4), (1, 4)])
        check_gradients(lambda x, y: T.sum_(T.mul(T.add(x, y), y)), [a, b])

    def test_relu(self):
        (a,) = _shapes([(4, 5)])
        a = a + 0.1 * np.sign(a)  # keep away from the kink
        check_gradients(lambda x: T.sum_(T.mul(T.relu(x), x)), [a])

    def test_group_norm_relu(self):
        x, gamma, beta = _shapes([(2, 6, 3, 3), (6,), (6,)])
        check_gradients(
            lambda a, g, b: T.sum_(T.mul(y := T.group_norm(a, g, b, 3, 1e-5, relu=True), T.add(y, a))),
            [x, gamma, beta],
        )

    def test_exp_log_sqrt(self):
        (a,) = _shapes([(3, 3)])
        a = np.abs(a) + 0.5
        check_gradients(lambda x: T.sum_(T.exp(x)), [a])
        check_gradients(lambda x: T.sum_(T.log(x)), [a])
        check_gradients(lambda x: T.sum_(T.sqrt(x)), [a])

    def test_mean_and_sum_axes(self):
        (a,) = _shapes([(3, 5)])
        check_gradients(lambda x: T.mean(T.mul(x, x)), [a])
        check_gradients(lambda x: T.sum_(T.mean(x, axis=1)), [a])
        check_gradients(lambda x: T.mean(T.sum_(x, axis=0)), [a])

    def test_concat(self):
        a, b = _shapes([(2, 3), (2, 2)])
        check_gradients(
            lambda x, y: T.sum_(T.mul(c := T.concat([x, y], axis=1), c)), [a, b]
        )

    def test_avg_pool(self):
        (x,) = _shapes([(2, 3, 4, 4)])
        check_gradients(lambda a: T.sum_(T.mul(p := T.avg_pool2d(a, 2), p)), [x])

    def test_l2_normalize_away_from_zero(self):
        (a,) = _shapes([(4, 6)])
        a = a + np.sign(a)  # rows comfortably away from the origin
        check_gradients(lambda x: T.sum_(T.exp(T.l2_normalize(x))), [a])

    def test_logsumexp(self):
        (a,) = _shapes([(4, 6)])
        check_gradients(lambda x: T.sum_(T.logsumexp(x)), [a])

    def test_gather_rows(self):
        (a,) = _shapes([(5, 3)])
        idx = [0, 2, 2, 4]
        check_gradients(lambda x: T.sum_(T.mul(g := T.gather_rows(x, idx), g)), [a])

    def test_reshape(self):
        (a,) = _shapes([(4, 6)])
        check_gradients(lambda x: T.sum_(T.mul(r := T.reshape(x, (2, 12)), r)), [a])


class TestShapeAlgebraProperty:
    @given(
        h=st.integers(3, 20), w=st.integers(3, 20),
        kh=st.integers(1, 5), kw=st.integers(1, 5), data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_conv_output_shape(self, h, w, kh, kw, data):
        pad = data.draw(st.integers(0, min(kh, kw) - 1), label="pad")
        if kh > h + 2 * pad or kw > w + 2 * pad:
            return
        out = T.conv2d(T.Tensor(np.zeros((1, 1, h, w))), T.Tensor(np.zeros((1, 1, kh, kw))), 1, pad)
        assert out.shape == (1, 1, h + 2 * pad - kh + 1, w + 2 * pad - kw + 1)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 8)).astype(np.float32)
    k = rng.normal(size=(4, 8)).astype(np.float32)

    def run():
        a = T.Tensor(x, requires_grad=True)
        b = T.Tensor(k.T.copy(), requires_grad=True)
        with T.Tape() as tape:
            loss = T.mean(T.mul(m := T.matmul(a, b), m))
        T.backward(loss, tape)
        return loss.item(), a.grad.copy(), b.grad.copy()

    l1, g1, g2 = run()
    l2, h1, h2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, h1)
    np.testing.assert_array_equal(g2, h2)


# ---------------------------------------------------------------------------
# fused layer ops: finite differences at the criterion-2 standard, and
# bitwise equality with the op chains they replace


def _fused_cases(rng):
    def weighted(op, out_shape):
        # sum(y * R + y * y) for a fixed random R, so no gradient is trivially zero
        r = T.Tensor(rng.normal(size=out_shape))
        return lambda *leaves: T.sum_(T.add(T.mul(y := op(*leaves), r), T.mul(y, y)))

    return [
        # one channel per group
        (
            weighted(lambda x, g, b: T.group_norm(x, g, b, 4, 1e-5), (2, 4, 3, 3)),
            [rng.normal(size=(2, 4, 3, 3)), rng.normal(size=4), rng.normal(size=4)],
        ),
        # three channels per group
        (
            weighted(lambda x, g, b: T.group_norm(x, g, b, 2, 1e-5), (2, 6, 2, 3)),
            [rng.normal(size=(2, 6, 2, 3)), rng.normal(size=6), rng.normal(size=6)],
        ),
        (
            weighted(lambda x, k, b: T.conv2d(x, k, 1, 1, bias=b), (2, 3, 4, 4)),
            [rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)],
        ),
        (
            weighted(T.linear, (3, 2)),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)],
        ),
        # the fused ReLU, two channels per group
        (
            weighted(lambda x, g, b: T.group_norm(x, g, b, 2, 1e-5, relu=True), (2, 4, 3, 2)),
            [rng.normal(size=(2, 4, 3, 2)), rng.normal(size=4), rng.normal(size=4)],
        ),
    ]


def test_fused_ops_gradcheck_twenty_seeds():
    for seed in range(20):
        for build, arrays in _fused_cases(np.random.default_rng(seed)):
            check_gradients(build, arrays, rtol=1e-4)


def _chain_group_norm(x, gamma, beta, groups, eps):
    """The reshape/mean/sub/mul/div/sqrt chain that T.group_norm replaces."""
    n, c, h, w = x.shape
    xg = T.reshape(x, (n, groups, (c // groups) * h * w))
    mu = T.mean(xg, axis=2, keepdims=True)
    centered = T.sub(xg, mu)
    var = T.mean(T.mul(centered, centered), axis=2, keepdims=True)
    normed = T.div(centered, T.sqrt(T.add_scalar(var, eps)))
    normed = T.reshape(normed, (n, c, h, w))
    gamma4 = T.reshape(gamma, (1, c, 1, 1))
    beta4 = T.reshape(beta, (1, c, 1, 1))
    return T.add(T.mul(normed, gamma4), beta4)


def _chain_conv2d(x, k, b):
    out = T.conv2d(x, k, 1, 1)
    return T.add(out, T.reshape(b, (1, out.shape[1], 1, 1)))


def _chain_linear(x, w, b):
    return T.add(T.matmul(x, w), T.reshape(b, (1, b.shape[0])))


@pytest.mark.parametrize(
    "fused,chain,shapes,dx_rtol",
    [
        (
            lambda x, g, b: T.group_norm(x, g, b, 8, 1e-5),
            lambda x, g, b: _chain_group_norm(x, g, b, 8, 1e-5),
            [(4, 16, 7, 7), (16,), (16,)],
            1e-5,
        ),
        (
            lambda x, g, b: T.group_norm(x, g, b, 8, 1e-5),
            lambda x, g, b: _chain_group_norm(x, g, b, 8, 1e-5),
            [(3, 8, 5, 5), (8,), (8,)],
            1e-5,
        ),
        (
            lambda x, k, b: T.conv2d(x, k, 1, 1, bias=b),
            _chain_conv2d,
            [(4, 3, 6, 6), (8, 3, 3, 3), (8,)],
            0.0,
        ),
        (T.linear, _chain_linear, [(37, 12), (12, 7), (7,)], 0.0),
    ],
    ids=["group_norm-2ch", "group_norm-1ch", "conv2d-bias", "linear"],
)
def test_fused_op_bitwise_equals_chain_float32(fused, chain, shapes, dx_rtol):
    """Output and parameter gradients byte-equal to the chain; the input gradient too, unless dx_rtol > 0.

    group_norm's dx is the closed form of arXiv:1803.08494, two reductions per group, so its sums run in
    another order than the chain's backward and it is held to dx_rtol of max|dx|.
    """
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
    out_shape = fused(*[T.Tensor(a) for a in arrays]).shape
    weights = T.Tensor(rng.normal(size=out_shape).astype(np.float32))
    results = []
    for op in (fused, chain):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        with T.Tape() as tape:
            y = op(*leaves)
            loss = T.mean(T.add(T.mul(y, y), T.mul(y, weights)))
        T.backward(loss, tape)
        results.append((y.data, [leaf.grad for leaf in leaves], len(tape.records)))
    (y_new, g_new, n_new), (y_old, g_old, n_old) = results
    np.testing.assert_array_equal(y_new, y_old)
    for i, (a, b) in enumerate(zip(g_new, g_old)):
        assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
        if i == 0 and dx_rtol:
            assert np.abs(a - b).max() <= dx_rtol * np.abs(b).max()
        else:
            np.testing.assert_array_equal(a, b)
    assert n_new < n_old


# every group-normalized encoder activation, and two small ones
_ENCODER_NORMS = [
    (64, 8, 28, 28), (64, 16, 14, 14), (32, 32, 32, 32), (32, 64, 16, 16), (32, 128, 8, 8),
    (32, 256, 4, 4), (3, 8, 5, 5), (2, 8, 1, 1),
]
# the group norms of one 128-image chunk of tiny's eval pass
_EVAL_NORMS = [(128, 8, 28, 28), (128, 16, 14, 14)]


@pytest.mark.parametrize("shape", _ENCODER_NORMS)
def test_group_norm_float32_dx_matches_float64_chain(shape):
    """float32 closed-form dx within 1e-5 of max|dx| of the float64 op chain on the same input."""
    rng = np.random.default_rng(12)
    c = shape[1]
    arrays = [(rng.normal(size=s) * 3.0 + 1.0).astype(np.float32) for s in (shape, (c,), (c,), shape)]
    dx = []
    for op, dtype in ((T.group_norm, np.float32), (_chain_group_norm, np.float64)):
        x, gamma, beta, g = (T.Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(op(x, gamma, beta, 8, 1e-5), g))  # hands the op exactly g
        T.backward(loss, tape)
        dx.append(x.grad)
    (new, want) = dx
    assert new.dtype == np.float32 and new.shape == want.shape
    assert np.abs(new - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ENCODER_NORMS)
def test_group_norm_relu_bitwise_equals_relu_of_group_norm(dtype, shape):
    """group_norm(..., relu=True) gives the out, dx, dgamma and dbeta bytes of relu(group_norm(...)), in one
    record instead of two."""
    rng = np.random.default_rng(21)
    c = shape[1]
    arrays = [rng.normal(size=s).astype(dtype) for s in (shape, (c,), (c,), shape)]
    results = []
    for op in (
        lambda x, gamma, beta: T.group_norm(x, gamma, beta, 8, 1e-5, relu=True),
        lambda x, gamma, beta: T.relu(T.group_norm(x, gamma, beta, 8, 1e-5)),
    ):
        x, gamma, beta = (T.Tensor(a, requires_grad=True) for a in arrays[:3])
        with T.Tape() as tape:
            y = op(x, gamma, beta)
            loss = T.sum_(T.mul(y, T.Tensor(arrays[3])))  # hands the op exactly arrays[3]
        T.backward(loss, tape)
        results.append(([y.data, x.grad, gamma.grad, beta.grad], len(tape.records)))
    (fused, n_fused), (pair, n_pair) = results
    for got, want in zip(fused, pair):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
    assert (fused[0] > 0).any() and (fused[0] == 0).any()  # both sides of the kink are exercised
    assert n_fused == n_pair - 1


def test_group_norm_relu_rebuild_only_when_recorded():
    """Only a recorded relu output carries a rebuild function; it gives the output's bytes, keeps its mask
    at one bit per element and reaches no array but the norm's own normed, gamma and beta."""
    rng = np.random.default_rng(22)
    x, gamma, beta = (rng.normal(size=s).astype(np.float32) for s in ((3, 16, 5, 5), (16,), (16,)))
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    assert T.group_norm(*leaves, 8, 1e-5, relu=True).rebuild is None  # no tape
    with T.Tape() as tape:
        with T.no_grad():
            assert T.group_norm(*leaves, 8, 1e-5, relu=True).rebuild is None
        assert T.group_norm(*leaves, 8, 1e-5).rebuild is None
        y = T.group_norm(*leaves, 8, 1e-5, relu=True)
    np.testing.assert_array_equal(y.rebuild(), y.data)

    def owners(roots):
        return {id(a): a for a in _reachable_arrays(roots) if a.base is None}

    kept, rebuild = owners([tape.records[-1].backward_fn]), owners([y.rebuild])
    # the rebuild needs no memory of its own: beyond the beta parameter, it reaches what the record keeps
    assert rebuild and set(rebuild) <= set(kept) | {id(leaves[2].data)}
    assert not [a for a in rebuild.values() if np.may_share_memory(a, y.data)]
    # the record keeps normed (x's size), sd, gamma and the mask's bits
    assert sum(a.nbytes for a in kept.values()) <= x.nbytes + 3 * 8 * 4 + gamma.nbytes + -(-x.size // 8)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ENCODER_NORMS)
def test_group_norm_backward_memory_is_bounded(dtype, shape, relu):
    """Beyond g and the arrays its record keeps, group_norm's backward holds at most two x-sized arrays at
    once (the masked g or dx, and one product), a few per-(n, c) coefficient arrays and numpy's buffers for
    its strided reductions: no group-sized temporaries."""
    rng = np.random.default_rng(25)
    n, c = shape[:2]
    arrays = [rng.normal(size=s).astype(dtype) for s in (shape, (c,), (c,), shape)]
    x, gamma, beta = (T.Tensor(a, requires_grad=True) for a in arrays[:3])
    g, g_before = arrays[3], arrays[3].copy()
    with T.Tape() as tape:
        T.group_norm(x, gamma, beta, 8, 1e-5, relu=relu)
    backward_fn = tape.records[-1].backward_fn
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [shape, (c,), (c,)]
    np.testing.assert_array_equal(g, g_before)  # add's backward hands one g to both its inputs
    assert peak <= 2 * x.data.nbytes + (8 * n * c + 2 * np.getbufsize()) * x.data.itemsize


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ENCODER_NORMS + _EVAL_NORMS)
def test_unrecorded_group_norm_gives_the_recorded_bytes(dtype, shape, relu):
    """An unrecorded call, which writes its output over x^, gives the bytes of a recorded one."""
    rng = np.random.default_rng(27)
    c = shape[1]
    arrays = [(rng.normal(size=s) * 2.0 + 0.5).astype(dtype) for s in (shape, (c,), (c,))]
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        want = T.group_norm(*leaves, 8, 1e-5, relu=relu)
        with T.no_grad():
            got = T.group_norm(*leaves, 8, 1e-5, relu=relu)
    assert len(tape.records) == 1 and got.record is None
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ENCODER_NORMS[:6] + _EVAL_NORMS)
def test_unrecorded_group_norm_relu_forward_memory_is_bounded(dtype, shape):
    """Above its input, an unrecorded GN-ReLU forward holds one x-sized array (x^, then its output over it),
    the bool mask, one slice of squares of at most 256 KiB (or one group's, where that is larger), a few
    per-(n, group) arrays and numpy's cast buffers: not a second x-sized array."""
    rng = np.random.default_rng(28)
    n, c = shape[:2]
    x, gamma, beta = (T.Tensor(rng.normal(size=s).astype(dtype)) for s in (shape, (c,), (c,)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y = T.group_norm(x, gamma, beta, 8, 1e-5, relu=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    squares = max(256 << 10, x.data.nbytes // (n * 8))
    slack = (4 * n * 8 + 2 * np.getbufsize()) * x.data.itemsize
    assert squares + slack < x.data.nbytes  # so a second x-sized array would break the bound
    assert peak <= y.data.nbytes + x.data.size + squares + slack


def test_unrecorded_relu_packs_no_mask(monkeypatch):
    """relu and group_norm(..., relu=True) pack their mask only when recorded. An unrecorded call (no tape,
    under no_grad, or on inputs that need no gradient) gives the recorded call's bytes and packs nothing."""
    rng = np.random.default_rng(26)
    arrays = [rng.normal(size=s).astype(np.float32) for s in ((3, 16, 5, 5), (16,), (16,))]
    packs = []
    packbits = np.packbits
    monkeypatch.setattr(np, "packbits", lambda *a, **kw: packs.append(a[0].shape) or packbits(*a, **kw))
    for op in (
        lambda x, gamma, beta: T.relu(x),
        lambda x, gamma, beta: T.group_norm(x, gamma, beta, 8, 1e-5, relu=True),
    ):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        with T.Tape():
            want = op(*leaves).data
        assert packs == [arrays[0].shape]
        packs.clear()
        got = [op(*leaves).data]
        with T.Tape():
            with T.no_grad():
                got.append(op(*leaves).data)
            got.append(op(*[T.Tensor(a) for a in arrays]).data)
        assert not packs
        for out in got:
            np.testing.assert_array_equal(out, want)


def test_group_norm_needs_whole_groups():
    x = t(np.zeros((1, 6, 2, 2)))
    with pytest.raises(DimensionError, match="6 channels"):
        T.group_norm(x, t(np.ones(6)), t(np.zeros(6)), 4, 1e-5)


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError, match="linear"):
        T.linear(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.ones(3)))


@pytest.mark.parametrize("x_shape", [(3,), (2, 3, 2, 2)], ids=["1d", "chw-mismatch"])
def test_linear_rejects_x_that_is_not_n_by_d(x_shape):
    with pytest.raises(DimensionError, match="linear"):
        T.linear(t(np.ones(x_shape)), t(np.ones((3, 4))), t(np.ones(4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_on_4d_input_equals_linear_on_its_reshape(dtype):
    """linear reads x [N,C,H,W] as [N,C*H*W]: output and the three gradients are the bytes of the reshape
    followed by linear, with one record fewer, and x's gradient comes back in x's shape."""
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((6, 4, 3, 3), (36, 5), (5,), (6, 5))]
    results = []
    for flatten in (False, True):
        x, w, b = (T.Tensor(a, requires_grad=True) for a in arrays[:3])
        with T.Tape() as tape:
            y = T.linear(T.reshape(x, (6, 36)) if flatten else x, w, b)
            loss = T.sum_(T.mul(y, T.Tensor(arrays[3])))
        T.backward(loss, tape)
        results.append((y.data, x.grad, w.grad, b.grad, len(tape.records)))
    new, old = results
    for a, b in zip(new[:4], old[:4]):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert new[1].shape == (6, 4, 3, 3) and new[4] == old[4] - 1


def test_linear_gradcheck_on_4d_input():
    x, w, b = _shapes([(3, 2, 2, 3), (12, 4), (4,)])
    check_gradients(lambda x, w, b: T.sum_(T.mul(y := T.linear(x, w, b), y)), [x, w, b])


# ---------------------------------------------------------------------------
# 2x2 average pooling against the k x k reshape-mean it replaced


def _reference_avg_pool2d(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


# Every pooled encoder activation (tiny at batch 64, 256 and the 182-image test split; small_residual at
# batch 32). Tiny shapes are left out on purpose: NumPy picks the summation order of mean(axis=(3, 5)) by
# shape, and on (1, 1, 2, 2) the reference differs from the pairwise sum in the last bit for about a
# quarter of random inputs, in both dtypes.
_ENCODER_POOLS = [
    (64, 8, 28, 28), (64, 16, 14, 14), (256, 8, 28, 28), (182, 16, 14, 14),
    (32, 32, 32, 32), (32, 64, 16, 16), (32, 128, 8, 8), (32, 256, 4, 4),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _ENCODER_POOLS)
def test_avg_pool2d_bitwise_equals_reshape_mean(dtype, shape):
    x = np.random.default_rng(8).normal(size=shape).astype(dtype)
    leaf = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        y = T.avg_pool2d(leaf, 2)
        g = np.random.default_rng(9).normal(size=y.shape).astype(dtype)
        loss = T.sum_(T.mul(y, T.Tensor(g)))
    T.backward(loss, tape)
    assert y.data.dtype == leaf.grad.dtype == dtype
    np.testing.assert_array_equal(y.data, _reference_avg_pool2d(x))
    np.testing.assert_array_equal(leaf.grad, np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4)


@pytest.mark.parametrize(
    "shape,k", [((1, 2, 6, 6), 3), ((1, 2, 4, 4), 1), ((1, 2, 5, 4), 2), ((1, 2, 4, 7), 2), ((2, 4, 4), 2)]
)
def test_avg_pool2d_is_two_by_two_only(shape, k):
    with pytest.raises(DimensionError, match="avg_pool2d"):
        T.avg_pool2d(t(np.zeros(shape)), k)


# ---------------------------------------------------------------------------
# conv2d against the 6-D im2col + tensordot formulation it replaced


def _reference_conv2d(x, k, b, stride, pad, g):
    """Output, dx, dk, db of the loop-plus-tensordot conv2d, for upstream gradient g."""
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    # at n == 1 tensordot reshapes the (n, ho, wo, c, kh, kw) transpose of cols without a copy, and BLAS
    # sums that column-major operand in another order; a C-ordered copy gives one GEMM for every batch
    rows = np.ascontiguousarray(cols.transpose(0, 4, 5, 1, 2, 3))
    out = np.tensordot(rows, k, axes=([3, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out) + b.reshape(1, f, 1, 1)
    dk = np.tensordot(g, rows, axes=([0, 2, 3], [0, 1, 2]))
    dcols = np.einsum("nfhw,fcij->ncijhw", g, k)
    dxp = np.zeros(xp.shape, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, i, j]
    dx = dxp[:, :, pad:-pad, pad:-pad] if pad else dxp
    return out, dx, dk, g.sum(axis=(0, 2, 3))


# (input shape, kernel shape, stride, padding): every encoder conv layer, then odd sizes and non-square
# kernels
_ENCODER_CONVS = [
    ((64, 1, 28, 28), (8, 1, 3, 3), 1, 1),  # tiny conv1, batch 64
    ((64, 8, 14, 14), (16, 8, 3, 3), 1, 1),  # tiny conv2
    ((256, 1, 28, 28), (8, 1, 3, 3), 1, 1),  # tiny, batch 256
    ((256, 8, 14, 14), (16, 8, 3, 3), 1, 1),
    ((32, 1, 32, 32), (32, 1, 3, 3), 1, 1),  # small_residual stem, gray and RGB
    ((32, 3, 32, 32), (32, 3, 3, 3), 1, 1),
    ((32, 32, 32, 32), (32, 32, 3, 3), 1, 1),  # block0
    ((32, 32, 16, 16), (64, 32, 3, 3), 1, 1),  # block1
    ((32, 64, 16, 16), (64, 64, 3, 3), 1, 1),
    ((32, 32, 16, 16), (64, 32, 1, 1), 1, 0),
    ((32, 64, 8, 8), (128, 64, 3, 3), 1, 1),  # block2
    ((32, 128, 8, 8), (128, 128, 3, 3), 1, 1),
    ((32, 64, 8, 8), (128, 64, 1, 1), 1, 0),
    ((32, 128, 4, 4), (256, 128, 3, 3), 1, 1),  # block3
    ((32, 256, 4, 4), (256, 256, 3, 3), 1, 1),
    ((32, 128, 4, 4), (256, 128, 1, 1), 1, 0),
    ((4, 3, 9, 9), (5, 3, 3, 3), 1, 0),
    ((4, 3, 9, 9), (5, 3, 3, 2), 1, 1),
    ((3, 2, 10, 11), (4, 2, 2, 3), 1, 1),
]


def _walked_shapes(arch, size, channels, batch):
    """The conv (x_shape, k_shape, stride, pad), group norm and pool input shapes of one encoder pass, in
    forward order, from model.layer_shapes alone: a conv keeps H and W (padding k // 2), and each group
    norm normalizes its layer's output."""
    convs, norms, pools = [], [], []
    for row, x_shape, y_shape, specs in M.layer_shapes(M.EncoderConfig(arch, channels, size)):
        if row[0] == "pool":
            pools.append((batch, *x_shape))
        for name, shape in specs:
            if len(shape) == 4:
                convs.append(((batch, shape[1], *x_shape[1:]), shape, 1, shape[2] // 2))
            elif name.endswith(".gamma"):
                norms.append((batch, shape[0], *y_shape[1:]))
    return convs, norms, pools


@pytest.mark.parametrize(
    "arch,size,channels,batch",
    [("tiny", 28, 1, 64), ("small_residual", 32, 1, 32), ("small_residual", 32, 3, 32)],
)
def test_hand_lists_hold_every_walked_encoder_shape(arch, size, channels, batch):
    """_ENCODER_CONVS, _ENCODER_NORMS and _ENCODER_POOLS are written by hand; each shape the layer walk
    gives for the benchmark configurations must be in them."""
    convs, norms, pools = _walked_shapes(arch, size, channels, batch)
    assert convs and norms and pools
    assert [c for c in convs if c not in _ENCODER_CONVS] == []
    assert [s for s in norms if s not in _ENCODER_NORMS] == []
    assert [s for s in pools if s not in _ENCODER_POOLS] == []


@pytest.mark.parametrize("arch,channels", [("tiny", 1), ("small_residual", 3)])
def test_walked_shapes_are_the_forward_pass_shapes(monkeypatch, arch, channels):
    """An encode call hands conv2d, group_norm and avg_pool2d the walk's shapes, in the walk's order, and
    returns features of the walk's last output shape."""
    seen = {"conv2d": [], "group_norm": [], "avg_pool2d": []}
    for name, log in seen.items():
        def spy(x, *args, _op=getattr(T, name), _log=log, _name=name, **kwargs):
            if _name == "conv2d":
                _log.append((x.shape, args[0].shape, kwargs["stride"], kwargs["padding"]))
            else:
                _log.append(x.shape)
            return _op(x, *args, **kwargs)

        monkeypatch.setattr(T, name, spy)
    cfg = M.EncoderConfig(arch, channels, 16)
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, channels, 16, 16)).astype(np.float32))
    features, _ = M.encode(M.init_pair(cfg, seed=0).q_params, x, cfg)
    assert list(seen.values()) == list(_walked_shapes(arch, 16, channels, 2))
    assert features.shape[1:] == list(M.layer_shapes(cfg))[-1][2] == (cfg.feature_dim,)


def test_layer_shapes_allocates_no_array():
    """At input_size 4096 one small_residual activation is 2 GiB per image; the walk stays under 64 KiB."""
    cfg = M.EncoderConfig("small_residual", 3, 4096)
    tracemalloc.start()
    try:
        layers = list(M.layer_shapes(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x_shape for _, x_shape, _, _ in layers[:2]] == [(3, 4096, 4096), (32, 4096, 4096)]
    assert layers[-1][2] == (256,)
    assert peak < 64 << 10


# conv2d sums its GEMMs over (kh, kw, c), the reference over (c, kh, kw), and dx is a correlation of g
# with the flipped kernel, so output, dx and dk round in another order than the reference's
_DX_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


def _keep_cols_conv2d(x, kernel, stride, padding, *, bias):
    """conv2d as it was when its backward closure kept the forward's im2col matrix and its input gradient
    placed g in a zeroed buffer; the shape checks are left out, and stride is 1. T.conv2d gathers that
    matrix again in backward and must match this byte for byte."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    cols = T._im2col(x.data.transpose(0, 2, 3, 1), kh, kw, padding, padding)
    out = cols @ kernel.data.transpose(0, 2, 3, 1).reshape(f, -1).T
    out += bias.data
    out = np.ascontiguousarray(out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))

    def bwd(g):
        g_nhwc = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        dk = (g_nhwc.reshape(-1, f).T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        gp = np.zeros((n, h + kh - 1, w + kw - 1, f), dtype=g.dtype)
        th, tw = kh - 1 - padding, kw - 1 - padding
        gp[:, th : th + ho, tw : tw + wo] = g_nhwc
        gcols = T._im2col(gp, kh, kw, 0, 0)
        kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, -1)
        dx = (gcols @ kflip.T).reshape(n, h, w, c).transpose(0, 3, 1, 2).astype(x.dtype, copy=False)
        return dx, dk.astype(kernel.dtype, copy=False), g.sum(axis=(0, 2, 3))

    return T._make(out, (x, kernel, bias), bwd)


def _chunked_dk(x, g, kh, kw, pad):
    """The kernel gradient as conv2d sums it, and its chunk sizes: one GEMM per chunk of as many whole
    images as fit in T._IM2COL_BYTES of im2col (at least one), added in image order. Where the batch is
    one chunk this is the whole-batch GEMM of _keep_cols_conv2d."""
    x_nhwc = x.transpose(0, 2, 3, 1)
    n, _, _, c = x_nhwc.shape
    f, rows = g.shape[1], g.shape[2] * g.shape[3]
    step = max(1, T._IM2COL_BYTES // (rows * kh * kw * c * x.itemsize))
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
    parts = [
        gmat[i * rows : (i + step) * rows].T @ T._im2col(x_nhwc[i : i + step], kh, kw, pad, pad)
        for i in range(0, n, step)
    ]
    dk = parts[0]
    for part in parts[1:]:
        dk = dk + part
    return dk.reshape(f, kh, kw, c).transpose(0, 3, 1, 2), [min(step, n - i) for i in range(0, n, step)]


def _check_dk(got, x, g, k_shape, pad, whole):
    """dk byte-equal to the chunk-ordered sum, and to the whole-batch GEMM `whole` where the batch is one
    chunk; within _DX_RTOL of `whole` wherever it splits."""
    chunked, pieces = _chunked_dk(x, g, k_shape[2], k_shape[3], pad)
    np.testing.assert_array_equal(got, chunked)
    if len(pieces) == 1:
        np.testing.assert_array_equal(got, whole)
    assert np.abs(got - whole).max() <= _DX_RTOL[got.dtype.type] * np.abs(whole).max()


def _conv2d_results(x, k, b, g, stride, pad, conv=T.conv2d):
    """Output and the x, kernel, bias gradients of conv2d for upstream gradient g."""
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, k, b)]
    with T.Tape() as tape:
        y = conv(leaves[0], leaves[1], stride, pad, bias=leaves[2])
        loss = T.sum_(T.mul(y, T.Tensor(g)))  # hands conv2d exactly g as its upstream gradient
    T.backward(loss, tape)
    return [y.data] + [leaf.grad for leaf in leaves]


def _conv2d_inputs(rng, dtype, x_shape, k_shape, stride, pad):
    x, k = (rng.normal(size=s).astype(dtype) for s in (x_shape, k_shape))
    b = rng.normal(size=k_shape[0]).astype(dtype)
    ho = (x_shape[2] + 2 * pad - k_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * pad - k_shape[3]) // stride + 1
    g = rng.normal(size=(x_shape[0], k_shape[0], ho, wo)).astype(dtype)
    return x, k, b, g


def _check_conv2d_against_reference(rng, dtype, x_shape, k_shape, stride, pad):
    """db byte-equal to the reference; output, dx and dk within _DX_RTOL of their max magnitude. Output,
    dx and db byte-equal to the keep-cols conv2d, so gathering im2col again in backward changes no bit
    there; dk as _check_dk has it against the keep-cols whole-batch GEMM."""
    x, k, b, g = _conv2d_inputs(rng, dtype, x_shape, k_shape, stride, pad)
    out, dx, dk, db = _reference_conv2d(x, k, b, stride, pad, g)
    results = _conv2d_results(x, k, b, g, stride, pad)
    for got, want in zip(results, [out, dx, dk, db]):
        assert got.dtype == dtype and got.shape == want.shape
        if want is db:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= _DX_RTOL[dtype] * np.abs(want).max()
    kept_all = _conv2d_results(x, k, b, g, stride, pad, conv=_keep_cols_conv2d)
    for i, (got, kept) in enumerate(zip(results, kept_all)):
        if i == 2:
            _check_dk(got, x, g, k_shape, pad, kept)
        else:
            np.testing.assert_array_equal(got, kept)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_bitwise_equals_tensordot_reference(dtype, x_shape, k_shape, stride, pad):
    _check_conv2d_against_reference(np.random.default_rng(5), dtype, x_shape, k_shape, stride, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_input_gradient_is_the_forward_on_g(dtype, x_shape, k_shape, stride, pad):
    """dx is byte-equal to conv2d's own forward run on g, padded by k-1-pad, with the flipped kernel, its
    in and out channels swapped (arXiv:1603.07285). conv2d takes one padding for both axes, so for a
    non-square kernel g is first zero-padded on the longer kernel side by the difference."""
    x, k, b, g = _conv2d_inputs(np.random.default_rng(19), dtype, x_shape, k_shape, stride, pad)
    dx = _conv2d_results(x, k, b, g, stride, pad)[1]
    qh, qw = k_shape[2] - 1 - pad, k_shape[3] - 1 - pad
    q = min(qh, qw)
    g = np.pad(g, ((0, 0), (0, 0), (qh - q, qh - q), (qw - q, qw - q)))
    kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    np.testing.assert_array_equal(dx, T.conv2d(T.Tensor(g), T.Tensor(kflip), 1, q).data)


@given(
    n=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
    h=st.integers(3, 9), w=st.integers(3, 9), kh=st.integers(1, 3), kw=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1), data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_conv2d_matches_reference_any_shape(n, c, f, h, w, kh, kw, dtype, seed, data):
    pad = data.draw(st.integers(0, min(kh, kw) - 1), label="pad")
    rng = np.random.default_rng(seed)
    _check_conv2d_against_reference(rng, dtype, (n, c, h, w), (f, c, kh, kw), 1, pad)


def test_conv2d_skips_gradient_of_constant_input():
    rng = np.random.default_rng(6)
    x, k = rng.normal(size=(4, 3, 8, 8)), rng.normal(size=(5, 3, 3, 3))
    b, g = rng.normal(size=5), rng.normal(size=(4, 5, 8, 8))
    grads = []
    for x_grad in (True, False):
        leaves = [t(x, requires_grad=x_grad), t(k, requires_grad=True), t(b, requires_grad=True)]
        with T.Tape() as tape:
            loss = T.sum_(T.mul(T.conv2d(leaves[0], leaves[1], 1, 1, bias=leaves[2]), t(g)))
        conv_dx = tape.records[0].backward_fn(g)[0]  # before backward releases the record
        T.backward(loss, tape)
        grads.append([leaf.grad for leaf in leaves])
    (dx, dk, db), (no_dx, dk_const, db_const) = grads
    assert dx is not None and no_dx is None
    np.testing.assert_array_equal(dk, dk_const)
    np.testing.assert_array_equal(db, db_const)
    # on the last tape (x without grad) the conv record returns no input gradient at all
    assert conv_dx is None


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", [_ENCODER_CONVS[i] for i in (0, 6, 9, 16, 18)])
def test_conv2d_tape_holds_no_im2col_matrix(x_shape, k_shape, stride, pad):
    """Between forward and backward a recorded conv keeps x, not the [N*Ho*Wo, kh*kw*c] im2col matrix."""
    x, k, b, _ = _conv2d_inputs(np.random.default_rng(15), np.float32, x_shape, k_shape, stride, pad)
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, k, b)]
    with T.Tape() as tape:
        y = T.conv2d(leaves[0], leaves[1], stride, pad, bias=leaves[2])
    n, c, h, w = x_shape
    _, _, kh, kw = k_shape
    cols_shape = (n * y.shape[2] * y.shape[3], kh * kw * c)
    record = tape.records[-1]
    assert record.inputs[0] is leaves[0]
    arrays = [cell.cell_contents for cell in record.backward_fn.__closure__]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert all(a.shape != cols_shape and a.size <= x.size for a in arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_same_bytes_for_nchw_and_nhwc_memory(dtype, x_shape, k_shape, stride, pad):
    """A view tensor holds [N,H,W,C] memory behind its NCHW shape; conv2d's results must not depend on it."""
    x, k, b, g = _conv2d_inputs(np.random.default_rng(13), dtype, x_shape, k_shape, stride, pad)
    x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert x_nhwc.strides[1] == x.itemsize or x_shape[1] == 1  # channels innermost (c = 1: both layouts)
    want_all = _conv2d_results(x, k, b, g, stride, pad)
    for got, want in zip(_conv2d_results(x_nhwc, k, b, g, stride, pad), want_all):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS[:16])
def test_conv2d_float32_matches_float64(x_shape, k_shape, stride, pad):
    """On every encoder conv, the float32 output and gradients are within 1e-5 of max|.| of float64's."""
    inputs = _conv2d_inputs(np.random.default_rng(14), np.float32, x_shape, k_shape, stride, pad)
    got = _conv2d_results(*inputs, stride, pad)
    want = _conv2d_results(*(a.astype(np.float64) for a in inputs), stride, pad)
    for a, b in zip(got, want):
        assert a.dtype == np.float32 and a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def _spy_im2col(monkeypatch):
    """Record the image count of every _im2col call; one call gathers one chunk."""
    calls = []
    gather = T._im2col

    def spy(x, *args):
        calls.append(x.shape[0])
        return gather(x, *args)

    monkeypatch.setattr(T, "_im2col", spy)
    return calls


def _gathers(calls, n):
    """Group the recorded chunk sizes into consecutive gathers of n images each."""
    runs, run = [], []
    for size in calls:
        run.append(size)
        if sum(run) == n:
            runs.append(run)
            run = []
    assert not run
    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_chunked_equals_single_chunk(monkeypatch, dtype, x_shape, k_shape, stride, pad):
    """Output, dx and db are byte-equal whether the im2col matrices are gathered whole or in chunks; dk
    is the chunk-ordered sum of _check_dk, within _DX_RTOL of the single-chunk one.

    Under one budget the forward's gather splits, under the other the input gradient's, each into at
    least 3 chunks with a shorter last one (for n <= 4 there are n chunks of one image). Each budget is
    the kernel matrix that gather's GEMM multiplies by, plus `step` images of im2col rows and GEMM result
    rows. The kernel gradient's product is kernel-sized, so its gather counts only its im2col rows.

    One exception: the dx GEMM of the (4, 3, 9, 9) case with a 3x3 kernel has 3 columns and 45-term
    sums, and OpenBLAS's small-matrix path rounds an 81-row product of that shape in another order than
    the 324-row one (plain ``A[:81] @ B`` differs from ``(A @ B)[:81]`` there too). Its dx is held to
    _DX_RTOL. The encoders never meet this: a split needs more than _IM2COL_BYTES of im2col, and no
    dx GEMM of theirs has fewer than 8 columns."""
    inputs = _conv2d_inputs(np.random.default_rng(16), dtype, x_shape, k_shape, stride, pad)
    monkeypatch.setattr(T, "_IM2COL_BYTES", 1 << 62)
    want = _conv2d_results(*inputs, stride, pad)
    n, c, h, w = x_shape
    f, _, kh, kw = k_shape
    ho, wo = want[0].shape[2:]
    step = max(1, (n - 1) // 3)
    chunks = [step] * (n // step) + ([n % step] if n % step else [])
    assert len(chunks) >= 3 and (n % step or n <= 4)
    calls = _spy_im2col(monkeypatch)
    itemsize = np.dtype(dtype).itemsize
    kernel_bytes = kh * kw * c * f * itemsize
    # forward: (ho*wo) rows of kh*kw*c im2col and f result columns per image; input gradient: (h*w) rows
    # of kh*kw*f and c
    for which, image_bytes in ((0, ho * wo * (kh * kw * c + f)), (2, h * w * (kh * kw * f + c))):
        monkeypatch.setattr(T, "_IM2COL_BYTES", kernel_bytes + step * image_bytes * itemsize)
        calls.clear()
        results = _conv2d_results(*inputs, stride, pad)
        gathers = _gathers(calls, n)  # forward, kernel gradient, input gradient
        assert len(gathers) == 3 and gathers[which] == chunks
        assert gathers[1] == _chunked_dk(inputs[0], inputs[3], kh, kw, pad)[1]
        for i, (got, single) in enumerate(zip(results, want)):
            assert got.dtype == dtype
            if i == 1 and k_shape == (5, 3, 3, 3):
                assert np.abs(got - single).max() <= _DX_RTOL[dtype] * np.abs(single).max()
            elif i == 2:
                _check_dk(got, inputs[0], inputs[3], k_shape, pad, single)
            else:
                np.testing.assert_array_equal(got, single)


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_forward_memory_is_bounded(x_shape, k_shape, stride, pad):
    """Beside its output, the forward holds at most one chunk of im2col (the budget, or one image's
    matrix where that is larger) and the padded input."""
    x, k, b, _ = _conv2d_inputs(np.random.default_rng(17), np.float32, x_shape, k_shape, stride, pad)
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, k, b)]
    tracemalloc.start()
    try:
        with T.Tape():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = T.conv2d(leaves[0], leaves[1], stride, pad, bias=leaves[2])
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n, c, h, w = x_shape
    _, _, kh, kw = k_shape
    image_cols = y.shape[2] * y.shape[3] * kh * kw * c * x.itemsize
    padded = n * (h + 2 * pad) * (w + 2 * pad) * c * x.itemsize
    assert peak - y.data.nbytes <= T._IM2COL_BYTES + image_cols + padded


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_conv2d_backward_memory_is_bounded(x_shape, k_shape, stride, pad):
    """The backward holds at most one chunk of im2col (the budget, or one image's matrix where that is
    larger), g's channels-last copy, dx, a padded input and three kernel-sized arrays (dk, the last
    chunk's product and the flipped kernel): never the whole batch's im2col matrix."""
    x, k, b, g = _conv2d_inputs(np.random.default_rng(20), np.float32, x_shape, k_shape, stride, pad)
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, k, b)]
    with T.Tape() as tape:
        T.conv2d(leaves[0], leaves[1], stride, pad, bias=leaves[2])
    backward_fn = tape.records[-1].backward_fn
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [x_shape, k_shape, k_shape[:1]]
    n, c, h, w = x_shape
    f, _, kh, kw = k_shape
    ho, wo = g.shape[2:]
    image_cols = max(ho * wo * c, h * w * f) * kh * kw * x.itemsize  # x's and g's im2col rows per image
    padded = n * max((h + 2 * pad) * (w + 2 * pad) * c, (h + kh - 1) * (w + kw - 1) * f) * x.itemsize  # x, g
    assert peak <= T._IM2COL_BYTES + image_cols + g.nbytes + x.nbytes + padded + 3 * k.nbytes


# ---------------------------------------------------------------------------
# im2col against the window-view gather it replaced


def _window_view_im2col(x, kh, kw, ph, pw):
    """The im2col gather before the tap map: x [N,H,W,C] zero-padded by np.pad, then one copy of its
    sliding_window_view with rows (n, ho, wo) and columns (kh, kw, c)."""
    n, h, w, c = x.shape
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * ho * wo, kh * kw * c)


def _check_im2col(x, kh, kw, ph, pw):
    got = T._im2col(x, kh, kw, ph, pw)
    want = _window_view_im2col(x, kh, kw, ph, pw)
    assert got.dtype == x.dtype and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("layout", ["nchw-view", "nhwc"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _ENCODER_CONVS)
def test_im2col_equals_window_view_gather(dtype, layout, x_shape, k_shape, stride, pad):
    """On every encoder conv, the gathers conv2d makes (x at its padding, g at the input gradient's
    k-1-pad) are byte-equal to the window-view gather, on the channels-last view of NCHW memory conv2d
    hands in and on contiguous NHWC memory. Every padding pair in [0, kh-1] x [0, kw-1] is checked on the
    first two images of x: the gather is per image, and two cover the zero pixel after each one."""
    n, c, h, w = x_shape
    f, _, kh, kw = k_shape
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    rng = np.random.default_rng(24)

    def channels_last(shape):
        a = rng.normal(size=shape).astype(dtype)
        return a.transpose(0, 2, 3, 1) if layout == "nchw-view" else np.ascontiguousarray(a.transpose(0, 2, 3, 1))

    x, g = channels_last(x_shape), channels_last((n, f, ho, wo))
    _check_im2col(x, kh, kw, pad, pad)
    _check_im2col(g, kh, kw, kh - 1 - pad, kw - 1 - pad)
    for ph in range(kh):
        for pw in range(kw):
            _check_im2col(x[:2], kh, kw, ph, pw)


@given(
    n=st.integers(1, 3), c=st.integers(1, 5), kh=st.integers(1, 4), kw=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]), nhwc=st.booleans(), data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_im2col_any_shape_reads_the_zero_pixel_on_the_padding(n, c, kh, kw, dtype, nhwc, data):
    """On small random shapes and paddings the gather is byte-equal to the window-view gather; the tap map
    points every tap on the padding, and no other, at the zero pixel h*w, and the matrix holds 0 there."""
    ph, pw = data.draw(st.integers(0, kh - 1), label="ph"), data.draw(st.integers(0, kw - 1), label="pw")
    h = data.draw(st.integers(max(1, kh - 2 * ph), 9), label="h")
    w = data.draw(st.integers(max(1, kw - 2 * pw), 9), label="w")
    # no input value is 0, so a 0 in the matrix is the padding
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).uniform(1, 2, (n, c, h, w))
    x = x.astype(dtype).transpose(0, 2, 3, 1)
    if nhwc:
        x = np.ascontiguousarray(x)
    _check_im2col(x, kh, kw, ph, pw)
    inside = _window_view_im2col(np.ones((1, h, w, 1)), kh, kw, ph, pw).reshape(-1) == 1
    taps = T._tap_map(h, w, kh, kw, ph, pw)
    assert taps.shape == inside.shape and not taps.flags.writeable
    assert (taps[~inside] == h * w).all() and (taps[inside] < h * w).all()
    cols = T._im2col(x, kh, kw, ph, pw).reshape(n, -1, c)
    assert (cols[:, ~inside] == 0).all() and (cols[:, inside] != 0).all()


@pytest.mark.parametrize("arch,size,maps", [("tiny", 28, 2), ("small_residual", 32, 4)])
def test_training_step_keeps_a_few_small_tap_maps(monkeypatch, tmp_path, arch, size, maps):
    """The tap-map cache is bounded, and one training step fills one entry per padded conv input size
    (a 1x1 conv without padding needs none). Each entry is one image's tap map, keyed by shapes alone: at
    most ho*wo*kh*kw indices, the 73.7 KB of a 32 x 32 block-0 image with a 3x3 kernel."""
    from amimv import trainer as TR
    from amimv.datasets import resolve_dataset

    assert T._tap_map.cache_info().maxsize == T._TAP_MAPS
    keys = set()
    gather = T._im2col

    def spy(x, kh, kw, ph, pw):
        keys.add((*x.shape[1:3], kh, kw, ph, pw))
        return gather(x, kh, kw, ph, pw)

    monkeypatch.setattr(T, "_im2col", spy)
    T._tap_map.cache_clear()
    spec = f"synthetic:C=2,counts=12:8,size={size}"
    dataset = resolve_dataset(spec, seed=0)
    train = dataset.splits["train"][0].shape[0]  # one batch of the whole split: one step
    config = TR.RunConfig(dataset=spec, out_dir=str(tmp_path / "run"), epochs=1, batch_size=train, arch=arch)
    TR.pretrain(config, dataset=dataset)
    padded = sorted(key for key in keys if key[2:] != (1, 1, 0, 0))
    info = T._tap_map.cache_info()
    assert len(padded) == info.currsize == maps
    for h, w, kh, kw, ph, pw in padded:
        taps = T._tap_map(h, w, kh, kw, ph, pw)
        assert taps.dtype == np.intp and not taps.flags.writeable
        assert taps.size == (h + 2 * ph - kh + 1) * (w + 2 * pw - kw + 1) * kh * kw
        assert taps.nbytes <= 32 * 32 * 9 * taps.itemsize
    assert T._tap_map.cache_info().misses == info.misses  # served from the cache


# the convs that read a GN-ReLU output in a small_residual pass: stem -> block0.conv1 (the shape of
# block0.conv2) and the conv2 of blocks 0-3
_GN_RELU_CONVS = [_ENCODER_CONVS[i] for i in (6, 8, 11, 14)]


def _gn_relu_conv(x, k, b, pad):
    """A recorded conv2d on a recorded group_norm(x, 1, 0, relu=True): the norm's output, the conv's
    output, and the conv record's backward function."""
    c = x.shape[1]
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, k, b, np.ones(c, x.dtype), np.zeros(c, x.dtype))]
    with T.Tape() as tape:
        h = T.group_norm(leaves[0], leaves[3], leaves[4], int(np.gcd(8, c)), 1e-5, relu=True)
        y = T.conv2d(h, leaves[1], 1, pad, bias=leaves[2])
    return h, y, tape.records[-1].backward_fn


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _GN_RELU_CONVS + [_ENCODER_CONVS[i] for i in (1, 17)])
def test_conv2d_on_a_gn_relu_output_equals_plain_input(dtype, x_shape, k_shape, stride, pad):
    """On a recorded GN-ReLU output, conv2d's record keeps no array of its input, and its out, dx, dk and
    db are byte-equal to conv2d's on a plain tensor holding the same values."""
    x, k, b, g = _conv2d_inputs(np.random.default_rng(23), dtype, x_shape, k_shape, stride, pad)
    h, y, conv_bwd = _gn_relu_conv(x, k, b, pad)
    assert h.rebuild is not None
    assert not [a.shape for a in _reachable_arrays([conv_bwd]) if np.may_share_memory(a, h.data)]
    plain = [T.Tensor(a, requires_grad=True) for a in (h.data.copy(), k, b)]
    with T.Tape() as tape:
        want = T.conv2d(plain[0], plain[1], stride, pad, bias=plain[2])
    np.testing.assert_array_equal(y.data, want.data)
    for got, expected in zip(conv_bwd(g), tape.records[-1].backward_fn(g)):
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", _GN_RELU_CONVS)
def test_conv2d_backward_memory_is_bounded_on_a_gn_relu_output(x_shape, k_shape, stride, pad):
    """On a GN-ReLU output the backward rebuilds x and lets it go before the input gradient, so the bound
    of test_conv2d_backward_memory_is_bounded, with one chunk's padded input in place of the whole batch's,
    counts x's bytes once: the rebuilt input and dx are never alive together."""
    x, k, b, g = _conv2d_inputs(np.random.default_rng(20), np.float32, x_shape, k_shape, stride, pad)
    _, _, conv_bwd = _gn_relu_conv(x, k, b, pad)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = conv_bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [x_shape, k_shape, k_shape[:1]]
    n, c, h, w = x_shape
    f, _, kh, kw = k_shape
    ho, wo = g.shape[2:]
    # per image: x's and g's im2col rows, and x and g padded for their gathers
    cols = (ho * wo * c * kh * kw * x.itemsize, h * w * f * kh * kw * x.itemsize)
    padded = ((h + 2 * pad) * (w + 2 * pad) * c * x.itemsize, (h + kh - 1) * (w + kw - 1) * f * x.itemsize)
    chunk_padded = max(min(n, max(1, T._IM2COL_BYTES // r)) * p for r, p in zip(cols, padded))
    assert peak <= T._IM2COL_BYTES + max(cols) + g.nbytes + x.nbytes + chunk_padded + 3 * k.nbytes


def _reachable_arrays(roots):
    """Every array reachable from `roots` through slots, closures, containers and array bases."""
    seen, arrays, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not filled yet
                    pass
        elif hasattr(type(obj), "__slots__"):
            stack.extend(getattr(obj, slot, None) for slot in type(obj).__slots__)
    return arrays


def _encoder_pass(arch, size):
    """A recorded query-encoder pass on a batch of 4 and a scalar loss of its projections."""
    config = M.EncoderConfig(arch=arch, input_channels=1, input_size=size)
    params = M.init_pair(config, seed=0).q_params
    batch = T.Tensor(np.random.default_rng(18).normal(size=(4, 1, size, size)).astype(np.float32))
    with T.Tape() as tape:
        _, z = M.encode(params, batch, config)
        loss = T.sum_(T.mul(z, z))
    return params, tape, loss


@pytest.mark.parametrize("arch,size", [("tiny", 28), ("small_residual", 32)])
def test_tape_holds_no_dead_activations(monkeypatch, arch, size):
    """After a recorded encoder pass, no array the tape reaches is a conv, group-norm or add output:
    no backward reads them, so they are freed as soon as the next layer has run."""
    outputs = []
    for name in ("conv2d", "group_norm", "add"):
        def spy(*args, _op=getattr(T, name), **kwargs):
            out = _op(*args, **kwargs)
            outputs.append(out.data)
            return out

        monkeypatch.setattr(T, name, spy)
    params, tape, _ = _encoder_pass(arch, size)
    assert len(outputs) == (2 + 2 if arch == "tiny" else 12 + 9 + 4)  # convs, group norms, adds
    reachable = _reachable_arrays(tape.records)
    assert any(a is params["proj3.w"].data for a in reachable)  # the walk does reach arrays
    assert not [a.shape for a in reachable for dead in outputs if np.may_share_memory(a, dead)]


@pytest.mark.parametrize("arch,size,fed", [("tiny", 28, 0), ("small_residual", 32, 5)])
def test_tape_holds_no_gn_relu_conv_input(monkeypatch, arch, size, fed):
    """After a recorded encoder pass, no conv record reaches the array of an input it can rebuild: the
    five GN-ReLU outputs a small_residual pass feeds to a conv (tiny pools each one first)."""
    inputs = []

    def spy(x, *args, _op=T.conv2d, **kwargs):
        out = _op(x, *args, **kwargs)
        if x.rebuild is not None:
            inputs.append((out.record, x.data))
        return out

    monkeypatch.setattr(T, "conv2d", spy)
    _encoder_pass(arch, size)
    assert len(inputs) == fed
    assert not [rec for rec, xd in inputs if any(np.may_share_memory(a, xd) for a in _reachable_arrays([rec]))]


def test_training_step_backward_memory_is_bounded(monkeypatch, tmp_path):
    """One seed-0 amimv step of tiny at 28 px, batch 64: backward's high-water stays within 6 MiB of what is
    live when it starts (the tape, the parameters, the batch). 8 MiB im2col chunks and a group-norm
    backward with group-sized temporaries put it 9.7 MiB above."""
    from amimv import trainer as TR

    peaks = []
    replay = T.backward

    def spy(loss, tape):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        replay(loss, tape)
        peaks.append(tracemalloc.get_traced_memory()[1] - live)

    monkeypatch.setattr(T, "backward", spy)
    spec = "synthetic:C=2,counts=60:40,size=28"  # 70 training images: one step at batch 64
    config = TR.RunConfig(dataset=spec, out_dir=str(tmp_path / "run"), epochs=1, batch_size=64, seed=0)
    tracemalloc.start()
    try:
        TR.pretrain(config)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] <= 6 << 20


def _param_array_ids(params):
    """ids of every parameter's data and gradient arrays and of the arrays behind them."""
    return {id(a) for a in _reachable_arrays([(p.data, p.grad) for p in params.values()])}


@pytest.mark.parametrize("arch,size", [("tiny", 28), ("small_residual", 32)])
def test_backward_releases_the_tape(arch, size):
    """After backward, the tape reaches no array but the parameters' data and gradients: every array a
    record saved for its gradient has been let go."""
    params, tape, loss = _encoder_pass(arch, size)
    T.backward(loss, tape)
    reachable = _reachable_arrays(tape.records)
    assert any(a is params["proj3.w"].data for a in reachable)  # the walk does reach arrays
    allowed = _param_array_ids(params)
    assert not [a.shape for a in reachable if id(a) not in allowed]


@pytest.mark.parametrize("arch,size", [("tiny", 28), ("small_residual", 32)])
def test_backward_frees_each_record_as_it_replays(arch, size):
    """While record k replays, no record later on the tape (through its closure or its leaf inputs)
    reaches an array other than a parameter's: the later layers' saved arrays are already let go."""
    params, tape, loss = _encoder_pass(arch, size)
    allowed = _param_array_ids(params)
    replayed = []

    def spy(k, backward_fn):
        def replay(g):
            later = [(r.backward_fn, [s for s in r.inputs if isinstance(s, T.Tensor)])
                     for r in tape.records[k + 1 :]]
            replayed.append((k, [a.shape for a in _reachable_arrays(later) if id(a) not in allowed]))
            return backward_fn(g)

        return replay

    for k, rec in enumerate(tape.records):
        rec.backward_fn = spy(k, rec.backward_fn)
    T.backward(loss, tape)
    assert [k for k, _ in replayed] == list(range(len(tape.records)))[::-1]
    assert not [(k, held) for k, held in replayed if held]
