"""Tests for the conv/activation primitives on float64 and float32 arrays."""

import numpy as np
import pytest

from tsal import tensor as T
from tsal.errors import DimensionMismatch

from helpers import central_difference, conv2d_forward_direct, max_rel_err


def identity_kernel() -> np.ndarray:
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    return w


def random_conv(rng, out_ch, in_ch, k=3) -> tuple[np.ndarray, np.ndarray]:
    """Weights and bias of a random convolution."""
    w = rng.uniform(-1, 1, size=(out_ch, in_ch, k, k))
    b = rng.uniform(-1, 1, size=out_ch)
    return w, b


class TestConvForward:
    def test_identity_kernel_is_fixpoint(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(1, 1, 3, 3))
        y = T.conv2d_forward(x, identity_kernel(), np.zeros(1))
        np.testing.assert_array_equal(y, x)

    def test_all_ones_kernel_hand_case(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = T.conv2d_forward(x, np.ones((1, 1, 3, 3)), np.zeros(1))
        # every padded 3x3 window covers all four pixels: 1+2+3+4
        np.testing.assert_allclose(y, np.full((1, 1, 2, 2), 10.0))

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(2, 3, 5, 4))
        y = T.conv2d_forward(x, np.zeros((2, 3, 3, 3)), np.array([0.7, -1.3]))
        np.testing.assert_array_equal(y[:, 0], np.full((2, 5, 4), 0.7))
        np.testing.assert_array_equal(y[:, 1], np.full((2, 5, 4), -1.3))

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 2, 4, 4))
        with pytest.raises(DimensionMismatch):
            T.conv2d_forward(x, np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_too_small_spatial_raises(self):
        x = np.zeros((1, 1, 0, 2))
        with pytest.raises(DimensionMismatch):
            T.conv2d_forward(x, np.zeros((1, 1, 5, 5)), np.zeros(1))

    @pytest.mark.parametrize(
        "weights, bias, message",
        [
            (np.zeros((1, 1, 3)), np.zeros(1), "rank 4"),
            (np.zeros((1, 1, 3, 1)), np.zeros(1), "square with odd extent"),
            (np.zeros((1, 1, 2, 2)), np.zeros(1), "square with odd extent"),
            (np.zeros((2, 1, 3, 3)), np.zeros(3), "bias length"),
            (np.zeros((2, 1, 3, 3)), np.zeros((2, 1)), "bias length"),
        ],
        ids=["rank-3", "not-square", "even", "bias-too-long", "bias-rank-2"],
    )
    def test_weight_and_bias_shapes_are_refused(self, weights, bias, message):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(DimensionMismatch, match=message):
            T.conv2d_forward(x, weights, bias)
        if message != "bias length":
            with pytest.raises(DimensionMismatch, match=message):
                T.conv2d_backward(x, weights, np.zeros((1, 1, 4, 4)))

    def test_fast_path_matches_direct_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            in_ch = int(rng.integers(1, 4))
            out_ch = int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, size=(1, in_ch, h, w))
            w, b = random_conv(rng, out_ch, in_ch)
            fast = T.conv2d_forward(x, w, b)
            ref = conv2d_forward_direct(x, w, b)
            assert np.max(np.abs(fast - ref)) < 1e-12

    def test_linearity_in_input(self):
        rng = np.random.default_rng(3)
        w, b = random_conv(rng, 2, 2)
        b[:] = 0.0
        x = rng.uniform(-1, 1, size=(1, 2, 5, 5))
        y = rng.uniform(-1, 1, size=(1, 2, 5, 5))
        alpha, beta = 1.7, -0.4
        combined = T.conv2d_forward(alpha * x + beta * y, w, b)
        separate = alpha * T.conv2d_forward(x, w, b) + beta * T.conv2d_forward(y, w, b)
        assert np.max(np.abs(combined - separate)) < 1e-12


class TestConvBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(1, 2, 4, 4))
        w, _ = random_conv(rng, 3, 2)
        gi, gw, gb = T.conv2d_backward(x, w, np.zeros((1, 3, 4, 4)))
        assert not gi.any() and not gw.any() and not gb.any()

    def test_identity_kernel_passes_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(1, 1, 4, 4))
        g = rng.uniform(-1, 1, size=(1, 1, 4, 4))
        gi, _, _ = T.conv2d_backward(x, identity_kernel(), g)
        np.testing.assert_allclose(gi, g, atol=1e-15)

    def test_grad_out_shape_mismatch(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(DimensionMismatch):
            T.conv2d_backward(x, identity_kernel(), np.zeros((1, 1, 3, 3)))

    def test_matches_finite_differences(self):
        # 100+ random instances across sizes, dims <= 1x4x6x6
        rng = np.random.default_rng(6)
        for trial in range(100):
            in_ch = int(rng.integers(1, 5))
            out_ch = int(rng.integers(1, 5))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, size=(1, in_ch, h, w))
            weights, bias = random_conv(rng, out_ch, in_ch)
            proj = rng.uniform(-1, 1, size=(1, out_ch, h, w))

            def loss():
                return float(np.sum(proj * T.conv2d_forward(x, weights, bias)))

            gi, gw, gb = T.conv2d_backward(x, weights, proj)
            assert max_rel_err(gi, central_difference(loss, x)) < 1e-5
            assert max_rel_err(gw, central_difference(loss, weights)) < 1e-5
            assert max_rel_err(gb, central_difference(loss, bias)) < 1e-5


class TestActivations:
    def test_sigmoid_at_zero(self):
        y = T.sigmoid(np.zeros((1, 2, 3, 3)))
        np.testing.assert_array_equal(y, np.full((1, 2, 3, 3), 0.5))

    def test_tanh_at_zero(self):
        y = T.tanh_act(np.zeros((1, 2, 3, 3)))
        assert not y.any()

    def test_sigmoid_gradient_at_zero(self):
        g = np.full((1, 1, 2, 2), 3.0)
        out = T.sigmoid_backward(np.zeros((1, 1, 2, 2)), g)
        np.testing.assert_allclose(out, 0.25 * g)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        x = np.array([[[[-1e6, 1e6], [-40.0, 40.0]]]])
        y = T.sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))

    @pytest.mark.parametrize(
        "forward,backward",
        [(T.sigmoid, T.sigmoid_backward), (T.tanh_act, T.tanh_backward)],
    )
    def test_matches_finite_differences(self, forward, backward):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=(1, int(rng.integers(1, 5)), 4, 4))
            proj = rng.uniform(-1, 1, size=x.shape)

            def loss():
                return float(np.sum(proj * forward(x)))

            analytic = backward(x, proj)
            assert max_rel_err(analytic, central_difference(loss, x)) < 1e-5

    def test_relu_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=(1, 2, 4, 4))
            x[np.abs(x) < 1e-3] = 0.5  # keep clear of the non-differentiable point
            proj = rng.uniform(-1, 1, size=x.shape)

            def loss():
                return float(np.sum(proj * T.relu(x)))

            analytic = T.relu_backward(x, proj)
            assert max_rel_err(analytic, central_difference(loss, x)) < 1e-5


def dyadic(rng, size, bits=12):
    """Uniform values in [-1, 1] on a 2^-bits grid. Products and sums of a few
    hundred of them are exact in float64 but not in float32, so a float64
    convolution of them has one right answer, whatever the summation order."""
    return rng.integers(-(2**bits), 2**bits + 1, size=size) / 2.0**bits


class TestDtype:
    @pytest.mark.parametrize("k", [1, 3])
    def test_float32_inputs_give_float32_outputs(self, k):
        rng = np.random.default_rng(20)
        x = rng.uniform(-1, 1, size=(2, 3, 5, 6))
        w, b = random_conv(rng, 4, 3, k)
        g = rng.uniform(-1, 1, size=(2, 4, 5, 6))
        w32, b32 = w.astype(np.float32), b.astype(np.float32)
        x32, g32 = x.astype(np.float32), g.astype(np.float32)
        pairs = [(T.conv2d_forward(x32, w32, b32), T.conv2d_forward(x, w, b))]
        pairs += zip(T.conv2d_backward(x32, w32, g32), T.conv2d_backward(x, w, g))
        for fn in (T.sigmoid, T.tanh_act, T.relu):
            pairs.append((fn(x32), fn(x)))
        gx = rng.uniform(-1, 1, size=x.shape)
        for fn in (T.sigmoid_backward, T.tanh_backward, T.relu_backward):
            pairs.append((fn(x32, gx.astype(np.float32)), fn(x, gx)))
        for got32, got64 in pairs:
            assert got32.dtype == np.float32 and got64.dtype == np.float64
            assert np.max(np.abs(got32 - got64)) < 1e-5

    @pytest.mark.parametrize("k", [1, 3])
    def test_float64_convolution_is_exact(self, k):
        # float64 keeps its full precision: on dyadic inputs the fast path
        # reproduces the exact references bit for bit, which float32 cannot
        rng = np.random.default_rng(21)
        b, cin, cout, h, w = 2, 5, 4, 6, 7
        x = dyadic(rng, (b, cin, h, w))
        weights, bias = dyadic(rng, (cout, cin, k, k)), dyadic(rng, cout)
        g = dyadic(rng, (b, cout, h, w))
        np.testing.assert_array_equal(
            T.conv2d_forward(x, weights, bias), conv2d_forward_direct(x, weights, bias)
        )

        gi, gw, gb = T.conv2d_backward(x, weights, g)
        flipped = weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        np.testing.assert_array_equal(gi, conv2d_forward_direct(g, flipped, np.zeros(cin)))
        p = k // 2
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))
        np.testing.assert_array_equal(gw, np.einsum("bohw,bijkhw->oijk", g, windows))
        np.testing.assert_array_equal(gb, g.sum(axis=(0, 2, 3)))

        w32, b32 = weights.astype(np.float32), bias.astype(np.float32)
        y32 = T.conv2d_forward(x.astype(np.float32), w32, b32)
        assert not np.array_equal(y32, T.conv2d_forward(x, weights, bias))
