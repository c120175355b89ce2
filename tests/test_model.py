"""Tests for the adaptation networks: forward semantics, BPTT, initialization."""

import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from helpers import central_difference, conv2d_forward_direct, max_rel_err
from tsal import model as Mo
from tsal import tensor as T
from tsal import train as Tr
from tsal.errors import DimensionMismatch, EmptySequence, LengthMismatch, NonFinite
from tsal.tensor import (
    conv2d_backward,
    conv2d_forward,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)


def zero_model(variant: str, hidden: int = 4) -> Mo.AdaptationModel:
    m = Mo.init_parameters(variant, rng_seed=0, hidden_channels=hidden)
    for _, arr in m.named_parameters():
        arr[...] = 0.0
    return m


def random_model(variant: str, seed: int, hidden: int = 4) -> Mo.AdaptationModel:
    return Mo.init_parameters(variant, rng_seed=seed, hidden_channels=hidden)


def random_frames(rng, count: int, h: int, w: int) -> list[np.ndarray]:
    return [rng.uniform(0, 1, size=(1, 1, h, w)) for _ in range(count)]


def gate_convs(m: Mo.AdaptationModel, name: str) -> tuple[tuple, tuple]:
    """One gate's input-to-state and state-to-state convolutions, on their
    own, each as its (weights, bias) pair."""
    p = dict(m.named_parameters())
    hc = m.hidden_channels
    return (
        (p[f"lstm.wx_{name}"], p[f"lstm.b_{name}"]),
        (p[f"lstm.wh_{name}"], np.zeros(hc)),
    )


class TestConvBlockForward:
    def test_zero_network_outputs_half(self):
        m = zero_model(Mo.CONV_ONLY)
        x = np.random.default_rng(0).uniform(0, 1, size=(1, 1, 5, 5))
        y, _ = Mo.conv_block_forward(x, m)
        assert np.allclose(y, 0.5)

    def test_bias_only_path(self):
        m = zero_model(Mo.CONV_ONLY)
        m.arrays["head.bias"][...] = 1.3
        x = np.zeros((1, 1, 4, 4)) + 0.2
        y, _ = Mo.conv_block_forward(x, m)
        expected = 1.0 / (1.0 + np.exp(-1.3))
        assert np.allclose(y, expected)

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            m = random_model(Mo.CONV_ONLY, seed=seed, hidden=3)
            x = rng.uniform(0, 1, size=(1, 1, 5, 6))
            got, _ = Mo.conv_block_forward(x, m)
            a = m.arrays
            z1 = conv2d_forward_direct(x, a["feature.weights"], a["feature.bias"])
            r = np.maximum(z1, 0.0)
            z2 = conv2d_forward_direct(r, a["head.weights"], a["head.bias"])
            want = 1.0 / (1.0 + np.exp(-z2))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_wrong_variant_and_dims(self):
        m = zero_model(Mo.CONV_LSTM)
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError):
            Mo.conv_block_forward(x, m)
        with pytest.raises(DimensionMismatch):
            Mo.conv_block_forward(np.zeros((2, 1, 4, 4)), zero_model(Mo.CONV_ONLY))


class TestConvLstmStep:
    def test_zero_network_zero_state(self):
        m = zero_model(Mo.CONV_LSTM)
        x = np.random.default_rng(2).uniform(0, 1, size=(1, 1, 4, 4))
        y, (h, c), _ = Mo.convlstm_step(x, None, m)
        assert np.allclose(c, 0.0)
        assert np.allclose(h, 0.0)
        assert np.allclose(y, 0.5)

    def test_saturated_forget_gate_preserves_cell(self):
        m = zero_model(Mo.CONV_LSTM)
        dict(m.named_parameters())["lstm.b_f"][...] = 20.0
        rng = np.random.default_rng(3)
        cell = rng.uniform(-1, 1, size=(1, 4, 4, 4))
        x = rng.uniform(0, 1, size=(1, 1, 4, 4))
        _, (_, new_cell), _ = Mo.convlstm_step(x, (np.zeros((1, 4, 4, 4)), cell), m)
        assert np.max(np.abs(new_cell - cell)) < 1e-8

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(4)
        m = random_model(Mo.CONV_LSTM, seed=11, hidden=3)
        x = rng.uniform(0, 1, size=(1, 1, 4, 5))
        h = rng.uniform(-0.5, 0.5, size=(1, 3, 4, 5))
        c = rng.uniform(-0.5, 0.5, size=(1, 3, 4, 5))
        y, (h_new, c_new), _ = Mo.convlstm_step(x, (h, c), m)

        def pre(name):
            input_conv, hidden_conv = gate_convs(m, name)
            return (
                conv2d_forward_direct(x, *input_conv)
                + conv2d_forward_direct(h, *hidden_conv)
            )

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, o = sig(pre("i")), sig(pre("f")), sig(pre("o"))
        g = np.tanh(pre("g"))
        c_want = f * c + i * g
        h_want = o * np.tanh(c_want)
        z = conv2d_forward_direct(h_want, m.arrays["head.weights"], m.arrays["head.bias"])
        y_want = sig(z)
        assert np.max(np.abs(c_new - c_want)) < 1e-12
        assert np.max(np.abs(h_new - h_want)) < 1e-12
        assert np.max(np.abs(y - y_want)) < 1e-12

    def test_state_dim_mismatch(self):
        m = zero_model(Mo.CONV_LSTM)
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(DimensionMismatch, match="spatial"):
            Mo.convlstm_step(x, (np.zeros((1, 4, 5, 5)),) * 2, m)

    def test_hidden_and_cell_of_different_shapes(self):
        m = zero_model(Mo.CONV_LSTM)
        x = np.zeros((1, 1, 4, 4))
        state = (np.zeros((1, 4, 4, 4)), np.zeros((1, 3, 4, 4)))
        with pytest.raises(DimensionMismatch, match=r"hidden dims \(1, 4, 4, 4\) != cell dims"):
            Mo.convlstm_step(x, state, m)


class TestForwardSequence:
    def test_conv_only_is_frame_independent(self):
        rng = np.random.default_rng(5)
        m = random_model(Mo.CONV_ONLY, seed=6)
        frames = random_frames(rng, 4, 5, 5)
        outputs, _ = Mo.forward_sequence(frames, m)
        perm = [2, 0, 3, 1]
        permuted, _ = Mo.forward_sequence([frames[p] for p in perm], m)
        for k, p in enumerate(perm):
            assert np.array_equal(permuted[k], outputs[p])

    def test_lstm_length_one_equals_single_step(self):
        rng = np.random.default_rng(6)
        m = random_model(Mo.CONV_LSTM, seed=7)
        frame = random_frames(rng, 1, 4, 4)[0]
        outputs, _ = Mo.forward_sequence([frame], m)
        y, _, _ = Mo.convlstm_step(frame, None, m)
        assert np.array_equal(outputs[0], y)

    def test_severed_recurrence_collapses_to_per_frame(self):
        # two temporal pathways exist: hidden state -> gates (the state-to-
        # state kernels) and the cell carry f*c_prev; both must be cut for
        # true per-frame independence
        rng = np.random.default_rng(7)
        m = random_model(Mo.CONV_LSTM, seed=8)
        params = dict(m.named_parameters())
        for name in Mo.GATES:
            params[f"lstm.wh_{name}"][...] = 0.0
        frames = random_frames(rng, 5, 4, 4)

        # kernels alone are not enough: the cell carry still couples steps
        coupled, _ = Mo.forward_sequence(frames, m)
        solo1, _ = Mo.forward_sequence([frames[1]], m)
        assert np.max(np.abs(solo1[0] - coupled[1])) > 1e-6

        params["lstm.b_f"][...] = -40.0  # saturate the forget gate shut
        outputs, _ = Mo.forward_sequence(frames, m)
        for fr, y in zip(frames, outputs):
            solo, _ = Mo.forward_sequence([fr], m)
            assert np.max(np.abs(solo[0] - y)) < 1e-12

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(8)
        for variant in Mo.VARIANTS:
            m = random_model(variant, seed=9)
            outputs, _ = Mo.forward_sequence(random_frames(rng, 3, 6, 6), m)
            for y in outputs:
                assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            Mo.forward_sequence([], zero_model(Mo.CONV_ONLY))

    def test_ragged_dims_rejected(self):
        m = zero_model(Mo.CONV_ONLY)
        frames = [np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 5))]
        with pytest.raises(DimensionMismatch):
            Mo.forward_sequence(frames, m)

    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_rejected(self, variant, bad):
        frames = random_frames(np.random.default_rng(14), 3, 4, 4)
        frames[2][0, 0, 1, 1] = bad
        with pytest.raises(NonFinite):
            Mo.forward_sequence(frames, random_model(variant, seed=15))

    @pytest.mark.parametrize("shape", [(1, 2, 4, 4), (2, 1, 4, 4), (4, 4), (1, 1, 1, 4, 4)])
    def test_frame_must_be_1x1xhxw(self, shape):
        with pytest.raises(DimensionMismatch):
            Mo.forward_sequence([np.zeros(shape)], random_model(Mo.CONV_LSTM, seed=16))


def projection_loss(model, frames, projections) -> float:
    outputs, _ = Mo.forward_sequence(frames, model)
    return float(sum(np.sum(p * y) for p, y in zip(projections, outputs)))


def per_gate_grads(m, frames, grad_outputs) -> dict[str, np.ndarray]:
    """BPTT with each gate as its own pair of convolutions: 8 conv2d_backward
    calls per step, state gradients summed in GATES order."""
    convs = {name: gate_convs(m, name) for name in Mo.GATES}
    sig = lambda v: 0.5 * (1.0 + np.tanh(0.5 * v))
    h = np.zeros((1, m.hidden_channels) + frames[0].shape[2:])
    c = np.zeros_like(h)
    steps = []
    for x in frames:
        pre = {
            name: conv2d_forward(x, *wx) + conv2d_forward(h, *wh)
            for name, (wx, wh) in convs.items()
        }
        i, f, o, g = sig(pre["i"]), sig(pre["f"]), sig(pre["o"]), np.tanh(pre["g"])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        steps.append((x, h, c, i, f, o, g, c_new, h_new))
        h, c = h_new, c_new

    grads = {n: np.zeros_like(a) for n, a in m.named_parameters()}
    dh_next = np.zeros_like(h)
    dc_next = np.zeros_like(h)
    for (x, h_prev, c_prev, i, f, o, g, c, h), dy in zip(reversed(steps), reversed(grad_outputs)):
        pre_head = conv2d_forward(h, m.arrays["head.weights"], m.arrays["head.bias"])
        d_pre_head = sigmoid_backward(pre_head, dy)
        d_h_head, d_w, d_b = conv2d_backward(h, m.arrays["head.weights"], d_pre_head)
        grads["head.weights"] += d_w
        grads["head.bias"] += d_b
        dh = d_h_head + dh_next
        tc = np.tanh(c)
        dc = dh * o * (1.0 - tc * tc) + dc_next
        d_pre = {
            "i": dc * g * i * (1.0 - i),
            "f": dc * c_prev * f * (1.0 - f),
            "o": dh * tc * o * (1.0 - o),
            "g": dc * i * (1.0 - g * g),
        }
        dc_next = dc * f
        dh_next = np.zeros_like(dh)
        for name in Mo.GATES:
            wx, wh = convs[name]
            da = d_pre[name]
            _, d_wx, d_b = conv2d_backward(x, wx[0], da)
            d_hp, d_wh, _ = conv2d_backward(h_prev, wh[0], da)
            grads[f"lstm.wx_{name}"] += d_wx
            grads[f"lstm.wh_{name}"] += d_wh
            grads[f"lstm.b_{name}"] += d_b
            dh_next += d_hp
    return grads


class TestBackwardSequence:
    @pytest.mark.parametrize("hidden", [3, 8])
    def test_stacked_gates_match_per_gate_reference(self, hidden):
        rng = np.random.default_rng(13)
        m = random_model(Mo.CONV_LSTM, seed=14, hidden=hidden)
        frames = random_frames(rng, 3, 5, 6)
        projections = [rng.uniform(-1, 1, size=(1, 1, 5, 6)) for _ in frames]
        _, steps = Mo.forward_sequence(frames, m)
        got = Mo.backward_sequence(m, steps, projections)
        want = per_gate_grads(m, frames, projections)
        for name, _ in m.named_parameters():
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name

    def test_zero_grad_outputs(self):
        rng = np.random.default_rng(9)
        m = random_model(Mo.CONV_LSTM, seed=10)
        frames = random_frames(rng, 3, 4, 4)
        outputs, steps = Mo.forward_sequence(frames, m)
        grads = Mo.backward_sequence(m, steps, [np.zeros(y.shape) for y in outputs])
        for name, _ in m.named_parameters():
            assert np.allclose(grads[name], 0.0)

    def test_grad_count_mismatch(self):
        m = random_model(Mo.CONV_ONLY, seed=12)
        frames = random_frames(np.random.default_rng(11), 2, 4, 4)
        _, steps = Mo.forward_sequence(frames, m)
        with pytest.raises(LengthMismatch):
            Mo.backward_sequence(m, steps, [np.zeros((1, 1, 4, 4))])

    def test_window_must_begin_at_the_zero_state(self):
        # the hidden state before a window's first step is not cached, so a
        # window cut from a longer run cannot rebuild it
        m = random_model(Mo.CONV_LSTM, seed=13)
        frames = random_frames(np.random.default_rng(14), 3, 4, 4)
        _, steps = Mo.forward_sequence(frames, m)
        with pytest.raises(ValueError, match="began at the zero state"):
            Mo.backward_sequence(m, steps[1:], [np.ones((1, 1, 4, 4))] * 2)

    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    def test_gradients_are_named_and_shaped_like_the_parameters(self, tmp_path, variant):
        frames = random_frames(np.random.default_rng(17), 2, 4, 5)
        for m in loaded_and_float64_twin(tmp_path, variant):
            outputs, steps = Mo.forward_sequence(frames, m)
            grads = Mo.backward_sequence(m, steps, [np.ones_like(y) for y in outputs])
            assert list(grads) == [name for name, _ in m.named_parameters()]
            for name, arr in m.named_parameters():
                assert (grads[name].shape, grads[name].dtype) == (arr.shape, arr.dtype), name

    @pytest.mark.parametrize("variant,length", [(Mo.CONV_ONLY, 3), (Mo.CONV_LSTM, 1), (Mo.CONV_LSTM, 3)])
    def test_gradients_match_finite_differences(self, variant, length):
        rng = np.random.default_rng(12)
        for trial in range(3):
            m = random_model(variant, seed=100 + trial)
            frames = random_frames(rng, length, 4, 4)
            projections = [rng.uniform(-1, 1, size=(1, 1, 4, 4)) for _ in range(length)]
            _, steps = Mo.forward_sequence(frames, m)
            analytic = Mo.backward_sequence(m, steps, projections)
            for name, arr in m.named_parameters():
                numeric = central_difference(
                    lambda: projection_loss(m, frames, projections), arr
                )
                err = max_rel_err(analytic[name], numeric)
                assert err < 1e-4, f"{variant} {name}: rel err {err}"


def _padded_col2im(cols, b, c, hp, wp, k):
    """The scatter-add onto the padded grid, as first written."""
    ho, wo = hp - k + 1, wp - k + 1
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, k, k, ho, wo)
    for di in range(k):
        for dj in range(k):
            out[:, :, di : di + ho, dj : dj + wo] += cols[:, :, di, dj]
    return out


def padded_conv2d_backward(input, weights, grad_out):
    """conv2d_backward as first written: a transposed weight gradient, and
    the input gradient scattered onto the padded grid, then cropped."""
    out_channels, in_channels, k, _ = weights.shape
    p = k // 2
    b, _, h, w = input.shape
    x = T._pad_spatial(input, p)
    cols = T._im2col(x, k)
    g_mat = grad_out.reshape(b, out_channels, h * w)
    grad_bias = g_mat.sum(axis=(0, 2))
    cols = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
    g_flat = g_mat.transpose(1, 0, 2).reshape(out_channels, -1)
    grad_weights = (cols @ g_flat.T).T.reshape(weights.shape)
    w_mat = weights.reshape(out_channels, -1)
    g_cols = np.matmul(w_mat.T[None, :, :], g_mat)
    grad_padded = _padded_col2im(g_cols, b, in_channels, x.shape[2], x.shape[3], k)
    grad_input = grad_padded[:, :, p:-p, p:-p].copy() if p > 0 else grad_padded
    return grad_input, grad_weights, grad_bias


# the reference's own step records, holding every activation as first written
FullConvStep = namedtuple("FullConvStep", "x pre_feature activated pre_head")
FullLstmStep = namedtuple("FullLstmStep", "x h_prev c_prev gates c h pre_head")


def full_forward(frames, m):
    """forward_sequence as first written: every step caches its activations,
    and ConvLSTM steps convolve the zero state too, hidden product first,
    with a zero hidden bias. Returns outputs, states and caches."""
    hc, a = m.hidden_channels, m.arrays
    if m.variant == Mo.CONV_ONLY:
        outputs, steps = [], []
        for x in frames:
            pre_feature = conv2d_forward(x, a["feature.weights"], a["feature.bias"])
            activated = np.maximum(pre_feature, 0.0)
            pre_head = conv2d_forward(activated, a["head.weights"], a["head.bias"])
            steps.append(FullConvStep(x, pre_feature, activated, pre_head))
            outputs.append(sigmoid(pre_head))
        return outputs, [], steps
    h = c = np.zeros((1, hc) + frames[0].shape[2:], m.dtype)
    outputs, states, steps = [], [], []
    for x in frames:
        gates = conv2d_forward(h, a["hidden.weights"], np.zeros(4 * hc, m.dtype))
        gates += conv2d_forward(x, a["input.weights"], a["input.bias"])
        gates[:, : 3 * hc] *= 0.5
        np.tanh(gates, out=gates)
        gates[:, : 3 * hc] += 1.0
        gates[:, : 3 * hc] *= 0.5
        i, f, o, g = (gates[:, r] for r in Mo._gate_rows(hc).values())
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        pre_head = conv2d_forward(h_new, a["head.weights"], a["head.bias"])
        steps.append(FullLstmStep(x, h, c, gates, c_new, h_new, pre_head))
        outputs.append(sigmoid(pre_head))
        states.append((h_new, c_new))
        h, c = h_new, c_new
    return outputs, states, steps


def full_backward(m, steps, grad_outputs):
    """backward_sequence as first written: temporaries per step, a
    concatenated gate gradient, and both gate convolutions on every step."""
    a = m.arrays
    head = a["head.weights"]
    grads = {key: np.zeros_like(arr) for key, arr in a.items()}
    if m.variant == Mo.CONV_ONLY:
        for step, dy in zip(steps, grad_outputs):
            d_pre_head = sigmoid_backward(step.pre_head, dy)
            d_act, d_wh, d_bh = padded_conv2d_backward(step.activated, head, d_pre_head)
            grads["head.weights"] += d_wh
            grads["head.bias"] += d_bh
            d_pre_feature = relu_backward(step.pre_feature, d_act)
            _, d_wf, d_bf = padded_conv2d_backward(step.x, a["feature.weights"], d_pre_feature)
            grads["feature.weights"] += d_wf
            grads["feature.bias"] += d_bf
        return dict(Mo.AdaptationModel(grads).named_parameters())
    rows = Mo._gate_rows(m.hidden_channels)
    dh_next = np.zeros_like(steps[-1].h)
    dc_next = np.zeros_like(dh_next)
    for step, dy in zip(reversed(steps), reversed(grad_outputs)):
        d_pre_head = sigmoid_backward(step.pre_head, dy)
        d_h_head, d_w_head, d_b_head = padded_conv2d_backward(step.h, head, d_pre_head)
        grads["head.weights"] += d_w_head
        grads["head.bias"] += d_b_head
        dh = d_h_head + dh_next
        i, f, o, g = (step.gates[:, r] for r in rows.values())
        tc = np.tanh(step.c)
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * step.c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        d_pre = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1,
        )
        d_hp, step_wh, _ = padded_conv2d_backward(step.h_prev, a["hidden.weights"], d_pre)
        _, step_wx, step_b = padded_conv2d_backward(step.x, a["input.weights"], d_pre)
        grads["input.weights"] += step_wx
        grads["hidden.weights"] += step_wh
        grads["input.bias"] += step_b
        dh_next = d_hp
    return dict(Mo.AdaptationModel(grads).named_parameters())


def assert_same_bits(got, want, what=""):
    """Equal values and equal signs of zero, which array_equal alone misses."""
    np.testing.assert_array_equal(got, want, err_msg=what)
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"sign of zero differs: {what}"


def frames_with_zeros(rng, count, h, w):
    """Frames with an all-zero band, so products and sums meet signed zeros."""
    frames = random_frames(rng, count, h, w)
    for fr in frames:
        fr[..., : h // 2, :] = 0.0
    return frames


class TestBitIdenticalToTheFullComputation:
    """The zero state's skipped convolutions, the in-place gate gradients, the
    unpadded col2im and the weight-gradient orientation change no bit of any
    output, state or gradient, sign of zero included."""

    @pytest.mark.parametrize("length", [1, 2, 5])
    @pytest.mark.parametrize("hidden,grid", [(3, (5, 6)), (8, (5, 6)), (128, (3, 4))])
    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    def test_window(self, variant, hidden, grid, length):
        rng = np.random.default_rng(hidden + length)
        m = random_model(variant, seed=40 + length, hidden=hidden)
        frames = frames_with_zeros(rng, length, *grid)
        projections = [rng.uniform(-1, 1, size=(1, 1) + grid) for _ in frames]
        projections[-1][..., 0, :] = -0.0
        outputs, steps = Mo.forward_sequence(frames, m)
        want_outputs, want_states, want_steps = full_forward(frames, m)
        for t, (y, y_want) in enumerate(zip(outputs, want_outputs)):
            assert_same_bits(y, y_want, f"output {t}")
        state = None
        for t, (x, (h_want, c_want), step) in enumerate(zip(frames, want_states, steps)):
            _, state, _ = Mo.convlstm_step(x, state, m)
            assert_same_bits(state[0], h_want, f"hidden {t}")
            assert_same_bits(state[1], c_want, f"cell {t}")
            assert_same_bits(step.c, c_want, f"cached cell {t}")
            assert_same_bits(step.gates, want_steps[t].gates, f"gates {t}")
            assert step.zero_state == (t == 0)
        got = Mo.backward_sequence(m, steps, projections)
        want = full_backward(m, want_steps, projections)
        for name, _ in m.named_parameters():
            assert_same_bits(got[name], want[name], name)
        if variant == Mo.CONV_LSTM and length == 1:
            assert not any(np.any(got[f"lstm.wh_{name}"]) for name in Mo.GATES)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cin,cout,k", [(1, 12, 3), (5, 12, 3), (6, 1, 1), (3, 4, 5)])
    def test_conv2d_backward(self, dtype, cin, cout, k):
        rng = np.random.default_rng(cin * cout + k)
        weights = rng.uniform(-1, 1, size=(cout, cin, k, k)).astype(dtype)
        x = rng.uniform(-1, 1, size=(1, cin, 6, 7)).astype(dtype)
        x[..., :2, :] = 0.0
        g = rng.uniform(-1, 1, size=(1, cout, 6, 7)).astype(dtype)
        g[..., 4:, :] = -0.0
        got, want = conv2d_backward(x, weights, g), padded_conv2d_backward(x, weights, g)
        for name, a, b in zip(("input", "weights", "bias"), got, want):
            assert a.dtype == dtype
            assert_same_bits(a, b, name)
        # accumulating a transposed view over time would be a strided copy
        assert got[1].flags["C_CONTIGUOUS"]


class TestZeroStateConvolutionsAreSkipped:
    """A T-frame window runs the hidden convolution T - 1 times forward and
    backward: the first step starts from the zero state, whose products are
    all zero."""

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_hidden_conv_calls_per_window(self, monkeypatch, length):
        m = random_model(Mo.CONV_LSTM, seed=50)
        calls = {"forward": 0, "backward": 0}

        def counted(direction, fn):
            def wrapper(input, weights, *rest):
                calls[direction] += weights is m.arrays["hidden.weights"]
                return fn(input, weights, *rest)
            return wrapper

        monkeypatch.setattr(Mo, "conv2d_forward", counted("forward", conv2d_forward))
        monkeypatch.setattr(Mo, "conv2d_backward", counted("backward", conv2d_backward))
        frames = random_frames(np.random.default_rng(51), length, 4, 4)
        outputs, steps = Mo.forward_sequence(frames, m)
        Mo.backward_sequence(m, steps, [np.ones_like(y) for y in outputs])
        assert calls == {"forward": length - 1, "backward": length - 1}


class TestWindowMemory:
    """A window's step caches hold each step's gates and cell and nothing that
    backward can rebuild, such as the hidden state, and a step's hidden weight
    gradient is freed before the next step's im2col."""

    HIDDEN, GRID, FRAMES = 32, (16, 16), 6

    def traced_peak(self, length):
        m = random_model(Mo.CONV_LSTM, seed=60, hidden=self.HIDDEN)
        frames = random_frames(np.random.default_rng(61), length, *self.GRID)
        projections = [np.ones_like(x) for x in frames]
        tracemalloc.start()
        try:
            outputs, steps = Mo.forward_sequence(frames, m)
            Mo.backward_sequence(m, steps, projections)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_one_step_cache_a_frame(self):
        cell = 8 * self.HIDDEN * self.GRID[0] * self.GRID[1]  # one float64 (1, hc, H, W)
        step_cache = len(Mo.GATES) * cell + cell
        # a 2-frame window runs one hidden-convolution backward, the largest
        # step: its peak less its two step caches is one step's transients
        one_step_transients = self.traced_peak(2) - 2 * step_cache
        # slack for the four further steps' one-channel head arrays and Python
        # objects: one hidden state, so a hidden state cached per step shows
        small = cell
        bound = self.FRAMES * step_cache + one_step_transients + small
        assert self.traced_peak(self.FRAMES) <= bound


class TestInitParameters:
    def test_deterministic_per_seed(self):
        a = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=5, hidden_channels=6)
        b = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=5, hidden_channels=6)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa, pb)
        c = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=6, hidden_channels=6)
        assert not np.array_equal(
            dict(a.named_parameters())["lstm.wx_i"],
            dict(c.named_parameters())["lstm.wx_i"],
        )

    def test_forget_bias_is_one_and_others_zero(self):
        m = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=0, hidden_channels=5)
        params = dict(m.named_parameters())
        assert np.all(params["lstm.b_f"] == 1.0)
        for name in ("i", "o", "g"):
            assert np.all(params[f"lstm.b_{name}"] == 0.0)
        assert np.all(m.arrays["head.bias"] == 0.0)

    def test_kernel_bounds(self):
        m = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=1, hidden_channels=8)
        params = dict(m.named_parameters())
        for name in Mo.GATES:
            wx, wh = params[f"lstm.wx_{name}"], params[f"lstm.wh_{name}"]
            assert np.max(np.abs(wx)) <= np.sqrt(1.0 / 9.0)
            assert np.max(np.abs(wh)) <= np.sqrt(1.0 / (8 * 9))
        assert np.max(np.abs(m.arrays["head.weights"])) <= np.sqrt(1.0 / 8.0)

    def test_empirical_mean_near_zero(self):
        # >= 1e5 kernel draws pooled across tensors, each scaled to [-1, 1]
        m = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=2, hidden_channels=64)
        params = dict(m.named_parameters())
        pooled = []
        for name in Mo.GATES:
            wx, wh = params[f"lstm.wx_{name}"], params[f"lstm.wh_{name}"]
            pooled.append(wx.ravel() / np.sqrt(1.0 / 9.0))
            pooled.append(wh.ravel() / np.sqrt(1.0 / (64 * 9)))
        pooled.append(m.arrays["head.weights"].ravel() / np.sqrt(1.0 / 64.0))
        draws = np.concatenate(pooled)
        assert draws.size >= 100_000
        three_sigma = 3.0 / np.sqrt(3.0 * draws.size)
        assert abs(draws.mean()) < three_sigma

    def test_structural_validation(self):
        with pytest.raises(ValueError, match="unknown variant 'transformer'"):
            Mo.init_parameters("transformer", rng_seed=0)


def loaded_and_float64_twin(tmp_path, variant: str):
    """A checkpoint's float32 model, and a float64 model holding the same
    float32-rounded weights."""
    model = random_model(variant, seed=30)
    path = str(tmp_path / "m.tsal")
    Tr.save_checkpoint(model, {n: np.zeros_like(a) for n, a in model.named_parameters()}, path)
    loaded, _ = Tr.load_checkpoint(path)
    for name, arr in model.named_parameters():
        arr[...] = dict(loaded.named_parameters())[name]
    return loaded, model


def step(model, frame, state):
    """One step of either variant, as predict runs it: (output, state)."""
    if model.variant == Mo.CONV_ONLY:
        return Mo.conv_block_forward(frame, model)[0], None
    return Mo.convlstm_step(frame, state, model)[:2]


class TestDtype:
    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    def test_loaded_checkpoint_steps_in_float32(self, tmp_path, variant):
        loaded, twin = loaded_and_float64_twin(tmp_path, variant)
        assert loaded.dtype == np.float32 and twin.dtype == np.float64
        frames = random_frames(np.random.default_rng(31), 4, 5, 6)
        state32 = state64 = None
        outputs, _ = Mo.forward_sequence(frames, loaded)
        for fr, y_seq in zip(frames, outputs):
            y32, state32 = step(loaded, fr, state32)
            y64, state64 = step(twin, fr, state64)
            assert y32.dtype == np.float32 and y64.dtype == np.float64
            # forward_sequence computes exactly what the step functions do
            np.testing.assert_array_equal(y_seq, y32)
            assert np.max(np.abs(y32 - y64)) < 1e-6
            if variant == Mo.CONV_LSTM:
                assert state32[0].dtype == state32[1].dtype == np.float32
                assert np.max(np.abs(state32[1] - state64[1])) < 1e-5

    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    def test_frame_is_cast_to_the_model_dtype(self, tmp_path, variant):
        loaded, twin = loaded_and_float64_twin(tmp_path, variant)
        rounded = random_frames(np.random.default_rng(32), 1, 4, 4)[0].astype(np.float32)
        for model in (loaded, twin):
            y_rounded, _ = step(model, rounded, None)
            y_upcast, _ = step(model, rounded.astype(np.float64), None)
            assert y_rounded.dtype == y_upcast.dtype == model.dtype
            np.testing.assert_array_equal(y_rounded, y_upcast)

    def test_none_state_is_the_zero_state(self, tmp_path):
        frame = random_frames(np.random.default_rng(35), 1, 4, 5)[0]
        frame[..., :2, :] = 0.0
        for model in loaded_and_float64_twin(tmp_path, Mo.CONV_LSTM):
            zeros = np.zeros((1, model.hidden_channels, 4, 5), model.dtype)
            y, (h, c), cache = Mo.convlstm_step(frame, None, model)
            y_want, (h_want, c_want), cache_want = Mo.convlstm_step(
                frame, (zeros, zeros.copy()), model
            )
            assert y.dtype == h.dtype == c.dtype == model.dtype
            assert_same_bits(y, y_want, "output")
            assert_same_bits(h, h_want, "hidden")
            assert_same_bits(c, c_want, "cell")
            for name in ("gates", "c", "c_prev"):
                assert_same_bits(getattr(cache, name), getattr(cache_want, name), name)
            assert cache.zero_state and not cache_want.zero_state

    def test_frame_beyond_float32_range_rejected_by_a_loaded_model(self, tmp_path):
        loaded, twin = loaded_and_float64_twin(tmp_path, Mo.CONV_ONLY)
        frame = np.full((1, 1, 4, 4), 1e39)  # finite as float64, not as float32
        Mo.conv_block_forward(frame, twin)
        with pytest.raises(NonFinite, match="float32"):
            Mo.conv_block_forward(frame, loaded)

    def test_state_of_another_dtype_is_refused(self, tmp_path):
        # a float64 state would silently promote a loaded model's step to float64
        loaded, twin = loaded_and_float64_twin(tmp_path, Mo.CONV_LSTM)
        frame = random_frames(np.random.default_rng(34), 1, 4, 4)[0]
        for model, other in ((loaded, twin), (twin, loaded)):
            state = (np.zeros((1, 4, 4, 4), other.dtype),) * 2
            want = f"a {model.dtype} model needs a {model.dtype} state, got hidden {other.dtype}"
            with pytest.raises(ValueError, match=want):
                Mo.convlstm_step(frame, state, model)
        mixed = (np.zeros((1, 4, 4, 4), np.float32), np.zeros((1, 4, 4, 4)))
        with pytest.raises(ValueError, match="hidden float32 and cell float64"):
            Mo.convlstm_step(frame, mixed, loaded)
