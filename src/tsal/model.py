"""Adaptation networks: a per-frame conv block and a ConvLSTM cell.

Both variants map a sequence of 1-channel saliency maps to refined maps
of the same size. The conv variant treats frames independently; the
ConvLSTM variant carries a hidden/cell state through time and is trained
with full backpropagation through time.

``forward_sequence`` returns the outputs together with a cache of the
intermediates the backward pass needs; ``backward_sequence`` consumes
that cache and produces exact parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySequence, LengthMismatch, StaleCache
from .tensor import (
    Conv2dParams,
    Tensor4,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    tanh_act,
)

CONV_ONLY = "conv"
CONV_LSTM = "convlstm"
VARIANTS = (CONV_ONLY, CONV_LSTM)

# gate order is load-bearing: parameter naming, init draws, checkpoints
GATES = ("i", "f", "o", "g")

DEFAULT_HIDDEN_CHANNELS = 128
KERNEL_SIZE = 3


@dataclass
class GateParams:
    """One ConvLSTM gate: input-to-state conv (owns the gate bias) plus
    state-to-state conv whose bias is fixed at zero and never trained."""

    input_conv: Conv2dParams
    hidden_conv: Conv2dParams


@dataclass
class LstmState:
    """Hidden and cell tensors threaded through a ConvLSTM sequence."""

    hidden: Tensor4
    cell: Tensor4

    def __post_init__(self) -> None:
        if self.hidden.dims != self.cell.dims:
            raise DimensionMismatch(
                f"hidden dims {self.hidden.dims} != cell dims {self.cell.dims}"
            )

    @staticmethod
    def zeros(channels: int, height: int, width: int) -> "LstmState":
        return LstmState(
            hidden=Tensor4.zeros(1, channels, height, width),
            cell=Tensor4.zeros(1, channels, height, width),
        )


@dataclass
class AdaptationModel:
    """Parameters of one adaptation network.

    ConvOnly uses ``feature_conv`` + ``head``; ConvLSTM uses four
    ``gates`` + ``head``. The head is a 1x1 convolution to a single
    channel, followed by a sigmoid, so outputs lie in (0,1).
    """

    variant: str
    hidden_channels: int
    head: Conv2dParams
    feature_conv: Conv2dParams | None = None
    gates: dict[str, GateParams] | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == CONV_ONLY and self.feature_conv is None:
            raise ValueError("ConvOnly model requires feature_conv")
        if self.variant == CONV_LSTM:
            if self.gates is None or tuple(self.gates) != GATES:
                raise ValueError(f"ConvLSTM model requires gates {GATES}")

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Trainable tensors in the fixed order used by the optimizer and
        the checkpoint format. Arrays are live references, not copies."""
        out: list[tuple[str, np.ndarray]] = []
        if self.variant == CONV_ONLY:
            assert self.feature_conv is not None
            out.append(("feature.weights", self.feature_conv.weights))
            out.append(("feature.bias", self.feature_conv.bias))
        else:
            assert self.gates is not None
            for name in GATES:
                gate = self.gates[name]
                out.append((f"lstm.wx_{name}", gate.input_conv.weights))
                out.append((f"lstm.wh_{name}", gate.hidden_conv.weights))
                out.append((f"lstm.b_{name}", gate.input_conv.bias))
        out.append(("head.weights", self.head.weights))
        out.append(("head.bias", self.head.bias))
        return out


def zero_gradients(model: AdaptationModel) -> dict[str, np.ndarray]:
    """Fresh zero-filled gradient accumulator keyed like named_parameters."""
    return {name: np.zeros_like(arr) for name, arr in model.named_parameters()}


def _check_frame(x: Tensor4) -> None:
    if x.batch != 1 or x.channels != 1:
        raise DimensionMismatch(f"expected a 1x1xHxW frame, got dims {x.dims}")


def init_parameters(
    variant: str,
    rng_seed: int,
    hidden_channels: int = DEFAULT_HIDDEN_CHANNELS,
) -> AdaptationModel:
    """Seeded initialization: kernels uniform in [-s, s] with
    s = sqrt(1 / fan_in); biases zero except the forget gate's, which is 1.

    The draw order is fixed (feature or gate kernels in GATES order, then
    the head) so a seed pins every parameter bit-exactly.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(rng_seed)
    k = KERNEL_SIZE
    hc = hidden_channels

    def draw(out_ch: int, in_ch: int, kernel: int) -> np.ndarray:
        s = np.sqrt(1.0 / (in_ch * kernel * kernel))
        return rng.uniform(-s, s, size=(out_ch, in_ch, kernel, kernel))

    if variant == CONV_ONLY:
        feature = Conv2dParams(draw(hc, 1, k), np.zeros(hc), padding=k // 2)
        head = Conv2dParams(draw(1, hc, 1), np.zeros(1), padding=0)
        return AdaptationModel(
            variant=variant, hidden_channels=hc, head=head, feature_conv=feature
        )

    gates: dict[str, GateParams] = {}
    for name in GATES:
        wx = draw(hc, 1, k)
        wh = draw(hc, hc, k)
        bias = np.full(hc, 1.0) if name == "f" else np.zeros(hc)
        gates[name] = GateParams(
            input_conv=Conv2dParams(wx, bias, padding=k // 2),
            hidden_conv=Conv2dParams(wh, np.zeros(hc), padding=k // 2),
        )
    head = Conv2dParams(draw(1, hc, 1), np.zeros(1), padding=0)
    return AdaptationModel(variant=variant, hidden_channels=hc, head=head, gates=gates)


@dataclass
class _ConvStepCache:
    x: Tensor4
    pre_feature: Tensor4
    activated: Tensor4
    pre_head: Tensor4


@dataclass
class _LstmStepCache:
    x: Tensor4
    h_prev: Tensor4
    c_prev: Tensor4
    i: Tensor4
    f: Tensor4
    o: Tensor4
    g: Tensor4
    c: Tensor4
    tanh_c: Tensor4
    h: Tensor4
    pre_head: Tensor4


@dataclass
class ForwardCache:
    """Intermediates of one forward_sequence run, consumed by backward_sequence."""

    model: AdaptationModel
    steps: list | None = field(default=None)

    def release(self) -> None:
        """Drop the cached intermediates; a later backward raises StaleCache."""
        self.steps = None


def conv_block_forward(x: Tensor4, model: AdaptationModel) -> Tensor4:
    """ConvOnly forward for one frame: sigmoid(head(relu(feature_conv(x))))."""
    y, _ = _conv_block_forward_cached(x, model)
    return y


def _conv_block_forward_cached(
    x: Tensor4, model: AdaptationModel
) -> tuple[Tensor4, _ConvStepCache]:
    if model.variant != CONV_ONLY:
        raise ValueError("conv_block_forward requires a ConvOnly model")
    assert model.feature_conv is not None
    _check_frame(x)
    pre_feature = conv2d_forward(x, model.feature_conv)
    activated = relu(pre_feature)
    pre_head = conv2d_forward(activated, model.head)
    y = sigmoid(pre_head)
    return y, _ConvStepCache(x, pre_feature, activated, pre_head)


def convlstm_step(
    x: Tensor4, state: LstmState, model: AdaptationModel
) -> tuple[Tensor4, LstmState]:
    """One ConvLSTM cell evaluation plus the sigmoid head."""
    y, new_state, _ = _convlstm_step_cached(x, state, model)
    return y, new_state


def _convlstm_step_cached(
    x: Tensor4, state: LstmState, model: AdaptationModel
) -> tuple[Tensor4, LstmState, _LstmStepCache]:
    if model.variant != CONV_LSTM:
        raise ValueError("convlstm_step requires a ConvLSTM model")
    assert model.gates is not None
    _check_frame(x)
    h_prev, c_prev = state.hidden, state.cell
    if h_prev.height != x.height or h_prev.width != x.width:
        raise DimensionMismatch(
            f"state spatial dims {h_prev.dims} do not match frame {x.dims}"
        )

    def gate_pre(name: str) -> np.ndarray:
        gate = model.gates[name]
        a = conv2d_forward(x, gate.input_conv)
        b = conv2d_forward(h_prev, gate.hidden_conv)
        return a.data + b.data

    i = sigmoid(Tensor4(gate_pre("i")))
    f = sigmoid(Tensor4(gate_pre("f")))
    o = sigmoid(Tensor4(gate_pre("o")))
    g = tanh_act(Tensor4(gate_pre("g")))
    c = Tensor4(f.data * c_prev.data + i.data * g.data)
    tanh_c = tanh_act(c)
    h = Tensor4(o.data * tanh_c.data)
    pre_head = conv2d_forward(h, model.head)
    y = sigmoid(pre_head)
    cache = _LstmStepCache(x, h_prev, c_prev, i, f, o, g, c, tanh_c, h, pre_head)
    return y, LstmState(hidden=h, cell=c), cache


def forward_sequence(
    frames: list[Tensor4], model: AdaptationModel
) -> tuple[list[Tensor4], ForwardCache]:
    """Run the model over a frame sequence.

    ConvOnly processes frames independently; ConvLSTM carries a zero-
    initialized state through time. Returns per-frame outputs and the
    cache required by backward_sequence.
    """
    if not frames:
        raise EmptySequence("forward_sequence needs at least one frame")
    first = frames[0]
    _check_frame(first)
    for fr in frames[1:]:
        if fr.dims != first.dims:
            raise DimensionMismatch(
                f"frame dims {fr.dims} differ from first frame {first.dims}"
            )

    outputs: list[Tensor4] = []
    steps: list = []
    if model.variant == CONV_ONLY:
        for fr in frames:
            y, step = _conv_block_forward_cached(fr, model)
            outputs.append(y)
            steps.append(step)
    else:
        state = LstmState.zeros(model.hidden_channels, first.height, first.width)
        for fr in frames:
            y, state, step = _convlstm_step_cached(fr, state, model)
            outputs.append(y)
            steps.append(step)
    return outputs, ForwardCache(model=model, steps=steps)


def backward_sequence(
    cache: ForwardCache, grad_outputs: list[Tensor4]
) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the cached forward run.

    Reverse-time traversal; hidden/cell gradients accumulate across steps
    and shared-kernel gradients sum over time.
    """
    if cache.steps is None:
        raise StaleCache("forward intermediates have been released")
    if len(grad_outputs) != len(cache.steps):
        raise LengthMismatch(
            f"{len(grad_outputs)} output grads for {len(cache.steps)} cached steps"
        )
    model = cache.model
    grads = zero_gradients(model)
    if model.variant == CONV_ONLY:
        _backward_conv_only(cache.steps, grad_outputs, model, grads)
    else:
        _backward_convlstm(cache.steps, grad_outputs, model, grads)
    return grads


def _backward_conv_only(
    steps: list[_ConvStepCache],
    grad_outputs: list[Tensor4],
    model: AdaptationModel,
    grads: dict[str, np.ndarray],
) -> None:
    assert model.feature_conv is not None
    for step, dy in zip(steps, grad_outputs):
        d_pre_head = sigmoid_backward(step.pre_head, dy)
        d_act, d_wh, d_bh = conv2d_backward(step.activated, model.head, d_pre_head)
        grads["head.weights"] += d_wh.data
        grads["head.bias"] += d_bh
        d_pre_feature = relu_backward(step.pre_feature, d_act)
        _, d_wf, d_bf = conv2d_backward(step.x, model.feature_conv, d_pre_feature)
        grads["feature.weights"] += d_wf.data
        grads["feature.bias"] += d_bf


def _backward_convlstm(
    steps: list[_LstmStepCache],
    grad_outputs: list[Tensor4],
    model: AdaptationModel,
    grads: dict[str, np.ndarray],
) -> None:
    assert model.gates is not None
    dh_next = np.zeros_like(steps[-1].h.data)
    dc_next = np.zeros_like(dh_next)
    for step, dy in zip(reversed(steps), reversed(grad_outputs)):
        d_pre_head = sigmoid_backward(step.pre_head, dy)
        d_h_head, d_wh, d_bh = conv2d_backward(step.h, model.head, d_pre_head)
        grads["head.weights"] += d_wh.data
        grads["head.bias"] += d_bh

        dh = d_h_head.data + dh_next
        i, f, o, g = step.i.data, step.f.data, step.o.data, step.g.data
        tc = step.tanh_c.data
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * step.c_prev.data
        di = dc * g
        dg = dc * i
        dc_next = dc * f

        # gate pre-activation gradients via the cached activations
        d_pre = {
            "i": di * i * (1.0 - i),
            "f": df * f * (1.0 - f),
            "o": do * o * (1.0 - o),
            "g": dg * (1.0 - g * g),
        }
        dh_prev = np.zeros_like(dh)
        for name in GATES:
            gate = model.gates[name]
            da = Tensor4(d_pre[name])
            _, d_wx, d_b = conv2d_backward(step.x, gate.input_conv, da)
            d_hp, d_whh, _ = conv2d_backward(step.h_prev, gate.hidden_conv, da)
            grads[f"lstm.wx_{name}"] += d_wx.data
            grads[f"lstm.wh_{name}"] += d_whh.data
            grads[f"lstm.b_{name}"] += d_b
            dh_prev += d_hp.data
        dh_next = dh_prev
