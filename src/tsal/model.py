"""Adaptation networks: a per-frame conv block and a ConvLSTM cell.

Both variants map a sequence of 1-channel saliency maps to refined maps
of the same size. The conv variant treats frames independently; the
ConvLSTM variant carries a hidden/cell state through time and is trained
with full backpropagation through time.

``conv_block_forward`` and ``convlstm_step`` are the only step functions:
inference calls them frame by frame, ``forward_sequence`` over a clip.
Each returns its step cache last; ``backward_sequence`` takes the list of
them and produces exact parameter gradients. A step cache holds each array
once, and nothing backward can rebuild without a convolution: backward
recomputes ``relu(pre_feature)`` and the ConvLSTM hidden state, bit for bit.

A model is one dict of stacked arrays, such as ``input.weights``, held by
``AdaptationModel``; ``named_parameters`` is the one place that splits them
into the per-gate names the optimizer, checkpoints and gradients use.

A ConvLSTM state is the plain ``(hidden, cell)`` pair of (1, hc, H, W)
arrays that ``convlstm_step`` returns; passing ``None`` as the state starts
from the zero state, so no caller builds a first state.

A model computes in the dtype of its parameters: float64 from
``init_parameters``, float32 from a loaded checkpoint. Each step casts its
frame to that dtype, so a float64 map fed to a loaded model runs in float32;
a ConvLSTM state of another dtype is refused rather than promoting the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySequence, LengthMismatch, NonFinite
from .tensor import (
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)

CONV_ONLY = "conv"
CONV_LSTM = "convlstm"
VARIANTS = (CONV_ONLY, CONV_LSTM)

# gate order is load-bearing: parameter naming, init draws, checkpoints
GATES = ("i", "f", "o", "g")

DEFAULT_HIDDEN_CHANNELS = 128
KERNEL_SIZE = 3


@dataclass
class AdaptationModel:
    """One adaptation network, as its named arrays.

    ConvOnly holds ``feature.weights`` (hc, 1, 3, 3), ``feature.bias`` and
    the head. ConvLSTM stacks its four gates, hc rows each in GATES order,
    into ``input.weights`` (4*hc, 1, 3, 3) with the gate biases
    ``input.bias``, and ``hidden.weights`` (4*hc, hc, 3, 3), which has no
    bias. The head, ``head.weights`` (1, hc, 1, 1) and ``head.bias``, is a
    1x1 convolution to a single channel followed by a sigmoid, so outputs
    lie in (0,1). The variant, width and dtype are read from the keys and
    shapes; ``zero_parameters`` lays out every model, which
    ``init_parameters`` and ``train.load_checkpoint`` fill, so the arrays
    are checked where they are made.
    """

    arrays: dict[str, np.ndarray]

    @property
    def variant(self) -> str:
        return CONV_ONLY if "feature.weights" in self.arrays else CONV_LSTM

    @property
    def hidden_channels(self) -> int:
        return self.arrays["head.weights"].shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["head.weights"].dtype

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Trainable tensors in the fixed order used by the optimizer and
        the checkpoint format. Arrays are live references, not copies."""
        a = self.arrays
        if self.variant == CONV_ONLY:
            out = [("feature.weights", a["feature.weights"]), ("feature.bias", a["feature.bias"])]
        else:
            out = []
            for name, rows in _gate_rows(self.hidden_channels).items():
                out.append((f"lstm.wx_{name}", a["input.weights"][rows]))
                out.append((f"lstm.wh_{name}", a["hidden.weights"][rows]))
                out.append((f"lstm.b_{name}", a["input.bias"][rows]))
        return out + [("head.weights", a["head.weights"]), ("head.bias", a["head.bias"])]


def _gate_rows(hc: int) -> dict[str, slice]:
    """Each gate's row block in the stacked gate convolutions, in GATES order."""
    return {name: slice(j * hc, (j + 1) * hc) for j, name in enumerate(GATES)}


def _check_frame(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The model's input edge: every frame is a (1, 1, H, W) array, finite
    once cast to the model's dtype. Returns the cast frame."""
    if x.ndim != 4 or x.shape[:2] != (1, 1):
        raise DimensionMismatch(f"expected a 1x1xHxW frame, got dims {x.shape}")
    with np.errstate(over="ignore"):
        x = x.astype(dtype, copy=False)
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"frame contains NaN or Inf as {dtype}")
    return x


def zero_parameters(variant: str, hidden_channels: int, dtype: type) -> AdaptationModel:
    """A model of all-zero arrays: the one place that gives each array its
    key and shape. ``init_parameters`` draws into it, ``load_checkpoint``
    reads a file into it."""
    k, hc, n = KERNEL_SIZE, hidden_channels, len(GATES) * hidden_channels
    if variant == CONV_ONLY:
        shapes = {"feature.weights": (hc, 1, k, k), "feature.bias": (hc,)}
    else:
        shapes = {"input.weights": (n, 1, k, k), "input.bias": (n,), "hidden.weights": (n, hc, k, k)}
    shapes.update({"head.weights": (1, hc, 1, 1), "head.bias": (1,)})
    return AdaptationModel({key: np.zeros(shape, dtype) for key, shape in shapes.items()})


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
    model = zero_parameters(variant, hidden_channels, np.float64)
    a = model.arrays

    def draw(weights: np.ndarray) -> None:
        s = np.sqrt(1.0 / weights[0].size)  # fan_in: in_channels * k * k
        weights[...] = rng.uniform(-s, s, size=weights.shape)

    if variant == CONV_ONLY:
        draw(a["feature.weights"])
    else:
        for rows in _gate_rows(hidden_channels).values():
            draw(a["input.weights"][rows])
            draw(a["hidden.weights"][rows])
        a["input.bias"][_gate_rows(hidden_channels)["f"]] = 1.0
    draw(a["head.weights"])
    return model


@dataclass
class _ConvStepCache:
    x: np.ndarray
    pre_feature: np.ndarray
    pre_head: np.ndarray


@dataclass
class _LstmStepCache:
    x: np.ndarray
    zero_state: bool  # the step began from the zero state
    c_prev: np.ndarray
    gates: np.ndarray  # activated i, f, o, g stacked along channels
    c: np.ndarray
    pre_head: np.ndarray


def conv_block_forward(
    x: np.ndarray, model: AdaptationModel
) -> tuple[np.ndarray, _ConvStepCache]:
    """One ConvOnly frame, sigmoid(head(relu(feature(x)))), and its step cache."""
    x = _check_frame(x, model.dtype)
    if model.variant != CONV_ONLY:
        raise ValueError("conv_block_forward requires a ConvOnly model")
    a = model.arrays
    pre_feature = conv2d_forward(x, a["feature.weights"], a["feature.bias"])
    activated = relu(pre_feature)
    pre_head = conv2d_forward(activated, a["head.weights"], a["head.bias"])
    y = sigmoid(pre_head)
    return y, _ConvStepCache(x, pre_feature, pre_head)


def convlstm_step(
    x: np.ndarray, state: tuple[np.ndarray, np.ndarray] | None, model: AdaptationModel
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], _LstmStepCache]:
    """One ConvLSTM cell evaluation plus the sigmoid head, and its step cache.

    ``state`` is the previous step's ``(hidden, cell)`` pair, or None for the
    zero state in the model's dtype.
    """
    x = _check_frame(x, model.dtype)
    if model.variant != CONV_LSTM:
        raise ValueError("convlstm_step requires a ConvLSTM model")
    if state is None:
        h_prev, c_prev = None, np.zeros((1, model.hidden_channels) + x.shape[2:], model.dtype)
    else:
        h_prev, c_prev = state
        if {h_prev.dtype, c_prev.dtype} != {model.dtype}:
            raise ValueError(
                f"a {model.dtype} model needs a {model.dtype} state,"
                f" got hidden {h_prev.dtype} and cell {c_prev.dtype}"
            )
        if h_prev.shape != c_prev.shape:
            raise DimensionMismatch(f"hidden dims {h_prev.shape} != cell dims {c_prev.shape}")
        if h_prev.shape[2:] != x.shape[2:]:
            raise DimensionMismatch(
                f"state spatial dims {h_prev.shape} do not match frame {x.shape}"
            )

    # activations run in place on the fresh pre-activation buffer: one tanh
    # serves all four gates, as tensor.sigmoid is 0.5 * (1 + tanh(0.5 * v))
    a = model.arrays
    gates = conv2d_forward(x, a["input.weights"], a["input.bias"])
    if h_prev is not None:
        # skipped for the zero state, whose hidden product is all ±0: adding
        # ±0 changes no bit of a sum that is never -0 (README)
        gates += conv2d_forward(h_prev, a["hidden.weights"])
    hc = model.hidden_channels
    gates[:, : 3 * hc] *= 0.5
    np.tanh(gates, out=gates)
    gates[:, : 3 * hc] += 1.0
    gates[:, : 3 * hc] *= 0.5
    i, f, o, g = (gates[:, rows] for rows in _gate_rows(hc).values())
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    pre_head = conv2d_forward(h, a["head.weights"], a["head.bias"])
    y = sigmoid(pre_head)
    cache = _LstmStepCache(x, h_prev is None, c_prev, gates, c, pre_head)
    return y, (h, c), cache


def forward_sequence(
    frames: list[np.ndarray], model: AdaptationModel
) -> tuple[list[np.ndarray], list]:
    """Run the model over a frame sequence.

    ConvOnly processes frames independently; ConvLSTM carries a zero-
    initialized state through time. Returns per-frame outputs and the
    step caches that backward_sequence needs.
    """
    if not frames:
        raise EmptySequence("forward_sequence needs at least one frame")
    first = frames[0]
    outputs, steps = [], []
    state = None
    for fr in frames:
        if fr.shape != first.shape:
            raise DimensionMismatch(
                f"frame dims {fr.shape} differ from first frame {first.shape}"
            )
        if model.variant == CONV_ONLY:
            y, step = conv_block_forward(fr, model)
        else:
            y, state, step = convlstm_step(fr, state, model)
        outputs.append(y)
        steps.append(step)
    return outputs, steps


def backward_sequence(
    model: AdaptationModel, steps: list, grad_outputs: list[np.ndarray]
) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the forward run that produced ``steps``,
    keyed and split as ``named_parameters`` names the parameters.

    Reverse-time traversal; hidden/cell gradients accumulate across steps
    and shared-kernel gradients sum over time.
    """
    if len(grad_outputs) != len(steps):
        raise LengthMismatch(
            f"{len(grad_outputs)} output grads for {len(steps)} cached steps"
        )
    grads = {key: np.zeros_like(arr) for key, arr in model.arrays.items()}
    backward = _backward_conv_only if model.variant == CONV_ONLY else _backward_convlstm
    backward(steps, grad_outputs, model, grads)
    return dict(AdaptationModel(grads).named_parameters())


def _backward_conv_only(
    steps: list[_ConvStepCache],
    grad_outputs: list[np.ndarray],
    model: AdaptationModel,
    grads: dict[str, np.ndarray],
) -> None:
    a = model.arrays
    for step, dy in zip(steps, grad_outputs):
        d_pre_head = sigmoid_backward(step.pre_head, dy)
        d_act, d_wh, d_bh = conv2d_backward(relu(step.pre_feature), a["head.weights"], d_pre_head)
        grads["head.weights"] += d_wh
        grads["head.bias"] += d_bh
        d_pre_feature = relu_backward(step.pre_feature, d_act)
        _, d_wf, d_bf = conv2d_backward(step.x, a["feature.weights"], d_pre_feature)
        grads["feature.weights"] += d_wf
        grads["feature.bias"] += d_bf


def _backward_convlstm(
    steps: list[_LstmStepCache],
    grad_outputs: list[np.ndarray],
    model: AdaptationModel,
    grads: dict[str, np.ndarray],
) -> None:
    """Reverse-time gradients. Each h_t = o_t * tanh(c_t) is rebuilt with the
    forward's ufuncs, so with its bits, one step early: step t+1's hidden
    weight gradient needs it, then step t reuses it for its head gradient and
    its tanh(c_t) for its gate gradients, so no tanh or convolution is extra."""
    if not steps[0].zero_state:
        raise ValueError("backward_sequence needs a window that began at the zero state")
    a, hc = model.arrays, model.hidden_channels
    rows = _gate_rows(hc)
    # one gate-gradient buffer and four scratch arrays serve every step; each
    # expression keeps the operation order of its plain NumPy form
    last = steps[-1]
    d_pre = np.empty((1, 4 * hc) + last.c.shape[2:], last.c.dtype)
    d_i, d_f, d_o, d_g = (d_pre[:, r] for r in rows.values())
    dc, tmp = np.empty_like(d_i), np.empty_like(d_i)
    tc = np.tanh(last.c)
    h = last.gates[:, rows["o"]] * tc
    dh_next = np.zeros_like(d_i)
    dc_next = np.zeros_like(d_i)
    for t in reversed(range(len(steps))):
        step = steps[t]
        d_pre_head = sigmoid_backward(step.pre_head, grad_outputs[t])
        dh, d_w_head, d_b_head = conv2d_backward(h, a["head.weights"], d_pre_head)
        grads["head.weights"] += d_w_head
        grads["head.bias"] += d_b_head

        dh += dh_next
        i, f, o, g = (step.gates[:, r] for r in rows.values())
        # d_o = ((dh * tc) * o) * (1 - o)
        np.multiply(dh, tc, out=d_o)
        d_o *= o
        d_o *= np.subtract(1.0, o, out=tmp)
        # dc = ((dh * o) * (1 - tc * tc)) + dc_next
        np.multiply(tc, tc, out=tc)
        np.multiply(dh, o, out=dc)
        dc *= np.subtract(1.0, tc, out=tc)
        dc += dc_next
        # d_f = ((dc * c_prev) * f) * (1 - f)
        np.multiply(dc, step.c_prev, out=d_f)
        d_f *= f
        d_f *= np.subtract(1.0, f, out=tmp)
        # d_i = ((dc * g) * i) * (1 - i)
        np.multiply(dc, g, out=d_i)
        d_i *= i
        d_i *= np.subtract(1.0, i, out=tmp)
        # d_g = (dc * i) * (1 - g * g)
        np.multiply(dc, i, out=d_g)
        np.multiply(g, g, out=tmp)
        d_g *= np.subtract(1.0, tmp, out=tmp)
        np.multiply(dc, f, out=dc_next)

        _, step_wx, step_b = conv2d_backward(step.x, a["input.weights"], d_pre)
        grads["input.weights"] += step_wx
        grads["input.bias"] += step_b
        if not step.zero_state:
            # a zero-state step's hidden weight gradient is all ±0, which leaves
            # every bit of the sum, and its state gradient is never read
            prev = steps[t - 1]
            np.tanh(prev.c, out=tc)
            np.multiply(prev.gates[:, rows["o"]], tc, out=h)
            dh_next, step_wh, _ = conv2d_backward(h, a["hidden.weights"], d_pre)
            grads["hidden.weights"] += step_wh
            del step_wh  # as large as the weights: freed before the next im2col
