"""Training loop: BCE loss, SGD with momentum, LR schedule, checkpoints.

The recipe is plain SGD with momentum and weight decay, its initial
learning rate decayed by 0.1 at fixed epoch intervals. ``train`` reads these
settings from the dict that ``cli.resolve_config`` checked against
``cli.SETTINGS["train"]``, where each default is declared once. Sequences
are split into fixed-length windows; each window is one forward/backward
pass and one optimizer step, with gradients clipped by global norm.

Checkpoints are a little-endian binary format (magic "TSAL") storing
parameters and momentum buffers as 32-bit floats with a trailing CRC-32;
writes are atomic (fsynced unique temp file, then rename), and every stored
value is finite.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections.abc import Callable

import numpy as np

from .data import publish
from .errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    EmptyDataset,
    NonFinite,
)
from .model import (
    CONV_LSTM,
    CONV_ONLY,
    AdaptationModel,
    backward_sequence,
    forward_sequence,
    zero_parameters,
)

BCE_CLAMP = 1e-7
CLIP_NORM = 10.0  # global gradient-norm bound of every step
DECAY_FACTOR = 0.1  # learning-rate multiplier at each decay interval
CHECKPOINT_MAGIC = b"TSAL"
CHECKPOINT_VERSION = 1
MAX_HIDDEN_CHANNELS = 0xFFFF  # the checkpoint header stores the width as uint16
VARIANT_CODES = {CONV_ONLY: 0, CONV_LSTM: 1}
# magic, version, variant code, hidden width, tensor count
CHECKPOINT_HEADER = struct.Struct("<4sHBHI")
CODE_VARIANTS = {code: name for name, code in VARIANT_CODES.items()}


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-pixel binary cross-entropy and its exact gradient w.r.t. pred.

    Predictions are clamped to [1e-7, 1-1e-7] before the logs; outside the
    clamp the loss is locally constant, so the gradient there is zero.
    """
    if pred.shape != target.shape:
        raise DimensionMismatch(f"pred dims {pred.shape} != target dims {target.shape}")
    p, t = pred, target
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    pc = np.clip(p, lo, hi)
    n = p.size
    loss = -float(np.sum(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))) / n
    active = (p >= lo) & (p <= hi)
    grad = np.where(active, (pc - t) / (n * pc * (1.0 - pc)), 0.0)
    return loss, grad


def lr_schedule(lr0: float, decay_every: int, completed_epochs: int) -> float:
    """Step decay: lr0 * DECAY_FACTOR^(completed_epochs // decay_every)."""
    intervals = completed_epochs // decay_every
    return lr0 * DECAY_FACTOR**intervals


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the norm before clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def sgd_step(
    model: AdaptationModel,
    grads: dict[str, np.ndarray],
    buffers: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One momentum-SGD update, in place: v <- m*v + (g + wd*w); w <- w - lr*v."""
    for name, w in model.named_parameters():
        g = grads[name]
        if g.shape != w.shape:
            raise DimensionMismatch(f"{name}: grad shape {g.shape} != param shape {w.shape}")
        v = buffers[name]
        v *= momentum
        v += g + weight_decay * w
        w -= lr * v


def train(
    model: AdaptationModel,
    samples: list[tuple[str, int, Callable[[slice], tuple[list, list]]]],
    cfg: dict,
) -> list[tuple[int, float]]:
    """Train ``model`` in place; returns the (step, window loss) history.

    ``samples`` holds one ``(video_id, frame_count, read_window)`` tuple per
    video. ``read_window(window)`` returns the frames and targets of that
    slice of the video's frames, aligned (1, 1, H, W) arrays; it is called
    as each window runs, so one window's maps are held at a time. ``cfg``
    is the ``train`` settings dict that ``cli.resolve_config`` checked; the
    run is deterministic for a fixed ``cfg["seed"]``. Each epoch shuffles
    video order, splits every video into windows of ``clip_length``
    frames, and performs one clipped SGD step per window (loss is the sum
    of per-frame BCE means), until ``max_steps`` steps if that is set. The
    model and its momentum buffers are written to ``cfg["ckpt"]`` after
    every epoch. The model must be float64: the gradient checks need that
    precision, and a loaded checkpoint's float32 model would otherwise
    train at float32 without a word.
    """
    if model.dtype != np.float64:
        raise ValueError(f"train needs a float64 model, got {model.dtype}")
    if not samples:
        raise EmptyDataset("no training samples")
    # np.zeros pages are not paid for until the first sgd_step writes them,
    # after the window's step caches are freed
    buffers = {name: np.zeros(arr.shape, arr.dtype) for name, arr in model.named_parameters()}
    rng = np.random.default_rng(cfg["seed"])
    clip_length, max_steps = cfg["clip_length"], cfg["max_steps"]
    momentum, weight_decay = cfg["momentum"], cfg["weight_decay"]
    history: list[tuple[int, float]] = []

    for epoch in range(cfg["epochs"]):
        lr = lr_schedule(cfg["lr0"], cfg["decay_every"], epoch)
        order = rng.permutation(len(samples))
        for idx in order:
            video_id, frame_count, read_window = samples[idx]
            for start in range(0, frame_count, clip_length):
                if max_steps is not None and len(history) >= max_steps:
                    break
                frames, targets = read_window(slice(start, start + clip_length))
                try:
                    loss = _train_window(
                        model, frames, targets, buffers, lr, momentum, weight_decay
                    )
                except NonFinite as exc:
                    raise NonFinite(
                        f"non-finite values in video {video_id!r} "
                        f"window starting at frame {start}: {exc}"
                    ) from exc
                history.append((len(history) + 1, loss))
        save_checkpoint(model, buffers, cfg["ckpt"])
        if max_steps is not None and len(history) >= max_steps:
            break
    return history


def _train_window(
    model: AdaptationModel,
    frames: list[np.ndarray],
    targets: list[np.ndarray],
    buffers: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> float:
    """One forward/backward pass and optimizer step.

    The training edge: floating-point faults are not trapped per operation
    but reported here, once, as NonFinite, before a bad loss or gradient
    reaches the optimizer and before a bad update survives the window. An
    update is bad if a parameter or momentum value is not finite as a
    32-bit float, the precision checkpoints store.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outputs, steps = forward_sequence(frames, model)
        loss = 0.0
        grad_outputs: list[np.ndarray] = []
        for y, t in zip(outputs, targets):
            frame_loss, frame_grad = bce_loss(y, t)
            loss += frame_loss
            grad_outputs.append(frame_grad)
        if not math.isfinite(loss):
            raise NonFinite(f"window loss is {loss}")
        grads = backward_sequence(model, steps, grad_outputs)
        del steps  # the step caches are the window's largest buffers
        norm = clip_gradients(grads, CLIP_NORM)
        if not math.isfinite(norm):
            raise NonFinite(f"gradient norm is {norm}")
        sgd_step(model, grads, buffers, lr, momentum, weight_decay)
        for name, w in model.named_parameters():
            for what, arr in ((name, w), (f"{name} momentum", buffers[name])):
                if not np.all(np.isfinite(arr.astype("<f4"))):
                    raise NonFinite(f"{what} is not finite after the update")
    return loss


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A tensor record's bytes before its values: the u16 length of the
    UTF-8 name, the name, and four u32 dims, a bias (n,) as (n, 1, 1, 1)."""
    encoded = name.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded + struct.pack("<4I", *(*shape, 1, 1, 1)[:4])


def save_checkpoint(
    model: AdaptationModel, momentum_buffers: dict[str, np.ndarray], path: str
) -> None:
    """Serialize parameters and momentum buffers at 32-bit precision.

    Raises NonFinite, writing nothing, if a value is not finite at 32-bit
    precision. The write is atomic: ``publish``'s sibling temp file is
    fsynced, then renamed over the target.
    """
    named = model.named_parameters()
    for name, arr in named:
        if name not in momentum_buffers:
            raise DimensionMismatch(f"missing momentum buffer for {name}")
        if momentum_buffers[name].shape != arr.shape:
            raise DimensionMismatch(f"momentum buffer shape mismatch for {name}")

    fields = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, VARIANT_CODES[model.variant])
    chunks = [CHECKPOINT_HEADER.pack(*fields, model.hidden_channels, len(named))]
    for name, arr in named + [(name, momentum_buffers[name]) for name, _ in named]:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.ascontiguousarray(arr, dtype="<f4")
        if not np.all(np.isfinite(values)):
            raise NonFinite(f"{name} holds values that are not finite as 32-bit floats")
        chunks += [_record_head(name, arr.shape), values.tobytes()]
    body = b"".join(chunks)

    with publish(path) as tmp, open(tmp, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))
        fh.flush()
        os.fsync(fh.fileno())


def load_checkpoint(
    path: str, expect_variant: str | None = None
) -> tuple[AdaptationModel, dict[str, np.ndarray]]:
    """Load a checkpoint; validates CRC, magic, version, variant, and shapes.

    The model and the momentum buffers come back as float32, the precision
    the file stores, so the model computes in float32 (see ``tsal.model``).
    A file that fails validation raises CorruptCheckpoint, its message
    prefixed with ``path``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_checkpoint(blob, expect_variant)
    except CorruptCheckpoint as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from None


def _decode_checkpoint(
    blob: bytes, expect_variant: str | None
) -> tuple[AdaptationModel, dict[str, np.ndarray]]:
    if len(blob) < CHECKPOINT_HEADER.size + 4:
        raise CorruptCheckpoint("file too small to be a checkpoint")
    # a memoryview: checksumming, slicing and reading the body copy nothing
    body, (stored_crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != stored_crc:
        raise CorruptCheckpoint("checksum mismatch")

    header = CHECKPOINT_HEADER.unpack_from(body)
    magic, version, variant_code, hidden_channels, tensor_count = header
    if magic != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic")
    if version != CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"unsupported version {version}")
    if variant_code not in CODE_VARIANTS:
        raise CorruptCheckpoint(f"unknown variant code {variant_code}")
    variant = CODE_VARIANTS[variant_code]
    if expect_variant is not None and variant != expect_variant:
        raise CorruptCheckpoint(
            f"variant mismatch: checkpoint holds {variant!r}, expected {expect_variant!r}"
        )
    # the widest kernel holds 9·hc (conv) or 36·hc² (convlstm) floats, stored
    # twice as float32; check the file can hold it before allocating the model
    widest = 9 * hidden_channels * (4 * hidden_channels if variant == CONV_LSTM else 1)
    if hidden_channels < 1 or 8 * widest > len(body):
        raise CorruptCheckpoint(f"hidden width {hidden_channels} does not fit the file")

    # at the file's precision; each record is read straight into its array
    model = zero_parameters(variant, hidden_channels, np.float32)
    named = model.named_parameters()
    if tensor_count != len(named):
        raise CorruptCheckpoint(f"{tensor_count} tensors in file, model needs {len(named)}")
    buffers = {name: np.zeros(arr.shape, np.float32) for name, arr in named}
    # the variant and width fix every record head, so each is compared, not parsed
    pos = CHECKPOINT_HEADER.size
    for name, arr in named + list(buffers.items()):
        head = _record_head(name, arr.shape)
        start, end = pos + len(head), pos + len(head) + 4 * arr.size
        if end > len(body):
            raise CorruptCheckpoint("truncated checkpoint")
        if body[pos:start] != head:
            raise CorruptCheckpoint(f"record at byte {pos} is not {name!r} of shape {arr.shape}")
        values = np.frombuffer(body, dtype="<f4", count=arr.size, offset=start)
        if not np.all(np.isfinite(values)):
            raise CorruptCheckpoint(f"tensor {name!r} holds NaN or Inf")
        arr[...] = values.reshape(arr.shape)
        pos = end
    if pos != len(body):
        raise CorruptCheckpoint("trailing bytes after tensor data")
    return model, buffers
