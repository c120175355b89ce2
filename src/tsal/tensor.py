"""Convolution and activation primitives on float64 or float32 arrays.

Every tensor is a plain ndarray in row-major (batch, channel, height,
width) layout. Training runs in float64; inference runs at the float32
precision a checkpoint stores. Each operation returns the dtype of its
inputs, and every buffer it allocates takes that dtype, so one stray
default-dtype allocation cannot promote a float32 step to float64.
Operations are pure: inputs are never mutated and outputs are freshly
allocated, so values are safe to share. Shapes are checked here;
finiteness is checked where values enter the model (``model._check_frame``)
and after each training step, not per operation.

Convolutions are stride 1 with "same" zero padding (k // 2), computed as
im2col followed by one matrix multiply. A convolution is its plain
``(out_channels, in_channels, k, k)`` weights, with a square odd kernel,
and an optional ``(out_channels,)`` bias of the same dtype; each call
checks their shapes against each other and against its input.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def _pad_spatial(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two trailing dims; direct assignment beats np.pad at small sizes."""
    if p == 0:
        return x
    b, c, h, w = x.shape
    out = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p : p + h, p : p + w] = x
    return out


def _check_conv_args(input: np.ndarray, weights: np.ndarray, bias: np.ndarray | None) -> None:
    if weights.ndim != 4:
        raise DimensionMismatch(f"weights must be rank 4, got shape {weights.shape}")
    out_channels, in_channels, kh, kw = weights.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionMismatch(f"kernel must be square with odd extent, got {kh}x{kw}")
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != out_channels):
        raise DimensionMismatch(
            f"bias length {bias.shape} does not match out_channels {out_channels}"
        )
    _, c, h, w = input.shape
    if c != in_channels:
        raise DimensionMismatch(f"input has {c} channels, kernel expects {in_channels}")
    if h < 1 or w < 1:
        raise DimensionMismatch(f"spatial dims {h}x{w} are empty")


def _im2col(padded: np.ndarray, k: int) -> np.ndarray:
    """(B, C, Hp, Wp) -> (B, C*k*k, Ho*Wo) patch matrix, (C, kh, kw) flat order."""
    b, c, hp, wp = padded.shape
    ho, wo = hp - k + 1, wp - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    # (B, C, Ho, Wo, k, k) -> (B, C, k, k, Ho, Wo)
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    return np.ascontiguousarray(cols).reshape(b, c * k * k, ho * wo)


def _col2im(cols: np.ndarray, b: int, c: int, h: int, w: int, k: int) -> np.ndarray:
    """Scatter-add the inverse of :func:`_im2col` onto the unpadded (h, w)
    grid of a "same" convolution, dropping what lands in the zero padding.
    Each pixel sums its terms in the order a padded grid would, so the bits
    match scattering onto the padded grid and cropping."""
    p = k // 2
    out = np.zeros((b, c, h, w), dtype=cols.dtype)
    cols = cols.reshape(b, c, k, k, h, w)
    for di in range(k):
        for dj in range(k):
            dy, dx = di - p, dj - p
            out[:, :, max(dy, 0) : h + min(dy, 0), max(dx, 0) : w + min(dx, 0)] += cols[
                :, :, di, dj, max(-dy, 0) : h + min(-dy, 0), max(-dx, 0) : w + min(-dx, 0)
            ]
    return out


def conv2d_forward(
    input: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Stride-1 2-D convolution with symmetric zero padding (im2col path),
    plus a per-filter ``bias`` if one is given."""
    _check_conv_args(input, weights, bias)
    out_channels, _, k, _ = weights.shape
    b, _, h, w = input.shape
    cols = _im2col(_pad_spatial(input, k // 2), k)
    out = np.matmul(weights.reshape(out_channels, -1)[None, :, :], cols)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(b, out_channels, h, w)


def conv2d_backward(
    input: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the convolution w.r.t. input, weights, and bias."""
    _check_conv_args(input, weights, None)
    out_channels, in_channels, k, _ = weights.shape
    b, _, h, w = input.shape
    if grad_out.shape != (b, out_channels, h, w):
        raise DimensionMismatch(
            f"grad_out dims {grad_out.shape} do not match forward output "
            f"({b}, {out_channels}, {h}, {w})"
        )
    cols = _im2col(_pad_spatial(input, k // 2), k)
    g_mat = grad_out.reshape(b, out_channels, h * w)

    grad_bias = g_mat.sum(axis=(0, 2))
    # one BLAS product over batch and pixels, in the weights' own C-contiguous
    # (C_out, C_in*k*k) layout, so accumulating it is a plain add, not a strided
    # transpose; tests pin that its bits do not depend on the BLAS thread count
    cols = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
    g_flat = g_mat.transpose(1, 0, 2).reshape(out_channels, -1)
    grad_weights = (g_flat @ cols.T).reshape(weights.shape)
    del cols  # bounds peak memory: the column gradient below is as large

    w_mat = weights.reshape(out_channels, -1)
    g_cols = np.matmul(w_mat.T[None, :, :], g_mat)
    grad_input = _col2im(g_cols, b, in_channels, h, w, k)
    return grad_input, grad_weights, grad_bias


def sigmoid(input: np.ndarray) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + e^-x)."""
    # tanh form is overflow-free for any finite input
    return 0.5 * (1.0 + np.tanh(0.5 * input))


def sigmoid_backward(input: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * sigma(x) * (1 - sigma(x)), where x is the forward input."""
    _check_same_dims(input, grad_out)
    s = 0.5 * (1.0 + np.tanh(0.5 * input))
    return grad_out * s * (1.0 - s)


def tanh_act(input: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(input)


def tanh_backward(input: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * (1 - tanh(x)^2), where x is the forward input."""
    _check_same_dims(input, grad_out)
    t = np.tanh(input)
    return grad_out * (1.0 - t * t)


def relu(input: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(input, 0.0)


def relu_backward(input: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out gated by x > 0 (subgradient 0 at x = 0)."""
    _check_same_dims(input, grad_out)
    return grad_out * (input > 0.0)


def _check_same_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dims {a.shape} != {b.shape}")
