"""Shared test utilities: finite differences, error metrics, a reference
convolution, a video's maps read as the commands read them, a train sample
held in memory, the train settings dict, a digest of a directory tree, and
the peak memory of a command run in a child process."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Callable

import numpy as np

import tsal
from tsal.cli import SETTINGS
from tsal.data import map_paths, read_maps, resize_bilinear
from tsal.errors import MissingInput

FD_STEP = 1e-6


def central_difference(f: Callable[[], float], arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of scalar ``f`` w.r.t. every element of ``arr``.

    ``arr`` is perturbed in place and restored, so ``f`` must read it afresh
    on every call.
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f()
        flat[i] = orig - step
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest elementwise error, relative for O(1)+ values and absolute below 1."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def conv2d_forward_direct(input: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Reference convolution: explicit sliding-window loops, sequential accumulation.

    Semantically defines ``tsal.tensor.conv2d_forward``; only used at test scale.
    """
    out_channels, in_channels, k, _ = w.shape
    p = k // 2
    x = np.pad(input, ((0, 0), (0, 0), (p, p), (p, p)))
    b, _, ho, wo = input.shape
    out = np.empty((b, out_channels, ho, wo))
    for bi in range(b):
        for co in range(out_channels):
            for oi in range(ho):
                for oj in range(wo):
                    acc = bias[co]
                    for ci in range(in_channels):
                        for ki in range(k):
                            for kj in range(k):
                                acc += w[co, ci, ki, kj] * x[bi, ci, oi + ki, oj + kj]
                    out[bi, co, oi, oj] = acc
    return out


def resized_maps(video: dict, key: str, resolution: tuple[int, int]) -> list[np.ndarray]:
    """The maps of ``video``'s directory ``key``, resized to ``resolution`` as train does."""
    paths = map_paths(video, video[key], MissingInput)
    return [resize_bilinear(m, resolution) for m in read_maps(paths)]


def in_memory(video_id: str, frames: list, targets: list) -> tuple:
    """A ``train`` sample whose window reader slices lists already in memory."""
    return video_id, len(frames), lambda window: (frames[window], targets[window])


def train_settings(**overrides) -> dict:
    """The ``train`` settings dict: the ``cli.SETTINGS`` defaults, then ``overrides``."""
    defaults = {key: default for key, (default, _, _) in SETTINGS["train"].items()}
    return {**defaults, **overrides}


def tree_digest(root: str) -> str:
    """SHA-256 over every file's path below ``root`` and its bytes, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def peak_rss_mib(argv: list[str]) -> float:
    """Run ``tsal <argv>`` in a child process, which must exit 0, and return its peak
    resident memory in MiB: ``os.wait4``'s ``ru_maxrss``, which covers the reaped
    pool workers too."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(tsal.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tsal.cli", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        stderr.seek(0)
        assert proc.returncode == 0, stderr.read().decode()
    return usage.ru_maxrss / 1024.0
