"""The three benchmark workloads: set-up, the CLI flags a user would pass,
the output check, and the call counts that the shapes imply.

Inputs are built only through ``generate_synthetic``, ``init_parameters``
and ``save_checkpoint``, and each stage gets only the flags that define
the workload (no ``--threads``, no ``--loss-csv``), so planned refactors
of tsal leave the workloads unchanged. Every workload is a closed loop of
one caller in one process: the next invocation starts when the last ends.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import check_evaluate, check_predict, check_train

DEFAULT_SEED = 0
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

WIDTH = 128
CLIP = 16
TRAIN_STEPS = 1
TRAIN_VIDEOS, PREDICT_VIDEOS, EVAL_VIDEOS = 4, 2, 24
FRAMES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int  # frames through the stage per invocation
    setup: Callable[[str, int], None]  # (setup dir, seed)
    argv: Callable[[str, str], list[str]]  # (setup dir, output dir)
    check: Callable[[str, str, int], list[str]]  # (setup dir, output dir, seed)
    expected_calls: dict[str, int]  # per-layer count -> value per invocation


def _generate(out: str, seed: int, videos: int, size: int, fixations: int = 3) -> None:
    from tsal.data import SyntheticConfig, generate_synthetic

    config = SyntheticConfig(
        videos=videos,
        frames=FRAMES,
        height=size,
        width=size,
        seed=seed,
        fixations_per_frame=fixations,
    )
    generate_synthetic(out, config)


def _ref_path(name: str) -> str:
    return os.path.join(REFS, name)


# -- train-convlstm ---------------------------------------------------------


def _train_setup(d: str, seed: int) -> None:
    _generate(os.path.join(d, "data"), seed, TRAIN_VIDEOS, 32)


def _train_argv(d: str, out: str) -> list[str]:
    return [
        "train",
        "--manifest", os.path.join(d, "data", "manifest.json"),
        "--ckpt", os.path.join(out, "model.ckpt"),
        "--variant", "convlstm",
        "--max-steps", str(TRAIN_STEPS),
    ]  # fmt: skip


def _train_check(d: str, out: str, seed: int) -> list[str]:
    losses = checkpoint = None
    if seed == DEFAULT_SEED:
        with open(_ref_path("train-convlstm.losses.json"), encoding="utf-8") as fh:
            losses = json.load(fh)
        with open(_ref_path("train-convlstm.checkpoint.json"), encoding="utf-8") as fh:
            checkpoint = json.load(fh)
    ckpt = os.path.join(out, "model.ckpt")
    return check_train(ckpt, "convlstm", WIDTH, TRAIN_STEPS, losses, checkpoint)


# -- predict-convlstm -------------------------------------------------------


def _predict_setup(d: str, seed: int) -> None:
    from tsal.model import init_parameters
    from tsal.train import save_checkpoint

    _generate(os.path.join(d, "data"), seed, PREDICT_VIDEOS, 32)
    model = init_parameters("convlstm", rng_seed=seed, hidden_channels=WIDTH)
    buffers = {name: np.zeros_like(arr) for name, arr in model.named_parameters()}
    save_checkpoint(model, buffers, os.path.join(d, "model.ckpt"))


def _predict_argv(d: str, out: str) -> list[str]:
    return [
        "predict",
        "--manifest", os.path.join(d, "data", "manifest.json"),
        "--ckpt", os.path.join(d, "model.ckpt"),
        "--out", os.path.join(out, "maps"),
    ]  # fmt: skip


def _predict_check(d: str, out: str, seed: int) -> list[str]:
    ref = None
    if seed == DEFAULT_SEED:
        with np.load(_ref_path("predict-convlstm.pixels.npz")) as refs:
            ref = refs["pixels"]
    return check_predict(os.path.join(d, "data"), os.path.join(out, "maps"), ref)


# -- evaluate-24v -----------------------------------------------------------


def _evaluate_setup(d: str, seed: int) -> None:
    """Dataset plus a predictions tree that links to its own static maps,
    which is the static baseline the paper compares against."""
    data = os.path.join(d, "data")
    _generate(data, seed, EVAL_VIDEOS, 64, fixations=10)
    pred = os.path.join(d, "pred")
    os.makedirs(pred)
    for v in range(EVAL_VIDEOS):
        video_id = f"video_{v:03d}"
        os.symlink(os.path.join("..", "data", video_id, "static"), os.path.join(pred, video_id))


def _evaluate_argv(d: str, out: str) -> list[str]:
    return [
        "evaluate",
        "--manifest", os.path.join(d, "data", "manifest.json"),
        "--predictions", os.path.join(d, "pred"),
        "--out", os.path.join(out, "report.json"),
    ]  # fmt: skip


def _evaluate_check(d: str, out: str, seed: int) -> list[str]:
    ref = None
    if seed == DEFAULT_SEED:
        with open(_ref_path("evaluate-24v.report.json"), "rb") as fh:
            ref = fh.read()
    return check_evaluate(os.path.join(d, "data"), os.path.join(out, "report.json"), ref)


def _conv_calls(direction: str, frames: int) -> dict[str, int]:
    # per ConvLSTM frame: 4 gates x (input + hidden) 3x3 convs and one 1x1 head
    return {
        f"tensor.conv2d_{direction}.k3.calls": 8 * frames,
        f"tensor.conv2d_{direction}.k1.calls": frames,
    }


_TRAIN_FRAMES = CLIP * TRAIN_STEPS
_PREDICT_FRAMES = PREDICT_VIDEOS * FRAMES
_EVAL_FRAMES = EVAL_VIDEOS * FRAMES

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-convlstm",
            _TRAIN_FRAMES,
            _train_setup,
            _train_argv,
            _train_check,
            {
                **_conv_calls("forward", _TRAIN_FRAMES),
                **_conv_calls("backward", _TRAIN_FRAMES),
                "train.steps": TRAIN_STEPS,
            },
        ),
        Workload(
            "predict-convlstm",
            _PREDICT_FRAMES,
            _predict_setup,
            _predict_argv,
            _predict_check,
            {
                **_conv_calls("forward", _PREDICT_FRAMES),
                "model.convlstm_step.calls": _PREDICT_FRAMES,
                "data.write_map.calls": _PREDICT_FRAMES,
            },
        ),
        Workload(
            "evaluate-24v",
            _EVAL_FRAMES,
            _evaluate_setup,
            _evaluate_argv,
            _evaluate_check,
            {
                f"metrics.{name}.calls": _EVAL_FRAMES
                for name in ("auc_judd", "shuffled_auc", "nss", "cc", "sim")
            },
        ),
    )
}
