"""Output checks for the three benchmark stages.

Each check returns a list of problems; an empty list means the output is
correct. The structural checks hold at any seed. The reference checks
compare against outputs recorded at the default workload seed (see
``refs/``): train window losses and a fingerprint of every trained
parameter and momentum buffer within 1e-9 relative, predicted pixels
within one gray level, and the evaluate report byte-identical.

PGMs and fixation files are parsed here rather than through tsal, so a
fault in tsal's readers cannot hide a fault in its writers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

LOSS_RTOL = 1e-9
PIXEL_ATOL = 1
# the checkpoint stores float32, so drift in the 13th digit can still flip
# the last stored bit of an element
FLOAT32_EPS = float(np.finfo(np.float32).eps)
FINGERPRINT_SEED = 20240917

_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")

# score ranges; NSS is unbounded but must be finite
SCORE_RANGES = {
    "auc_j": (0.0, 1.0),
    "s_auc": (0.0, 1.0),
    "cc": (-1.0, 1.0),
    "sim": (0.0, 1.0),
    "nss": (-math.inf, math.inf),
}


def read_pgm(path: str) -> np.ndarray:
    """Binary P5 graymap with maxval 255 as a uint8 (height, width) array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    match = _P5_HEADER.match(blob)
    if match is None:
        raise ValueError(f"{path}: not a P5 graymap with maxval 255")
    width, height = int(match[1]), int(match[2])
    raster = blob[match.end() :]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, not {width * height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _manifest(data_dir: str) -> dict:
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(arr: np.ndarray) -> dict[str, float]:
    """A tensor's L2 norm, largest magnitude, and its projections onto two
    fixed unit vectors: the uniform one and a seeded Gaussian one."""
    flat = np.asarray(arr, dtype=np.float64).ravel()
    uniform = np.full(flat.size, 1.0 / math.sqrt(flat.size))
    gaussian = np.random.default_rng(FINGERPRINT_SEED).standard_normal(flat.size)
    gaussian /= np.linalg.norm(gaussian)
    return {
        "norm": float(np.linalg.norm(flat)),
        "max_abs": float(np.abs(flat).max()),
        "uniform": float(flat @ uniform),
        "gaussian": float(flat @ gaussian),
    }


def checkpoint_fingerprints(model, buffers: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Fingerprints of every parameter and momentum buffer of a checkpoint."""
    out = {}
    for name, arr in model.named_parameters():
        out[f"param/{name}"] = fingerprint(arr)
        out[f"momentum/{name}"] = fingerprint(buffers[name])
    return out


def _fingerprint_problems(got: dict, ref: dict) -> list[str]:
    """Tensors whose fingerprint differs from the reference by more than
    LOSS_RTOL of its norm plus one float32 step of its largest element."""
    if sorted(got) != sorted(ref):
        return [f"checkpoint holds {sorted(got)}, reference {sorted(ref)}"]
    problems = []
    for name, want in ref.items():
        tol = LOSS_RTOL * want["norm"] + FLOAT32_EPS * want["max_abs"]
        worst = max(abs(got[name][key] - value) for key, value in want.items())
        if not worst <= tol:
            problems.append(f"{name} differs from reference by {worst:.3g} (tolerance {tol:.3g})")
    return problems


def check_train(
    ckpt: str,
    variant: str,
    width: int,
    steps: int,
    ref_losses: list[float] | None,
    ref_checkpoint: dict | None,
) -> list[str]:
    from tsal.errors import SaliencyError
    from tsal.train import load_checkpoint

    problems = []
    got_checkpoint = None
    try:
        model, buffers = load_checkpoint(ckpt, expect_variant=variant)
        if model.hidden_channels != width:
            problems.append(f"checkpoint width {model.hidden_channels}, asked for {width}")
        else:
            got_checkpoint = checkpoint_fingerprints(model, buffers)
    except (OSError, SaliencyError) as exc:
        problems.append(f"checkpoint does not load: {exc}")

    loss_csv = ckpt + ".loss.csv"
    try:
        with open(loss_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return problems + [f"no loss CSV: {exc}"]
    if not rows or rows[0] != ["step", "loss"]:
        return problems + [f"loss CSV header is {rows[:1]}"]
    losses = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            step, loss = int(row[0]), float(row[1])
        except (IndexError, ValueError):
            problems.append(f"loss CSV line {line} is {row}")
            continue
        if step != line - 1 or not math.isfinite(loss) or len(row) != 2:
            problems.append(f"loss CSV line {line} is {row}")
        losses.append(loss)
    if len(rows) - 1 != steps:
        problems.append(f"loss CSV has {len(rows) - 1} rows for {steps} steps")
    if problems:
        return problems
    if ref_losses is not None:
        if len(losses) != len(ref_losses) or not np.allclose(
            losses, ref_losses, rtol=LOSS_RTOL, atol=0.0
        ):
            problems.append(f"losses {losses} differ from reference {ref_losses}")
    if ref_checkpoint is not None:
        problems += _fingerprint_problems(got_checkpoint, ref_checkpoint)
    return problems


def predicted_maps(data_dir: str, out_dir: str) -> tuple[np.ndarray, list[str]]:
    """All predicted maps as (videos, frames, height, width) uint8, plus problems."""
    manifest = _manifest(data_dir)
    height, width = manifest["resolution"]
    problems = []
    videos = []
    for rec in manifest["videos"]:
        video_dir = os.path.join(out_dir, rec["video_id"])
        names = [f"{frame:06d}.pgm" for frame in rec["frames"]]
        found = sorted(os.listdir(video_dir)) if os.path.isdir(video_dir) else []
        if found != names:
            problems.append(f"{rec['video_id']}: {len(found)} maps for {len(names)} frames")
            continue
        frames = []
        for name in names:
            try:
                pixels = read_pgm(os.path.join(video_dir, name))
            except ValueError as exc:
                problems.append(str(exc))
                continue
            if pixels.shape != (height, width):
                problems.append(f"{rec['video_id']}/{name}: {pixels.shape} not {(height, width)}")
                continue
            frames.append(pixels)
        videos.append(frames)
    if problems:
        return np.zeros((0,), dtype=np.uint8), problems
    return np.array(videos, dtype=np.uint8), problems


def check_predict(data_dir: str, out_dir: str, ref_pixels: np.ndarray | None) -> list[str]:
    pixels, problems = predicted_maps(data_dir, out_dir)
    if ref_pixels is not None and not problems:
        if pixels.shape != ref_pixels.shape:
            problems.append(f"maps {pixels.shape} vs reference {ref_pixels.shape}")
        else:
            worst = int(np.abs(pixels.astype(np.int16) - ref_pixels.astype(np.int16)).max())
            if worst > PIXEL_ATOL:
                problems.append(f"pixels differ from reference by up to {worst} gray levels")
    return problems


def expected_skips(data_dir: str) -> dict[str, tuple[int, int]]:
    """Per video: frames without fixations and frames whose ground truth is all zero."""
    manifest = _manifest(data_dir)
    out = {}
    for rec in manifest["videos"]:
        fixated = set()
        with open(os.path.join(data_dir, rec["fixation_file"]), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    fixated.add(int(line.split(",")[0]))
        no_fix = sum(1 for frame in rec["frames"] if frame not in fixated)
        no_mass = sum(
            1
            for frame in rec["frames"]
            if not read_pgm(os.path.join(data_dir, rec["gt_map_dir"], f"{frame:06d}.pgm")).any()
        )
        out[rec["video_id"]] = (no_fix, no_mass)
    return out


def check_evaluate(data_dir: str, report_path: str, ref_bytes: bytes | None) -> list[str]:
    try:
        with open(report_path, "rb") as fh:
            blob = fh.read()
        report = json.loads(blob)
        per_video = report["per_video"]
        averages = report["group_averages"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc}"]
    problems = []
    manifest = _manifest(data_dir)
    skips = expected_skips(data_dir)
    if sorted(per_video) != sorted(skips):
        problems.append(f"report covers {sorted(per_video)}, dataset has {sorted(skips)}")
    for label, row in [*per_video.items(), *averages.items()]:
        for name, (lo, hi) in SCORE_RANGES.items():
            value = row.get(name)
            if not isinstance(value, (int, float)) or not (
                math.isfinite(value) and lo <= value <= hi
            ):
                problems.append(f"{label}: {name} = {value!r} outside [{lo}, {hi}]")
    frames = {rec["video_id"]: len(rec["frames"]) for rec in manifest["videos"]}
    for vid, (no_fix, no_mass) in skips.items():
        row = per_video.get(vid, {})
        got = (row.get("frames"), row.get("skipped_no_fixations"), row.get("skipped_no_gt_mass"))
        if got != (frames[vid], no_fix, no_mass):
            problems.append(f"{vid}: frames and skips {got}, dataset has {(frames[vid], no_fix, no_mass)}")
    if ref_bytes is not None and not problems and blob != ref_bytes:
        problems.append("report JSON differs from the reference bytes")
    return problems
