"""Gaze-prediction metrics and per-video / per-group aggregation.

Five scores are produced for a predicted saliency map: AUC-Judd and
shuffled AUC against discrete fixations, NSS (mean standardized saliency
at fixations), and the distribution comparisons CC (Pearson) and SIM
(histogram intersection) against a continuous ground-truth map.

Metrics that are undefined for an input (constant map for CC, zero-mass
map for SIM, no fixations) are represented as ``None`` and excluded from
averages rather than poisoning them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllFixated,
    DimensionMismatch,
    EmptyFixations,
    EmptyNegatives,
    LengthMismatch,
    OutOfBounds,
    UnknownVideo,
    ZeroMass,
)

METRIC_NAMES = ("auc_j", "s_auc", "nss", "cc", "sim")
VIDEO_COUNTS = ("frames", "skipped_no_fixations", "skipped_no_gt_mass")

# negatives per positive kept when subsampling the shuffled-AUC pool
SAUC_NEGATIVE_RATIO = 10


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Nonnegative single-channel intensity grid."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size < 1:
            raise DimensionMismatch(f"saliency map must be 2-D and nonempty, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("saliency map contains NaN or Inf")
        if np.any(arr < 0):
            raise DimensionMismatch("saliency map contains negative values")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FixationSet:
    """Discrete gaze landing points as a read-only (N, 2) int64 array of
    (row, col) pixel coordinates.

    Duplicates are allowed; repeated gaze samples at the same pixel count
    once per occurrence.
    """

    points: np.ndarray

    def __init__(self, points) -> None:
        arr = np.array(points, dtype=np.int64).reshape(len(points), 2)
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return len(self.points)

    def __bool__(self) -> bool:
        return len(self.points) > 0


@dataclass
class MetricScores:
    """One value per metric; ``None`` marks an undefined score."""

    auc_j: float | None = None
    s_auc: float | None = None
    nss: float | None = None
    cc: float | None = None
    sim: float | None = None

    def get(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


@dataclass
class VideoScores:
    """Per-video metric means plus the frame bookkeeping behind them."""

    scores: MetricScores
    frames: int = 0
    skipped_no_fixations: int = 0
    skipped_no_gt_mass: int = 0


@dataclass
class EvalReport:
    """Per-video scores grouped into labeled averages."""

    per_video: dict[str, VideoScores]
    groups: dict[str, list[str]]
    group_averages: dict[str, MetricScores] = field(default_factory=dict)


def _values_at(sal: SaliencyMap, fix: FixationSet) -> np.ndarray:
    rows, cols = fix.points.T
    if np.any(rows < 0) or np.any(rows >= sal.height) or np.any(cols < 0) or np.any(cols >= sal.width):
        raise OutOfBounds(f"fixation outside {sal.height}x{sal.width} map")
    return sal.values[rows, cols]


def nss(sal: SaliencyMap, fix: FixationSet) -> float:
    """Mean standardized saliency at fixations; 0 for a constant map.

    Standardization uses the population standard deviation (divide by N).
    """
    if not fix:
        raise EmptyFixations("NSS needs at least one fixation")
    at_fix = _values_at(sal, fix)
    mean = sal.values.mean()
    std = sal.values.std()
    if std == 0.0:
        return 0.0
    return float((at_fix - mean).mean() / std)


def cc(sal: SaliencyMap, gt: SaliencyMap) -> float | None:
    """Pearson correlation over pixels; ``None`` when either map is constant."""
    if sal.values.shape != gt.values.shape:
        raise DimensionMismatch(f"map dims {sal.values.shape} != {gt.values.shape}")
    a = sal.values.ravel() - sal.values.mean()
    b = gt.values.ravel() - gt.values.mean()
    var_a = float(a @ a)
    var_b = float(b @ b)
    if var_a == 0.0 or var_b == 0.0:
        return None
    return float((a @ b) / np.sqrt(var_a * var_b))


def sim(sal: SaliencyMap, gt: SaliencyMap) -> float:
    """Histogram intersection after normalizing both maps to unit mass."""
    if sal.values.shape != gt.values.shape:
        raise DimensionMismatch(f"map dims {sal.values.shape} != {gt.values.shape}")
    mass_a = sal.values.sum()
    mass_b = gt.values.sum()
    if mass_a == 0.0 or mass_b == 0.0:
        raise ZeroMass("SIM is undefined for a zero-mass map")
    return float(np.minimum(sal.values / mass_a, gt.values / mass_b).sum())


def _roc_area(positives: np.ndarray, negatives: np.ndarray) -> float:
    """Trapezoidal ROC area, thresholds swept over every distinct value.

    Thresholds are the distinct values of both samples in descending
    order; at each threshold t, TPR and FPR count values >= t. The curve
    is anchored at (0,0) and (1,1). On tie-free data this equals the
    Mann-Whitney statistic U / (n_pos * n_neg); ties receive half credit.
    """
    pos_sorted = np.sort(positives)
    neg_sorted = np.sort(negatives)
    thresholds = np.unique(np.concatenate([pos_sorted, neg_sorted]))
    n_pos = pos_sorted.size
    n_neg = neg_sorted.size
    # count >= t via sorted rank; thresholds ascending makes rates descending
    tpr = (n_pos - np.searchsorted(pos_sorted, thresholds, side="left")) / n_pos
    fpr = (n_neg - np.searchsorted(neg_sorted, thresholds, side="left")) / n_neg
    xs = np.concatenate([[0.0], fpr[::-1], [1.0]])
    ys = np.concatenate([[0.0], tpr[::-1], [1.0]])
    return float(np.trapezoid(ys, xs))


def auc_judd(sal: SaliencyMap, fix: FixationSet) -> float:
    """ROC area with fixated pixels as positives, all other pixels as negatives."""
    if not fix:
        raise EmptyFixations("AUC needs at least one fixation")
    positives = _values_at(sal, fix)
    fixated = np.zeros(sal.values.shape, dtype=bool)
    fixated[fix.points[:, 0], fix.points[:, 1]] = True
    negatives = sal.values[~fixated]
    if negatives.size == 0:
        raise AllFixated("every pixel is fixated; no negatives remain")
    return _roc_area(positives, negatives)


def shuffled_auc(
    sal: SaliencyMap, fix: FixationSet, other_fix: FixationSet, rng_seed: int
) -> float:
    """ROC area whose negatives are saliency values at other frames' fixations.

    If the negative pool exceeds ``SAUC_NEGATIVE_RATIO`` times the number
    of positives it is subsampled without replacement, deterministically
    for a fixed ``rng_seed``.
    """
    if not fix:
        raise EmptyFixations("shuffled AUC needs at least one fixation")
    if not other_fix:
        raise EmptyNegatives("shuffled AUC needs a nonempty negative pool")
    positives = _values_at(sal, fix)
    negatives = _values_at(sal, other_fix)
    cap = SAUC_NEGATIVE_RATIO * len(fix)
    if negatives.size > cap:
        rng = np.random.default_rng(rng_seed)
        keep = rng.choice(negatives.size, size=cap, replace=False)
        negatives = negatives[keep]
    return _roc_area(positives, negatives)


def _frame_scores(
    sal: SaliencyMap,
    fix: FixationSet,
    gt: SaliencyMap,
    shuffle_pool: FixationSet,
    frame_seed: int,
    metrics: tuple[str, ...],
) -> tuple[dict[str, float | None], bool, bool]:
    """Metric values for one frame plus its two skip flags."""
    values: dict[str, float | None] = {name: None for name in METRIC_NAMES}
    has_fix = bool(fix)
    has_mass = gt.values.sum() > 0.0
    if has_fix:
        if "nss" in metrics:
            values["nss"] = nss(sal, fix)
        if "auc_j" in metrics:
            values["auc_j"] = auc_judd(sal, fix)
        if "s_auc" in metrics and shuffle_pool:
            values["s_auc"] = shuffled_auc(sal, fix, shuffle_pool, frame_seed)
    if has_mass:
        if "cc" in metrics:
            values["cc"] = cc(sal, gt)
        if "sim" in metrics and sal.values.sum() > 0.0:
            values["sim"] = sim(sal, gt)
    return values, not has_fix, not has_mass


def evaluate_video(
    maps: list[SaliencyMap],
    fixs: list[FixationSet],
    gts: list[SaliencyMap],
    shuffle_pool: FixationSet,
    seed: int,
    metrics: tuple[str, ...] = METRIC_NAMES,
) -> VideoScores:
    """Average per-frame metrics over one video.

    Fixation-based metrics (AUC-J, sAUC, NSS) use only frames with at
    least one fixation; CC and SIM use only frames whose ground truth has
    positive mass. A frame where an individual metric is undefined (for
    example CC against a constant map) is excluded from that metric's
    mean. The sAUC subsampling seed for frame i is ``seed + i``, so a
    frame's score does not depend on which other frames are evaluated.
    """
    if not (len(maps) == len(fixs) == len(gts)):
        raise LengthMismatch(
            f"sequence lengths differ: {len(maps)} maps, {len(fixs)} fixations, {len(gts)} gts"
        )
    if len(maps) == 0:
        raise LengthMismatch("at least one frame is required")

    sums = {name: 0.0 for name in METRIC_NAMES}
    counts = {name: 0 for name in METRIC_NAMES}
    skipped_fix = 0
    skipped_mass = 0
    for i, (sal, fix, gt) in enumerate(zip(maps, fixs, gts)):
        values, no_fix, no_mass = _frame_scores(sal, fix, gt, shuffle_pool, seed + i, metrics)
        skipped_fix += no_fix
        skipped_mass += no_mass
        for name in metrics:
            _accumulate(sums, counts, name, values[name])

    scores = MetricScores()
    for name in metrics:
        if counts[name] > 0:
            setattr(scores, name, sums[name] / counts[name])
    return VideoScores(
        scores=scores,
        frames=len(maps),
        skipped_no_fixations=skipped_fix,
        skipped_no_gt_mass=skipped_mass,
    )


def _accumulate(sums: dict, counts: dict, name: str, value: float | None) -> None:
    if value is None:
        return
    sums[name] += value
    counts[name] += 1


def aggregate_report(
    per_video: dict[str, VideoScores], grouping: dict[str, list[str]]
) -> EvalReport:
    """Attach unweighted per-group metric means to the per-video scores."""
    for label, members in grouping.items():
        for vid in members:
            if vid not in per_video:
                raise UnknownVideo(f"group {label!r} references unknown video {vid!r}")
    averages: dict[str, MetricScores] = {}
    for label, members in grouping.items():
        avg = MetricScores()
        for name in METRIC_NAMES:
            values = [
                per_video[vid].scores.get(name)
                for vid in members
                if per_video[vid].scores.get(name) is not None
            ]
            if values:
                setattr(avg, name, sum(values) / len(values))
        averages[label] = avg
    return EvalReport(
        per_video=dict(per_video),
        groups={label: list(members) for label, members in grouping.items()},
        group_averages=averages,
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready representation of an evaluation report."""
    return {
        "per_video": {
            vid: {
                **{name: vs.scores.get(name) for name in METRIC_NAMES},
                "frames": vs.frames,
                "skipped_no_fixations": vs.skipped_no_fixations,
                "skipped_no_gt_mass": vs.skipped_no_gt_mass,
            }
            for vid, vs in report.per_video.items()
        },
        "groups": report.groups,
        "group_averages": {
            label: {name: avg.get(name) for name in METRIC_NAMES}
            for label, avg in report.group_averages.items()
        },
    }


def report_from_dict(payload: dict) -> EvalReport:
    """Inverse of :func:`report_to_dict`.

    Raises ValueError, naming the video and the key, unless every metric is
    null or a finite number and every count a non-negative integer.
    """
    per_video = {}
    for vid, row in payload["per_video"].items():
        for key in METRIC_NAMES:
            value = row.get(key)
            if value is not None and not (
                type(value) in (int, float) and abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"video {vid!r}: {key} must be null or finite, got {value!r}")
        for key in VIDEO_COUNTS:
            value = row.get(key, 0)
            if type(value) is not int or value < 0:
                raise ValueError(f"video {vid!r}: {key} must be an integer >= 0, got {value!r}")
        per_video[vid] = VideoScores(
            MetricScores(**{name: row.get(name) for name in METRIC_NAMES}),
            **{key: row.get(key, 0) for key in VIDEO_COUNTS},
        )
    groups = {label: list(members) for label, members in payload.get("groups", {}).items()}
    return aggregate_report(per_video, groups)
