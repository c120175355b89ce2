"""Gaze-prediction metrics and per-video / per-group aggregation.

Five scores are produced for a predicted saliency map: AUC-Judd and
shuffled AUC against discrete fixations, NSS (mean standardized saliency
at fixations), and the distribution comparisons CC (Pearson) and SIM
(histogram intersection) against a continuous ground-truth map.

A metric returns ``None`` where it is undefined, and never raises for it:
NSS, AUC-Judd and shuffled AUC with no fixation, shuffled AUC with an
empty pool, AUC-Judd with every pixel fixated, CC against a constant map
and SIM against a zero-mass map. ``evaluate_video`` leaves a ``None`` out
of that metric's mean rather than poisoning it. ``_mean`` is the one averaging rule:
it makes each video's row from its frames' scores and each group's
average from its members' rows, adding left to right on every Python
version and giving ``None`` when nothing is defined.

A saliency map is a 2-D float64 array with values in [0, 1], and a
fixation set an (N, 2) int64 array of (row, col) pixel coordinates, where
a repeated point counts once per occurrence. Both are checked where they
are read and written (``tsal.data``); the metrics check only that each
fixation lies inside the map, and ``evaluate_video`` a shuffled-AUC pool
once per map size; ``_negatives`` draws each frame's sample of the pool
once, with seed ``shuffle_seed + i`` for frame i.

A score report is the JSON object ``tsal evaluate --out`` writes:
``per_video`` maps each video id to a row holding the five
``METRIC_NAMES`` and the three ``VIDEO_COUNTS``; ``groups`` maps each
group label to its member ids; ``group_averages`` maps each label to the
five metric means over its members.
"""

from __future__ import annotations

import functools
import operator
import sys
from collections.abc import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySequence,
    OutOfBounds,
    UnknownVideo,
    brief,
    misfit,
)

METRIC_NAMES = ("auc_j", "s_auc", "nss", "cc", "sim")
VIDEO_COUNTS = ("frames", "skipped_no_fixations", "skipped_no_gt_mass")

# negatives per positive kept when subsampling the shuffled-AUC pool
SAUC_NEGATIVE_RATIO = 10
# OpenBLAS (0.3.31) computes a dot product on one thread up to this length
_DOT_SLICE = 10_000


def _check_inside(sal: np.ndarray, fix: np.ndarray) -> None:
    # one min over both columns, one max per column; every caller has
    # returned None for an empty ``fix``, whose min would raise
    rows, cols = fix.T
    h, w = sal.shape
    if fix.min() < 0 or rows.max() >= h or cols.max() >= w:
        raise OutOfBounds(f"fixation outside {h}x{w} map")


def _values_at(sal: np.ndarray, fix: np.ndarray) -> np.ndarray:
    _check_inside(sal, fix)
    return sal[fix[:, 0], fix[:, 1]]


def nss(sal: np.ndarray, fix: np.ndarray) -> float | None:
    """Mean standardized saliency at fixations; 0 for a constant map, ``None`` with no fixation.

    Standardization uses the population standard deviation (divide by N).
    """
    if len(fix) == 0:
        return None
    at_fix = _values_at(sal, fix)
    mean = sal.sum() / sal.size
    dev = sal - mean
    std = np.sqrt(np.square(dev, out=dev).sum() / sal.size)  # np.std's steps, unwrapped
    if std == 0.0:
        return 0.0
    return float((at_fix - mean).sum() / at_fix.size / std)


def cc(sal: np.ndarray, gt: np.ndarray) -> float | None:
    """Pearson correlation over pixels; ``None`` when either map is constant."""
    if sal.shape != gt.shape:
        raise DimensionMismatch(f"map dims {sal.shape} != {gt.shape}")
    a = sal.ravel() - sal.sum() / sal.size
    b = gt.ravel() - gt.sum() / gt.size
    var_a = float(_dot(a, a))
    var_b = float(_dot(b, b))
    if var_a == 0.0 or var_b == 0.0:
        return None
    return float(_dot(a, b) / np.sqrt(var_a * var_b))


def _dot(a: np.ndarray, b: np.ndarray) -> np.floating:
    """The dot product of two 1-D arrays, the same at any BLAS thread count.

    OpenBLAS splits a dot product over threads above ``_DOT_SLICE``
    elements, which moves its low bits with the thread count. The products
    of consecutive slices of at most ``_DOT_SLICE`` elements are added left
    to right, starting from the first product rather than from 0.0, so an
    array of ``_DOT_SLICE`` elements or fewer gets exactly the one BLAS
    call's result, a -0.0 included.
    """
    total = a[:_DOT_SLICE] @ b[:_DOT_SLICE]
    for start in range(_DOT_SLICE, a.size, _DOT_SLICE):
        total = total + a[start : start + _DOT_SLICE] @ b[start : start + _DOT_SLICE]
    return total


def sim(sal: np.ndarray, gt: np.ndarray) -> float | None:
    """Histogram intersection after normalizing both maps to unit mass;
    ``None`` when either map has zero mass."""
    if sal.shape != gt.shape:
        raise DimensionMismatch(f"map dims {sal.shape} != {gt.shape}")
    mass_a = sal.sum()
    mass_b = gt.sum()
    if mass_a == 0.0 or mass_b == 0.0:
        return None
    return float(np.minimum(sal / mass_a, gt / mass_b).sum())


def _ranked_roc_area(
    ranked: np.ndarray, positives: np.ndarray, not_negatives: np.ndarray
) -> float:
    """Trapezoidal ROC area, thresholds swept over every distinct value.

    ``ranked`` holds, in ascending order, the negatives and the values of
    ``not_negatives``, among which is every positive's value.
    ``positives`` and ``not_negatives`` are sorted. Thresholds are the
    distinct values of ``ranked``, so of both samples; at each threshold
    t, TPR and FPR count values >= t, the negatives' count being
    ``ranked``'s less ``not_negatives``'. The curve is anchored at (0,0)
    and (1,1). On tie-free data this equals the Mann-Whitney statistic
    U / (n_pos * n_neg); ties receive half credit.
    """
    first = np.empty(ranked.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    # count >= t via sorted rank; a threshold's first copy in ``ranked`` is its rank
    ranks = np.flatnonzero(first)
    thresholds = ranked[ranks]
    n_pos = positives.size
    n_neg = ranked.size - not_negatives.size
    pos_at_or_above = n_pos - np.searchsorted(positives, thresholds)
    neg_at_or_above = (ranked.size - ranks) - (
        not_negatives.size - np.searchsorted(not_negatives, thresholds)
    )
    # thresholds ascending makes rates descending; the curve runs from (0,0) to (1,1)
    xs, ys = curve = np.empty((2, thresholds.size + 2))
    curve[:, 0], curve[:, -1] = 0.0, 1.0
    xs[-2:0:-1], ys[-2:0:-1] = neg_at_or_above / n_neg, pos_at_or_above / n_pos
    # np.trapezoid(ys, xs), as numpy evaluates it for a 1-D xs
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0).sum())


def auc_judd(sal: np.ndarray, fix: np.ndarray) -> float | None:
    """ROC area with fixated pixels as positives, all other pixels as negatives;
    ``None`` with no fixation, or when every pixel is fixated, so no negative remains."""
    if len(fix) == 0:
        return None
    positives = np.sort(_values_at(sal, fix))
    fixated = np.zeros(sal.shape, dtype=bool)
    fixated[fix[:, 0], fix[:, 1]] = True
    taken = np.sort(sal[fixated])  # each fixated pixel once, however often fixated
    if taken.size == sal.size:
        return None
    return _ranked_roc_area(np.sort(sal, axis=None), positives, taken)


def shuffled_auc(
    sal: np.ndarray, fix: np.ndarray, other_fix: np.ndarray, rng_seed: int
) -> float | None:
    """ROC area whose negatives are saliency values at other frames' fixations;
    ``None`` with no fixation or an empty pool.

    If the negative pool exceeds ``SAUC_NEGATIVE_RATIO`` times the number
    of positives it is subsampled without replacement, deterministically
    for a fixed ``rng_seed``.
    """
    if len(fix) == 0 or len(other_fix) == 0:
        return None
    positives = _values_at(sal, fix)
    _check_inside(sal, other_fix)  # the whole pool, though only a sample is read
    other_fix = _negatives(other_fix, len(fix), rng_seed)
    ranked = np.sort(np.concatenate([positives, sal[other_fix[:, 0], other_fix[:, 1]]]))
    positives = np.sort(positives)
    return _ranked_roc_area(ranked, positives, positives)


def _negatives(pool: np.ndarray, n_fix: int, rng_seed: int) -> np.ndarray:
    """A frame's shuffled-AUC negatives: ``pool``, or once it holds more than
    ``SAUC_NEGATIVE_RATIO * n_fix`` points, that many drawn without replacement."""
    cap = SAUC_NEGATIVE_RATIO * n_fix
    if len(pool) > cap:
        return pool[np.random.default_rng(rng_seed).choice(len(pool), size=cap, replace=False)]
    return pool


def _mean(values: list) -> float | None:
    """The mean of ``values`` added left to right; ``None`` when there are none."""
    # not sum(), which compensates float rounding from Python 3.12 on
    return functools.reduce(operator.add, values, 0) / len(values) if values else None


def evaluate_video(
    frames: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    shuffle_pool: np.ndarray,
    seed: int,
) -> dict:
    """One video's ``per_video`` row: the five metrics averaged over frames, plus counts.

    ``frames`` yields each frame's ``(map, fixations, gt)`` in order; it may
    be any iterable, taken one frame at a time, so a caller can read each
    frame's files as it is scored. No frame at all raises EmptySequence.

    Every frame is scored by all five metrics; a metric's ``None`` on a
    frame (see the module docstring) is left out of its mean, and a metric
    defined on no frame is ``None``. The counts give the frames without a
    fixation and those whose ground truth has no positive mass.
    The sAUC subsampling seed for frame i is ``seed + i``, so a frame's
    score does not depend on which other frames are evaluated.
    """
    scores: dict[str, list[float]] = {name: [] for name in METRIC_NAMES}
    skipped_fix = skipped_mass = 0
    pool_checked = set()  # the map shapes the pool is known to lie inside
    i = -1
    for i, (sal, fix, gt) in enumerate(frames):
        negatives = shuffle_pool
        if len(fix) > 0 and len(shuffle_pool) > 0:
            if sal.shape not in pool_checked:
                _check_inside(sal, shuffle_pool)
                pool_checked.add(sal.shape)
            negatives = _negatives(shuffle_pool, len(fix), seed + i)
        values = (
            auc_judd(sal, fix),
            shuffled_auc(sal, fix, negatives, seed + i),
            nss(sal, fix),
            cc(sal, gt),
            sim(sal, gt),
        )
        for name, value in zip(METRIC_NAMES, values):
            if value is not None:
                scores[name].append(value)
        skipped_fix += len(fix) == 0
        skipped_mass += not gt.sum() > 0.0

    if i < 0:
        raise EmptySequence("evaluate_video needs at least one frame")
    row = {name: _mean(scores[name]) for name in METRIC_NAMES}
    row.update(frames=i + 1, skipped_no_fixations=skipped_fix, skipped_no_gt_mass=skipped_mass)
    return row


def aggregate_report(per_video: dict[str, dict], grouping: dict[str, list[str]]) -> dict:
    """The score report: per-video rows, the grouping, and each group's means."""
    averages = {}
    for label, members in grouping.items():
        for vid in members:
            if vid not in per_video:
                raise UnknownVideo(f"group {label!r} references unknown video {vid!r}")
        rows = [per_video[vid] for vid in members]
        averages[label] = {
            name: _mean([row[name] for row in rows if row[name] is not None])
            for name in METRIC_NAMES
        }
    return {
        "per_video": dict(per_video),
        "groups": {label: list(members) for label, members in grouping.items()},
        "group_averages": averages,
    }


def checked_report(payload) -> dict:
    """A loaded score report, checked, with its group averages recomputed.

    Raises ValueError, naming the member at fault, unless the payload is an
    object whose ``per_video`` is an object of row objects, every metric is
    null or a finite number and every count a non-negative integer. Each
    row comes back with exactly the metric and count keys: others are
    dropped, a missing metric is ``None`` and a missing count 0.
    """
    if not isinstance(payload, dict):
        raise ValueError("the top level must be a JSON object")
    if not isinstance(payload.get("per_video"), dict):
        raise ValueError("per_video must be an object")
    per_video = {}
    for vid, loaded in payload["per_video"].items():
        if not isinstance(loaded, dict):
            raise ValueError(f"video {vid!r} must be an object")
        row = {key: loaded.get(key) for key in METRIC_NAMES}
        row.update({key: loaded.get(key, 0) for key in VIDEO_COUNTS})
        for key in METRIC_NAMES:
            if (value := row[key]) is not None and not (
                type(value) in (int, float) and abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"video {vid!r}: {key} must be null or finite, got {brief(value)}")
        for key in VIDEO_COUNTS:
            if type(value := row[key]) is not int or value < 0:
                raise ValueError(
                    f"video {vid!r}: {key} must be an integer >= 0, got {brief(value)}"
                )
        per_video[vid] = row
    return aggregate_report(per_video, groups_from_dict(payload.get("groups", {})))


def groups_from_dict(payload: dict) -> dict[str, list[str]]:
    """Group label -> member video ids, as a score or grouping file holds them.

    Raises ValueError, naming the group, unless the payload is an object
    whose every member list is a list of strings, each video once.
    """
    if not isinstance(payload, dict):
        raise ValueError("groups must be an object")
    for label, members in payload.items():
        if fault := misfit(members, str):
            raise ValueError(f"group {label!r} must list video ids as strings, {fault}")
        if len(set(members)) < len(members):
            twice = [vid for vid in members if members.count(vid) > 1]
            raise ValueError(f"group {label!r} lists video {twice[0]!r} more than once")
    return payload
