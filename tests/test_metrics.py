"""Tests for the five gaze metrics and the aggregation machinery."""

import json
import time

import numpy as np
import pytest

from tsal import metrics as M
from tsal.errors import (
    DimensionMismatch,
    EmptySequence,
    OutOfBounds,
    UnknownVideo,
)


def mann_whitney_auc(pos, neg) -> float:
    """Brute-force pair counting: P(pos > neg) + 0.5 * P(pos == neg)."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def two_pass_pearson(a, b) -> float:
    """Straight-formula correlation oracle: explicit mean, covariance, variances."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / np.sqrt(va * vb)


def two_sort_roc_area(positives, negatives) -> float:
    """The ROC area as first written: both samples sorted apart, thresholds
    from np.unique, area from np.trapezoid."""
    pos_sorted = np.sort(positives)
    neg_sorted = np.sort(negatives)
    thresholds = np.unique(np.concatenate([pos_sorted, neg_sorted]))
    n_pos = pos_sorted.size
    n_neg = neg_sorted.size
    tpr = (n_pos - np.searchsorted(pos_sorted, thresholds, side="left")) / n_pos
    fpr = (n_neg - np.searchsorted(neg_sorted, thresholds, side="left")) / n_neg
    xs = np.concatenate([[0.0], fpr[::-1], [1.0]])
    ys = np.concatenate([[0.0], tpr[::-1], [1.0]])
    return float(np.trapezoid(ys, xs))


def two_sort_auc_judd(sal, fix) -> float | None:
    """AUC-Judd as first written: the negatives copied out by a mask."""
    positives = sal[fix[:, 0], fix[:, 1]]
    fixated = np.zeros(sal.shape, dtype=bool)
    fixated[fix[:, 0], fix[:, 1]] = True
    negatives = sal[~fixated]
    if negatives.size == 0:
        return None
    return two_sort_roc_area(positives, negatives)


def two_sort_shuffled_auc(sal, fix, other_fix, rng_seed) -> float:
    cap = M.SAUC_NEGATIVE_RATIO * len(fix)
    if len(other_fix) > cap:
        keep = np.random.default_rng(rng_seed).choice(len(other_fix), size=cap, replace=False)
        other_fix = other_fix[keep]
    return two_sort_roc_area(sal[fix[:, 0], fix[:, 1]], sal[other_fix[:, 0], other_fix[:, 1]])


NO_FIXATIONS = np.empty((0, 2), dtype=np.int64)


def distinct_map(rng, h, w) -> np.ndarray:
    """Map whose pixel values are all distinct (tie-free by construction)."""
    values = rng.permutation(h * w).astype(np.float64) / (h * w)
    return values.reshape(h, w)


def sample_fixations(rng, h, w, n) -> np.ndarray:
    cells = rng.choice(h * w, size=n, replace=False)
    return np.array([(int(c // w), int(c % w)) for c in cells])


MAP_KINDS = ("8-bit", "4-level", "float32", "one-hot", "signed-zeros")


def tied_map(rng, kind, h, w) -> np.ndarray:
    """A map of one of ``MAP_KINDS``: most have many ties between pixels."""
    if kind == "8-bit":  # as read from a PGM file
        return np.round(rng.uniform(0, 1, size=(h, w)) * 255) / 255
    if kind == "4-level":
        return rng.integers(0, 4, size=(h, w)) / 3
    if kind == "float32":
        return rng.uniform(0, 1, size=(h, w)).astype(np.float32)
    if kind == "one-hot":
        sal = np.zeros((h, w))
        sal[rng.integers(h), rng.integers(w)] = 1.0
        return sal
    # -0.0 and 0.0 are one threshold
    zeros = np.where(rng.uniform(size=(h, w)) < 0.5, -0.0, 0.0)
    return np.where(rng.uniform(size=(h, w)) < 0.2, 1.0, zeros)


def fixations_with_repeats(rng, h, w, n) -> np.ndarray:
    """``n`` fixations drawn with replacement, then a few of them again."""
    fix = np.stack([rng.integers(0, h, size=n), rng.integers(0, w, size=n)], axis=1)
    return np.concatenate([fix, fix[rng.integers(0, n, size=int(rng.integers(1, 4)))]])


class TestNss:
    def test_constant_map_is_zero(self):
        sal = np.full((4, 4), 0.7)
        assert M.nss(sal, np.array([(0, 0), (2, 3)])) == 0.0

    def test_hand_case_sqrt3(self):
        sal = np.array([[1.0, 0.0], [0.0, 0.0]])
        score = M.nss(sal, np.array([(0, 0)]))
        assert score == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_returns_standardized_value_at_fixation(self):
        rng = np.random.default_rng(0)
        sal = rng.uniform(0, 1, size=(5, 7))
        v = (sal[2, 3] - sal.mean()) / sal.std()
        assert M.nss(sal, np.array([(2, 3)])) == pytest.approx(v, abs=1e-12)

    def test_empty_fixations(self):
        assert M.nss(np.ones((2, 2)), NO_FIXATIONS) is None

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            M.nss(np.ones((2, 2)), np.array([(2, 0)]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sal = rng.uniform(0, 1, size=(6, 6))
            fix = sample_fixations(rng, 6, 6, int(rng.integers(1, 5)))
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(0.0, 3.0))
            transformed = a * sal + b
            assert M.nss(transformed, fix) == pytest.approx(M.nss(sal, fix), abs=1e-9)


class TestCc:
    def test_positive_affine_relation(self):
        rng = np.random.default_rng(2)
        sal = rng.uniform(0, 1, size=(4, 4))
        gt = 2.0 * sal + 1.0
        assert M.cc(sal, gt) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        sal = np.array([[1.0, 0.0], [0.0, 1.0]])
        gt = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert M.cc(sal, gt) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0, 1, size=(8, 8))
            b = rng.uniform(0, 1, size=(8, 8))
            got = M.cc(a, b)
            assert got == pytest.approx(two_pass_pearson(a, b), abs=1e-12)

    def test_constant_input_undefined(self):
        sal = np.full((3, 3), 0.5)
        gt = np.arange(9, dtype=float).reshape(3, 3)
        assert M.cc(sal, gt) is None
        assert M.cc(gt, sal) is None

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            M.cc(np.ones((2, 2)), np.ones((3, 3)))

    def test_dot_adds_slices_of_ten_thousand_left_to_right(self):
        rng = np.random.default_rng(18)
        a, b = rng.standard_normal(25_000), rng.standard_normal(25_000)
        assert M._dot(a[:10_000], b[:10_000]) == a[:10_000] @ b[:10_000]
        parts = [a[i : i + 10_000] @ b[i : i + 10_000] for i in (0, 10_000, 20_000)]
        assert M._dot(a, b) == (parts[0] + parts[1]) + parts[2]

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.uniform(0, 1, size=(5, 5))
            b = rng.uniform(0, 1, size=(5, 5))
            base = M.cc(a, b)
            assert M.cc(b, a) == pytest.approx(base, abs=1e-12)
            s = float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(0.0, 2.0))
            assert M.cc(s * a + t, b) == pytest.approx(base, abs=1e-9)


class TestSim:
    def test_identical_maps(self):
        rng = np.random.default_rng(5)
        sal = rng.uniform(0.1, 1, size=(4, 4))
        assert M.sim(sal, sal) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert M.sim(a, b) == 0.0

    def test_half_overlap_hand_case(self):
        # mass on 2 of 4 pixels vs uniform: sum of min(0.5, 0.25) twice
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.full((2, 2), 1.0)
        assert M.sim(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass_is_undefined(self):
        assert M.sim(np.zeros((2, 2)), np.ones((2, 2))) is None
        assert M.sim(np.ones((2, 2)), np.zeros((2, 2))) is None

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.uniform(0, 1, size=(5, 5))
            b = rng.uniform(0, 1, size=(5, 5))
            base = M.sim(a, b)
            assert M.sim(b, a) == pytest.approx(base, abs=1e-12)
            s = float(rng.uniform(0.1, 7.0))
            assert M.sim(s * a, b) == pytest.approx(base, abs=1e-9)


class TestAucJudd:
    def test_fixation_at_unique_maximum(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 0.9, size=(5, 5))
        values[3, 2] = 1.0
        score = M.auc_judd(values, np.array([(3, 2)]))
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_constant_map_is_half(self):
        sal = np.full((4, 4), 0.3)
        assert M.auc_judd(sal, np.array([(1, 1), (2, 2)])) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            sal = distinct_map(rng, h, w)
            fix = sample_fixations(rng, h, w, int(rng.integers(1, min(10, h * w - 1) + 1)))
            fixated = {tuple(p) for p in fix.tolist()}
            pos = [sal[r, c] for r, c in fix]
            neg = [
                sal[r, c]
                for r in range(h)
                for c in range(w)
                if (r, c) not in fixated
            ]
            assert M.auc_judd(sal, fix) == pytest.approx(mann_whitney_auc(pos, neg), abs=1e-9)

    def test_all_fixated_is_undefined(self):
        sal = np.ones((1, 2))
        assert M.auc_judd(sal, np.array([(0, 0), (0, 1)])) is None

    def test_no_fixation_is_undefined(self):
        assert M.auc_judd(np.ones((2, 2)), NO_FIXATIONS) is None

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sal = distinct_map(rng, 6, 6)
            fix = sample_fixations(rng, 6, 6, 4)
            base = M.auc_judd(sal, fix)
            warped = np.exp(3.0 * sal) - 0.5
            assert M.auc_judd(warped, fix) == base

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_equals_two_sort_oracle(self, kind):
        rng = np.random.default_rng(MAP_KINDS.index(kind))
        for _ in range(100):
            h, w = int(rng.integers(1, 40)), int(rng.integers(2, 40))
            sal = tied_map(rng, kind, h, w)
            # fewer draws than pixels, so some pixel is a negative
            fix = fixations_with_repeats(rng, h, w, int(rng.integers(1, min(12, h * w))))
            assert M.auc_judd(sal, fix) == two_sort_auc_judd(sal, fix)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_one_negative_equals_two_sort_oracle(self, kind):
        rng = np.random.default_rng(20 + MAP_KINDS.index(kind))
        for _ in range(20):
            sal = tied_map(rng, kind, 4, 5)
            every = np.array([(r, c) for r in range(4) for c in range(5)])
            fix = np.delete(every, int(rng.integers(20)), axis=0)
            fix = np.concatenate([fix, fix[:3]])
            assert M.auc_judd(sal, fix) == two_sort_auc_judd(sal, fix)

    def test_all_fixated_is_undefined_like_two_sort_oracle(self):
        rng = np.random.default_rng(30)
        sal = tied_map(rng, "8-bit", 3, 4)
        fix = np.array([(r, c) for r in range(3) for c in range(4)] + [(1, 2), (0, 0)])
        assert two_sort_auc_judd(sal, fix) is None
        assert M.auc_judd(sal, fix) is None


class TestShuffledAuc:
    def test_identical_pools_give_half(self):
        rng = np.random.default_rng(10)
        sal = distinct_map(rng, 5, 5)
        fix = sample_fixations(rng, 5, 5, 4)
        assert M.shuffled_auc(sal, fix, fix, rng_seed=0) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_separation(self):
        values = np.zeros((3, 3))
        values[0, 0] = 1.0
        values[0, 1] = 0.9
        sal = values
        fix = np.array([(0, 0), (0, 1)])
        others = np.array([(2, 0), (2, 1), (2, 2)])
        assert M.shuffled_auc(sal, fix, others, rng_seed=0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            sal = distinct_map(rng, h, w)
            n_fix = int(rng.integers(1, 6))
            fix = sample_fixations(rng, h, w, n_fix)
            n_other = int(rng.integers(1, min(h * w, 10 * n_fix) + 1))
            other = sample_fixations(rng, h, w, n_other)
            pos = [sal[r, c] for r, c in fix]
            neg = [sal[r, c] for r, c in other]
            got = M.shuffled_auc(sal, fix, other, rng_seed=5)
            assert got == pytest.approx(mann_whitney_auc(pos, neg), abs=1e-9)

    def test_subsampling_is_deterministic_and_capped(self):
        rng = np.random.default_rng(12)
        sal = rng.uniform(0, 1, size=(20, 20))
        fix = np.array([(0, 0)])
        pool = np.array([(r, c) for r in range(20) for c in range(20)])
        a = M.shuffled_auc(sal, fix, pool, rng_seed=3)
        b = M.shuffled_auc(sal, fix, pool, rng_seed=3)
        assert a == b
        # a different seed picks a different subsample of the 400-point pool
        c = M.shuffled_auc(sal, fix, pool, rng_seed=4)
        assert a != c

    def test_empty_pool_is_undefined(self):
        sal = np.ones((2, 2))
        assert M.shuffled_auc(sal, np.array([(0, 0)]), NO_FIXATIONS, rng_seed=0) is None
        assert M.shuffled_auc(sal, NO_FIXATIONS, np.array([(0, 0)]), rng_seed=0) is None

    @pytest.mark.parametrize("point", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_out_of_range_pool_fixation_raises(self, point):
        sal = np.linspace(0.0, 1.0, 9).reshape(3, 3)
        pool = np.array([(0, 0), (1, 1), point])
        with pytest.raises(OutOfBounds):
            M.shuffled_auc(sal, np.array([(2, 2)]), pool, rng_seed=0)

    def test_out_of_range_pool_point_past_the_cap_raises(self):
        sal = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        fix = np.array([(0, 0)])
        for point in [(4, 0), (0, 4), (-1, 0), (0, -1)]:
            pool = np.array([(r, c) for r in range(4) for c in range(4)] + [point])
            # seed 0 keeps 10 of the 17 pool points, and not the last one
            keep = np.random.default_rng(0).choice(len(pool), size=10, replace=False)
            assert len(pool) - 1 not in keep
            with pytest.raises(OutOfBounds):
                M.shuffled_auc(sal, fix, pool, rng_seed=0)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    @pytest.mark.parametrize("pool_size", ["below-cap", "above-cap"])
    def test_equals_two_sort_oracle(self, kind, pool_size):
        rng = np.random.default_rng(40 + MAP_KINDS.index(kind))
        for seed in range(100):
            h, w = int(rng.integers(1, 40)), int(rng.integers(2, 40))
            sal = tied_map(rng, kind, h, w)
            fix = fixations_with_repeats(rng, h, w, int(rng.integers(1, 12)))
            cap = M.SAUC_NEGATIVE_RATIO * len(fix)
            n_other = int(rng.integers(1, cap + 1) if pool_size == "below-cap" else cap + 1 + seed)
            other = fixations_with_repeats(rng, h, w, n_other)[:n_other]
            got = M.shuffled_auc(sal, fix, other, rng_seed=seed)
            assert got == two_sort_shuffled_auc(sal, fix, other, seed)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            sal = distinct_map(rng, 6, 6)
            fix = sample_fixations(rng, 6, 6, 3)
            other = sample_fixations(rng, 6, 6, 8)
            base = M.shuffled_auc(sal, fix, other, rng_seed=1)
            warped = sal**3 + 2.0 * sal
            assert M.shuffled_auc(warped, fix, other, rng_seed=1) == base


FIXATION_METRICS = {
    "nss": lambda sal, fix: M.nss(sal, fix),
    "auc_judd": lambda sal, fix: M.auc_judd(sal, fix),
    "shuffled_auc": lambda sal, fix: M.shuffled_auc(sal, fix, fix[:1] * 0, rng_seed=0),
    "shuffled_auc pool": lambda sal, fix: M.shuffled_auc(sal, fix[:1] * 0, fix, rng_seed=0),
}


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize(
    "point", [(-1, 1), (1, -1), (3, 1), (1, 4)], ids=["row-1", "col-1", "row-h", "col-w"]
)
@pytest.mark.parametrize("metric", FIXATION_METRICS)
def test_fixation_outside_the_map_raises(metric, point, dtype):
    """Each bound of each column is checked, on a 3x4 map so that a row
    equal to the width or a column equal to the height would pass."""
    sal = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    fix = np.array([(0, 0), (2, 3), point, (1, 2)], dtype=dtype)
    with pytest.raises(OutOfBounds):
        FIXATION_METRICS[metric](sal, fix)
    FIXATION_METRICS[metric](sal, np.delete(fix, 2, axis=0))  # the rest are inside


def old_ranked_roc_area(ranked, positives, not_negatives) -> float:
    """``metrics._ranked_roc_area`` as it was before it wrote xs and ys into
    preallocated arrays and found the thresholds' ranks once."""
    first = np.empty(ranked.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    thresholds = ranked[first]
    n_pos = positives.size
    n_neg = ranked.size - not_negatives.size
    pos_at_or_above = n_pos - np.searchsorted(positives, thresholds)
    neg_at_or_above = (ranked.size - np.flatnonzero(first)) - (
        not_negatives.size - np.searchsorted(not_negatives, thresholds)
    )
    xs = np.concatenate([[0.0], (neg_at_or_above / n_neg)[::-1], [1.0]])
    ys = np.concatenate([[0.0], (pos_at_or_above / n_pos)[::-1], [1.0]])
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0).sum())


def old_nss(sal, fix) -> float | None:
    """``metrics.nss`` as it was, through np.mean and np.std."""
    if len(fix) == 0:
        return None
    at_fix = M._values_at(sal, fix)
    mean = sal.mean()
    std = sal.std()
    if std == 0.0:
        return 0.0
    return float((at_fix - mean).mean() / std)


def old_cc(sal, gt):
    """``metrics.cc`` as it was, through np.mean."""
    if sal.shape != gt.shape:
        raise DimensionMismatch(f"map dims {sal.shape} != {gt.shape}")
    a = sal.ravel() - sal.mean()
    b = gt.ravel() - gt.mean()
    var_a = float(M._dot(a, a))
    var_b = float(M._dot(b, b))
    if var_a == 0.0 or var_b == 0.0:
        return None
    return float(M._dot(a, b) / np.sqrt(var_a * var_b))


def old_shuffled_auc(sal, fix, other_fix, rng_seed) -> float | None:
    """``metrics.shuffled_auc`` as it was, drawing its own sample."""
    if len(fix) == 0 or len(other_fix) == 0:
        return None
    positives = M._values_at(sal, fix)
    M._check_inside(sal, other_fix)
    cap = M.SAUC_NEGATIVE_RATIO * len(fix)
    if len(other_fix) > cap:
        keep = np.random.default_rng(rng_seed).choice(len(other_fix), size=cap, replace=False)
        other_fix = other_fix[keep]
    ranked = np.sort(np.concatenate([positives, sal[other_fix[:, 0], other_fix[:, 1]]]))
    positives = np.sort(positives)
    return old_ranked_roc_area(ranked, positives, positives)


def outcome(fn, *args):
    """What ``fn`` gives, as exact bytes, ``None``, or the error it raises;
    floating-point warnings silenced, so that both versions run to the end."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return value if value is None else (type(value), np.float64(value).tobytes())


def judd_inputs(sal, fix):
    """``_ranked_roc_area``'s arguments as ``auc_judd`` builds them."""
    fixated = np.zeros(sal.shape, dtype=bool)
    fixated[fix[:, 0], fix[:, 1]] = True
    return np.sort(sal, axis=None), np.sort(sal[fix[:, 0], fix[:, 1]]), np.sort(sal[fixated])


# 1-D shapes beside random ones, and values whose squares underflow to 0
# (1e-300) or are subnormal (1e-160 in float64, 1e-20 in float32)
SHAPES = ("random", "1xN", "Nx1")
TINY = ((np.float64, 1e-300), (np.float64, 1e-160), (np.float32, 1e-20))


def shaped(rng, shape):
    n = int(rng.integers(2, 40))
    if shape == "1xN":
        return 1, n
    if shape == "Nx1":
        return n, 1
    return int(rng.integers(1, 40)), int(rng.integers(1, 40))


class TestBitIdenticalToTheOldMetrics:
    """NSS and CC through sum / size and np.std's own steps, the ROC's one
    ``flatnonzero`` and preallocated xs and ys, and the sample drawn once by
    ``_negatives`` change no bit of any score, sign of zero included."""

    def check(self, rng, sal, gt):
        h, w = sal.shape
        fix = fixations_with_repeats(rng, h, w, int(rng.integers(1, 12)))
        assert outcome(M.nss, sal, fix) == outcome(old_nss, sal, fix)
        assert outcome(M.cc, sal, gt) == outcome(old_cc, sal, gt)
        assert outcome(M.cc, gt, sal) == outcome(old_cc, gt, sal)
        ranked, positives, taken = judd_inputs(sal, fix)
        if taken.size < sal.size:
            args = ranked, positives, taken
            assert outcome(M._ranked_roc_area, *args) == outcome(old_ranked_roc_area, *args)
        cap = M.SAUC_NEGATIVE_RATIO * len(fix)
        for n_other in (int(rng.integers(1, cap)), cap, cap + 1, cap + int(rng.integers(2, 90))):
            other = fixations_with_repeats(rng, h, w, n_other)[:n_other]
            seed = int(rng.integers(1000))
            got = outcome(M.shuffled_auc, sal, fix, other, seed)
            assert got == outcome(old_shuffled_auc, sal, fix, other, seed)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_map_kinds(self, kind, shape):
        rng = np.random.default_rng(60 + MAP_KINDS.index(kind) + 10 * SHAPES.index(shape))
        for _ in range(40):
            h, w = shaped(rng, shape)
            self.check(rng, tied_map(rng, kind, h, w), tied_map(rng, kind, h, w))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_constant_maps(self, dtype, shape):
        rng = np.random.default_rng(90 + SHAPES.index(shape))
        for value in (0.0, -0.0, 0.25, 1.0):
            h, w = shaped(rng, shape)
            sal = np.full((h, w), value, dtype=dtype)
            fix = fixations_with_repeats(rng, h, w, 3)
            assert M.nss(sal, fix) == 0.0 and outcome(M.nss, sal, fix) == outcome(old_nss, sal, fix)
            gt = rng.uniform(size=(h, w)).astype(dtype)
            assert M.cc(sal, gt) is None and old_cc(sal, gt) is None
            self.check(rng, sal, gt)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype,scale", TINY, ids=["f64-1e-300", "f64-1e-160", "f32-1e-20"])
    def test_tiny_values(self, dtype, scale, shape):
        rng = np.random.default_rng(100 + SHAPES.index(shape) + 10 * TINY.index((dtype, scale)))
        for _ in range(40):
            h, w = shaped(rng, shape)
            sal = (rng.uniform(size=(h, w)) * scale).astype(dtype)
            tiny_gt = (rng.uniform(size=(h, w)) * scale).astype(dtype)
            self.check(rng, sal, tiny_gt)
            self.check(rng, sal, rng.uniform(size=(h, w)).astype(dtype))


class TestNegatives:
    def test_pool_at_or_below_the_cap_comes_back_unchanged(self):
        pool = sample_fixations(np.random.default_rng(18), 8, 8, 30)
        for n_fix in (3, 4, 10):  # a cap of exactly 30, then above it
            assert M._negatives(pool, n_fix, rng_seed=5) is pool

    def test_pool_above_the_cap_is_sampled_with_the_seed(self):
        pool = sample_fixations(np.random.default_rng(19), 8, 8, 31)
        keep = np.random.default_rng(5).choice(31, size=30, replace=False)
        sample = M._negatives(pool, 3, rng_seed=5)
        np.testing.assert_array_equal(sample, pool[keep])
        assert M._negatives(sample, 3, rng_seed=6) is sample  # a sample is never drawn again


class TestEvaluateVideo:
    def test_single_frame_equals_frame_metrics(self):
        rng = np.random.default_rng(14)
        sal = distinct_map(rng, 6, 6)
        gt = rng.uniform(0, 1, size=(6, 6))
        fix = sample_fixations(rng, 6, 6, 3)
        pool = sample_fixations(rng, 6, 6, 10)
        vs = M.evaluate_video(zip([sal], [fix], [gt]), pool, seed=0)
        assert vs["nss"] == M.nss(sal, fix)
        assert vs["auc_j"] == M.auc_judd(sal, fix)
        assert vs["s_auc"] == M.shuffled_auc(sal, fix, pool, rng_seed=0)
        assert vs["cc"] == M.cc(sal, gt)
        assert vs["sim"] == M.sim(sal, gt)

    def test_all_fixated_frame_left_out_of_auc_j(self):
        rng = np.random.default_rng(15)
        sal = distinct_map(rng, 2, 2)
        every = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        some = np.array([(0, 0)])
        vs = M.evaluate_video(zip([sal, sal], [every, some], [sal, sal]), NO_FIXATIONS, seed=0)
        assert vs["auc_j"] == M.auc_judd(sal, some)
        assert vs["nss"] == (M.nss(sal, every) + M.nss(sal, some)) / 2
        alone = M.evaluate_video(zip([sal], [every], [sal]), NO_FIXATIONS, seed=0)
        assert alone["auc_j"] is None and alone["frames"] == 1

    def test_mean_over_frames(self):
        # two maps engineered to give NSS 1.0 and 3.0 at their fixations
        base = np.zeros((2, 2))
        base[0, 0] = 1.0
        sal = base
        z = (1.0 - 0.25) / np.sqrt(0.1875)  # standardized peak of that map
        fix_peak = np.array([(0, 0)])

        vs = M.evaluate_video(
            zip([sal, sal], [fix_peak, fix_peak], [sal, sal]),
            NO_FIXATIONS,
            seed=0,
        )
        assert vs["nss"] == pytest.approx(z)

        two_means = M.evaluate_video(
            zip([sal, sal], [np.array([(0, 0)]), np.array([(0, 1)])], [sal, sal]),
            NO_FIXATIONS,
            seed=0,
        )
        expected = (M.nss(sal, np.array([(0, 0)])) + M.nss(sal, np.array([(0, 1)]))) / 2
        assert two_means["nss"] == pytest.approx(expected)

    def test_empty_fixation_frame_bookkeeping(self):
        rng = np.random.default_rng(15)
        sal1 = distinct_map(rng, 4, 4)
        sal2 = distinct_map(rng, 4, 4)
        gt = rng.uniform(0.1, 1, size=(4, 4))
        fix = sample_fixations(rng, 4, 4, 2)
        pool = sample_fixations(rng, 4, 4, 6)

        vs = M.evaluate_video(zip([sal1, sal2], [fix, NO_FIXATIONS], [gt, gt]), pool, seed=0)
        # frame 2 skipped for fixation metrics, still counted for CC/SIM
        assert vs["skipped_no_fixations"] == 1
        assert vs["nss"] == pytest.approx(M.nss(sal1, fix))
        expected_cc = (M.cc(sal1, gt) + M.cc(sal2, gt)) / 2
        assert vs["cc"] == pytest.approx(expected_cc)

    def test_zero_mass_gt_skipped_for_distribution_metrics(self):
        rng = np.random.default_rng(16)
        sal = distinct_map(rng, 4, 4)
        gt_zero = np.zeros((4, 4))
        fix = sample_fixations(rng, 4, 4, 2)
        vs = M.evaluate_video(zip([sal], [fix], [gt_zero]), NO_FIXATIONS, seed=0)
        assert vs["skipped_no_gt_mass"] == 1
        assert vs["cc"] is None
        assert vs["sim"] is None
        assert vs["nss"] is not None

    def test_generators_give_the_lists_row_bit_for_bit(self):
        rng = np.random.default_rng(21)
        maps = [tied_map(rng, "8-bit", 10, 12) for _ in range(20)]
        gts = [rng.uniform(0, 1, size=(10, 12)) for _ in range(19)] + [np.zeros((10, 12))]
        fixs = [sample_fixations(rng, 10, 12, n % 4) for n in range(20)]
        pool = fixations_with_repeats(rng, 10, 12, 60)[:60]
        lists = M.evaluate_video(list(zip(maps, fixs, gts)), pool, seed=5)
        streams = M.evaluate_video(
            zip((m for m in maps), iter(fixs), (g for g in gts)), pool, seed=5
        )
        assert lists["skipped_no_fixations"] > 0 and lists["skipped_no_gt_mass"] == 1
        assert json.dumps(streams) == json.dumps(lists)
        for name in M.METRIC_NAMES:
            assert np.float64(streams[name]).tobytes() == np.float64(lists[name]).tobytes()

    def test_empty_stream_raises(self):
        with pytest.raises(EmptySequence) as raised:
            M.evaluate_video((), NO_FIXATIONS, seed=0)
        assert str(raised.value) == "evaluate_video needs at least one frame"

    def test_out_of_range_pool_fixation_raises(self):
        # the bad point sits past the subsampling cap, so only the bounds check finds it
        sal = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        pool = np.array([(r, c) for r in range(4) for c in range(4)] + [(4, 0)])
        with pytest.raises(OutOfBounds):
            M.evaluate_video(zip([sal], [np.array([(0, 0)])], [sal]), pool, seed=0)

    def test_pool_is_checked_against_each_map_size(self):
        maps = [np.linspace(0.0, 1.0, 64).reshape(8, 8), np.linspace(0.0, 1.0, 16).reshape(4, 4)]
        fixs = [np.array([(0, 0)]), np.array([(1, 1)])]
        # (5, 5) lies inside the 8x8 frame and outside the 4x4 one, past the cap
        pool = np.array([(r, c) for r in range(4) for c in range(4)] + [(5, 5)])
        assert len(pool) - 1 not in np.random.default_rng(1).choice(len(pool), 10, replace=False)
        M.evaluate_video(zip(maps[:1], fixs[:1], maps[:1]), pool, seed=0)
        with pytest.raises(OutOfBounds, match="4x4"):
            M.evaluate_video(zip(maps, fixs, maps), pool, seed=0)

    def test_row_equals_the_public_metrics_frame_by_frame(self):
        """Twelve frames of 1 to 12 fixations against a 200-point pool, above
        every frame's cap, so each frame draws its own sample: the row is the
        frames' public scores, with the whole pool and seed + i, averaged."""
        rng = np.random.default_rng(20)
        maps = [tied_map(rng, "8-bit", 10, 12) for _ in range(12)]
        gts = [rng.uniform(0, 1, size=(10, 12)) for _ in range(12)]
        fixs = [sample_fixations(rng, 10, 12, n) for n in range(1, 13)]
        pool = fixations_with_repeats(rng, 10, 12, 200)[:200]
        frames = list(enumerate(zip(maps, fixs, gts)))
        scores = {
            "auc_j": [M.auc_judd(sal, fix) for _, (sal, fix, _) in frames],
            "s_auc": [M.shuffled_auc(sal, fix, pool, 7 + i) for i, (sal, fix, _) in frames],
            "nss": [M.nss(sal, fix) for _, (sal, fix, _) in frames],
            "cc": [M.cc(sal, gt) for _, (sal, _, gt) in frames],
            "sim": [M.sim(sal, gt) for _, (sal, _, gt) in frames],
        }
        want = {name: np.float64(M._mean(values)).tobytes() for name, values in scores.items()}
        row = M.evaluate_video(zip(maps, fixs, gts), pool, seed=7)
        assert {name: np.float64(row[name]).tobytes() for name in M.METRIC_NAMES} == want

    @pytest.mark.parametrize("pool_size", [0, 40])
    def test_row_is_the_defined_public_scores_where_some_are_undefined(self, pool_size):
        """Frames without a fixation, with zero-mass ground truth, with a
        zero-mass or a constant prediction and with every pixel fixated, against
        an empty pool and a 40-point one: each metric of the row is the mean of
        its public scores that are not None, frame by frame."""
        rng = np.random.default_rng(22)
        h, w = 6, 7
        sal, gt = tied_map(rng, "8-bit", h, w), rng.uniform(0.1, 1, size=(h, w))
        some = sample_fixations(rng, h, w, 3)  # a cap of 30, below the pool
        every = np.array([(r, c) for r in range(h) for c in range(w)])
        frames = [
            (sal, NO_FIXATIONS, gt),
            (sal, some, np.zeros((h, w))),
            (np.zeros((h, w)), some, gt),
            (np.full((h, w), 0.5), some, gt),
            (sal, every, gt),
            (sal, some, gt),
        ]
        pool = sample_fixations(rng, h, w, pool_size)
        per_frame = []
        for i, (sal, fix, gt) in enumerate(frames):
            values = (
                M.auc_judd(sal, fix),
                M.shuffled_auc(sal, fix, pool, 9 + i),
                M.nss(sal, fix),
                M.cc(sal, gt),
                M.sim(sal, gt),
            )
            per_frame.append(dict(zip(M.METRIC_NAMES, values)))
        no_pool = {"s_auc"} if pool_size == 0 else set()
        assert [{name for name, v in scores.items() if v is None} for scores in per_frame] == [
            {"auc_j", "s_auc", "nss"}, {"cc", "sim"} | no_pool, {"cc", "sim"} | no_pool,
            {"cc"} | no_pool, {"auc_j"} | no_pool, no_pool,
        ]
        row = M.evaluate_video(frames, pool, seed=9)
        assert row == {
            **{
                name: M._mean([s[name] for s in per_frame if s[name] is not None])
                for name in M.METRIC_NAMES
            },
            "frames": 6, "skipped_no_fixations": 1, "skipped_no_gt_mass": 1,
        }

    def test_frame_i_uses_seed_plus_i(self):
        rng = np.random.default_rng(17)
        maps = [distinct_map(rng, 8, 8) for _ in range(12)]
        gts = [rng.uniform(0, 1, size=(8, 8)) for _ in range(12)]
        fixs = [sample_fixations(rng, 8, 8, 3) for _ in range(12)]
        pool = sample_fixations(rng, 8, 8, 40)  # above the cap of 30, so sAUC subsamples
        whole = M.evaluate_video(zip(maps, fixs, gts), pool, seed=3)
        per_frame = [
            M.evaluate_video(zip([maps[i]], [fixs[i]], [gts[i]]), pool, seed=3 + i)["s_auc"]
            for i in range(12)
        ]
        assert whole["s_auc"] == sum(per_frame) / len(per_frame)


def score_row(**fields) -> dict:
    """A complete per_video row: every metric None and every count 0 unless given."""
    return {**dict.fromkeys(M.METRIC_NAMES), **dict.fromkeys(M.VIDEO_COUNTS, 0), **fields}


class TestAggregateReport:
    def make_scores(self, nss_value: float) -> dict:
        return score_row(nss=nss_value, frames=1)

    def test_free_viewing_average(self):
        per_video = {
            "bus_ride": self.make_scores(1.618),
            "botanical_gardens": self.make_scores(1.182),
            "dcu_park": self.make_scores(4.374),
            "walking_office": self.make_scores(3.435),
        }
        report = M.aggregate_report(per_video, {"free-viewing": list(per_video)})
        assert report["group_averages"]["free-viewing"]["nss"] == pytest.approx(2.652, abs=5e-4)

    def test_task_driven_average(self):
        per_video = {
            "playing_cards": self.make_scores(0.967),
            "presentation": self.make_scores(1.360),
            "tortilla": self.make_scores(1.618),
        }
        report = M.aggregate_report(per_video, {"task-driven": list(per_video)})
        assert report["group_averages"]["task-driven"]["nss"] == pytest.approx(1.315, abs=5e-4)

    def test_single_member_group(self):
        per_video = {"only": self.make_scores(2.5)}
        report = M.aggregate_report(per_video, {"g": ["only"]})
        assert report["group_averages"]["g"]["nss"] == pytest.approx(2.5)

    def test_unknown_video(self):
        with pytest.raises(UnknownVideo):
            M.aggregate_report({}, {"g": ["ghost"]})

    def test_members_are_added_left_to_right(self):
        """Added left to right, 1e16 + 1 - 1e16 is 0 in float64; the compensated
        sum() of Python 3.12 gives 1, so the mean would depend on the version."""
        per_video = {vid: self.make_scores(v) for vid, v in zip("abc", (1e16, 1.0, -1e16))}
        report = M.aggregate_report(per_video, {"g": ["a", "b", "c"]})
        assert report["group_averages"]["g"]["nss"] == 0.0

    def test_round_trip_through_dict(self):
        per_video = {
            "a": score_row(nss=1.0, cc=0.5, frames=3),
            "b": score_row(nss=2.0, frames=2, skipped_no_fixations=1),
        }
        report = M.aggregate_report(per_video, {"g": ["a", "b"]})
        clone = M.checked_report(json.loads(json.dumps(report)))
        assert clone["per_video"]["a"]["nss"] == 1.0
        assert clone["per_video"]["b"]["skipped_no_fixations"] == 1
        assert clone["group_averages"]["g"]["nss"] == pytest.approx(1.5)
        assert clone["group_averages"]["g"]["sim"] is None


class TestGroupsFromDict:
    def test_names_the_first_member_listed_twice(self):
        with pytest.raises(ValueError, match="group 'g' lists video 'a' more than once"):
            M.groups_from_dict({"g": ["a", "b", "b", "a"]})

    def test_a_large_group_is_checked_in_linear_time(self):
        members = [f"v{i}" for i in range(40_000)] + ["v7"]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="lists video 'v7' more than once"):
            M.groups_from_dict({"g": members})
        assert time.perf_counter() - start < 5.0
