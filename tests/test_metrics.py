"""Tests for the five gaze metrics and the aggregation machinery."""

import numpy as np
import pytest

from tsal import metrics as M
from tsal.errors import (
    AllFixated,
    DimensionMismatch,
    EmptyFixations,
    EmptyNegatives,
    LengthMismatch,
    OutOfBounds,
    UnknownVideo,
    ZeroMass,
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


NO_FIXATIONS = np.empty((0, 2), dtype=np.int64)


def distinct_map(rng, h, w) -> np.ndarray:
    """Map whose pixel values are all distinct (tie-free by construction)."""
    values = rng.permutation(h * w).astype(np.float64) / (h * w)
    return values.reshape(h, w)


def sample_fixations(rng, h, w, n) -> np.ndarray:
    cells = rng.choice(h * w, size=n, replace=False)
    return np.array([(int(c // w), int(c % w)) for c in cells])


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
        with pytest.raises(EmptyFixations):
            M.nss(np.ones((2, 2)), NO_FIXATIONS)

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

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMass):
            M.sim(np.zeros((2, 2)), np.ones((2, 2)))

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

    def test_all_fixated_raises(self):
        sal = np.ones((1, 2))
        with pytest.raises(AllFixated):
            M.auc_judd(sal, np.array([(0, 0), (0, 1)]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sal = distinct_map(rng, 6, 6)
            fix = sample_fixations(rng, 6, 6, 4)
            base = M.auc_judd(sal, fix)
            warped = np.exp(3.0 * sal) - 0.5
            assert M.auc_judd(warped, fix) == base


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

    def test_empty_pool_raises(self):
        sal = np.ones((2, 2))
        with pytest.raises(EmptyNegatives):
            M.shuffled_auc(sal, np.array([(0, 0)]), NO_FIXATIONS, rng_seed=0)

    @pytest.mark.parametrize("point", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_out_of_range_pool_fixation_raises(self, point):
        sal = np.linspace(0.0, 1.0, 9).reshape(3, 3)
        pool = np.array([(0, 0), (1, 1), point])
        with pytest.raises(OutOfBounds):
            M.shuffled_auc(sal, np.array([(2, 2)]), pool, rng_seed=0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            sal = distinct_map(rng, 6, 6)
            fix = sample_fixations(rng, 6, 6, 3)
            other = sample_fixations(rng, 6, 6, 8)
            base = M.shuffled_auc(sal, fix, other, rng_seed=1)
            warped = sal**3 + 2.0 * sal
            assert M.shuffled_auc(warped, fix, other, rng_seed=1) == base


class TestEvaluateVideo:
    def test_single_frame_equals_frame_metrics(self):
        rng = np.random.default_rng(14)
        sal = distinct_map(rng, 6, 6)
        gt = rng.uniform(0, 1, size=(6, 6))
        fix = sample_fixations(rng, 6, 6, 3)
        pool = sample_fixations(rng, 6, 6, 10)
        vs = M.evaluate_video([sal], [fix], [gt], pool, seed=0)
        assert vs.scores.nss == pytest.approx(M.nss(sal, fix))
        assert vs.scores.auc_j == pytest.approx(M.auc_judd(sal, fix))
        assert vs.scores.s_auc == pytest.approx(M.shuffled_auc(sal, fix, pool, rng_seed=0))
        assert vs.scores.cc == pytest.approx(M.cc(sal, gt))
        assert vs.scores.sim == pytest.approx(M.sim(sal, gt))

    def test_mean_over_frames(self):
        # two maps engineered to give NSS 1.0 and 3.0 at their fixations
        base = np.zeros((2, 2))
        base[0, 0] = 1.0
        sal = base
        z = (1.0 - 0.25) / np.sqrt(0.1875)  # standardized peak of that map
        fix_peak = np.array([(0, 0)])

        vs = M.evaluate_video(
            [sal, sal],
            [fix_peak, fix_peak],
            [sal, sal],
            NO_FIXATIONS,
            seed=0,
            metrics=("nss",),
        )
        assert vs.scores.nss == pytest.approx(z)

        two_means = M.evaluate_video(
            [sal, sal],
            [np.array([(0, 0)]), np.array([(0, 1)])],
            [sal, sal],
            NO_FIXATIONS,
            seed=0,
            metrics=("nss",),
        )
        expected = (M.nss(sal, np.array([(0, 0)])) + M.nss(sal, np.array([(0, 1)]))) / 2
        assert two_means.scores.nss == pytest.approx(expected)

    def test_empty_fixation_frame_bookkeeping(self):
        rng = np.random.default_rng(15)
        sal1 = distinct_map(rng, 4, 4)
        sal2 = distinct_map(rng, 4, 4)
        gt = rng.uniform(0.1, 1, size=(4, 4))
        fix = sample_fixations(rng, 4, 4, 2)
        pool = sample_fixations(rng, 4, 4, 6)

        vs = M.evaluate_video([sal1, sal2], [fix, NO_FIXATIONS], [gt, gt], pool, seed=0)
        # frame 2 skipped for fixation metrics, still counted for CC/SIM
        assert vs.skipped_no_fixations == 1
        assert vs.scores.nss == pytest.approx(M.nss(sal1, fix))
        expected_cc = (M.cc(sal1, gt) + M.cc(sal2, gt)) / 2
        assert vs.scores.cc == pytest.approx(expected_cc)

    def test_zero_mass_gt_skipped_for_distribution_metrics(self):
        rng = np.random.default_rng(16)
        sal = distinct_map(rng, 4, 4)
        gt_zero = np.zeros((4, 4))
        fix = sample_fixations(rng, 4, 4, 2)
        vs = M.evaluate_video([sal], [fix], [gt_zero], NO_FIXATIONS, seed=0)
        assert vs.skipped_no_gt_mass == 1
        assert vs.scores.cc is None
        assert vs.scores.sim is None
        assert vs.scores.nss is not None

    def test_length_mismatch(self):
        sal = np.ones((2, 2))
        with pytest.raises(LengthMismatch):
            M.evaluate_video([sal], [], [sal], NO_FIXATIONS, seed=0)

    def test_out_of_range_pool_fixation_raises(self):
        # the bad point sits past the subsampling cap, so only the bounds check finds it
        sal = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        pool = np.array([(r, c) for r in range(4) for c in range(4)] + [(4, 0)])
        with pytest.raises(OutOfBounds):
            M.evaluate_video([sal], [np.array([(0, 0)])], [sal], pool, seed=0)

    def test_frame_i_uses_seed_plus_i(self):
        rng = np.random.default_rng(17)
        maps = [distinct_map(rng, 8, 8) for _ in range(12)]
        gts = [rng.uniform(0, 1, size=(8, 8)) for _ in range(12)]
        fixs = [sample_fixations(rng, 8, 8, 3) for _ in range(12)]
        pool = sample_fixations(rng, 8, 8, 40)  # above the cap of 30, so sAUC subsamples
        whole = M.evaluate_video(maps, fixs, gts, pool, seed=3, metrics=("s_auc",))
        per_frame = [
            M.evaluate_video(
                [maps[i]], [fixs[i]], [gts[i]], pool, seed=3 + i, metrics=("s_auc",)
            ).scores.s_auc
            for i in range(12)
        ]
        assert whole.scores.s_auc == sum(per_frame) / len(per_frame)


class TestAggregateReport:
    def make_scores(self, nss_value: float) -> M.VideoScores:
        return M.VideoScores(scores=M.MetricScores(nss=nss_value), frames=1)

    def test_free_viewing_average(self):
        per_video = {
            "bus_ride": self.make_scores(1.618),
            "botanical_gardens": self.make_scores(1.182),
            "dcu_park": self.make_scores(4.374),
            "walking_office": self.make_scores(3.435),
        }
        report = M.aggregate_report(per_video, {"free-viewing": list(per_video)})
        assert report.group_averages["free-viewing"].nss == pytest.approx(2.652, abs=5e-4)

    def test_task_driven_average(self):
        per_video = {
            "playing_cards": self.make_scores(0.967),
            "presentation": self.make_scores(1.360),
            "tortilla": self.make_scores(1.618),
        }
        report = M.aggregate_report(per_video, {"task-driven": list(per_video)})
        assert report.group_averages["task-driven"].nss == pytest.approx(1.315, abs=5e-4)

    def test_single_member_group(self):
        per_video = {"only": self.make_scores(2.5)}
        report = M.aggregate_report(per_video, {"g": ["only"]})
        assert report.group_averages["g"].nss == pytest.approx(2.5)

    def test_unknown_video(self):
        with pytest.raises(UnknownVideo):
            M.aggregate_report({}, {"g": ["ghost"]})

    def test_round_trip_through_dict(self):
        per_video = {
            "a": M.VideoScores(scores=M.MetricScores(nss=1.0, cc=0.5), frames=3),
            "b": M.VideoScores(scores=M.MetricScores(nss=2.0), frames=2, skipped_no_fixations=1),
        }
        report = M.aggregate_report(per_video, {"g": ["a", "b"]})
        clone = M.report_from_dict(M.report_to_dict(report))
        assert clone.per_video["a"].scores.nss == 1.0
        assert clone.per_video["b"].skipped_no_fixations == 1
        assert clone.group_averages["g"].nss == pytest.approx(1.5)
        assert clone.group_averages["g"].sim is None
