"""Tests for PGM I/O, fixation files, manifests, and synthesis."""

import hashlib
import os

import numpy as np
import pytest

from tsal import data as D
from tsal import metrics as M
from tsal.errors import (
    BadHeader,
    MissingInput,
    OutOfBounds,
    OutOfRange,
    ParseError,
    TruncatedData,
    UnsupportedDepth,
)


class TestLoadMap:
    def test_p5_saturated_white(self, tmp_path):
        path = str(tmp_path / "white.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 4 2 255\n" + b"\xff" * 8)
        sal = D.load_map(path)
        assert sal.shape == (2, 4)
        assert np.all(sal == 1.0)

    def test_p5_all_black(self, tmp_path):
        path = str(tmp_path / "black.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n3 3\n255\n" + b"\x00" * 9)
        sal = D.load_map(path)
        assert np.all(sal == 0.0)

    def test_p2_text_format(self, tmp_path):
        path = str(tmp_path / "text.pgm")
        with open(path, "w") as fh:
            fh.write("P2\n# a comment\n2 2\n255\n0 51\n102 255\n")
        sal = D.load_map(path)
        expected = np.array([[0, 51], [102, 255]]) / 255.0
        assert np.allclose(sal, expected)

    def test_header_comment_in_p5(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# made by hand\n2 1\n255\n\x10\x20")
        sal = D.load_map(path)
        assert np.allclose(sal, [[16 / 255, 32 / 255]])

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P6 1 1 255\n\x00\x00\x00")
        with pytest.raises(BadHeader):
            D.load_map(path)

    def test_unsupported_depth(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(UnsupportedDepth):
            D.load_map(path)

    def test_truncated_raster(self, tmp_path):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 4 4 255\n" + b"\x00" * 7)
        with pytest.raises(TruncatedData):
            D.load_map(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "head.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 4")
        with pytest.raises(TruncatedData):
            D.load_map(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = str(tmp_path / "zero.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 0 2 255\n")
        with pytest.raises(BadHeader):
            D.load_map(path)


class TestWriteMap:
    def test_half_becomes_byte_128(self, tmp_path):
        path = str(tmp_path / "half.pgm")
        D.write_map(np.full((1, 1), 0.5), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.endswith(bytes([128]))

    def test_one_becomes_byte_255(self, tmp_path):
        path = str(tmp_path / "one.pgm")
        D.write_map(np.full((1, 1), 1.0), path)
        with open(path, "rb") as fh:
            assert fh.read().endswith(bytes([255]))

    def test_out_of_range_rejected(self, tmp_path):
        path = str(tmp_path / "big.pgm")
        with pytest.raises(OutOfRange):
            D.write_map(np.full((2, 2), 1.5), path)

    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01, np.inf, -np.inf])
    def test_nan_or_out_of_range_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "bad.pgm"
        values = np.full((2, 3), 0.5)
        values[1, 2] = bad
        with pytest.raises(OutOfRange):
            D.write_map(values, str(path))
        assert not path.exists()

    def test_round_trip_identity_on_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        path = str(tmp_path / "rt.pgm")
        quantized = rng.integers(0, 256, size=(6, 5)).astype(np.float64) / 255.0
        D.write_map(quantized, path)
        loaded = D.load_map(path)
        assert np.array_equal(loaded, quantized)
        # write the loaded map again: bytes identical
        path2 = str(tmp_path / "rt2.pgm")
        D.write_map(loaded, path2)
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()


class TestLoadFixations:
    def test_grouping(self, tmp_path):
        path = str(tmp_path / "f.csv")
        with open(path, "w") as fh:
            fh.write("0,1,2\n0,3,4\n2,0,0\n")
        fixations = D.load_fixations(path)
        assert fixations[0].tolist() == [[1, 2], [3, 4]]
        assert fixations[2].tolist() == [[0, 0]]
        assert 1 not in fixations

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        assert D.load_fixations(path) == {}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "c.csv")
        with open(path, "w") as fh:
            fh.write("# header\n\n0,1,1\n")
        assert D.load_fixations(path)[0].tolist() == [[1, 1]]

    def test_negative_is_parse_error(self, tmp_path):
        path = str(tmp_path / "neg.csv")
        with open(path, "w") as fh:
            fh.write("0,-1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            D.load_fixations(path)

    def test_malformed_field_count(self, tmp_path):
        path = str(tmp_path / "m.csv")
        with open(path, "w") as fh:
            fh.write("0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            D.load_fixations(path)

    def test_non_integer(self, tmp_path):
        path = str(tmp_path / "n.csv")
        with open(path, "w") as fh:
            fh.write("ok,1,2\n")
        with pytest.raises(ParseError):
            D.load_fixations(path)

    def test_out_of_bounds_with_dims(self, tmp_path):
        path = str(tmp_path / "ob.csv")
        with open(path, "w") as fh:
            fh.write("0,0,0\n1,5,2\n")
        with pytest.raises(OutOfBounds, match="line 2"):
            D.load_fixations(path, dims=(4, 4))

    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "w.csv")
        original = {0: np.array([(1, 2), (3, 4)]), 5: np.array([(0, 1)])}
        D.write_fixations(original, path)
        loaded = D.load_fixations(path)
        assert loaded.keys() == original.keys()
        for frame in original:
            assert loaded[frame].tolist() == original[frame].tolist()


class TestResize:
    def test_identity_at_same_dims(self):
        rng = np.random.default_rng(1)
        sal = rng.uniform(0, 1, size=(5, 7))
        out = D.resize_bilinear(sal, (5, 7))
        assert np.array_equal(out, sal)

    def test_constant_preserved(self):
        sal = np.full((4, 4), 0.37)
        out = D.resize_bilinear(sal, (9, 5))
        assert np.allclose(out, 0.37)

    def test_hand_case_column_upsample(self):
        sal = np.array([[0.0], [1.0]])
        out = D.resize_bilinear(sal, (4, 1))
        assert np.allclose(out[:, 0], [0.0, 0.25, 0.75, 1.0])

    def test_range_preserved(self):
        rng = np.random.default_rng(2)
        sal = rng.uniform(0, 1, size=(16, 16))
        out = D.resize_bilinear(sal, (7, 23))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_fixation_rescale(self):
        fix = np.array([(1, 2)])
        up = D.rescale_fixations(fix, (4, 4), (8, 8))
        assert up.tolist() == [[2, 4]]
        down = D.rescale_fixations(np.array([(7, 7)]), (8, 8), (4, 4))
        assert down.tolist() == [[3, 3]]  # round-half-up then clamped in range
        same = D.rescale_fixations(fix, (4, 4), (4, 4))
        assert same.tolist() == fix.tolist()


def tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class TestManifest:
    def test_generate_save_load_round_trip(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=2, frames=4, height=12, width=12, seed=3)
        manifest = D.generate_synthetic(out, config)
        loaded = D.load_manifest(os.path.join(out, "manifest.json"))
        assert loaded.resolution == (12, 12)
        assert [r.video_id for r in loaded.videos] == [
            r.video_id for r in manifest.videos
        ]
        assert loaded.groups() == {
            "free-viewing": ["video_000"],
            "task-driven": ["video_001"],
        }

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.raises(ParseError):
            D.load_manifest(path)

    def test_bad_group_label(self):
        with pytest.raises(ParseError):
            D.VideoRecord("v", [0], "s", "g", "f.csv", "wandering")

    def test_non_increasing_frames(self):
        with pytest.raises(ParseError):
            D.VideoRecord("v", [0, 2, 2], "s", "g", "f.csv", "free-viewing")


class TestLoadVideo:
    def test_loads_generated_video(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=5, height=14, width=10, seed=5)
        manifest = D.generate_synthetic(out, config)
        video = D.load_video(manifest, manifest.videos[0])
        assert len(video.static_maps) == 5
        assert len(video.gt_maps) == 5
        assert len(video.fixations) == 5
        for sal in video.static_maps + video.gt_maps:
            assert sal.shape == (14, 10)
        for fix in video.fixations:
            for r, c in fix:
                assert 0 <= r < 14 and 0 <= c < 10

    def test_resizes_to_manifest_resolution(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=2, height=16, width=16, seed=6)
        D.generate_synthetic(out, config)
        # shrink the declared resolution and reload
        path = os.path.join(out, "manifest.json")
        manifest = D.load_manifest(path)
        manifest.resolution = (8, 8)
        video = D.load_video(manifest, manifest.videos[0])
        assert video.static_maps[0].shape == (8, 8)
        for r, c in video.fixations[0]:
            assert 0 <= r < 8 and 0 <= c < 8

    def test_missing_file_detected(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=3, height=10, width=10, seed=4)
        manifest = D.generate_synthetic(out, config)
        for name in ("static/000001.pgm", "gt/000002.pgm", "fixations.csv"):
            path = os.path.join(out, "video_000", name)
            os.rename(path, path + ".away")
            with pytest.raises(MissingInput, match="video_000: missing .*" + name):
                D.load_video(manifest, manifest.videos[0])
            os.rename(path + ".away", path)


class TestGenerateSynthetic:
    def test_byte_identical_per_seed(self, tmp_path):
        config = D.SyntheticConfig(videos=2, frames=6, height=12, width=12, seed=9)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        D.generate_synthetic(a, config)
        D.generate_synthetic(b, config)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        D.generate_synthetic(a, D.SyntheticConfig(videos=1, frames=4, height=10, width=10, seed=1))
        D.generate_synthetic(b, D.SyntheticConfig(videos=1, frames=4, height=10, width=10, seed=2))
        assert tree_digest(a) != tree_digest(b)

    def test_lag_zero_no_noise_degenerate_control(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(
            videos=1, frames=4, height=12, width=12, seed=10, lag=0, noise=0.0
        )
        D.generate_synthetic(out, config)
        for t in range(4):
            name = D.frame_file_name(t)
            with open(os.path.join(out, "video_000", "static", name), "rb") as a:
                with open(os.path.join(out, "video_000", "gt", name), "rb") as b:
                    assert a.read() == b.read()

    def test_lag_two_shift_oracle(self, tmp_path):
        # gt at t is the blob at t+2: correlating static maps shifted by s
        # against gt must peak at s = 2, strictly above s = 0
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(
            videos=1, frames=40, height=24, width=24, seed=11, lag=2
        )
        manifest = D.generate_synthetic(out, config)
        video = D.load_video(manifest, manifest.videos[0])
        shifts = range(5)
        mean_cc = []
        for s in shifts:
            scores = []
            for t in range(len(video.gt_maps) - max(shifts)):
                value = M.cc(video.static_maps[t + s], video.gt_maps[t])
                if value is not None:
                    scores.append(value)
            mean_cc.append(float(np.mean(scores)))
        assert int(np.argmax(mean_cc)) == 2
        assert mean_cc[2] > mean_cc[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            D.SyntheticConfig(height=4, width=12)
        with pytest.raises(ValueError):
            D.SyntheticConfig(lag=-1)
