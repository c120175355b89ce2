"""Tests for PGM I/O, fixation files, manifests, and synthesis."""

import functools
import json
import os
import pickle
import re
import stat
import threading

import numpy as np
import pytest

from helpers import resized_maps, tree_digest
from tsal import data as D
from tsal import metrics as M
from tsal.errors import (
    BadHeader,
    DimensionMismatch,
    MissingInput,
    MissingPrediction,
    OutOfBounds,
    OutOfRange,
    ParseError,
    TruncatedData,
    UnsupportedDepth,
)

# more digits than int() converts by default, though every one is an ASCII digit
LONG_DIGITS = b"9" * 5000


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
        with pytest.raises(BadHeader, match="^" + re.escape(path) + ": "):
            D.load_map(path)

    def test_magic_must_be_a_whole_token(self, tmp_path):
        path = str(tmp_path / "glued.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5garbage 2 1 255\n\x00\xff")
        with pytest.raises(BadHeader, match="^" + re.escape(path) + ": bad magic b'P5garbage'"):
            D.load_map(path)

    def test_unsupported_depth(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(UnsupportedDepth, match="^" + re.escape(path) + ": "):
            D.load_map(path)

    def test_truncated_raster(self, tmp_path):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 4 4 255\n" + b"\x00" * 7)
        with pytest.raises(TruncatedData, match="^" + re.escape(path) + ": "):
            D.load_map(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "head.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 4")
        with pytest.raises(TruncatedData, match="^" + re.escape(path) + ": "):
            D.load_map(path)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"P5 +2 1 255\n\x00\x00", "width is not an integer: b'+2'"),
            (b"P5 2 1_0 255\n" + b"\x00" * 20, "height is not an integer: b'1_0'"),
            ("P5 2 1 \u0662\u0665\u0665\n\x00\x00".encode(), "maxval is not an integer"),
            (b"P2 2 1 255\n+1 0\n", "P2 sample is not an integer in [0, 255]"),
            (b"P2 2 1 255\n1 0_5\n", "P2 sample is not an integer in [0, 255]"),
            # int() refuses a decimal string of more than 4,300 digits
            (b"P5 %s 1 255\n" % LONG_DIGITS, f"width is not an integer: {LONG_DIGITS!r}"),
            (b"P2 2 1 255\n1 %s\n" % LONG_DIGITS, "P2 sample is not an integer in [0, 255]"),
        ],
        ids=["plus", "underscore", "arabic-indic", "p2-plus", "p2-underscore", "long", "p2-long"],
    )
    def test_only_ascii_digits_are_integers(self, tmp_path, blob, message):
        path = str(tmp_path / "sign.pgm")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(BadHeader, match="^" + re.escape(f"{path}: {message}")):
            D.load_map(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = str(tmp_path / "zero.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 0 2 255\n")
        with pytest.raises(BadHeader, match="^" + re.escape(path) + ": "):
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


class TestPublish:
    @pytest.mark.parametrize("directory", [False, True])
    def test_renames_onto_the_path_with_the_umask_mode(self, tmp_path, directory):
        target = tmp_path / "new" / "out"
        old = os.umask(0o027)
        try:
            with D.publish(str(target), directory=directory) as tmp:
                assert os.path.dirname(tmp) == str(target.parent)  # beside the target
                if directory:
                    os.mkdir(os.path.join(tmp, "inner"))
                else:
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.write("done")
                assert not target.exists()
        finally:
            os.umask(old)
        assert os.listdir(target.parent) == ["out"]
        assert stat.S_IMODE(target.stat().st_mode) == (0o750 if directory else 0o640)
        if directory:
            assert os.listdir(target) == ["inner"]
        else:
            assert target.read_text() == "done"

    @pytest.mark.parametrize("directory", [False, True])
    def test_an_exception_leaves_the_old_output_and_no_temp(self, tmp_path, directory):
        target = tmp_path / "out"
        if directory:
            target.mkdir()
        else:
            target.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with D.publish(str(target), directory=directory) as tmp:
                if directory:
                    os.mkdir(os.path.join(tmp, "half"))
                else:
                    with open(tmp, "wb") as fh:
                        fh.write(b"ne")
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == ["out"]
        if directory:
            assert os.listdir(target) == []
        else:
            assert target.read_bytes() == b"old"


def _worker_blas_threads(task):
    get_threads, _ = D._blas_threads()
    return get_threads()


def _fail_in_a_worker(task):
    raise ValueError("task failed")


def _locked_sum(lock, a, b):
    with lock:
        return a + b


class TestWorkerPool:
    def test_finds_the_loaded_openblas(self):
        """numpy here links OpenBLAS, so the helper must find its thread calls:
        were it to miss them, the workers' BLAS threads would go unshared."""
        blas = D._blas_threads()
        assert blas is not None
        get_threads, set_threads = blas
        parent = get_threads()
        assert parent >= 1
        set_threads(parent)
        assert get_threads() == parent

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_workers_share_the_cpus_and_the_parent_count_is_restored(self):
        """Each of two workers, one per item, gets at most half the CPUs as
        BLAS threads; one worker keeps the parent's count; returning, even on
        an error, gives the parent its count back."""
        get_threads, _ = D._blas_threads()
        parent = get_threads()
        cpus = len(os.sched_getaffinity(0))
        assert D.worker_map(_worker_blas_threads, range(2)) == [min(parent, cpus // 2)] * 2
        assert get_threads() == parent
        assert D.worker_map(_worker_blas_threads, range(1)) == [parent]
        assert get_threads() == parent
        with pytest.raises(ValueError, match="task failed"):
            D.worker_map(_fail_in_a_worker, range(2))
        assert get_threads() == parent

    def test_the_function_reaches_the_workers_by_fork_not_by_pickle(self):
        """A function holding a lock cannot be pickled, yet each worker runs
        it: only the items' arguments cross a pipe, and come back in order."""
        add = functools.partial(_locked_sum, threading.Lock())
        with pytest.raises(TypeError):
            pickle.dumps(add)
        assert D.worker_map(add, [1, 2, 3], [10, 20, 30]) == [11, 22, 33]


class TestLoadFixations:
    def test_grouping(self, tmp_path):
        path = str(tmp_path / "f.csv")
        with open(path, "w") as fh:
            fh.write("0,1,2\n0,3,4\n2,0,0\n")
        fixations = D.load_fixations(path, (8, 8))
        assert fixations[0].tolist() == [[1, 2], [3, 4]]
        assert fixations[2].tolist() == [[0, 0]]
        assert 1 not in fixations

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        assert D.load_fixations(path, (8, 8)) == {}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "c.csv")
        with open(path, "w") as fh:
            fh.write("# header\n\n0,1,1\n")
        assert D.load_fixations(path, (8, 8))[0].tolist() == [[1, 1]]

    def test_negative_is_parse_error(self, tmp_path):
        path = str(tmp_path / "neg.csv")
        with open(path, "w") as fh:
            fh.write("0,-1,2\n")
        with pytest.raises(ParseError, match="^" + re.escape(path) + ": line 1: "):
            D.load_fixations(path, (8, 8))

    def test_malformed_field_count(self, tmp_path):
        path = str(tmp_path / "m.csv")
        with open(path, "w") as fh:
            fh.write("0,1\n")
        with pytest.raises(ParseError, match="^" + re.escape(path) + ": line 1: "):
            D.load_fixations(path, (8, 8))

    def test_non_integer(self, tmp_path):
        path = str(tmp_path / "n.csv")
        with open(path, "w") as fh:
            fh.write("ok,1,2\n")
        with pytest.raises(ParseError, match="^" + re.escape(path) + ": line 1: "):
            D.load_fixations(path, (8, 8))

    @pytest.mark.parametrize(
        "line, shown",
        [
            ("0,1_0,3", "'0,1_0,3'"),
            ("0,1,+3", "'0,1,+3'"),
            ("\u0661,2,2", "'\u0661,2,2'"),
            ("0,--1,2", "'0,--1,2'"),
            ("0,1,2\u00b2", "'0,1,2\u00b2'"),
            ("0,1," + "9" * 5000, "a string"),  # a long line is not echoed
        ],
        ids=["underscore", "plus", "arabic-indic", "double-minus", "superscript", "long"],
    )
    def test_only_ascii_digits_are_integers(self, tmp_path, line, shown):
        path = tmp_path / "digits.csv"
        path.write_text(line + "\n", encoding="utf-8")
        want = f"{path}: line 1: non-integer field in {shown}"
        with pytest.raises(ParseError, match="^" + re.escape(want) + "$"):
            D.load_fixations(str(path), (8, 8))

    def test_out_of_bounds_with_dims(self, tmp_path):
        path = str(tmp_path / "ob.csv")
        with open(path, "w") as fh:
            fh.write("0,0,0\n1,5,2\n")
        with pytest.raises(OutOfBounds, match="^" + re.escape(path) + ": line 2: "):
            D.load_fixations(path, dims=(4, 4))

    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "w.csv")
        original = {0: np.array([(1, 2), (3, 4)]), 5: np.array([(0, 1)])}
        D.write_fixations(original, path)
        loaded = D.load_fixations(path, (8, 8))
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


VIDEO = {
    "video_id": "v",
    "frames": [0, 1],
    "static_map_dir": "v/static",
    "gt_map_dir": "v/gt",
    "fixation_file": "v/fixations.csv",
    "group_label": "free-viewing",
}


def write_manifest(tmp_path, videos=(VIDEO,), resolution=(8, 8)) -> str:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"resolution": list(resolution), "videos": list(videos)}))
    return str(path)


def named(path: str, pattern: str) -> str:
    """A pattern for a manifest error: ``path``, then the message ``pattern`` matches."""
    return "^" + re.escape(f"{path}: ") + pattern


class TestManifest:
    def test_generate_save_load_round_trip(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=2, frames=4, height=12, width=12, seed=3)
        path = D.generate_synthetic(out, config)
        assert path == os.path.join(out, "manifest.json")
        loaded = D.load_manifest(path)
        assert loaded["resolution"] == (12, 12)
        root = os.path.abspath(out)
        assert loaded["videos"][1] == {
            "video_id": "video_001",
            "frames": [0, 1, 2, 3],
            "static_map_dir": os.path.join(root, "video_001", "static"),
            "gt_map_dir": os.path.join(root, "video_001", "gt"),
            "fixation_file": os.path.join(root, "video_001", "fixations.csv"),
            "group_label": "task-driven",
        }
        assert loaded["videos"][0]["group_label"] == "free-viewing"

    def test_paths_are_relative_to_the_manifest_directory(self, tmp_path, monkeypatch):
        (tmp_path / "sets").mkdir()
        monkeypatch.chdir(tmp_path / "sets")
        (video,) = D.load_manifest(write_manifest(tmp_path))["videos"]
        assert video["static_map_dir"] == str(tmp_path / "v" / "static")
        assert video["fixation_file"] == str(tmp_path / "v" / "fixations.csv")

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.raises(ParseError):
            D.load_manifest(path)

    def test_bad_group_label(self, tmp_path):
        path = write_manifest(tmp_path, [{**VIDEO, "group_label": "wandering"}])
        with pytest.raises(ParseError, match=named(path, "v: group_label 'wandering' not in")):
            D.load_manifest(path)

    def test_non_increasing_frames(self, tmp_path):
        path = write_manifest(tmp_path, [{**VIDEO, "frames": [0, 2, 2]}])
        want = named(path, "v: frame ids must be strictly increasing$")
        with pytest.raises(ParseError, match=want):
            D.load_manifest(path)

    def test_field_types_are_checked_before_the_group_label(self, tmp_path):
        path = write_manifest(tmp_path, [{**VIDEO, "group_label": "x", "frames": "0"}])
        want = named(path, "manifest video 'v': frames must be a list of integers, got '0'$")
        with pytest.raises(ParseError, match=want):
            D.load_manifest(path)

    def test_missing_field_is_a_parse_error(self, tmp_path):
        entry = {key: value for key, value in VIDEO.items() if key != "gt_map_dir"}
        path = write_manifest(tmp_path, [entry])
        want = named(path, "manifest video 'v': gt_map_dir must be a string, got None$")
        with pytest.raises(ParseError, match=want):
            D.load_manifest(path)

    def test_no_videos(self, tmp_path):
        path = write_manifest(tmp_path, [])
        with pytest.raises(ParseError, match=named(path, "manifest lists no videos$")):
            D.load_manifest(path)

    @pytest.mark.parametrize("resolution", [(0, 8), (8, 65536), (8, 8, 8)])
    def test_resolution_out_of_bounds(self, tmp_path, resolution):
        path = write_manifest(tmp_path, resolution=resolution)
        text = "resolution must be [height, width], each in [1, 65535]"
        want = named(path, re.escape(text) + "$")
        with pytest.raises(ParseError, match=want):
            D.load_manifest(path)

    def test_duplicate_id_is_checked_after_the_resolution(self, tmp_path):
        path = write_manifest(tmp_path, [VIDEO, VIDEO])
        with pytest.raises(ParseError, match=named(path, "video id 'v' is listed twice$")):
            D.load_manifest(path)
        path = write_manifest(tmp_path, [VIDEO, VIDEO], resolution=(0, 8))
        with pytest.raises(ParseError, match=named(path, "resolution must")):
            D.load_manifest(path)


class TestLoadVideo:
    def test_loads_generated_video(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=5, height=14, width=10, seed=5)
        manifest = D.load_manifest(D.generate_synthetic(out, config))
        video, res = manifest["videos"][0], manifest["resolution"]
        static_maps = resized_maps(video, "static_map_dir", res)
        gt_maps = resized_maps(video, "gt_map_dir", res)
        fixations = D.load_video(video, res)
        assert len(static_maps) == 5
        assert len(gt_maps) == 5
        assert len(fixations) == 5
        for sal in static_maps + gt_maps:
            assert sal.shape == (14, 10)
        for fix in fixations:
            for r, c in fix:
                assert 0 <= r < 14 and 0 <= c < 10

    def test_resizes_to_manifest_resolution(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=2, height=16, width=16, seed=6)
        D.generate_synthetic(out, config)
        # declare a smaller resolution in the manifest and reload
        path = os.path.join(out, "manifest.json")
        with open(path) as fh:
            payload = json.load(fh)
        payload["resolution"] = [8, 8]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        manifest = D.load_manifest(path)
        video, res = manifest["videos"][0], manifest["resolution"]
        assert resized_maps(video, "static_map_dir", res)[0].shape == (8, 8)
        for r, c in D.load_video(video, res)[0]:
            assert 0 <= r < 8 and 0 <= c < 8

    def test_video_without_frames_is_a_parse_error(self, tmp_path):
        path = write_manifest(tmp_path, [{**VIDEO, "video_id": "video_000", "frames": []}])
        with pytest.raises(ParseError, match=named(path, "video_000: video lists no frames$")):
            D.load_manifest(path)

    def test_static_maps_of_one_video_share_one_size(self, tmp_path):
        # fixations are read in the static maps' frame, so one video's maps
        # of two sizes leave that frame undefined
        (tmp_path / "v" / "static").mkdir(parents=True)
        (tmp_path / "v" / "gt").mkdir()
        for frame, side in ((0, 16), (1, 8)):
            name = D.frame_file_name(frame)
            D.write_map(np.zeros((side, side)), str(tmp_path / "v" / "static" / name))
            D.write_map(np.zeros((side, side)), str(tmp_path / "v" / "gt" / name))
        (tmp_path / "v" / "fixations.csv").write_text("0,12,12\n")
        manifest = D.load_manifest(write_manifest(tmp_path, resolution=(16, 16)))
        with pytest.raises(
            DimensionMismatch, match="^v: static map of frame 1 is 8x8, frame 0's is 16x16$"
        ):
            D.load_video(manifest["videos"][0], manifest["resolution"])

    def test_missing_file_detected(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=3, height=10, width=10, seed=4)
        manifest = D.load_manifest(D.generate_synthetic(out, config))
        for name, want in (
            ("static/000001.pgm", "frame 1 has no map"),
            ("fixations.csv", "no fixation file"),
        ):
            path = os.path.join(out, "video_000", name)
            os.rename(path, path + ".away")
            with pytest.raises(MissingInput, match=f"^video_000: {want} .*{name}$"):
                D.load_video(manifest["videos"][0], manifest["resolution"])
            os.rename(path + ".away", path)


class TestReadMaps:
    def test_yields_each_frame_as_stored(self, tmp_path):
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=3, height=10, width=12, seed=4)
        video = D.load_manifest(D.generate_synthetic(out, config))["videos"][0]
        maps = list(D.read_maps(D.map_paths(video, video["gt_map_dir"], MissingInput)))
        assert len(maps) == 3
        for frame, sal in zip(video["frames"], maps):
            want = D.load_map(os.path.join(video["gt_map_dir"], D.frame_file_name(frame)))
            assert np.array_equal(sal, want)

    @pytest.mark.parametrize("missing", [MissingInput, MissingPrediction])
    def test_missing_file_raises_the_given_error(self, tmp_path, monkeypatch, missing):
        """``map_paths`` finds the missing file before any map is read."""
        out = str(tmp_path / "data")
        config = D.SyntheticConfig(videos=1, frames=3, height=10, width=10, seed=4)
        video = D.load_manifest(D.generate_synthetic(out, config))["videos"][0]
        os.remove(os.path.join(out, "video_000", "gt", "000002.pgm"))
        read = []
        monkeypatch.setattr(D, "load_map", read.append)
        with pytest.raises(missing, match="^video_000: frame 2 has no map .*gt/000002.pgm$"):
            D.map_paths(video, video["gt_map_dir"], missing)
        assert read == []


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
        manifest = D.load_manifest(D.generate_synthetic(out, config))
        video, res = manifest["videos"][0], manifest["resolution"]
        static_maps = resized_maps(video, "static_map_dir", res)
        gt_maps = resized_maps(video, "gt_map_dir", res)
        shifts = range(5)
        mean_cc = []
        for s in shifts:
            scores = []
            for t in range(len(gt_maps) - max(shifts)):
                value = M.cc(static_maps[t + s], gt_maps[t])
                if value is not None:
                    scores.append(value)
            mean_cc.append(float(np.mean(scores)))
        assert int(np.argmax(mean_cc)) == 2
        assert mean_cc[2] > mean_cc[0]
