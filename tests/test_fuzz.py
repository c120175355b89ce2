"""Property tests for the file parsers.

Whatever bytes a file holds, ``load_map``, ``load_fixations``,
``load_manifest``, ``load_scores`` and ``load_checkpoint`` return a valid
object or raise a :class:`SaliencyError`; any other exception is a bug.
"""

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsal import data as D
from tsal import metrics as M
from tsal import model as Mo
from tsal import train as Tr
from tsal.errors import CorruptCheckpoint, ParseError, SaliencyError

# derandomized and without an example database, so every run is the same
FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def parse(loader, blob: bytes):
    """loader(path) on a file holding ``blob``; None if it raised SaliencyError."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            return loader(path)
        except SaliencyError:
            return None


def tokens(*pieces: bytes):
    """Byte strings glued from ``pieces``, which steer the search into a format."""
    return st.lists(st.sampled_from(pieces), max_size=40).map(b"".join)


# ---------------------------------------------------------------------------
# portable graymaps

PGM_PIECES = (
    b" ", b"\n", b"\t", b"#c\n", b"0", b"1", b"2", b"8", b"255", b"256", b"-1",
    b"99999999999999999999", b"x", b"\xff", b"\x00",
)


def check_map(sal):
    if sal is not None:
        assert isinstance(sal, np.ndarray) and sal.ndim == 2 and sal.dtype == np.float64
        assert np.all(np.isfinite(sal)) and sal.min() >= 0.0 and sal.max() <= 1.0


@FUZZ
@given(st.binary(max_size=200))
def test_load_map_any_bytes(blob):
    check_map(parse(D.load_map, blob))


@FUZZ
@given(
    st.tuples(st.sampled_from([b"P5", b"P2"]), tokens(*PGM_PIECES), st.binary(max_size=40)).map(
        b"".join
    )
)
@example(b"P2 1 1 255 99999999999999999999 ")
def test_load_map_header_like_bytes(blob):
    check_map(parse(D.load_map, blob))


# ---------------------------------------------------------------------------
# fixation CSVs

CSV_PIECES = (
    b"0", b"3", b"12", b",", b"\n", b"\r\n", b"\r", b"#", b" ", b"-1", b"x",
    b"\xff", b"\x00", b"99999999999999999999",
)


def check_fixations(result):
    if result is not None:
        for frame, fix in result.items():
            assert isinstance(fix, np.ndarray) and fix.dtype == np.int64
            assert fix.ndim == 2 and fix.shape[1] == 2
            assert frame >= 0 and len(fix) > 0 and fix.min() >= 0


@FUZZ
@given(st.binary(max_size=200))
def test_load_fixations_any_bytes(blob):
    check_fixations(parse(D.load_fixations, blob))


@FUZZ
@given(tokens(*CSV_PIECES))
@example(b"0,1,2\n\xff\n")
@example(b"0,1,99999999999999999999\n")
def test_load_fixations_csv_like_bytes(blob):
    check_fixations(parse(D.load_fixations, blob))


# ---------------------------------------------------------------------------
# manifests

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
VALID_ENTRY = {
    "video_id": "v",
    "frames": [0, 1],
    "static_map_dir": "v/static",
    "gt_map_dir": "v/gt",
    "fixation_file": "v/fixations.csv",
    "group_label": "free-viewing",
}


def check_manifest(manifest):
    if manifest is not None:
        assert isinstance(manifest, D.DatasetManifest)
        assert len(manifest.resolution) == 2 and min(manifest.resolution) >= 1


@FUZZ
@given(st.binary(max_size=200))
def test_load_manifest_any_bytes(blob):
    check_manifest(parse(D.load_manifest, blob))


@FUZZ
@given(st.dictionaries(st.sampled_from([*VALID_ENTRY, "resolution"]), JSON_VALUES, max_size=3))
@example({"resolution": [float("inf"), 8]})
@example({"resolution": [0, 8]})
def test_load_manifest_field_values(overrides):
    entry = dict(VALID_ENTRY)
    entry.update(overrides)
    payload = {"resolution": entry.pop("resolution", [8, 8]), "videos": [entry]}
    blob = json.dumps(payload).encode()
    check_manifest(parse(D.load_manifest, blob))


# ---------------------------------------------------------------------------
# score files


def check_scores(report):
    if report is not None:
        assert isinstance(report, M.EvalReport)
        for vs in report.per_video.values():
            for name in M.METRIC_NAMES:
                value = vs.scores.get(name)
                assert value is None or math.isfinite(value)
            counts = [getattr(vs, key) for key in M.VIDEO_COUNTS]
            assert all(type(n) is int and n >= 0 for n in counts)
        for members in report.groups.values():
            assert type(members) is list and all(type(vid) is str for vid in members)


@FUZZ
@given(st.binary(max_size=200))
def test_load_scores_any_bytes(blob):
    check_scores(parse(D.load_scores, blob))


@FUZZ
@given(st.dictionaries(st.sampled_from(M.METRIC_NAMES + M.VIDEO_COUNTS), JSON_VALUES, max_size=3))
@example({"nss": 10**400})
@example({"frames": True})
def test_load_scores_field_values(overrides):
    row = {"nss": 1.0, "frames": 1}
    row.update(overrides)
    payload = {"per_video": {"v": row}, "groups": {"free-viewing": ["v"]}}
    check_scores(parse(D.load_scores, json.dumps(payload).encode()))


@FUZZ
@given(JSON_VALUES, JSON_VALUES)
def test_load_scores_structure(per_video, groups):
    blob = json.dumps({"per_video": per_video, "groups": groups}).encode()
    check_scores(parse(D.load_scores, blob))


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_body(variant: str) -> bytes:
    """A valid checkpoint without its trailing CRC."""
    model = Mo.init_parameters(variant, rng_seed=0, hidden_channels=2)
    buffers = {name: np.zeros_like(arr) for name, arr in model.named_parameters()}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "model.tsal")
        Tr.save_checkpoint(model, buffers, path)
        with open(path, "rb") as fh:
            return fh.read()[:-4]


BODIES = {variant: checkpoint_body(variant) for variant in Mo.VARIANTS}
HIDDEN_AT = 7  # offset of the uint16 hidden width: magic, version, variant


def seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def check_checkpoint(result):
    if result is not None:
        model, buffers = result
        assert model.variant in Mo.VARIANTS
        for name, arr in model.named_parameters():
            assert np.all(np.isfinite(arr)) and np.all(np.isfinite(buffers[name]))


@FUZZ
@given(st.binary(max_size=200))
def test_load_checkpoint_any_bytes(blob):
    check_checkpoint(parse(Tr.load_checkpoint, blob))


@FUZZ
@given(
    st.sampled_from(Mo.VARIANTS),
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4),
    st.none() | st.integers(0, 2**16),
)
@example(Mo.CONV_LSTM, [(HIDDEN_AT, 0xFF), (HIDDEN_AT + 1, 0xFF)], None)
@example(Mo.CONV_ONLY, [(HIDDEN_AT, 0), (HIDDEN_AT + 1, 0)], None)
def test_load_checkpoint_resealed_mutations(variant, edits, cut):
    """Mutated bodies get a fresh CRC, so parsing reaches past the checksum."""
    body = bytearray(BODIES[variant])
    for at, value in edits:
        body[at % len(body)] = value
    check_checkpoint(parse(Tr.load_checkpoint, seal(bytes(body[:cut]))))


# ---------------------------------------------------------------------------
# non-UTF-8 text, one case per reader


def test_non_utf8_fixations_are_parse_error(tmp_path):
    path = tmp_path / "fix.csv"
    path.write_bytes(b"0,1,2\n\xff\n")
    with pytest.raises(ParseError):
        D.load_fixations(str(path))


def test_non_utf8_manifest_is_parse_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"resolution": [8, 8], "videos": ["\xff"]}')
    with pytest.raises(ParseError):
        D.load_manifest(str(path))


def test_non_utf8_tensor_name_is_corrupt_checkpoint(tmp_path):
    body = bytearray(BODIES[Mo.CONV_ONLY])
    at = body.index(b"feature.weights")
    body[at] = 0xFF
    path = tmp_path / "model.tsal"
    path.write_bytes(seal(bytes(body)))
    with pytest.raises(CorruptCheckpoint, match="UTF-8"):
        Tr.load_checkpoint(str(path))
