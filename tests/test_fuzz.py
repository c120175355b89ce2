"""Property tests for the file parsers and the settings checks.

Whatever bytes a file holds, ``load_map``, ``load_fixations``,
``load_manifest``, ``load_scores`` and ``load_checkpoint`` return a valid
object or raise a :class:`SaliencyError`; any other exception is a bug.
Whatever values a config gives, ``tsal generate`` writes the dataset it
names or ends in one ``ERROR ParseError:`` line before writing anything.
"""

import io
import json
import math
import os
import re
import shutil
import struct
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsal import cli
from tsal import data as D
from tsal import metrics as M
from tsal import model as Mo
from tsal import train as Tr
from tsal.errors import (
    BadHeader,
    CorruptCheckpoint,
    ParseError,
    SaliencyError,
    TruncatedData,
    UnsupportedDepth,
)

# derandomized and without an example database, so every run is the same
FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def parse(loader, blob: bytes):
    """loader(path) on a file holding ``blob``; None if it raised SaliencyError,
    whose message, the text of an ``ERROR`` line, holds no Python exception repr."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            return loader(path)
        except SaliencyError as exc:
            assert "Error(" not in str(exc)
            return None


def tokens(*pieces: bytes):
    """Byte strings glued from ``pieces``, which steer the search into a format."""
    return st.lists(st.sampled_from(pieces), max_size=40).map(b"".join)


# ---------------------------------------------------------------------------
# portable graymaps

PGM_PIECES = (
    b" ", b"\n", b"\t", b"#c\n", b"0", b"1", b"2", b"8", b"255", b"256", b"-1",
    b"99999999999999999999", b"x", b"\xff", b"\x00", b"+", b"_", "\u0661".encode(), b"9" * 5000,
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
@example(b"P5 " + b"9" * 5000 + b" 1 255\n")
@example(b"P2 1 1 255 " + b"9" * 5000 + b" ")
def test_load_map_header_like_bytes(blob):
    check_map(parse(D.load_map, blob))


# The byte-at-a-time header scanner and decoder that data._PGM_HEADER
# replaced, frozen as the reference the pattern must agree with.


def scanner_header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    tokens: list[bytes] = []
    pos = 0
    n = len(blob)
    while len(tokens) < count:
        while pos < n and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < n and blob[pos : pos + 1] == b"#":
            while pos < n and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos >= n:
            raise TruncatedData("file ended inside the header")
        start = pos
        while pos < n and not blob[pos : pos + 1].isspace() and blob[pos : pos + 1] != b"#":
            pos += 1
        tokens.append(blob[start:pos])
    if pos >= n or not blob[pos : pos + 1].isspace():
        raise TruncatedData("missing whitespace after header")
    return tokens, pos + 1


def scanner_header_int(token: bytes, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise BadHeader(f"{what} is not an integer: {token!r}") from None
    if value <= 0:
        raise BadHeader(f"{what} must be positive, got {value}")
    return value


def scanner_decode_pgm(blob: bytes) -> np.ndarray:
    magic = blob[:2]
    if magic not in (b"P5", b"P2"):
        raise BadHeader(f"bad magic {magic!r}, expected P5 or P2")
    tokens, raster_at = scanner_header_tokens(blob, 4)
    if tokens[0] != magic:
        raise BadHeader(f"bad magic {tokens[0]!r}, expected P5 or P2")
    width = scanner_header_int(tokens[1], "width")
    height = scanner_header_int(tokens[2], "height")
    maxval = scanner_header_int(tokens[3], "maxval")
    if maxval != 255:
        raise UnsupportedDepth(f"maxval {maxval} unsupported, expected 255")

    count = width * height
    if magic == b"P5":
        raster = blob[raster_at : raster_at + count]
        if len(raster) < count:
            raise TruncatedData(f"raster holds {len(raster)} of {count} bytes")
        values = np.frombuffer(raster, dtype=np.uint8)
    else:
        text = blob[raster_at - 1 :]
        parts = text.split()
        if len(parts) < count:
            raise TruncatedData(f"raster holds {len(parts)} of {count} samples")
        try:
            values = np.array([int(p) for p in parts[:count]], dtype=np.int64)
        except (ValueError, OverflowError):
            raise BadHeader("P2 sample is not an integer in [0, 255]") from None
        if values.min() < 0 or values.max() > 255:
            raise BadHeader("P2 sample outside [0, 255]")
        values = values.astype(np.uint8)
    return values.reshape(height, width).astype(np.float64) / 255.0


def decoded(decode, blob: bytes):
    """The map ``decode`` reads from ``blob``, or its exception's class and message."""
    try:
        sal = decode(blob)
    except SaliencyError as exc:
        return type(exc), str(exc)
    return sal.shape, sal.tobytes()


# No '+', '_' or non-ASCII digit: the scanner's int() read those as numbers.
# Cutting a blob at every offset ends comments, tokens and rasters anywhere.
GAP_PIECES = (b" ", b"\n", b"\r", b"\v", b"\f", b"\t", b"#c\n", b"# 2 #\n", b"#\r\n")
GAPS = st.lists(st.sampled_from(GAP_PIECES), min_size=1, max_size=3).map(b"".join)
SIDES = st.sampled_from([b"1", b"2", b"3", b"1", b"2", b"3", b"0", b"-1", b"x", b"2#c\n"])
HEADERS = st.tuples(
    st.sampled_from([b"P5", b"P2", b"P5", b"P2", b"P5x", b"P2#"]), GAPS, SIDES, GAPS, SIDES, GAPS,
    st.sampled_from([b"255", b"255", b"255", b"256", b"x"]),
    st.sampled_from([b"\n", b" ", b"\r", b"\v", b"\f", b"", b"#"]),
    tokens(b"0", b"1", b"255", b"256", b"-1", b" ", b"\n", b"#", b"x", b"\x00", b"\xff"),
).map(b"".join)  # fmt: skip


@FUZZ
@given(HEADERS)
@example(b"P5 1 1 #c 255\n\x00")  # read as maxval 5 if a comment could end early
@example(b"P5garbage 1 1")  # truncated before its glued magic is refused
def test_pgm_header_pattern_agrees_with_the_byte_scanner(blob):
    for end in range(len(blob) + 1):
        cut = blob[:end]
        assert decoded(D._decode_pgm, cut) == decoded(scanner_decode_pgm, cut)
        if cut[:2] not in (b"P5", b"P2"):
            continue
        groups = D._PGM_HEADER.match(cut).groups()
        try:
            tokens, raster_at = scanner_header_tokens(cut, 4)
        except TruncatedData:
            assert None in groups
        else:
            assert groups[:4] == tuple(tokens) and D._PGM_HEADER.match(cut).end() == raster_at


# ---------------------------------------------------------------------------
# fixation CSVs

CSV_PIECES = (
    b"0", b"3", b"12", b",", b"\n", b"\r\n", b"\r", b"#", b" ", b"-1", b"x",
    b"\xff", b"\x00", b"99999999999999999999", b"+", b"_", "\u0661".encode(), b"9" * 5000,
)


def load_fixations_unbounded(path: str) -> dict[int, np.ndarray]:
    """``load_fixations`` with dims no int64 point reaches, so no point is out of bounds."""
    return D.load_fixations(path, (2**63, 2**63))


def check_fixations(result):
    if result is not None:
        for frame, fix in result.items():
            assert isinstance(fix, np.ndarray) and fix.dtype == np.int64
            assert fix.ndim == 2 and fix.shape[1] == 2
            assert frame >= 0 and len(fix) > 0 and fix.min() >= 0


@FUZZ
@given(st.binary(max_size=200))
def test_load_fixations_any_bytes(blob):
    check_fixations(parse(load_fixations_unbounded, blob))


@FUZZ
@given(tokens(*CSV_PIECES))
@example(b"0,1,2\n\xff\n")
@example(b"0,1,99999999999999999999\n")
@example(b"0,1," + b"9" * 5000 + b"\n")
def test_load_fixations_csv_like_bytes(blob):
    check_fixations(parse(load_fixations_unbounded, blob))


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
        assert manifest.keys() == {"resolution", "videos"}
        resolution = manifest["resolution"]
        assert type(resolution) is tuple and len(resolution) == 2
        assert all(type(n) is int and 1 <= n <= D.MAX_MAP_SIDE for n in resolution)
        videos = manifest["videos"]
        assert type(videos) is list and videos
        for video in videos:
            assert video.keys() == D.MANIFEST_FIELDS.keys()
            for key, kind in D.MANIFEST_FIELDS.items():
                assert type(video[key]) is kind
            for key in ("static_map_dir", "gt_map_dir", "fixation_file"):
                assert os.path.isabs(video[key])
            frames = video["frames"]
            assert frames and all(type(f) is int for f in frames)
            assert all(a < b for a, b in zip(frames, frames[1:]))
            assert video["group_label"] in D.GROUP_LABELS
        ids = [video["video_id"] for video in videos]
        assert len(set(ids)) == len(ids)


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
        assert report.keys() == {"per_video", "groups", "group_averages"}
        for row in report["per_video"].values():
            assert row.keys() == {*M.METRIC_NAMES, *M.VIDEO_COUNTS}
            for name in M.METRIC_NAMES:
                assert row[name] is None or math.isfinite(row[name])
            counts = [row[key] for key in M.VIDEO_COUNTS]
            assert all(type(n) is int and n >= 0 for n in counts)
        for members in report["groups"].values():
            assert type(members) is list and all(type(vid) is str for vid in members)
            assert len(set(members)) == len(members)


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
NAME_AT = 15  # offset of the first record's name: the 13-byte header, its uint16 length


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
# the first record's name: 'lstm.wx_i' to 'lstm.wx_f'; its dims: (2, 1, 3, 3) to (1, 2, 3, 3)
@example(Mo.CONV_LSTM, [(NAME_AT + 8, ord("f"))], None)
@example(Mo.CONV_ONLY, [(NAME_AT + 15, 1), (NAME_AT + 19, 2)], None)
def test_load_checkpoint_resealed_mutations(variant, edits, cut):
    """Mutated bodies get a fresh CRC, so parsing reaches past the checksum."""
    body = bytearray(BODIES[variant])
    for at, value in edits:
        body[at % len(body)] = value
    check_checkpoint(parse(Tr.load_checkpoint, seal(bytes(body[:cut]))))


# ---------------------------------------------------------------------------
# generate settings

ODD_SETTINGS = (None, True, False, 0, -1, -0.0, 1e-200, math.inf, "3", [1])
HUGE_SETTINGS = (2**70, 10**400)  # past int64; past float64
VALID_SETTINGS = {
    "videos": st.integers(1, 2),
    "frames": st.integers(1, 3),
    "height": st.integers(8, 16),
    "width": st.integers(8, 16),
    "seed": st.integers(0, 2**70),
    "lag": st.integers(0, 3),
    "blob_sigma": st.floats(0.05, 10.0),
    "noise": st.floats(0.0, 1.0),
    "fixations_per_frame": st.integers(0, 5),
}
SIZES = ("videos", "frames", "height", "width")  # always given, so no draw is large


def odd_setting(key: str):
    # a bound refuses a huge value, or it costs nothing, for every key but videos
    huge = HUGE_SETTINGS if key != "videos" else ()
    return st.tuples(st.just(key), st.sampled_from(ODD_SETTINGS + huge))


@settings(FUZZ, max_examples=100)  # a valid draw writes a dataset
@given(
    st.fixed_dictionaries(
        {key: VALID_SETTINGS[key] for key in SIZES},
        optional={key: VALID_SETTINGS[key] for key in VALID_SETTINGS if key not in SIZES},
    ),
    st.lists(st.sampled_from(list(VALID_SETTINGS)).flatmap(odd_setting), max_size=2),
)
@example({"videos": 1, "frames": 2, "height": 8, "width": 8}, [("noise", -0.0)])
@example({"videos": 1, "frames": 2, "height": 8, "width": 8}, [("blob_sigma", 1e-200)])
def test_generate_settings(valid, odd):
    config = {**valid, **dict(odd)}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(root, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(["generate", "--config", path, "--out", out])
        if code == 0:
            assert stdout.getvalue() == os.path.join(out, "manifest.json") + "\n"
            manifest = D.load_manifest(os.path.join(out, "manifest.json"))
            assert len(manifest["videos"]) == config["videos"]
            for video in manifest["videos"]:
                assert video["frames"] == list(range(config["frames"]))
        else:
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("ERROR")]
            assert code == 1 and len(errors) == 1 and errors[0].startswith("ERROR ParseError:")
            assert "Traceback" not in stderr.getvalue()
            assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# whole commands on a corrupted tree


def run_cli(*argv: str) -> tuple[int, str]:
    """``tsal argv`` in process: its exit code and stderr."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def pristine_tree(tmp_path_factory):
    """A 2-video, 4-frame, 8x8 dataset with a checkpoint, its predictions and their scores."""
    root = tmp_path_factory.mktemp("pristine")
    tree, manifest = str(root / "tree"), str(root / "tree" / "manifest.json")
    ckpt = os.path.join(tree, "model.tsal")
    for argv in (
        ["generate", "--out", tree, "--videos", "2", "--frames", "4", "--height", "8",
         "--width", "8", "--seed", "3"],
        ["train", "--manifest", manifest, "--ckpt", ckpt, "--loss-csv", str(root / "loss.csv"),
         "--hidden", "2", "--max-steps", "1"],
        ["predict", "--manifest", manifest, "--ckpt", ckpt, "--out", os.path.join(tree, "pred")],
        ["evaluate", "--manifest", manifest, "--predictions", os.path.join(tree, "pred"),
         "--out", os.path.join(tree, "scores.json")],
    ):  # fmt: skip
        assert run_cli(*argv)[0] == 0
    files = sorted(
        os.path.relpath(os.path.join(dirpath, name), tree)
        for dirpath, _, names in os.walk(tree)
        for name in names
    )
    return tree, files


INSERTS = (b"nan", b"1e309", b"-1", b"null", b"+1", b"1_0", b"9" * 5000)
CORRUPTIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2**16), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.sampled_from(INSERTS)),
)


def corrupt(blob: bytes, kind: str, at: int, what) -> bytes:
    if kind == "flip":
        at %= len(blob)
        return blob[:at] + bytes([blob[at] ^ what]) + blob[at + 1 :]
    at %= len(blob) + 1
    return blob[:at] if kind == "cut" else blob[:at] + what + blob[at:]


def check_run(code: int, stderr: str) -> None:
    """Exit 0 without an ERROR line, or exit 1 with exactly one and no traceback."""
    errors = [line for line in stderr.splitlines() if line.startswith("ERROR")]
    assert "Traceback" not in stderr
    assert (code, len(errors)) in ((0, 0), (1, 1)), stderr
    assert all(re.match(r"ERROR [A-Za-z]+: ", line) and "Error(" not in line for line in errors)


@settings(FUZZ, max_examples=100)  # each draw runs four commands
@given(st.data(), CORRUPTIONS)
def test_every_command_on_a_corrupted_file_is_one_error_or_a_valid_result(
    pristine_tree, data, corruption
):
    pristine, files = pristine_tree
    name = data.draw(st.sampled_from(files), label="file")
    with tempfile.TemporaryDirectory() as root:
        tree, out = os.path.join(root, "tree"), os.path.join(root, "out")
        shutil.copytree(pristine, tree)
        os.mkdir(out)
        with open(os.path.join(tree, name), "r+b") as fh:
            blob = corrupt(fh.read(), *corruption)
            fh.seek(0)
            fh.truncate()
            fh.write(blob)
        manifest, pred = os.path.join(tree, "manifest.json"), os.path.join(out, "pred")
        scores = os.path.join(out, "scores.json")
        for argv in (
            ["train", "--manifest", manifest, "--ckpt", os.path.join(out, "m.tsal"),
             "--loss-csv", os.path.join(out, "loss.csv"), "--hidden", "2", "--max-steps", "1"],
            ["predict", "--manifest", manifest, "--ckpt", os.path.join(tree, "model.tsal"),
             "--out", pred],
            ["evaluate", "--manifest", manifest, "--predictions", os.path.join(tree, "pred"),
             "--out", scores],
            ["report", os.path.join(tree, "scores.json")],
        ):  # fmt: skip
            before = sorted(os.listdir(out))
            code, stderr = run_cli(*argv)
            check_run(code, stderr)
            if code:
                assert sorted(os.listdir(out)) == before  # wrote nothing, not even a temp tree
        if os.path.exists(pred):
            videos = D.load_manifest(manifest)["videos"]
            assert sorted(os.listdir(pred)) == sorted(video["video_id"] for video in videos)
            for video in videos:
                names = sorted(os.listdir(os.path.join(pred, video["video_id"])))
                assert names == [D.frame_file_name(frame) for frame in video["frames"]]
        if os.path.exists(scores):
            with open(scores, encoding="utf-8") as fh:
                M.checked_report(json.load(fh))


# ---------------------------------------------------------------------------
# non-UTF-8 text, one case per reader


def test_non_utf8_fixations_are_parse_error(tmp_path):
    path = tmp_path / "fix.csv"
    path.write_bytes(b"0,1,2\n\xff\n")
    with pytest.raises(ParseError):
        D.load_fixations(str(path), (8, 8))


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
    with pytest.raises(CorruptCheckpoint, match="'feature.weights'"):
        Tr.load_checkpoint(str(path))
