"""File formats and datasets: PGM maps, fixation CSVs, manifests, scores, synthesis.

Maps travel as 8-bit portable graymaps (P5 binary or P2 text, maxval
255), fixations as "frame_index,row,col" CSV with '#' comments, and a
dataset is a JSON manifest naming per-video directories relative to its
own directory:

    <root>/<video_id>/static/000000.pgm   input saliency maps
    <root>/<video_id>/gt/000000.pgm       ground-truth maps
    <root>/<video_id>/fixations.csv       gaze points

``load_manifest`` returns that JSON as a checked dict, its paths resolved.
``map_paths`` is the one finder of a video's map files, of all its frames or
of a slice of them: it checks that every file exists before it returns
their paths. ``read_maps`` reads the paths it is given, one file at a time:
train reads one window of static maps and ground truth through it at a
time, predict one static map, and evaluate one block of ground truth and
predictions. ``load_video`` reads a video's fixations in the frame of its
static maps, whose one shared size it checks; evaluate reads every video's in
its own process before it scores any. ``publish`` is the one way a command's
output reaches its path: written beside it, then renamed into place.
``worker_map`` is the one process pool, one call a command, whose workers inherit
by fork the function they run: generate writes, predict refines and evaluate
scores one video per worker.

The synthetic generator produces videos of a Gaussian blob drifting on a
momentum random walk; the ground truth is the clean blob ``lag`` frames
ahead of the (noisy) static map, so temporal models have signal that
per-frame models cannot capture. Generation is byte-deterministic per
seed at any worker count: each video comes from its own seeded stream, and
the manifest is written last, in video order.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import shutil
import signal
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadHeader,
    DimensionMismatch,
    MissingInput,
    OutOfBounds,
    OutOfRange,
    ParseError,
    SaliencyError,
    TruncatedData,
    UnknownVideo,
    UnsupportedDepth,
    WorkerDied,
    brief,
    misfit,
)
from .metrics import checked_report

GROUP_LABELS = ("free-viewing", "task-driven")
# the largest manifest resolution side; it keeps map sizes inside numpy's index range
MAX_MAP_SIDE = 65535
FRAME_NAME_DIGITS = 6
# the synthetic blob's velocity: kept share per frame, and the std of each kick
WALK_PERSISTENCE = 0.9
WALK_KICK = 0.6


def frame_file_name(frame_id: int) -> str:
    return f"{frame_id:0{FRAME_NAME_DIGITS}d}.pgm"


@contextlib.contextmanager
def publish(path: str, directory: bool = False) -> Iterator[str]:
    """Yield a new temp file (or directory) beside ``path``, with the mode ``open()`` (or
    ``os.makedirs``) would give, and rename it onto ``path``; on any exception, remove it."""
    parent, name = os.path.split(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    if directory:
        tmp = tempfile.mkdtemp(prefix=name + ".", suffix=".tmp", dir=parent)
    else:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=parent)
        os.close(fd)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, (0o777 if directory else 0o666) & ~umask)
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        (shutil.rmtree if directory else os.unlink)(tmp)
        raise


def worker_map(fn, *iterables) -> list:
    """``fn`` of each item of the zipped ``iterables``, as a list in input order, computed in a
    fork process pool of one worker per usable CPU and at most one per item.

    Each worker inherits ``fn`` by fork, through the pool's initializer, so only each item's
    own arguments are pickled. The pool forks every worker before it starts a thread; "fork"
    is named as Python 3.14 no longer defaults to it on Linux. The first failure in input
    order is raised, so neither it nor the results depend on the worker count; a worker that
    dies is one WorkerDied, and on return pending items are cancelled and workers have ended.
    Workers inherit an OpenBLAS thread count of at most CPUs // workers, set in the parent
    around the fork and restored on return, so that workers x threads <= CPUs.
    """
    # imported here, so train does not load them (about 23 ms and 0.9 MiB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    items = list(zip(*iterables))
    cpus = len(os.sched_getaffinity(0))
    count = min(len(items), cpus)
    context = multiprocessing.get_context("fork")
    workers = ProcessPoolExecutor(count, context, initializer=_start, initargs=(fn,))
    blas = _blas_threads()
    if blas:
        get_threads, set_threads = blas
        parent_threads = get_threads()
        set_threads(min(parent_threads, max(1, cpus // count)))
    try:
        return list(workers.map(_run, items))
    except BrokenProcessPool as exc:
        raise WorkerDied(str(exc)) from None
    finally:
        workers.shutdown(cancel_futures=True)
        if blas:
            set_threads(parent_threads)


def _start(fn) -> None:
    """A worker's initializer, which calls no OpenBLAS function (that made workers spin): keep
    ``fn`` for ``_run``, and end at once and in silence on SIGINT or SIGTERM, as reporting an
    interrupt is the parent's part."""
    global _worker_fn
    _worker_fn = fn
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


def _run(args: tuple):
    return _worker_fn(*args)


def _blas_threads() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS this process has loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    for library in map(ctypes.CDLL, paths):
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"), ("scipy_openblas", "64_")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# ---------------------------------------------------------------------------
# portable graymap


# Magic, width, height and maxval after whitespace and '#' comments, then one whitespace byte; a
# group the file ends before is None. A comment runs to its line end: backtracking can't cut it.
_GAP = rb"(?:\s|#[^\n]*(?=\n|\Z))*"
_PGM_HEADER = re.compile(
    rb"([^\s#]+)(?:%s([^\s#]+)(?:%s([^\s#]+)(?:%s([^\s#]+)(\s)?)?)?)?" % (_GAP, _GAP, _GAP)
)


# An integer in any file is ASCII digits after at most one '-'; int() also takes '+3' and '1_0'.
# A fixation line "frame_index,row,col" is three, with whitespace allowed around each comma.
_INTEGER = "-?[0-9]+"
_PGM_INTEGER = re.compile(_INTEGER.encode())
_FIXATION_LINE = re.compile(r"({0})\s*,\s*({0})\s*,\s*({0})".format(_INTEGER))


def _header_int(token: bytes, what: str) -> int:
    try:
        if not _PGM_INTEGER.fullmatch(token):
            raise ValueError(token)
        value = int(token)  # ValueError past int()'s 4,300-digit limit too
    except ValueError:
        raise BadHeader(f"{what} is not an integer: {token!r}") from None
    if value <= 0:
        raise BadHeader(f"{what} must be positive, got {value}")
    return value


def load_map(path: str) -> np.ndarray:
    """Read one PGM (P5 or P2, maxval 255) as a 2-D float64 map in [0, 1].

    A malformed file raises BadHeader, TruncatedData or UnsupportedDepth,
    its message prefixed with ``path``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_pgm(blob)
    except (BadHeader, TruncatedData, UnsupportedDepth) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _decode_pgm(blob: bytes) -> np.ndarray:
    # the prefix check first, so a file that is no graymap at all is BadHeader
    magic = blob[:2]
    if magic not in (b"P5", b"P2"):
        raise BadHeader(f"bad magic {magic!r}, expected P5 or P2")
    header = _PGM_HEADER.match(blob)
    *tokens, space = header.groups()
    if None in tokens:
        raise TruncatedData("file ended inside the header")
    if space is None:
        raise TruncatedData("missing whitespace after header")
    if tokens[0] != magic:
        raise BadHeader(f"bad magic {tokens[0]!r}, expected P5 or P2")
    width, height, maxval = map(_header_int, tokens[1:], ("width", "height", "maxval"))
    if maxval != 255:
        raise UnsupportedDepth(f"maxval {maxval} unsupported, expected 255")

    count = width * height
    if magic == b"P5":
        raster = blob[header.end() : header.end() + count]
        if len(raster) < count:
            raise TruncatedData(f"raster holds {len(raster)} of {count} bytes")
        values = np.frombuffer(raster, dtype=np.uint8)
    else:
        samples = blob[header.end() :].split()[:count]
        if len(samples) < count:
            raise TruncatedData(f"raster holds {len(samples)} of {count} samples")
        try:
            if not all(map(_PGM_INTEGER.fullmatch, samples)):
                raise ValueError("non-digit sample")
            values = np.array([int(p) for p in samples], dtype=np.int64)
        except (ValueError, OverflowError):
            raise BadHeader("P2 sample is not an integer in [0, 255]") from None
        if values.min() < 0 or values.max() > 255:
            raise BadHeader("P2 sample outside [0, 255]")
        values = values.astype(np.uint8)
    return values.reshape(height, width).astype(np.float64) / 255.0


def write_map(sal: np.ndarray, path: str) -> None:
    """Write a 2-D map as binary P5, quantizing with round-half-up to 8 bits.

    Raises OutOfRange, writing nothing, unless every value is in [0, 1];
    NaN fails both comparisons, so it is refused too. Quantization runs in
    float64, so a float32 map rounds as its exact value does.
    """
    if not (sal.min() >= 0.0 and sal.max() <= 1.0):
        raise OutOfRange(f"map values in [{sal.min():.6g}, {sal.max():.6g}], need [0, 1]")
    quantized = np.floor(sal.astype(np.float64, copy=False) * 255.0 + 0.5).astype(np.uint8)
    h, w = sal.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.tobytes())


# ---------------------------------------------------------------------------
# fixations


def load_fixations(path: str, dims: tuple[int, int]) -> dict[int, np.ndarray]:
    """Parse "frame_index,row,col" lines into per-frame (N, 2) int64 arrays.

    Lines starting with '#' (and blank lines) are skipped. Coordinates
    are 0-based; negatives are ParseError, and points outside ``dims``
    are OutOfBounds — both cite ``path`` and the 1-based line number.
    """
    grouped: dict[int, list[tuple[int, int]]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        commas = line.count(",")
        if commas != 2:
            raise ParseError(f"{path}: line {line_no}: expected 3 fields, got {commas + 1}")
        fields = _FIXATION_LINE.fullmatch(line)
        try:
            if fields is None:
                raise ValueError(line)
            frame, row, col = map(int, fields.groups())  # ValueError past int()'s 4,300 digits too
        except ValueError:
            raise ParseError(f"{path}: line {line_no}: non-integer field in {brief(line)}") from None
        if frame < 0 or row < 0 or col < 0:
            raise ParseError(f"{path}: line {line_no}: negative value in {brief(line)}")
        if max(frame, row, col) >= 2**63:  # points are held as int64
            raise ParseError(f"{path}: line {line_no}: value too large in {brief(line)}")
        if row >= dims[0] or col >= dims[1]:
            raise OutOfBounds(
                f"{path}: line {line_no}: point ({row}, {col}) outside {dims[0]}x{dims[1]}"
            )
        grouped.setdefault(frame, []).append((row, col))
    return {frame: np.array(points, dtype=np.int64) for frame, points in grouped.items()}


def write_fixations(fixations: dict[int, np.ndarray], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame_index,row,col\n")
        for frame in sorted(fixations):
            for row, col in fixations[frame].tolist():
                fh.write(f"{frame},{row},{col}\n")


# ---------------------------------------------------------------------------
# resizing


def resize_bilinear(sal: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment and edge clamping.

    A map already at ``dims`` is returned as it is, not copied.
    """
    out_h, out_w = dims
    in_h, in_w = sal.shape
    if (in_h, in_w) == (out_h, out_w):
        return sal
    rows = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    cols = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    r0c = np.clip(r0, 0, in_h - 1)
    r1c = np.clip(r0 + 1, 0, in_h - 1)
    c0c = np.clip(c0, 0, in_w - 1)
    c1c = np.clip(c0 + 1, 0, in_w - 1)
    top = sal[r0c][:, c0c] * (1 - fc)[None, :] + sal[r0c][:, c1c] * fc[None, :]
    bottom = sal[r1c][:, c0c] * (1 - fc)[None, :] + sal[r1c][:, c1c] * fc[None, :]
    out = top * (1 - fr)[:, None] + bottom * fr[:, None]
    return np.clip(out, 0.0, None)


def rescale_fixations(
    fix: np.ndarray, src_dims: tuple[int, int], dst_dims: tuple[int, int]
) -> np.ndarray:
    """Proportional coordinate rescale, rounded half-up and clamped in range."""
    if src_dims == dst_dims:
        return fix
    dst = np.array(dst_dims)
    points = np.floor(fix * dst / np.array(src_dims) + 0.5)
    return np.minimum(points, dst - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# manifest


def read_json(path: str):
    """Parse a UTF-8 JSON file; malformed or too deeply nested text is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError covers non-UTF-8 bytes
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def load_scores(path: str) -> dict:
    """Read a score report, as ``tsal evaluate --out`` writes it, and check it."""
    payload = read_json(path)
    try:
        return checked_report(payload)
    except ValueError as exc:
        raise ParseError(f"{path}: not a score file: {exc}") from None
    except UnknownVideo as exc:  # a group names a video the file has no row for
        raise UnknownVideo(f"{path}: {exc}") from None


# each manifest field's JSON type: a list of integers, or a string
MANIFEST_FIELDS = {
    "video_id": str,
    "frames": list,
    "static_map_dir": str,
    "gt_map_dir": str,
    "fixation_file": str,
    "group_label": str,
}


def _json_field(value, kind: type, where: str):
    """``value`` if it has its manifest JSON type, else a ParseError naming ``where``."""
    if kind is list and (fault := misfit(value, int)):
        raise ParseError(f"manifest {where} must be a list of integers, {fault}")
    if kind is str and type(value) is not str:
        raise ParseError(f"manifest {where} must be a string, got {brief(value)}")
    return value


def load_manifest(path: str) -> dict:
    """Parse and check a manifest: ``{"resolution": (h, w), "videos": [...]}``.

    Each video is a dict of the six ``MANIFEST_FIELDS``, with its map
    directories and fixation file joined to the manifest's directory; the
    files they name are checked as they are opened. A member of the wrong
    JSON type, or missing, is a ParseError naming it. Every ParseError begins with ``path``.
    """
    payload = read_json(path)
    root = os.path.dirname(os.path.abspath(path))
    try:
        if not isinstance(payload, dict):
            raise ParseError("manifest must be a JSON object")
        resolution = tuple(_json_field(payload.get("resolution"), list, "resolution"))
        entries = payload.get("videos")
        if fault := misfit(entries, dict):
            raise ParseError(f"manifest videos must be a list of objects, {fault}")
        videos = []
        for i, entry in enumerate(entries):
            vid = entry.get("video_id")
            where = f"video {vid!r}" if type(vid) is str else f"video #{i}"
            video = {
                key: _json_field(entry.get(key), kind, f"{where}: {key}")
                for key, kind in MANIFEST_FIELDS.items()
            }
            if vid in ("", ".", "..") or "/" in vid or "\0" in vid:
                raise ParseError(f"{where}: video_id may not be '', '.', '..' or hold '/' or NUL")
            label, frames = video["group_label"], video["frames"]
            if label not in GROUP_LABELS:
                raise ParseError(f"{vid}: group_label {brief(label)} not in {GROUP_LABELS}")
            if not frames:
                raise ParseError(f"{vid}: video lists no frames")
            if any(b <= a for a, b in zip(frames, frames[1:])):
                raise ParseError(f"{vid}: frame ids must be strictly increasing")
            if frames[0] < 0 or frames[-1] >= 2**63:  # as load_fixations reads frame indices
                raise ParseError(f"{vid}: frame ids must lie in [0, 2**63)")
            for key in ("static_map_dir", "gt_map_dir", "fixation_file"):
                video[key] = os.path.join(root, video[key])
            videos.append(video)
        if not videos:
            raise ParseError("manifest lists no videos")
        if len(resolution) != 2 or not all(1 <= n <= MAX_MAP_SIDE for n in resolution):
            raise ParseError(f"resolution must be [height, width], each in [1, {MAX_MAP_SIDE}]")
        seen: set[str] = set()
        for video in videos:
            if video["video_id"] in seen:
                raise ParseError(f"video id {video['video_id']!r} is listed twice")
            seen.add(video["video_id"])
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return {"resolution": resolution, "videos": videos}


def map_paths(
    video: dict, directory: str, missing: type[SaliencyError], window: slice = slice(None)
) -> list[str]:
    """The map file in ``directory`` of each of one ``load_manifest`` video's frames ``window``,
    every one found before the list is returned.

    The first frame without a file raises ``missing``, naming the video, the frame and the path.
    """
    paths = []
    for frame in video["frames"][window]:
        path = os.path.join(directory, frame_file_name(frame))
        if not os.path.isfile(path):
            raise missing(f"{video['video_id']}: frame {frame} has no map {path}")
        paths.append(path)
    return paths


def read_maps(paths: Iterable[str]) -> Iterator[np.ndarray]:
    """Each map file of ``paths``, read as stored when it is reached."""
    return map(load_map, paths)


def load_video(video: dict, resolution: tuple[int, int]) -> list[np.ndarray]:
    """Each frame's fixations of one ``load_manifest`` video, at ``resolution``.

    They are read in the frame of its static maps, which must share one size.
    """
    vid, frames, path = video["video_id"], video["frames"], video["fixation_file"]
    statics = read_maps(map_paths(video, video["static_map_dir"], MissingInput))
    for frame, static in zip(frames, statics):
        if frame == frames[0]:
            native_dims = static.shape
        elif static.shape != native_dims:
            raise DimensionMismatch(
                f"{vid}: static map of frame {frame} is {static.shape[0]}x{static.shape[1]},"
                f" frame {frames[0]}'s is {native_dims[0]}x{native_dims[1]}"
            )
    if not os.path.isfile(path):
        raise MissingInput(f"{vid}: no fixation file {path}")
    by_frame = load_fixations(path, native_dims)
    empty = np.empty((0, 2), dtype=np.int64)
    return [
        rescale_fixations(by_frame.get(frame, empty), native_dims, resolution) for frame in frames
    ]


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticConfig:
    videos: int = 4
    frames: int = 64
    height: int = 32
    width: int = 32
    seed: int = 7
    lag: int = 1
    blob_sigma: float = 3.0
    noise: float = 0.08
    fixations_per_frame: int = 3


def _blob(height: int, width: int, center: np.ndarray, sigma: float) -> np.ndarray:
    rows = np.arange(height)[:, None] - center[0]
    cols = np.arange(width)[None, :] - center[1]
    return np.exp(-(rows**2 + cols**2) / (2.0 * sigma * sigma))


def _walk_positions(rng, config: SyntheticConfig, steps: int) -> np.ndarray:
    """Momentum random walk reflected off the borders.

    Velocity persists across steps, so the near-future position is
    predictable from recent motion — the signal a temporal model can
    exploit and a per-frame model cannot.
    """
    margin = 2.0
    lo = np.array([margin, margin])
    hi = np.array([config.height - 1 - margin, config.width - 1 - margin])
    pos = rng.uniform(lo, hi)
    vel = rng.normal(0.0, WALK_KICK, size=2)
    out = np.empty((steps, 2))
    for t in range(steps):
        out[t] = pos
        vel = WALK_PERSISTENCE * vel + rng.normal(0.0, WALK_KICK, size=2)
        pos = pos + vel
        for axis in range(2):
            if pos[axis] < lo[axis]:
                pos[axis] = 2 * lo[axis] - pos[axis]
                vel[axis] = -vel[axis]
            elif pos[axis] > hi[axis]:
                pos[axis] = 2 * hi[axis] - pos[axis]
                vel[axis] = -vel[axis]
            pos[axis] = min(max(pos[axis], lo[axis]), hi[axis])
    return out


def _write_video(out_dir: str, config: SyntheticConfig, v: int) -> dict:
    """Write video ``v`` of a synthetic dataset; returns its manifest record."""
    h, w = config.height, config.width
    rng = np.random.default_rng([config.seed, v])
    video_id = f"video_{v:03d}"
    video_dir = os.path.join(out_dir, video_id)
    static_dir = os.path.join(video_dir, "static")
    gt_dir = os.path.join(video_dir, "gt")
    os.makedirs(static_dir, exist_ok=True)
    os.makedirs(gt_dir, exist_ok=True)

    positions = _walk_positions(rng, config, config.frames + config.lag)
    fixations: dict[int, np.ndarray] = {}
    for t in range(config.frames):
        clean_now = _blob(h, w, positions[t], config.blob_sigma)
        future = _blob(h, w, positions[t + config.lag], config.blob_sigma)
        noisy = clean_now + rng.normal(0.0, config.noise, size=(h, w))
        static = np.clip(noisy, 0.0, 1.0)
        name = frame_file_name(t)
        write_map(static, os.path.join(static_dir, name))
        write_map(future, os.path.join(gt_dir, name))

        weights = future.ravel() / future.sum()
        cells = rng.choice(h * w, size=config.fixations_per_frame, p=weights)
        fixations[t] = np.column_stack(np.divmod(cells, w))
    write_fixations(fixations, os.path.join(video_dir, "fixations.csv"))
    return {
        "video_id": video_id,
        "frames": list(range(config.frames)),
        "static_map_dir": f"{video_id}/static",
        "gt_map_dir": f"{video_id}/gt",
        "fixation_file": f"{video_id}/fixations.csv",
        "group_label": GROUP_LABELS[v % 2],
    }


def generate_synthetic(out_dir: str, config: SyntheticConfig) -> str:
    """Write a synthetic dataset tree and its manifest; returns the manifest's path.

    Per video: positions p_0..p_{T+lag-1} of a drifting blob. Frame t's
    static map is blob(p_t) plus clipped Gaussian noise; its ground truth
    is the clean blob(p_{t+lag}); fixations are sampled from that same
    future blob. Everything derives from one seeded stream per video.
    """
    os.makedirs(out_dir, exist_ok=True)
    write = functools.partial(_write_video, out_dir, config)
    videos = worker_map(write, range(config.videos))
    manifest = {"resolution": [config.height, config.width], "videos": videos}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
