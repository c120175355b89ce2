"""File formats and datasets: PGM maps, fixation CSVs, manifests, scores, synthesis.

Maps travel as 8-bit portable graymaps (P5 binary or P2 text, maxval
255), fixations as "frame_index,row,col" CSV with '#' comments, and a
dataset is a JSON manifest naming per-video directories:

    <root>/<video_id>/static/000000.pgm   input saliency maps
    <root>/<video_id>/gt/000000.pgm       ground-truth maps
    <root>/<video_id>/fixations.csv       gaze points

The synthetic generator produces videos of a Gaussian blob drifting on a
momentum random walk; the ground truth is the clean blob ``lag`` frames
ahead of the (noisy) static map, so temporal models have signal that
per-frame models cannot capture. Generation is byte-deterministic per
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadHeader,
    MissingInput,
    OutOfBounds,
    OutOfRange,
    ParseError,
    TruncatedData,
    UnsupportedDepth,
)
from .metrics import EvalReport, report_from_dict

GROUP_LABELS = ("free-viewing", "task-driven")
FRAME_NAME_DIGITS = 6
# the synthetic blob's velocity: kept share per frame, and the std of each kick
WALK_PERSISTENCE = 0.9
WALK_KICK = 0.6


def frame_file_name(frame_id: int) -> str:
    return f"{frame_id:0{FRAME_NAME_DIGITS}d}.pgm"


# ---------------------------------------------------------------------------
# portable graymap


def _scan_header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens, honoring '#' comments.

    Returns the tokens and the offset one whitespace byte past the last
    token (the PGM raster begins there for P5).
    """
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


def _header_int(token: bytes, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise BadHeader(f"{what} is not an integer: {token!r}") from None
    if value <= 0:
        raise BadHeader(f"{what} must be positive, got {value}")
    return value


def load_map(path: str) -> np.ndarray:
    """Read one PGM (P5 or P2, maxval 255) as a 2-D float64 map in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 2:
        raise BadHeader("not a portable graymap")
    magic = blob[:2]
    if magic not in (b"P5", b"P2"):
        raise BadHeader(f"bad magic {magic!r}, expected P5 or P2")
    tokens, raster_at = _scan_header_tokens(blob, 4)
    width = _header_int(tokens[1], "width")
    height = _header_int(tokens[2], "height")
    maxval = _header_int(tokens[3], "maxval")
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


def write_map(sal: np.ndarray, path: str) -> None:
    """Write a 2-D map as binary P5, quantizing with round-half-up to 8 bits.

    Raises OutOfRange, writing nothing, unless every value is in [0, 1];
    NaN fails both comparisons, so it is refused too.
    """
    if not (sal.min() >= 0.0 and sal.max() <= 1.0):
        raise OutOfRange(f"map values in [{sal.min():.6g}, {sal.max():.6g}], need [0, 1]")
    quantized = np.floor(sal * 255.0 + 0.5).astype(np.uint8)
    h, w = sal.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.tobytes())


# ---------------------------------------------------------------------------
# fixations


def load_fixations(path: str, dims: tuple[int, int] | None = None) -> dict[int, np.ndarray]:
    """Parse "frame_index,row,col" lines into per-frame (N, 2) int64 arrays.

    Lines starting with '#' (and blank lines) are skipped. Coordinates
    are 0-based; negatives are ParseError, and points outside ``dims``
    (when given) are OutOfBounds — both cite the 1-based line number.
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
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        try:
            frame, row, col = (int(p.strip()) for p in parts)
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer field in {line!r}") from None
        if frame < 0 or row < 0 or col < 0:
            raise ParseError(f"line {line_no}: negative value in {line!r}")
        if max(frame, row, col) >= 2**63:  # points are held as int64
            raise ParseError(f"line {line_no}: value too large in {line!r}")
        if dims is not None and (row >= dims[0] or col >= dims[1]):
            raise OutOfBounds(
                f"line {line_no}: point ({row}, {col}) outside {dims[0]}x{dims[1]}"
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


@dataclass
class VideoRecord:
    video_id: str
    frames: list[int]
    static_map_dir: str
    gt_map_dir: str
    fixation_file: str
    group_label: str

    def __post_init__(self) -> None:
        if self.group_label not in GROUP_LABELS:
            raise ParseError(
                f"{self.video_id}: group_label {self.group_label!r} not in {GROUP_LABELS}"
            )
        if any(b <= a for a, b in zip(self.frames, self.frames[1:])):
            raise ParseError(f"{self.video_id}: frame ids must be strictly increasing")


@dataclass
class DatasetManifest:
    videos: list[VideoRecord]
    resolution: tuple[int, int]
    root: str = ""  # directory the manifest was loaded from; not serialized

    def __post_init__(self) -> None:
        if not self.videos:
            raise ParseError("manifest lists no videos")
        if len(self.resolution) != 2 or min(self.resolution) < 1:
            raise ParseError(f"resolution must be [height, width] >= 1, got {self.resolution}")
        seen: set[str] = set()
        for rec in self.videos:
            if rec.video_id in seen:
                raise ParseError(f"video id {rec.video_id!r} is listed twice")
            seen.add(rec.video_id)

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for rec in self.videos:
            out.setdefault(rec.group_label, []).append(rec.video_id)
        return out


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "resolution": list(manifest.resolution),
        "videos": [
            {
                "video_id": rec.video_id,
                "frames": list(rec.frames),
                "static_map_dir": rec.static_map_dir,
                "gt_map_dir": rec.gt_map_dir,
                "fixation_file": rec.fixation_file,
                "group_label": rec.group_label,
            }
            for rec in manifest.videos
        ],
    }


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_to_dict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    """Parse a UTF-8 JSON file; malformed or too deeply nested text is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError covers non-UTF-8 bytes
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def load_scores(path: str) -> EvalReport:
    """Read a score file, as ``tsal evaluate --out`` writes it."""
    payload = read_json(path)
    try:
        return report_from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a score file: {exc!r}") from None


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
    if kind is list:
        if not (isinstance(value, list) and all(type(v) is int for v in value)):
            raise ParseError(f"manifest {where} must be a list of integers, got {value!r}")
    elif type(value) is not kind:
        raise ParseError(f"manifest {where} must be a string, got {value!r}")
    return value


def load_manifest(path: str) -> DatasetManifest:
    """Parse a manifest JSON; the files it names are checked as they are opened."""
    payload = read_json(path)
    try:
        resolution = tuple(_json_field(payload["resolution"], list, "resolution"))
        videos = []
        for i, entry in enumerate(payload["videos"]):
            vid = entry["video_id"]
            where = f"video {vid!r}" if type(vid) is str else f"video #{i}"
            fields = {
                key: _json_field(entry[key], kind, f"{where}: {key}")
                for key, kind in MANIFEST_FIELDS.items()
            }
            videos.append(VideoRecord(**fields))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"manifest field error: {exc}") from None
    root = os.path.dirname(os.path.abspath(path))
    return DatasetManifest(videos=videos, resolution=resolution, root=root)


@dataclass
class LoadedVideo:
    """One video's maps and fixations, resized to the manifest resolution."""

    record: VideoRecord
    static_maps: list[np.ndarray]
    gt_maps: list[np.ndarray]
    fixations: list[np.ndarray]  # aligned with record.frames


def load_video(manifest: DatasetManifest, record: VideoRecord) -> LoadedVideo:
    def named(*parts: str) -> str:
        path = os.path.join(manifest.root, *parts)
        if not os.path.isfile(path):
            raise MissingInput(f"{record.video_id}: missing {path}")
        return path

    res = manifest.resolution
    static_maps: list[np.ndarray] = []
    gt_maps: list[np.ndarray] = []
    native_dims: tuple[int, int] | None = None
    for frame in record.frames:
        name = frame_file_name(frame)
        static = load_map(named(record.static_map_dir, name))
        native_dims = static.shape
        gt = load_map(named(record.gt_map_dir, name))
        static_maps.append(resize_bilinear(static, res))
        gt_maps.append(resize_bilinear(gt, res))
    by_frame = load_fixations(named(record.fixation_file), dims=native_dims)
    empty = np.empty((0, 2), dtype=np.int64)
    fixations = [
        rescale_fixations(by_frame.get(frame, empty), native_dims, res)
        for frame in record.frames
    ]
    return LoadedVideo(
        record=record, static_maps=static_maps, gt_maps=gt_maps, fixations=fixations
    )


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

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ValueError("dims must be at least 8x8")
        if self.videos < 1 or self.frames < 1:
            raise ValueError("need at least one video and one frame")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")


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


def generate_synthetic(out_dir: str, config: SyntheticConfig) -> DatasetManifest:
    """Write a synthetic dataset tree and its manifest; returns the manifest.

    Per video: positions p_0..p_{T+lag-1} of a drifting blob. Frame t's
    static map is blob(p_t) plus clipped Gaussian noise; its ground truth
    is the clean blob(p_{t+lag}); fixations are sampled from that same
    future blob. Everything derives from one seeded stream per video.
    """
    os.makedirs(out_dir, exist_ok=True)
    h, w = config.height, config.width
    records: list[VideoRecord] = []
    for v in range(config.videos):
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

        group = GROUP_LABELS[v % 2]
        records.append(
            VideoRecord(
                video_id=video_id,
                frames=list(range(config.frames)),
                static_map_dir=f"{video_id}/static",
                gt_map_dir=f"{video_id}/gt",
                fixation_file=f"{video_id}/fixations.csv",
                group_label=group,
            )
        )
    manifest = DatasetManifest(
        videos=records, resolution=(h, w), root=os.path.abspath(out_dir)
    )
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
