"""Command-line harness: evaluate, train, predict, report, generate.

Every subcommand reads an optional JSON config (``--config``) whose keys
mirror the flag names; explicit flags win over the config, which wins
over built-in defaults. Each setting is declared once, in ``SETTINGS``,
with its default, type and bounds; every resolved value is checked
against it before work starts, and then logged to stderr. All failures,
usage errors included, exit 1 with a single machine-parseable
``ERROR <code>: <message>`` line on stderr. SIGINT and SIGTERM end a
command the same way, with ``ERROR Interrupted: <signal>`` and exit
128 + the signal number, once its partial outputs and workers are gone.

Rendered tables round to three decimals, half up, and are byte-stable:
re-rendering the same report reproduces identical text.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import operator
import os
import signal
import sys
import time
from collections.abc import Iterator
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from . import __version__
from . import data as D
from . import metrics as M
from . import model as Mo
from . import train as Tr
from .errors import (
    InconsistentVideos,
    MissingInput,
    MissingPrediction,
    ParseError,
    SaliencyError,
    UnknownVideo,
    brief,
    misfit,
)

log = logging.getLogger("tsal")

NEEDED = object()  # default of a setting the user must give

GE0, GE1 = ((">=", 0),), ((">=", 1),)
# frame files are named with FRAME_NAME_DIGITS digits
FRAME_NAMES = (("<=", 10**D.FRAME_NAME_DIGITS - 1),)
# the maps of one training window, inputs then targets
TRAIN_MAPS = ("static_map_dir", "gt_map_dir")
# frames of ground truth and of predictions an evaluate worker reads and holds at a time;
# as fast as whole videos, where one frame at a time was not
EVAL_BLOCK = 16

# SETTINGS[command][name] = (default, type, bounds). Every flag and config
# key comes from here; resolve_config checks each value against its entry.
SETTINGS: dict[str, dict[str, tuple]] = {
    "generate": {
        "out": (NEEDED, str, ()),
        "videos": (4, int, GE1),
        "frames": (64, int, GE1 + FRAME_NAMES),
        "height": (32, int, ((">=", 8), ("<=", D.MAX_MAP_SIDE))),
        "width": (32, int, ((">=", 8), ("<=", D.MAX_MAP_SIDE))),
        "seed": (7, int, GE0),
        "lag": (1, int, GE0 + FRAME_NAMES),
        # a narrower blob underflows to zero mass on the pixel grid
        "blob_sigma": (3.0, float, ((">=", 0.05),)),
        "noise": (0.08, float, GE0),
        "fixations_per_frame": (3, int, GE0),
    },
    "train": {
        "manifest": (NEEDED, str, ()),
        "ckpt": (NEEDED, str, ()),
        "variant": (Mo.CONV_LSTM, str, (("in", Mo.VARIANTS),)),
        "epochs": (1, int, GE1),
        "clip_length": (16, int, GE1),
        "seed": (0, int, GE0),
        "hidden": (Mo.DEFAULT_HIDDEN_CHANNELS, int, GE1 + (("<=", Tr.MAX_HIDDEN_CHANNELS),)),
        "lr0": (1e-5, float, GE0),
        "momentum": (0.9, float, GE0),
        "weight_decay": (1e-4, float, GE0),
        "decay_every": (3, int, GE1),
        "max_steps": (None, int, GE1),
        "loss_csv": (None, str, ()),
    },
    "predict": {
        "manifest": (NEEDED, str, ()),
        "ckpt": (NEEDED, str, ()),
        "out": (NEEDED, str, ()),
    },
    "evaluate": {
        "manifest": (NEEDED, str, ()),
        "predictions": (NEEDED, str, ()),
        "shuffle_seed": (42, int, GE0),
        "out": (None, str, ()),
    },
    "report": {
        # the positional score files; a config may also give one path as a string
        "scores": (NEEDED, (list, str), ()),
        "metric": ("nss", str, (("in", M.METRIC_NAMES),)),
        "grouping": (None, str, ()),
    },
}

TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    (list, str): "a path or a list of paths",
}
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "in": lambda v, opts: v in opts}


def fmt3(value: float | None) -> str:
    """Three-decimal fixed-point rendering, rounding half up; None -> n/a."""
    if value is None:
        return "n/a"
    if not math.isfinite(value):  # a mean of finite scores can overflow
        return str(float(value))
    # 400 digits hold the largest float to the third decimal
    quantized = Decimal(repr(float(value))).quantize(
        Decimal("0.001"), context=Context(prec=400, rounding=ROUND_HALF_UP)
    )
    return str(quantized)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table: first column left-aligned, the rest right."""
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return "  ".join(parts).rstrip()

    out = [line(headers), "-" * len(line(headers))]
    out += [line(row) for row in rows]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: dict) -> None:
    n, cells = cfg["fixations_per_frame"], cfg["height"] * cfg["width"]
    if n > cells:
        raise ParseError(f"--fixations-per-frame must be <= height x width = {cells}, got {n}")
    _check_out_dir(cfg["out"])
    config = D.SyntheticConfig(**{k: v for k, v in cfg.items() if k != "out"})
    with D.publish(cfg["out"], directory=True) as tmp:
        manifest_name = os.path.basename(D.generate_synthetic(tmp, config))
    log.info("wrote %d videos x %d frames", config.videos, config.frames)
    print(os.path.join(cfg["out"], manifest_name))


def _check_out_dir(out: str) -> None:
    """Refuse an --out tree that exists and is not an empty directory, itself no symlink:
    the finished tree could not be renamed over a symlink."""
    if os.path.lexists(out) and (os.path.islink(out) or not os.path.isdir(out) or os.listdir(out)):
        raise ParseError(f"--out {out} exists and is not an empty directory")


def _check_outputs(cfg: dict, manifest: dict, *outputs: tuple[str, str]) -> None:
    """Refuse an output that names a directory, another output or a file the command reads,
    then make the outputs' directories.

    A file is known by its (st_ino, st_dev), so a symlink or hard link to an input is refused.
    """
    for flag, path in outputs:
        if os.path.isdir(path) or os.path.basename(path) in ("", ".", ".."):
            raise ParseError(f"{flag} {path} names a directory")
    for (flag_a, a), (flag_b, b) in itertools.combinations(outputs, 2):
        if os.path.realpath(a) == os.path.realpath(b):
            raise ParseError(f"{flag_b} {b} and {flag_a} {a} name the same file")
    taken = {os.stat(path)[1:3]: f"{flag} {path}" for flag, path in outputs if os.path.exists(path)}
    inputs = [(cfg["manifest"], "the manifest")]
    for video in manifest["videos"] if taken else ():
        vid = video["video_id"]
        inputs.append((video["fixation_file"], f"{vid}'s fixation file"))
        maps = [("static", video["static_map_dir"]), ("ground-truth", video["gt_map_dir"])]
        if "predictions" in cfg:
            maps.append(("prediction", os.path.join(cfg["predictions"], vid)))
        for (kind, folder), frame in itertools.product(maps, video["frames"]):
            path = os.path.join(folder, D.frame_file_name(frame))
            inputs.append((path, f"{vid}'s {kind} map of frame {frame}"))
    for path, what in inputs:
        try:
            identity = os.stat(path)[1:3]
        except OSError:  # a missing input is reported when it is read
            continue
        if identity in taken:
            raise ParseError(f"{taken[identity]} names {what}")
    for _, path in outputs:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


def cmd_train(cfg: dict) -> None:
    loss_csv = cfg["loss_csv"] or cfg["ckpt"] + ".loss.csv"
    outputs = ("--ckpt", cfg["ckpt"]), ("--loss-csv", loss_csv)
    manifest = D.load_manifest(cfg["manifest"])
    _check_outputs(cfg, manifest, *outputs)
    videos, res = manifest["videos"], manifest["resolution"]
    # every map is checked before the first step, then read again when its window runs
    for video in videos:
        found = [D.map_paths(video, video[key], MissingInput) for key in TRAIN_MAPS]
        for _ in D.read_maps(itertools.chain(*found)):
            pass
    samples = [
        (video["video_id"], len(video["frames"]), functools.partial(_read_window, video, res))
        for video in videos
    ]
    model = Mo.init_parameters(cfg["variant"], rng_seed=cfg["seed"], hidden_channels=cfg["hidden"])
    history = Tr.train(model, samples, cfg)
    with D.publish(loss_csv) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in history:
            fh.write(f"{step},{loss!r}\n")
    first = history[0][1]
    last = history[-1][1]
    log.info(
        "trained %s for %d steps; window loss %s -> %s",
        cfg["variant"],
        len(history),
        fmt3(first),
        fmt3(last),
    )
    print(cfg["ckpt"])


def _resized_maps(paths: list[str], res: tuple) -> Iterator[np.ndarray]:
    """The maps of ``paths``, read one at a time through ``read_maps`` and resized to ``res``."""
    return (D.resize_bilinear(m, res) for m in D.read_maps(paths))


def _read_window(video: dict, res: tuple, window: slice) -> tuple[list, list]:
    """The static maps and ground truth of ``video``'s frames ``window``, as (1, 1, H, W)
    arrays: one training window."""
    found = [D.map_paths(video, video[key], MissingInput, window) for key in TRAIN_MAPS]
    return tuple([m[None, None] for m in _resized_maps(paths, res)] for paths in found)


def _predict_video(video: dict, *, model: Mo.AdaptationModel, res: tuple, root: str) -> int:
    """Write one video's refined maps to ``root/<video_id>/``; returns how many."""
    out_dir = os.path.join(root, video["video_id"])
    os.makedirs(out_dir)
    state = None
    statics = _resized_maps(D.map_paths(video, video["static_map_dir"], MissingInput), res)
    step = Mo.step_function(model.variant)
    for frame, static in zip(video["frames"], statics):
        # slicing drops the step cache at once, so it does not outlive the step
        y, state = step(static[None, None], state, model)[:2]
        D.write_map(np.clip(y[0, 0], 0.0, 1.0), os.path.join(out_dir, D.frame_file_name(frame)))
    return len(video["frames"])


def cmd_predict(cfg: dict) -> None:
    out = cfg["out"]
    _check_out_dir(out)
    manifest = D.load_manifest(cfg["manifest"])
    model, _ = Tr.load_checkpoint(cfg["ckpt"])
    videos, res = manifest["videos"], manifest["resolution"]
    start = time.perf_counter()
    # the pool inside publish: every worker has ended before a failed run's tree is removed
    with D.publish(out, directory=True) as tmp:
        predict = functools.partial(_predict_video, model=model, res=res, root=tmp)
        written = sum(D.worker_map(predict, videos))
    seconds = time.perf_counter() - start
    log.info(
        "wrote %d refined maps to %s in %.3f s (%.0f frames/s)",
        written, out, seconds, written / seconds,
    )
    print(out)


def _score_video(
    video: dict,
    fixs: list,
    start: int,
    end: int,
    *,
    everything: np.ndarray,
    res: tuple,
    cfg: dict,
) -> dict:
    """One video's ``per_video`` row; ``everything[start:end]`` are its own fixations."""
    pred_dir = os.path.join(cfg["predictions"], video["video_id"])
    # every map is found before any is read, ground truth first
    gts = D.map_paths(video, video["gt_map_dir"], MissingInput)
    preds = D.map_paths(video, pred_dir, MissingPrediction)
    pool = np.concatenate([everything[:start], everything[end:]])
    frames = _in_blocks(gts, preds, fixs, res)
    return M.evaluate_video(frames, pool, seed=cfg["shuffle_seed"])


def _in_blocks(gts: list[str], preds: list[str], fixs: list, res: tuple) -> Iterator[tuple]:
    """Each frame's (prediction, fixations, ground truth), the maps resized to ``res``,
    read EVAL_BLOCK frames at a time: a block's ground truth, then its predictions."""
    for start in range(0, len(gts), EVAL_BLOCK):
        block = slice(start, start + EVAL_BLOCK)
        gt = list(_resized_maps(gts[block], res))
        pred = list(_resized_maps(preds[block], res))
        yield from zip(pred, fixs[block], gt, strict=True)


def cmd_evaluate(cfg: dict) -> None:
    outputs = (("--out", cfg["out"]),) if cfg["out"] else ()
    manifest = D.load_manifest(cfg["manifest"])
    _check_outputs(cfg, manifest, *outputs)
    videos, res = manifest["videos"], manifest["resolution"]
    start = time.perf_counter()
    # every video's fixations first: each shuffled-AUC pool holds all the others'
    fixations = [D.load_video(video, res) for video in videos]
    everything = np.concatenate([fix for fixs in fixations for fix in fixs])
    ends = list(itertools.accumulate(sum(map(len, fixs)) for fixs in fixations))
    read = time.perf_counter()
    score = functools.partial(_score_video, everything=everything, res=res, cfg=cfg)
    rows = D.worker_map(score, videos, fixations, [0] + ends[:-1], ends)
    scored = time.perf_counter()
    frames, no_fix, no_mass = (sum(row[key] for row in rows) for key in M.VIDEO_COUNTS)
    log.info(
        "scored %d frames of %d videos in %.3f s (%.0f frames/s) after %.3f s reading"
        " fixations; skipped %d frames without fixations, %d without ground-truth mass",
        frames, len(rows), scored - read, frames / (scored - read), read - start, no_fix, no_mass,
    )
    per_video = {video["video_id"]: row for video, row in zip(videos, rows)}
    groups: dict[str, list[str]] = {}
    for video in videos:
        groups.setdefault(video["group_label"], []).append(video["video_id"])
    report = M.aggregate_report(per_video, groups)

    if cfg["out"]:
        with D.publish(cfg["out"]) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote report to %s", cfg["out"])
    print(render_eval_report(report))


def render_eval_report(report: dict) -> str:
    """One table per group: each member's five metrics, then the group's averages."""
    blocks = []
    for label, members in report["groups"].items():
        named = [(vid, report["per_video"][vid]) for vid in members]
        named.append(("AVERAGE", report["group_averages"][label]))
        rows = [[name] + [fmt3(row[key]) for key in M.METRIC_NAMES] for name, row in named]
        blocks.append(f"[{label}]\n" + render_table(["video", *M.METRIC_NAMES], rows))
    return "\n\n".join(blocks)


def _model_name(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def cmd_report(cfg: dict) -> None:
    paths = cfg["scores"]
    if isinstance(paths, str):
        paths = [paths]
    for a, b in itertools.combinations(paths, 2):
        if _model_name(a) == _model_name(b):
            raise ParseError(f"{a} and {b} both name model {_model_name(a)!r}")
    reports: list[dict] = []
    for path in paths:
        reports.append(D.load_scores(path))
        if reports[-1]["per_video"].keys() != reports[0]["per_video"].keys():
            raise InconsistentVideos(f"{path} covers different videos than the first score file")
    models = [(_model_name(path), report["per_video"]) for path, report in zip(paths, reports)]

    grouping, source = reports[0]["groups"], cfg["grouping"] or paths[0]
    if cfg["grouping"]:
        try:
            grouping = M.groups_from_dict(D.read_json(source))
        except ValueError as exc:
            raise ParseError(f"{source}: bad grouping file: {exc}") from None
    try:
        table = render_comparison(models, grouping, cfg["metric"])
    except UnknownVideo as exc:
        raise UnknownVideo(f"{source}: {exc}") from None
    print(table)


def render_comparison(
    models: list[tuple[str, dict[str, dict]]],
    grouping: dict[str, list[str]],
    metric: str,
) -> str:
    """Model x video matrix per group; '*' marks each column's maximum."""
    # aggregate_report raises UnknownVideo for a member with no row
    averages = [M.aggregate_report(scores, grouping)["group_averages"] for _, scores in models]
    mark = len(models) > 1
    blocks = []
    for label, members in grouping.items():
        columns = [[scores[vid][metric] for _, scores in models] for vid in members]
        columns.append([average[label][metric] for average in averages])
        tops = [max((v for v in column if v is not None), default=None) for column in columns]
        rows = [[name] for name, _ in models]
        for column, top in zip(columns, tops):
            for row, value in zip(rows, column):
                starred = mark and top is not None and value == top
                row.append(fmt3(value) + ("*" if starred else ""))
        headers = ["model"] + members + ["AVERAGE"]
        blocks.append(f"[{label}] metric: {metric}\n" + render_table(headers, rows))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# argument parsing and config resolution


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ParseError instead of exiting with status 2."""

    def error(self, message: str):
        raise ParseError(message)


COMMANDS = {
    "generate": ("write a synthetic drifting-blob dataset", cmd_generate),
    "train": ("train an adaptation model on a dataset", cmd_train),
    "predict": ("run a checkpoint over a dataset's static maps", cmd_predict),
    "evaluate": ("score predictions against ground truth", cmd_evaluate),
    "report": ("tabulate one metric across models and videos", cmd_report),
}


def _describe(bounds: tuple) -> str:
    return " and ".join(f"{op} {limit}" for op, limit in bounds)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tsal",
        description="Temporal adaptation toolkit for video saliency maps.",
    )
    parser.add_argument("--version", action="version", version=f"tsal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func, command=name)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        for key, (default, _, bounds) in SETTINGS[name].items():
            if key == "scores":
                p.add_argument(key, nargs="*", help="evaluate --out score files, one per model")
                continue
            given = {NEEDED: "required", None: "optional"}.get(default, f"default {default}")
            text = "; ".join(filter(None, (_describe(bounds), given)))
            p.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def _check(command: str, key: str, value, from_flag: bool):
    """One resolved setting, converted from a flag string and checked."""
    default, kind, bounds = SETTINGS[command][key]
    if value is None and default is None:
        return None
    flag = key if key == "scores" else "--" + key.replace("_", "-")
    if value in (None, NEEDED, []) and default is NEEDED:
        raise ParseError(f"{command} requires {flag}")
    name = flag if from_flag else f"config key {key!r}"
    if from_flag and kind in (int, float):
        try:
            value = kind(value)
        except ValueError:
            raise ParseError(f"{name} must be {TYPE_NAMES[kind]}, got {brief(value)}") from None
    allowed = (int, float) if kind is float else kind  # an int is a valid float
    fault = misfit(value, str) if kind == (list, str) and isinstance(value, list) else None
    if isinstance(value, bool) or not isinstance(value, allowed) or fault:
        raise ParseError(f"{name} must be {TYPE_NAMES[kind]}, {fault or f'got {brief(value)}'}")
    if value == "":  # names no file, metric or variant
        raise ParseError(f"{name} must not be empty")
    if kind is float and not abs(value) <= sys.float_info.max:  # an int may pass float's range
        raise ParseError(f"{name} must be finite, got {brief(value)}")
    if not all(OPS[op](value, limit) for op, limit in bounds):
        raise ParseError(f"{name} must be {_describe(bounds)}, got {brief(value)}")
    return value + 0.0 if isinstance(value, float) else value  # reads -0.0 as 0.0


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, then every value checked."""
    table = SETTINGS[args.command]
    merged = {key: default for key, (default, _, _) in table.items()}
    if getattr(args, "config", None):
        payload = D.read_json(args.config)
        if not isinstance(payload, dict):
            raise ParseError("config file must hold a JSON object")
        for key in payload:
            if key not in table:
                raise ParseError(f"unknown config key {key!r} for {args.command}")
        merged.update(payload)
    # an empty positional list means "not given" for report's score files
    flags = {k: v for k, v in vars(args).items() if k in table and v != []}
    merged.update(flags)
    return {key: _check(args.command, key, merged[key], key in flags) for key in table}


def _interrupt(signum: int, frame) -> None:
    raise KeyboardInterrupt(signum)


def main(argv: list[str] | None = None) -> int:
    # bind to the current sys.stderr on every invocation
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(logging.INFO)
    log.propagate = False
    # SIGTERM raises as SIGINT does, so every output and worker is cleaned up on the way out
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        log.info("resolved config: %s", json.dumps(cfg, sort_keys=True))
        args.func(cfg)
    except SaliencyError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IoError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR OutOfMemory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"ERROR Interrupted: {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
