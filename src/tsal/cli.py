"""Command-line harness: evaluate, train, predict, report, generate.

Every subcommand reads an optional JSON config (``--config``) whose keys
mirror the flag names; explicit flags win over the config, which wins
over built-in defaults. Each setting is declared once, in ``SETTINGS``,
with its default, type and bounds; every resolved value is checked
against it before work starts, and then logged to stderr. All failures,
usage errors included, exit 1 with a single machine-parseable
``ERROR <code>: <message>`` line on stderr.

Rendered tables round to three decimals, half up, and are byte-stable:
re-rendering the same report reproduces identical text.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import operator
import os
import shutil
import sys
import tempfile
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
)

log = logging.getLogger("tsal")

NEEDED = object()  # default of a setting the user must give

GE0, GE1, GT0 = ((">=", 0),), ((">=", 1),), ((">", 0),)

# SETTINGS[command][name] = (default, type, bounds). Every flag and config
# key comes from here; resolve_config checks each value against its entry.
SETTINGS: dict[str, dict[str, tuple]] = {
    "generate": {
        "out": (NEEDED, str, ()),
        "videos": (4, int, GE1),
        "frames": (64, int, GE1),
        "height": (32, int, ((">=", 8),)),
        "width": (32, int, ((">=", 8),)),
        "seed": (7, int, GE0),
        "lag": (1, int, GE0),
        "blob_sigma": (3.0, float, GT0),
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
        "metrics": (",".join(M.METRIC_NAMES), str, ()),
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
    config = D.SyntheticConfig(**{k: v for k, v in cfg.items() if k != "out"})
    D.generate_synthetic(cfg["out"], config)
    manifest_path = os.path.join(cfg["out"], "manifest.json")
    log.info("wrote %d videos x %d frames", config.videos, config.frames)
    print(manifest_path)


def _load_samples(manifest: D.DatasetManifest) -> list[Tr.TrainSample]:
    samples = []
    for record in manifest.videos:
        video = D.load_video(manifest, record)
        samples.append(
            Tr.TrainSample(
                video_id=record.video_id,
                frames=[s[None, None] for s in video.static_maps],
                targets=[g[None, None] for g in video.gt_maps],
            )
        )
    return samples


def cmd_train(cfg: dict) -> None:
    loss_csv = cfg["loss_csv"] or cfg["ckpt"] + ".loss.csv"
    for path in (cfg["ckpt"], loss_csv):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    manifest = D.load_manifest(cfg["manifest"])
    samples = _load_samples(manifest)
    model = Mo.init_parameters(cfg["variant"], rng_seed=cfg["seed"], hidden_channels=cfg["hidden"])
    hyper = Tr.Hyper(
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        lr0=cfg["lr0"],
        decay_every_epochs=cfg["decay_every"],
    )
    config = Tr.TrainConfig(
        epochs=cfg["epochs"],
        clip_length=cfg["clip_length"],
        seed=cfg["seed"],
        checkpoint_path=cfg["ckpt"],
        max_steps=cfg["max_steps"],
        hyper=hyper,
    )
    result = Tr.train(model, samples, config)
    with open(loss_csv, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in result.history:
            fh.write(f"{step},{loss!r}\n")
    first = result.history[0][1]
    last = result.history[-1][1]
    log.info(
        "trained %s for %d steps; window loss %s -> %s",
        cfg["variant"],
        result.state.step_count,
        fmt3(first),
        fmt3(last),
    )
    print(cfg["ckpt"])


def cmd_predict(cfg: dict) -> None:
    out = cfg["out"]
    if os.path.lexists(out) and not (os.path.isdir(out) and not os.listdir(out)):
        raise ParseError(f"--out {out} exists and is not an empty directory")
    manifest = D.load_manifest(cfg["manifest"])
    model, _ = Tr.load_checkpoint(cfg["ckpt"])
    res = manifest.resolution
    # maps go to a sibling temp directory renamed onto --out once all are
    # written, so a failure part-way leaves no partial tree behind
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".", suffix=".tmp", dir=parent)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o777 & ~umask)  # the mode os.makedirs would give
        written = 0
        for record in manifest.videos:
            out_dir = os.path.join(tmp, record.video_id)
            os.makedirs(out_dir)
            state = None
            if model.variant == Mo.CONV_LSTM:
                state = Mo.LstmState.zeros(model.hidden_channels, res[0], res[1])
            for frame in record.frames:
                name = D.frame_file_name(frame)
                src = os.path.join(manifest.root, record.static_map_dir, name)
                if not os.path.isfile(src):
                    raise MissingInput(f"{record.video_id}: no static map {src}")
                x = D.resize_bilinear(D.load_map(src), res)[None, None]
                # slicing drops the step cache at once, so it does not outlive the step
                if model.variant == Mo.CONV_ONLY:
                    y = Mo.conv_block_forward(x, model)[0]
                else:
                    y, state = Mo.convlstm_step(x, state, model)[:2]
                D.write_map(np.clip(y[0, 0], 0.0, 1.0), os.path.join(out_dir, name))
                written += 1
        os.replace(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    log.info("wrote %d refined maps to %s", written, out)
    print(out)


def _parse_metric_list(spec: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    for name in names:
        if name not in M.METRIC_NAMES:
            raise ParseError(f"unknown metric {name!r}; choose from {M.METRIC_NAMES}")
    if not names:
        raise ParseError("metric list is empty")
    if len(set(names)) != len(names):
        raise ParseError(f"metric list {spec!r} names a metric twice")
    return names


def cmd_evaluate(cfg: dict) -> None:
    metrics = _parse_metric_list(cfg["metrics"])
    manifest = D.load_manifest(cfg["manifest"])
    videos = {rec.video_id: D.load_video(manifest, rec) for rec in manifest.videos}

    predictions: dict[str, list[np.ndarray]] = {}
    for rec in manifest.videos:
        maps = []
        for frame in rec.frames:
            path = os.path.join(cfg["predictions"], rec.video_id, D.frame_file_name(frame))
            if not os.path.isfile(path):
                raise MissingPrediction(f"{rec.video_id}: no prediction for frame {frame}")
            maps.append(D.resize_bilinear(D.load_map(path), manifest.resolution))
        predictions[rec.video_id] = maps

    per_video: dict[str, M.VideoScores] = {}
    for rec in manifest.videos:
        pool = [
            fix
            for other_id, other in videos.items()
            if other_id != rec.video_id
            for fix in other.fixations
        ]
        video = videos[rec.video_id]
        per_video[rec.video_id] = M.evaluate_video(
            predictions[rec.video_id],
            video.fixations,
            video.gt_maps,
            np.concatenate(pool) if pool else np.empty((0, 2), dtype=np.int64),
            seed=cfg["shuffle_seed"],
            metrics=metrics,
        )
    report = M.aggregate_report(per_video, manifest.groups())

    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            json.dump(M.report_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote report to %s", cfg["out"])
    print(render_eval_report(report, metrics))


def render_eval_report(report: M.EvalReport, metrics: tuple[str, ...]) -> str:
    blocks = []
    for label, members in report.groups.items():
        headers = ["video"] + list(metrics)
        rows = []
        for vid in members:
            scores = report.per_video[vid].scores
            rows.append([vid] + [fmt3(scores.get(name)) for name in metrics])
        avg = report.group_averages[label]
        rows.append(["AVERAGE"] + [fmt3(avg.get(name)) for name in metrics])
        blocks.append(f"[{label}]\n" + render_table(headers, rows))
    return "\n\n".join(blocks)


def _model_name(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def cmd_report(cfg: dict) -> None:
    paths = cfg["scores"]
    if isinstance(paths, str):
        paths = [paths]
    models: list[tuple[str, dict[str, M.VideoScores]]] = []
    first_groups: dict[str, list[str]] | None = None
    for path in paths:
        report = D.load_scores(path)
        if first_groups is None:
            first_groups = report.groups
        else:
            if sorted(report.per_video) != sorted(
                vid for members in first_groups.values() for vid in members
            ):
                raise InconsistentVideos(
                    f"{path} covers different videos than the first score file"
                )
        models.append((_model_name(path), report.per_video))
    assert first_groups is not None

    grouping = first_groups
    if cfg["grouping"]:
        payload = D.read_json(cfg["grouping"])
        try:
            grouping = M.groups_from_dict(payload)
        except ValueError as exc:
            raise ParseError(f"{cfg['grouping']}: bad grouping file: {exc}") from None
    print(render_comparison(models, grouping, cfg["metric"]))


def render_comparison(
    models: list[tuple[str, dict[str, M.VideoScores]]],
    grouping: dict[str, list[str]],
    metric: str,
) -> str:
    """Model x video matrix per group; '*' marks each column's maximum."""
    mark = len(models) > 1
    blocks = []
    for label, members in grouping.items():
        headers = ["model"] + members + ["AVERAGE"]
        cells: list[list[float | None]] = []
        for name, per_video in models:
            averages = M.aggregate_report(per_video, {label: members}).group_averages
            row = [
                per_video[vid].scores.get(metric) if vid in per_video else None
                for vid in members
            ]
            row.append(averages[label].get(metric))
            cells.append(row)
        rows = []
        for r, (name, _) in enumerate(models):
            rendered = [name]
            for c in range(len(members) + 1):
                column = [cells[k][c] for k in range(len(models))]
                defined = [v for v in column if v is not None]
                text = fmt3(cells[r][c])
                if mark and defined and cells[r][c] is not None and cells[r][c] == max(defined):
                    text += "*"
                rendered.append(text)
            rows.append(rendered)
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
                p.add_argument(key, nargs="*", help="EvalReport JSON files, one per model")
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
            raise ParseError(f"{name} must be {TYPE_NAMES[kind]}, got {value!r}") from None
    allowed = (int, float) if kind is float else kind  # an int is a valid float
    if (
        isinstance(value, bool)
        or not isinstance(value, allowed)
        or isinstance(value, list) and not all(isinstance(p, str) for p in value)
    ):
        raise ParseError(f"{name} must be {TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {value!r}")
    if not all(OPS[op](value, limit) for op, limit in bounds):
        raise ParseError(f"{name} must be {_describe(bounds)}, got {value!r}")
    return value


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


def main(argv: list[str] | None = None) -> int:
    # bind to the current sys.stderr on every invocation
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(logging.INFO)
    log.propagate = False
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
