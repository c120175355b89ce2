"""Command-line harness: evaluate, train, predict, report, generate.

Every subcommand reads an optional JSON config (``--config``) whose keys
mirror the flag names; explicit flags win over the config, which wins
over built-in defaults. The fully resolved configuration is logged to
stderr before work starts. All failures exit nonzero with a single
machine-parseable ``ERROR <code>: <message>`` line on stderr.

Rendered tables round to three decimals, half up, and are byte-stable:
re-rendering the same report reproduces identical text.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from decimal import ROUND_HALF_UP, Decimal

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

DEFAULTS: dict[str, dict] = {
    "generate": {
        "out": None,
        "videos": 4,
        "frames": 64,
        "height": 32,
        "width": 32,
        "seed": 7,
        "lag": 1,
        "blob_sigma": 3.0,
        "noise": 0.08,
        "fixations_per_frame": 3,
    },
    "train": {
        "manifest": None,
        "ckpt": None,
        "variant": Mo.CONV_LSTM,
        "epochs": 1,
        "clip_length": 16,
        "seed": 0,
        "hidden": Mo.DEFAULT_HIDDEN_CHANNELS,
        "lr0": 1e-5,
        "momentum": 0.9,
        "weight_decay": 1e-4,
        "decay_every": 3,
        "max_steps": None,
        "loss_csv": None,
    },
    "predict": {
        "manifest": None,
        "ckpt": None,
        "out": None,
    },
    "evaluate": {
        "manifest": None,
        "predictions": None,
        "metrics": ",".join(M.METRIC_NAMES),
        "shuffle_seed": 42,
        "out": None,
    },
    "report": {
        "scores": None,
        "metric": "nss",
        "grouping": None,
    },
}

# train's integer settings and their upper bounds (None: unbounded)
TRAIN_COUNTS: dict[str, int | None] = {
    "epochs": None,
    "clip_length": None,
    "decay_every": None,
    "max_steps": None,
    "hidden": Tr.MAX_HIDDEN_CHANNELS,
}

REQUIRED: dict[str, tuple[str, ...]] = {
    "generate": ("out",),
    "train": ("manifest", "ckpt"),
    "predict": ("manifest", "ckpt", "out"),
    "evaluate": ("manifest", "predictions"),
    "report": ("scores",),
}


def fmt3(value: float | None) -> str:
    """Three-decimal fixed-point rendering, rounding half up; None -> n/a."""
    if value is None:
        return "n/a"
    quantized = Decimal(repr(float(value))).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
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
    config = D.SyntheticConfig(
        videos=cfg["videos"],
        frames=cfg["frames"],
        height=cfg["height"],
        width=cfg["width"],
        seed=cfg["seed"],
        lag=cfg["lag"],
        blob_sigma=cfg["blob_sigma"],
        noise=cfg["noise"],
        fixations_per_frame=cfg["fixations_per_frame"],
    )
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
                frames=[D.map_to_tensor(s) for s in video.static_maps],
                targets=[D.map_to_tensor(g) for g in video.gt_maps],
            )
        )
    return samples


def cmd_train(cfg: dict) -> None:
    if cfg["variant"] not in Mo.VARIANTS:
        raise ParseError(f"variant must be one of {Mo.VARIANTS}, got {cfg['variant']!r}")
    for key, top in TRAIN_COUNTS.items():
        value = cfg[key]
        if key == "max_steps" and value is None:
            continue
        if type(value) is not int or value < 1 or (top is not None and value > top):
            limit = f"in [1, {top}]" if top is not None else ">= 1"
            raise ParseError(f"{key} must be an integer {limit}, got {value!r}")
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
    loss_csv = cfg["loss_csv"] or cfg["ckpt"] + ".loss.csv"
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
    manifest = D.load_manifest(cfg["manifest"], check_files=False)
    model, _ = Tr.load_checkpoint(cfg["ckpt"])
    res = manifest.resolution
    written = 0
    for record in manifest.videos:
        out_dir = os.path.join(cfg["out"], record.video_id)
        os.makedirs(out_dir, exist_ok=True)
        state = None
        if model.variant == Mo.CONV_LSTM:
            state = Mo.LstmState.zeros(model.hidden_channels, res[0], res[1])
        for frame in record.frames:
            name = D.frame_file_name(frame)
            src = os.path.join(manifest.root, record.static_map_dir, name)
            if not os.path.isfile(src):
                raise MissingInput(f"{record.video_id}: no static map {src}")
            static = D.resize_bilinear(D.load_map(src), res)
            x = D.map_to_tensor(static)
            if model.variant == Mo.CONV_ONLY:
                y = Mo.conv_block_forward(x, model)
            else:
                y, state = Mo.convlstm_step(x, state, model)
            D.write_map(D.tensor_to_map(y), os.path.join(out_dir, name))
            written += 1
    log.info("wrote %d refined maps to %s", written, cfg["out"])
    print(cfg["out"])


def _parse_metric_list(spec: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    for name in names:
        if name not in M.METRIC_NAMES:
            raise ParseError(f"unknown metric {name!r}; choose from {M.METRIC_NAMES}")
    if not names:
        raise ParseError("metric list is empty")
    return names


def cmd_evaluate(cfg: dict) -> None:
    metrics = _parse_metric_list(cfg["metrics"])
    manifest = D.load_manifest(cfg["manifest"])
    videos = {rec.video_id: D.load_video(manifest, rec) for rec in manifest.videos}

    predictions: dict[str, list[M.SaliencyMap]] = {}
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
            fix.points
            for other_id, other in videos.items()
            if other_id != rec.video_id
            for fix in other.fixations
        ]
        video = videos[rec.video_id]
        per_video[rec.video_id] = M.evaluate_video(
            predictions[rec.video_id],
            video.fixations,
            video.gt_maps,
            M.FixationSet(np.concatenate(pool) if pool else []),
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
        report = M.report_from_dict(payload)
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

    if cfg["grouping"]:
        with open(cfg["grouping"], "r", encoding="utf-8") as fh:
            try:
                grouping = {
                    str(label): [str(v) for v in members]
                    for label, members in json.load(fh).items()
                }
            except (json.JSONDecodeError, AttributeError) as exc:
                raise ParseError(f"bad grouping file: {exc}") from None
    else:
        grouping = first_groups

    metric = cfg["metric"]
    if metric not in M.METRIC_NAMES:
        raise ParseError(f"unknown metric {metric!r}; choose from {M.METRIC_NAMES}")
    print(render_comparison(models, grouping, metric))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsal",
        description="Temporal adaptation toolkit for video saliency maps.",
    )
    parser.add_argument("--version", action="version", version=f"tsal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func, command=name)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        return p

    p = command("generate", "write a synthetic drifting-blob dataset", cmd_generate)
    p.add_argument("--out", help="output dataset directory")
    p.add_argument("--videos", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--blob-sigma", dest="blob_sigma", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--fixations-per-frame", dest="fixations_per_frame", type=int)

    p = command("train", "train an adaptation model on a dataset", cmd_train)
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--ckpt", help="checkpoint output path")
    p.add_argument("--variant", choices=list(Mo.VARIANTS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--clip-length", dest="clip_length", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--decay-every", dest="decay_every", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--loss-csv", dest="loss_csv")

    p = command("predict", "run a checkpoint over a dataset's static maps", cmd_predict)
    p.add_argument("--manifest")
    p.add_argument("--ckpt")
    p.add_argument("--out", help="directory for refined maps")

    p = command("evaluate", "score predictions against ground truth", cmd_evaluate)
    p.add_argument("--manifest")
    p.add_argument("--predictions", help="directory of predicted maps")
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--shuffle-seed", dest="shuffle_seed", type=int)
    p.add_argument("--out", help="write the report JSON here")

    p = command("report", "tabulate one metric across models and videos", cmd_report)
    p.add_argument("scores", nargs="*", help="EvalReport JSON files, one per model")
    p.add_argument("--metric", help="metric column to tabulate")
    p.add_argument("--grouping", help="JSON file mapping group label to video ids")

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, with unknown keys rejected."""
    defaults = DEFAULTS[args.command]
    merged = dict(defaults)
    provided = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "command", "config")
    }
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ParseError("config file must hold a JSON object")
        for key, value in payload.items():
            if key not in defaults:
                raise ParseError(f"unknown config key {key!r} for {args.command}")
            merged[key] = value
    # an empty positional list means "not given" for report's score files
    merged.update(
        {k: v for k, v in provided.items() if not (k == "scores" and v == [])}
    )
    for key in REQUIRED[args.command]:
        if merged.get(key) in (None, []):
            raise ParseError(f"{args.command} requires --{key.replace('_', '-')}")
    return merged


def main(argv: list[str] | None = None) -> int:
    # bind to the current sys.stderr on every invocation
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(logging.INFO)
    log.propagate = False
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
