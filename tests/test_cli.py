"""End-to-end tests of the command-line harness."""

import contextlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import shlex
import signal
import subprocess
import sys
import time
import warnings
import zlib

import numpy as np
import pytest

from helpers import peak_rss_mib, resized_maps, tree_digest
from tsal import data as D
from tsal import metrics as M
from tsal import model as Mo
from tsal import train as Tr
import tsal
from tsal.cli import build_parser, fmt3, main, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("ERROR")]


def make_dataset(tmp_path, name="data", videos=2, frames=6, size=16, seed=1, lag=1):
    out = str(tmp_path / name)
    config = D.SyntheticConfig(
        videos=videos, frames=frames, height=size, width=size, seed=seed, lag=lag
    )
    return out, D.generate_synthetic(out, config)


def copy_gt_as_predictions(dataset_dir, pred_dir, maps="gt_map_dir"):
    manifest = D.load_manifest(os.path.join(dataset_dir, "manifest.json"))
    for video in manifest["videos"]:
        os.makedirs(os.path.join(pred_dir, video["video_id"]), exist_ok=True)
        for frame in video["frames"]:
            name = D.frame_file_name(frame)
            shutil.copyfile(
                os.path.join(video[maps], name),
                os.path.join(pred_dir, video["video_id"], name),
            )


class TestFmt3:
    def test_half_up_rendering(self):
        assert fmt3(2.65225) == "2.652"
        assert fmt3(1.315) == "1.315"
        assert fmt3(2.4675) == "2.468"
        assert fmt3(0.5) == "0.500"
        assert fmt3(None) == "n/a"
        assert fmt3(-0.1235) == "-0.124"


SMALL_GENERATE = ("--videos", "1", "--frames", "2", "--height", "8", "--width", "8")
HUGE = str(2**70)  # past int64


class TestGenerate:
    def test_writes_tree_and_prints_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code, stdout, stderr = run(
            capsys, "generate", "--out", out, "--videos", "1", "--frames", "3",
            "--height", "10", "--width", "10",
        )
        assert code == 0
        assert stdout.strip() == os.path.join(out, "manifest.json")
        assert "resolved config" in stderr
        manifest = D.load_manifest(stdout.strip())
        assert len(manifest["videos"]) == 1

    def test_config_file_merged_and_overridden(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": out, "videos": 1, "frames": 3,
                                      "height": 10, "width": 10}))
        code, stdout, _ = run(
            capsys, "generate", "--config", str(config), "--frames", "4"
        )
        assert code == 0
        manifest = D.load_manifest(stdout.strip())
        assert len(manifest["videos"]) == 1
        assert len(manifest["videos"][0]["frames"]) == 4  # flag beat the config file

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, stderr = run(capsys, "generate", "--config", str(config))
        assert code == 1
        assert stderr.splitlines()[-1].startswith("ERROR ParseError:")

    def test_missing_required_flag(self, capsys):
        code, _, stderr = run(capsys, "generate")
        assert code == 1
        assert "ERROR ParseError:" in stderr

    @pytest.mark.parametrize("existing", ["non-empty directory", "file", "symlink"])
    def test_out_that_exists_is_one_parse_error_before_any_write(
        self, tmp_path, capsys, existing
    ):
        out = tmp_path / "ds"
        if existing == "file":
            out.write_bytes(b"keep")
        elif existing == "symlink":  # to an empty directory: the final rename would fail
            (tmp_path / "empty").mkdir()
            out.symlink_to(tmp_path / "empty")
        else:
            out.mkdir()
            (out / "keep").write_bytes(b"keep")
        before = sorted(os.listdir(tmp_path)), tree_digest(str(tmp_path))
        code, stdout, stderr = run(capsys, "generate", "--out", str(out), *SMALL_GENERATE)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: --out {out} exists and is not an empty directory"
        assert (sorted(os.listdir(tmp_path)), tree_digest(str(tmp_path))) == before  # no temp tree

    def test_out_may_be_an_empty_directory(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.mkdir()
        code, stdout, _ = run(capsys, "generate", "--out", str(out), *SMALL_GENERATE)
        assert code == 0
        assert stdout.strip() == os.path.join(out, "manifest.json")
        assert sorted(os.listdir(out)) == ["manifest.json", "video_000"]
        assert sorted(os.listdir(tmp_path)) == ["ds"]

    def test_tree_independent_of_worker_count(self, tmp_path):
        """Unpinned, the videos are written by one worker process per CPU;
        pinned to one CPU, by one. Both trees are criterion 7's, byte for byte."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = {
            "all-cpus": None,
            # acts on the child process alone
            "one-cpu": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
        }
        digests = {}
        for name, pin in runs.items():
            out = str(tmp_path / name)
            subprocess.run(
                [sys.executable, "-m", "tsal.cli", "generate", "--out", out, "--videos", "2",
                 "--frames", "10", "--height", "16", "--width", "16", "--seed", "5"],
                env=env, check=True, capture_output=True, preexec_fn=pin, timeout=120,
            )
            digests[name] = tree_digest(out)
        assert digests["one-cpu"] == digests["all-cpus"]
        assert digests["all-cpus"][:12] == "6922a7758988"

    def test_negative_zero_noise_is_zero_noise(self, tmp_path, capsys):
        trees = []
        for noise in ("-0.0", "0"):
            out = str(tmp_path / f"noise{noise}")
            code, _, stderr = run(
                capsys, "generate", "--out", out, "--noise", noise, *SMALL_GENERATE
            )
            assert code == 0
            assert '"noise": 0.0' in stderr  # the resolved-config line
            trees.append(tree_digest(out))
        assert trees[0] == trees[1]

# (command, flags, config) -> one bad setting each; everything else is valid
BAD_SETTINGS = {
    "videos-0": ("generate", ["--videos", "0"], None),
    "height-4": ("generate", ["--height", "4"], None),
    "width-4": ("generate", ["--width", "4"], None),
    "frames-0": ("generate", ["--frames", "0"], None),
    "lag-negative": ("generate", ["--lag", "-1"], None),
    "blob-sigma-0": ("generate", ["--blob-sigma", "0"], None),
    "noise-negative": ("generate", ["--noise", "-1"], None),
    "generate-seed-negative": ("generate", ["--seed", "-1"], None),
    "train-seed-negative": ("train", ["--seed", "-1"], None),
    "config-videos-string": ("generate", [], {"videos": "3"}),
    "config-lr0-string": ("train", [], {"lr0": "x"}),
    "config-shuffle-seed-string": ("evaluate", [], {"shuffle_seed": "x"}),
    "videos-abc": ("generate", ["--videos", "abc"], None),
    "unknown-flag": ("generate", ["--bogus", "1"], None),
    "lr0-nan": ("train", ["--lr0", "nan"], None),
    "shuffle-seed-x": ("evaluate", ["--shuffle-seed", "x"], None),
    "height-65536": ("generate", ["--height", "65536", "--videos", "1", "--frames", "1"], None),
    "frames-huge": ("generate", [*SMALL_GENERATE, "--frames", HUGE], None),
    "lag-huge": ("generate", [*SMALL_GENERATE, "--lag", HUGE], None),
    "blob-sigma-1e-200": ("generate", [*SMALL_GENERATE, "--blob-sigma", "1e-200"], None),
    "fixations-per-frame-huge": (
        "generate", [*SMALL_GENERATE, "--fixations-per-frame", HUGE], None,
    ),
    "fixations-per-frame-65-on-8x8": (
        "generate", [*SMALL_GENERATE, "--fixations-per-frame", "65"], None,
    ),
    "config-noise-past-float": ("generate", list(SMALL_GENERATE), {"noise": 10**400}),
    "config-lr0-past-float": ("train", [], {"lr0": 10**400}),
}

# (command, flags, config, the setting's name in the error line) -> one empty string each
EMPTY_SETTINGS = {
    "evaluate-out": ("evaluate", ["--out", ""], None, "--out"),
    "train-loss-csv": ("train", ["--loss-csv", ""], None, "--loss-csv"),
    "generate-out": ("generate", ["--out", ""], None, "--out"),
    "config-manifest": ("train", [], {"manifest": ""}, "config key 'manifest'"),
}


def manifest_blob(resolution=(8, 8), **fields) -> bytes:
    """A one-video manifest, with ``fields`` overriding its valid entries."""
    entry = {
        "video_id": "v",
        "frames": [0, 1, 2, 3],
        "static_map_dir": "v/static",
        "gt_map_dir": "v/gt",
        "fixation_file": "v/fixations.csv",
        "group_label": "free-viewing",
        **fields,
    }
    return json.dumps({"resolution": list(resolution), "videos": [entry]}).encode()


# what read_json says of any file that holds a lone surrogate escape, naming it
LONE_SURROGATE = ("bad.json: not valid JSON", "surrogates not allowed")
# (which file, its bytes, words the error line must hold) -> one bad file each
BAD_JSON_FILES = {
    "config-non-utf8": ("config", b'{"metric": "\xff"}', ()),
    "scores-non-utf8": ("scores", b'{"per_video": "\xff"}', ()),
    "scores-no-per-video": ("scores", b"{}", ()),
    "scores-member-string": (
        "scores", b'{"per_video": {"v": {"nss": 1.0}}, "groups": {"free-viewing": "v"}}',
        ("'free-viewing'",),
    ),
    "grouping-non-utf8": ("grouping", b'{"g": ["\xff"]}', ()),
    "grouping-not-a-list": ("grouping", b'{"g": 5}', ()),
    "grouping-member-string": ("grouping", b'{"free-viewing": "v"}', ("'free-viewing'",)),
    "grouping-member-number": ("grouping", b'{"free-viewing": ["v", 1]}', ("'free-viewing'",)),
    "manifest-frames-string": ("manifest", manifest_blob(frames="0123"), ("'v'", "frames")),
    "manifest-frames-float": ("manifest", manifest_blob(frames=[0, 1.7, 2, 3]), ("'v'", "frames")),
    "manifest-frames-bool": (
        "manifest", manifest_blob(frames=[False, True, 2, 3]), ("'v'", "frames"),
    ),
    "manifest-resolution-mixed": ("manifest", manifest_blob(resolution=["8", 8.9]), ("resolution",)),
    "manifest-id-number": ("manifest", manifest_blob(video_id=5), ("#0", "video_id")),
    "manifest-dir-list": ("manifest", manifest_blob(gt_map_dir=["v/gt"]), ("'v'", "gt_map_dir")),
    "manifest-label-null": ("manifest", manifest_blob(group_label=None), ("'v'", "group_label")),
    # a side past numpy's size limit, and one past int64
    "manifest-resolution-1e30": (
        "manifest", manifest_blob(resolution=[10**30, 8]), ("resolution",),
    ),
    "manifest-resolution-2pow63": (
        "manifest", manifest_blob(resolution=[2**63, 8]), ("resolution",),
    ),
    # payloads of the wrong shape: each names the member at fault
    "scores-per-video-number": ("scores", b'{"per_video": 3}', ("per_video", "an object")),
    "scores-row-number": (
        "scores", b'{"per_video": {"a": 3}, "groups": {}}', ("video 'a'", "an object"),
    ),
    "scores-list": ("scores", b"[]", ("a JSON object",)),
    "grouping-list": ("grouping", b"[1, 2]", ("groups must be an object",)),
    "manifest-list": ("manifest", b"[1]", ("a JSON object",)),
    "manifest-video-number": (
        "manifest", b'{"resolution": [8, 8], "videos": [3]}',
        ("videos must be a list of objects", "item 0 is 3"),
    ),
    "manifest-no-video-id": (
        "manifest",
        json.dumps({"resolution": [8, 8], "videos": [{"frames": [0]}]}).encode(),
        ("video #0: video_id", "got None"),
    ),
    "manifest-no-resolution": ("manifest", b'{"videos": []}', ("resolution", "got None")),
    "manifest-videos-string": (
        "manifest", b'{"resolution": [8, 8], "videos": "ab"}', ("videos must be a list",),
    ),
    # a long value is named by its JSON type, and a list by its first bad item, never echoed
    "manifest-frames-long": (
        "manifest", manifest_blob(frames=[*range(5000), 0.5]),
        ("'v'", "frames", "item 5000 is 0.5"),
    ),
    "scores-group-long": (
        "scores", json.dumps({"per_video": {}, "groups": {"g": [*range(5000)]}}).encode(),
        ("group 'g'", "item 0 is 0"),
    ),
    "scores-metric-long": (
        "scores", json.dumps({"per_video": {"a": {"nss": [0] * 5000}}}).encode(),
        ("video 'a': nss", "got a list"),
    ),
    "config-value-long": (
        "config", json.dumps({"metric": "n" * 5000}).encode(), ("'metric'", "got a string"),
    ),
    # a lone surrogate escape decodes, but no path or output can hold it
    "config-lone-surrogate": ("config", b'{"grouping": "g\\ud800"}', LONE_SURROGATE),
    "scores-lone-surrogate": (
        "scores",
        json.dumps(
            {"per_video": {"v\ud800": {"nss": 1.0, "frames": 1}}, "groups": {"g": ["v\ud800"]}}
        ).encode(),
        LONE_SURROGATE,
    ),
    "grouping-lone-surrogate": ("grouping", b'{"free-viewing": ["v\\ud800"]}', LONE_SURROGATE),
    "manifest-lone-surrogate": ("manifest", manifest_blob(video_id="v\ud800"), LONE_SURROGATE),
}
# Python's own exception text, which no ERROR line may carry
PYTHON_TEXT = ("Error(", "object is not subscriptable", "indices must be", "has no attribute")


class TestSettings:
    @pytest.mark.parametrize("command, flags, config", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
    def test_bad_setting_is_one_parse_error(self, tmp_path, capsys, command, flags, config):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--out", str(out)],
            "train": ["train", "--manifest", manifest, "--ckpt", str(out), "--variant", "conv"],
            "evaluate": ["evaluate", "--manifest", manifest, "--predictions", pred,
                         "--out", str(out)],
        }[command]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, stdout, stderr = run(capsys, *argv, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR ParseError:")
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, config, name", EMPTY_SETTINGS.values(), ids=EMPTY_SETTINGS
    )
    def test_empty_string_is_one_parse_error_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flags, config, name
    ):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=3, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        argv = {
            "generate": ["generate", "--videos", "1", "--frames", "2"],
            "train": ["train", "--ckpt", str(tmp_path / "m.ckpt"), "--hidden", "2",
                      "--max-steps", "1"],
            "evaluate": ["evaluate", "--predictions", pred],
        }[command]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        elif command != "generate":
            argv += ["--manifest", manifest]
        monkeypatch.chdir(tmp_path)  # where an output named "" would have been written
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, *argv, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {name} must not be empty"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("which, blob, named", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES)
    def test_bad_json_file_is_one_parse_error(self, tmp_path, capsys, which, blob, named):
        scores = tmp_path / "m.json"
        write_report_json(str(scores), {"v": 1.0}, {"free-viewing": ["v"]})
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        argv = {
            "config": ["report", str(scores), "--config", str(bad)],
            "scores": ["report", str(bad)],
            "grouping": ["report", str(scores), "--grouping", str(bad)],
            "manifest": ["evaluate", "--manifest", str(bad), "--predictions", str(tmp_path)],
        }[which]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        # every file but a config names itself first
        assert line.startswith("ERROR ParseError: " + ("" if which == "config" else f"{bad}: "))
        assert len(line.encode()) <= 300
        for word in named:
            assert word in line
        for text in PYTHON_TEXT:
            assert text not in line

    def test_an_escaped_surrogate_pair_is_one_character(self, tmp_path, capsys):
        scores = tmp_path / "m.json"
        write_report_json(str(scores), {"v\U0001f600": 1.0}, {"free-viewing": ["v\U0001f600"]})
        assert b'"v\\ud83d\\ude00"' in scores.read_bytes()
        code, stdout, stderr = run(capsys, "report", str(scores))
        assert code == 0, stderr
        assert "v\U0001f600" in stdout

    @pytest.mark.parametrize(
        "flags, config, want",
        [
            (["--metrics", "nss"], None, "unrecognized arguments: --metrics nss"),
            ([], {"metrics": "nss"}, "unknown config key 'metrics' for evaluate"),
        ],
        ids=["flag", "config"],
    )
    def test_evaluate_has_no_metrics_setting(self, tmp_path, capsys, flags, config, want):
        """Every evaluate run scores the five metrics: a subset is refused, by flag or config,
        before the manifest is read."""
        argv = ["evaluate", "--manifest", str(tmp_path / "none.json"), "--predictions", ".", *flags]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [f"ERROR ParseError: {want}"]

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["train", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestTrain:
    def test_variant_bytes_differ(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=4, size=10)
        paths = {}
        for variant in ("conv", "convlstm"):
            ckpt = str(tmp_path / f"{variant}.tsal")
            code, stdout, _ = run(
                capsys, "train", "--manifest", manifest, "--ckpt", ckpt,
                "--variant", variant, "--hidden", "2", "--max-steps", "2",
            )
            assert code == 0
            assert stdout.strip() == ckpt
            paths[variant] = ckpt
        with open(paths["conv"], "rb") as fh:
            assert fh.read()[6] == 0
        with open(paths["convlstm"], "rb") as fh:
            assert fh.read()[6] == 1

    def test_same_seed_identical_loss_csv(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=6, size=10)
        blobs = []
        for run_id in ("a", "b"):
            ckpt = str(tmp_path / f"{run_id}.tsal")
            code, _, _ = run(
                capsys, "train", "--manifest", manifest, "--ckpt", ckpt,
                "--variant", "convlstm", "--hidden", "2", "--epochs", "2",
                "--clip-length", "3", "--seed", "5",
            )
            assert code == 0
            with open(ckpt + ".loss.csv", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        lines = blobs[0].decode().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 5  # 2 epochs x 2 windows of 3 frames, plus header

    @pytest.mark.parametrize("hidden", [64, Mo.DEFAULT_HIDDEN_CHANNELS])
    def test_artifacts_independent_of_blas_threads(self, tmp_path, hidden):
        _, manifest = make_dataset(tmp_path, videos=2, frames=20, size=16)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        blobs = {}
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            ckpt, csv = tmp_path / f"t{threads}.tsal", tmp_path / f"t{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "tsal.cli", "train", "--manifest", manifest,
                 "--ckpt", str(ckpt), "--variant", "convlstm", "--hidden", str(hidden),
                 "--max-steps", "3", "--loss-csv", str(csv)],
                env=env, check=True, capture_output=True,
            )
            blobs[threads] = (ckpt.read_bytes(), csv.read_bytes())
        assert len(blobs["1"][1].decode().splitlines()) == 4  # header + 3 steps
        assert blobs["1"][0] == blobs["2"][0]
        assert blobs["1"][1] == blobs["2"][1]

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--max-steps", "0"], None),
            (["--hidden", "0"], None),
            (["--epochs", "0"], None),
            (["--clip-length", "0"], None),
            (["--decay-every", "0"], None),
            (["--hidden", "70000"], None),
            ([], {"epochs": "3"}),
        ],
        ids=[
            "max-steps-0", "hidden-0", "epochs-0", "clip-length-0", "decay-every-0",
            "hidden-70000", "config-epochs-string",
        ],
    )
    def test_bad_integer_setting(self, tmp_path, capsys, flags, config):
        _, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        ckpt = tmp_path / "x.tsal"
        argv = ["train", "--manifest", manifest, "--ckpt", str(ckpt), "--variant", "conv"]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, stdout, stderr = run(capsys, *argv, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR ParseError:")
        assert "Traceback" not in stderr
        assert not ckpt.exists()

    @pytest.mark.parametrize("spelling", ["same", "symlinked"])
    def test_loss_csv_on_the_checkpoint_rejected(self, tmp_path, capsys, spelling):
        _, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        ckpt, csv = tmp_path / "r" / "m.ckpt", tmp_path / "r" / "m.ckpt"
        if spelling == "symlinked":
            (tmp_path / "r").mkdir()
            (tmp_path / "link").symlink_to(tmp_path / "r")
            csv = tmp_path / "link" / "m.ckpt"
        code, stdout, stderr = run(
            capsys, "train", "--manifest", manifest, "--ckpt", str(ckpt),
            "--loss-csv", str(csv), "--hidden", "2", "--max-steps", "1",
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR ParseError:")
        assert "--loss-csv" in line and "--ckpt" in line
        assert "Traceback" not in stderr
        assert not ckpt.exists()
        assert (tmp_path / "r").exists() == (spelling == "symlinked")  # made before any read

    @pytest.mark.parametrize(
        "flag, directory",
        [
            ("--ckpt", "runs"), ("--loss-csv", "runs"), ("--ckpt", "new2/"),
            ("--ckpt", "new2/."), ("--loss-csv", "new2/.."),
        ],
    )
    def test_output_that_names_a_directory_rejected(self, tmp_path, capsys, flag, directory):
        _, manifest = make_dataset(tmp_path, videos=1, frames=3, size=8)
        (tmp_path / "runs").mkdir()
        outputs = {"--ckpt": f"{tmp_path}/new/m.ckpt", "--loss-csv": f"{tmp_path}/new/l.csv"}
        outputs[flag] = f"{tmp_path}/{directory}"
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(
            capsys, "train", "--manifest", manifest, "--hidden", "2", "--max-steps", "1",
            "--ckpt", outputs["--ckpt"], "--loss-csv", outputs["--loss-csv"],
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {flag} {outputs[flag]} names a directory"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # made no directory
        assert os.listdir(tmp_path / "runs") == []

    def test_creates_missing_output_directories(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        ckpt, csv = tmp_path / "runs" / "m.ckpt", tmp_path / "logs" / "loss.csv"
        code, _, _ = run(
            capsys, "train", "--manifest", manifest, "--ckpt", str(ckpt),
            "--loss-csv", str(csv), "--hidden", "2", "--max-steps", "1",
        )
        assert code == 0
        assert ckpt.is_file() and csv.is_file()

    def test_blow_up_is_one_non_finite_error(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=8, size=10)
        ckpt = tmp_path / "runs" / "m.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(
                capsys, "train", "--manifest", manifest, "--ckpt", str(ckpt),
                "--hidden", "2", "--lr0", "1e300", "--clip-length", "4",
            )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        # the first update leaves weights near 1e298, beyond float32 range
        assert line.startswith(
            "ERROR NonFinite: non-finite values in video 'video_000' window starting at frame 0:"
        )
        assert "RuntimeWarning" not in stderr and caught == []
        assert not ckpt.exists()

    def test_float32_blow_up_is_reported_in_its_window(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=2, frames=6, size=8)
        ckpt = tmp_path / "m.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(
                capsys, "train", "--manifest", manifest, "--ckpt", str(ckpt),
                "--hidden", "2", "--lr0", "1e36", "--clip-length", "4",
            )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        # the first update stays within float32 range; the second, finite as
        # float64, does not, and a checkpoint could not hold it
        assert line == (
            "ERROR NonFinite: non-finite values in video 'video_000' window starting at "
            "frame 4: lstm.wx_i is not finite after the update"
        )
        assert "RuntimeWarning" not in stderr and caught == []
        assert not ckpt.exists()

    def test_bad_variant(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"variant": "transformer"}))
        code, _, stderr = run(
            capsys, "train", "--config", str(config), "--manifest", manifest,
            "--ckpt", str(tmp_path / "x.tsal"),
        )
        assert code == 1
        assert "ERROR ParseError:" in stderr


    # the loss CSV of a run at non-default settings, stopped in its third
    # epoch: a setting swapped or dropped on its way to the optimizer moves it
    GOLDEN_LOSSES = {
        "conv": [
            2.7790839929950026, 1.3704281353440808, 2.753167535487841, 1.376274852931627,
            2.7602875233638358, 1.3763271448389656, 2.731615305630319, 1.368284653010467,
            2.7564311760681566, 1.3750347420175026,
        ],
        "convlstm": [
            2.7947417445428058, 1.371015527318729, 2.7501566671752533, 1.3761948676517375,
            2.7485558968418635, 1.373970309691984, 2.7208117861529404, 1.3623259022171177,
            2.7405691630599884, 1.371598344983318,
        ],
    }

    @pytest.mark.parametrize("variant", ["conv", "convlstm"])
    def test_settings_reach_the_optimizer(self, tmp_path, capsys, variant):
        _, manifest = make_dataset(tmp_path, videos=2, frames=6, size=8)
        ckpt = str(tmp_path / "m.tsal")
        code, _, _ = run(
            capsys, "train", "--manifest", manifest, "--ckpt", ckpt, "--variant", variant,
            "--hidden", "2", "--lr0", "0.5", "--momentum", "0.7", "--weight-decay", "0.01",
            "--decay-every", "1", "--epochs", "3", "--clip-length", "4", "--max-steps", "10",
            "--seed", "3",
        )
        assert code == 0
        with open(ckpt + ".loss.csv", encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        assert header == ["step", "loss"]
        # 2 videos x windows of 4 and 2 frames: 4 steps an epoch, so 10 stop the third
        assert [int(step) for step, _ in rows] == list(range(1, 11))
        np.testing.assert_allclose(
            [float(loss) for _, loss in rows], self.GOLDEN_LOSSES[variant], rtol=1e-9, atol=0
        )


class TestPredict:
    def make_zero_checkpoint(self, tmp_path, variant="conv", hidden=2):
        model = Mo.init_parameters(variant, rng_seed=0, hidden_channels=hidden)
        for _, arr in model.named_parameters():
            arr[...] = 0.0
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        ckpt = str(tmp_path / "zero.tsal")
        Tr.save_checkpoint(model, buffers, ckpt)
        return ckpt

    def test_zero_model_outputs_byte_128(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        ckpt = self.make_zero_checkpoint(tmp_path)
        out = str(tmp_path / "pred")
        code, stdout, _ = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", out
        )
        assert code == 0
        for t in range(3):
            sal = D.load_map(os.path.join(out, "video_000", D.frame_file_name(t)))
            assert np.all(sal == 128 / 255.0)

    def test_output_count_matches_frames(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=4, size=10)
        ckpt = self.make_zero_checkpoint(tmp_path, variant="convlstm")
        out = str(tmp_path / "pred")
        code, _, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", out
        )
        assert code == 0
        for vid in ("video_000", "video_001"):
            files = sorted(os.listdir(os.path.join(out, vid)))
            assert files == [D.frame_file_name(t) for t in range(4)]
        assert re.search(r"^wrote 8 refined maps to .+ in [\d.]+ s \(\d+ frames/s\)$", stderr, re.M)

    def test_conv_variant_identical_frames_identical_outputs(self, tmp_path, capsys):
        # hand-built dataset with two byte-identical static frames
        root = tmp_path / "tiny"
        (root / "v" / "static").mkdir(parents=True)
        (root / "v" / "gt").mkdir(parents=True)
        sal = np.linspace(0, 1, 64).reshape(8, 8)
        for t in range(2):
            D.write_map(sal, str(root / "v" / "static" / D.frame_file_name(t)))
            D.write_map(sal, str(root / "v" / "gt" / D.frame_file_name(t)))
        (root / "v" / "fixations.csv").write_text("# frame_index,row,col\n")
        (root / "manifest.json").write_bytes(manifest_blob(frames=[0, 1]))

        model = Mo.init_parameters("conv", rng_seed=4, hidden_channels=3)
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        ckpt = str(tmp_path / "conv.tsal")
        Tr.save_checkpoint(model, buffers, ckpt)
        out = str(tmp_path / "pred")
        code, _, _ = run(
            capsys, "predict", "--manifest", str(root / "manifest.json"),
            "--ckpt", ckpt, "--out", out,
        )
        assert code == 0
        with open(os.path.join(out, "v", "000000.pgm"), "rb") as a:
            with open(os.path.join(out, "v", "000001.pgm"), "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("variant", Mo.VARIANTS)
    def test_maps_equal_forward_sequence_outputs(self, tmp_path, capsys, variant):
        _, manifest_path = make_dataset(tmp_path, videos=2, frames=4, size=10)
        model = Mo.init_parameters(variant, rng_seed=5, hidden_channels=3)
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        ckpt = str(tmp_path / "m.tsal")
        Tr.save_checkpoint(model, buffers, ckpt)
        out = tmp_path / "pred"
        code, _, _ = run(
            capsys, "predict", "--manifest", manifest_path, "--ckpt", ckpt, "--out", str(out)
        )
        assert code == 0
        model, _ = Tr.load_checkpoint(ckpt)  # the float32-rounded weights predict ran
        manifest = D.load_manifest(manifest_path)
        want = str(tmp_path / "want.pgm")
        for video in manifest["videos"]:
            maps = resized_maps(video, "static_map_dir", manifest["resolution"])
            frames = [s[None, None] for s in maps]
            outputs, _ = Mo.forward_sequence(frames, model)
            names = [D.frame_file_name(frame) for frame in video["frames"]]
            assert sorted(os.listdir(out / video["video_id"])) == names
            for name, y in zip(names, outputs):
                D.write_map(np.clip(y[0, 0], 0.0, 1.0), want)
                with open(want, "rb") as fh:
                    assert (out / video["video_id"] / name).read_bytes() == fh.read(), name

    @pytest.mark.parametrize(
        "variant, hidden", [("convlstm", 8), ("convlstm", Mo.DEFAULT_HIDDEN_CHANNELS), ("conv", 16)]
    )
    def test_float32_maps_within_one_level_of_float64(self, tmp_path, capsys, variant, hidden):
        _, manifest_path = make_dataset(tmp_path, videos=2, frames=6, size=32)
        model = Mo.init_parameters(variant, rng_seed=0, hidden_channels=hidden)
        ckpt = str(tmp_path / "m.tsal")
        Tr.save_checkpoint(model, {n: np.zeros_like(a) for n, a in model.named_parameters()}, ckpt)
        out = tmp_path / "pred"
        code, _, _ = run(
            capsys, "predict", "--manifest", manifest_path, "--ckpt", ckpt, "--out", str(out)
        )
        assert code == 0
        # predict ran float32; rerun in float64 from the same float32-rounded weights
        loaded, _ = Tr.load_checkpoint(ckpt)
        for (_, arr), (_, stored) in zip(model.named_parameters(), loaded.named_parameters()):
            arr[...] = stored
        manifest = D.load_manifest(manifest_path)
        want = str(tmp_path / "want.pgm")
        for video in manifest["videos"]:
            maps = resized_maps(video, "static_map_dir", manifest["resolution"])
            frames = [s[None, None] for s in maps]
            outputs, _ = Mo.forward_sequence(frames, model)
            assert outputs[0].dtype == np.float64
            for frame, y in zip(video["frames"], outputs):
                D.write_map(np.clip(y[0, 0], 0.0, 1.0), want)
                got = D.load_map(str(out / video["video_id"] / D.frame_file_name(frame)))
                assert np.max(np.abs(got - D.load_map(want))) * 255 < 1.5

    def test_maps_independent_of_blas_threads(self, tmp_path):
        """One video gets one worker process, which keeps the BLAS thread count it is given."""
        _, manifest = make_dataset(tmp_path, videos=1, frames=8, size=32)
        model = Mo.init_parameters(
            "convlstm", rng_seed=0, hidden_channels=Mo.DEFAULT_HIDDEN_CHANNELS
        )
        ckpt = str(tmp_path / "m.tsal")
        Tr.save_checkpoint(model, {n: np.zeros_like(a) for n, a in model.named_parameters()}, ckpt)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        trees = {}
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "tsal.cli", "predict", "--manifest", manifest,
                 "--ckpt", ckpt, "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            trees[threads] = {
                str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*.pgm")
            }
        assert len(trees["1"]) == 8
        assert trees["1"] == trees["2"]

    def test_tree_independent_of_worker_count(self, tmp_path):
        """Unpinned, the videos are refined by one worker process per CPU, each
        with its share of the BLAS threads; pinned to one CPU, by one."""
        _, manifest = make_dataset(tmp_path, videos=3, frames=4, size=16)
        model = Mo.init_parameters(
            "convlstm", rng_seed=0, hidden_channels=Mo.DEFAULT_HIDDEN_CHANNELS
        )
        ckpt = str(tmp_path / "m.tsal")
        Tr.save_checkpoint(model, {n: np.zeros_like(a) for n, a in model.named_parameters()}, ckpt)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = {
            "all-cpus": None,
            # acts on the child process alone
            "one-cpu": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
        }
        trees = {}
        for name, pin in runs.items():
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "tsal.cli", "predict", "--manifest", manifest,
                 "--ckpt", ckpt, "--out", str(out)],
                env=env, check=True, capture_output=True, preexec_fn=pin, timeout=120,
            )
            trees[name] = {
                str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*.pgm")
            }
        assert len(trees["all-cpus"]) == 12
        assert trees["one-cpu"] == trees["all-cpus"]

    def test_first_failure_in_manifest_order_and_no_worker_left(self, tmp_path, capsys):
        """Videos are refined in worker processes, but the error is the one a
        video-by-video run meets first, though a later video fails sooner."""
        data_dir, manifest = make_dataset(tmp_path, videos=3, frames=3, size=10)
        os.remove(os.path.join(data_dir, "video_001", "static", "000002.pgm"))
        os.remove(os.path.join(data_dir, "video_002", "static", "000000.pgm"))
        ckpt = self.make_zero_checkpoint(tmp_path, variant="convlstm")
        code, stdout, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt,
            "--out", str(tmp_path / "pred"),
        )
        assert code == 1
        assert stdout == ""
        missing = os.path.join(data_dir, "video_001", "static", "000002.pgm")
        assert error_lines(stderr) == [
            f"ERROR MissingInput: video_001: frame 2 has no map {missing}"
        ]
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == ["data", "zero.tsal"]  # no --out, no temp
        assert multiprocessing.active_children() == []

    def test_non_finite_checkpoint_rejected(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        ckpt = self.make_zero_checkpoint(tmp_path)
        with open(ckpt, "rb") as fh:
            body = bytearray(fh.read()[:-4])
        # first float32 of the first tensor's payload: name, then four uint32 dims
        at = body.index(b"feature.weights") + len(b"feature.weights") + 16
        body[at : at + 4] = np.float32(np.inf).tobytes()
        with open(ckpt, "wb") as fh:
            fh.write(bytes(body) + np.uint32(zlib.crc32(bytes(body))).tobytes())
        out = tmp_path / "pred"
        code, stdout, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR CorruptCheckpoint:")
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["cut", "manifest"])
    def test_bad_checkpoint_is_one_error_naming_the_file(self, tmp_path, capsys, bad):
        _, manifest = make_dataset(tmp_path, videos=1, frames=2, size=8)
        ckpt = manifest  # a JSON file is not a checkpoint
        if bad == "cut":
            ckpt = self.make_zero_checkpoint(tmp_path)
            with open(ckpt, "r+b") as fh:
                fh.truncate(40)
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt,
            "--out", str(tmp_path / "pred"),
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith(f"ERROR CorruptCheckpoint: {ckpt}: ")
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # no --out, no temp

    def test_missing_static_map(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        os.remove(os.path.join(data_dir, "video_000", "static", "000001.pgm"))
        ckpt = self.make_zero_checkpoint(tmp_path)
        code, _, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt,
            "--out", str(tmp_path / "pred"),
        )
        assert code == 1
        assert "ERROR MissingInput:" in stderr
        assert sorted(os.listdir(tmp_path)) == ["data", "zero.tsal"]  # no --out, no temp

    def test_truncated_static_map_leaves_no_output(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=10)
        bad = os.path.join(data_dir, "video_001", "static", "000001.pgm")
        with open(bad, "r+b") as fh:
            fh.truncate(len(b"P5\n10 10\n255\n"))
        ckpt = self.make_zero_checkpoint(tmp_path, variant="convlstm")
        code, _, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt,
            "--out", str(tmp_path / "pred"),
        )
        assert code == 1
        (line,) = error_lines(stderr)
        assert line.startswith(f"ERROR TruncatedData: {bad}: ")
        assert sorted(os.listdir(tmp_path)) == ["data", "zero.tsal"]

    def test_out_must_be_new_or_empty(self, tmp_path, capsys):
        _, manifest = make_dataset(tmp_path, videos=1, frames=2, size=10)
        out = tmp_path / "pred"
        out.mkdir()
        ckpt = self.make_zero_checkpoint(tmp_path)
        code, _, _ = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", str(out)
        )
        assert code == 0  # an empty directory is replaced
        assert sorted(os.listdir(out)) == ["video_000"]
        # refused before the (here missing) checkpoint is read
        code, stdout, stderr = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", str(tmp_path / "none"),
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR ParseError:")
        assert sorted(os.listdir(out)) == ["video_000"]

    def test_a_stale_temporary_tree_is_left_alone(self, tmp_path, capsys):
        """A SIGKILLed run leaves its ``<out>.<random>.tmp`` tree beside --out:
        the next run over that --out is not blocked by it and does not touch it."""
        _, manifest = make_dataset(tmp_path, videos=1, frames=2, size=10)
        ckpt = self.make_zero_checkpoint(tmp_path)
        out = tmp_path / "pred"
        stale = tmp_path / "pred.x.tmp"
        (stale / "video_000").mkdir(parents=True)
        (stale / "video_000" / D.frame_file_name(0)).write_bytes(b"P5\n10 10\n255\n")

        def snapshot():  # each directory's mtime, entries and file bytes
            return [
                (d, os.stat(d).st_mtime_ns, sorted(dirs))
                + tuple((f, pathlib.Path(d, f).read_bytes()) for f in sorted(files))
                for d, dirs, files in sorted(os.walk(stale))
            ]

        before = snapshot()
        code, stdout, _ = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", str(out)
        )
        assert code == 0 and stdout == f"{out}\n"
        assert sorted(os.listdir(out / "video_000")) == [D.frame_file_name(t) for t in range(2)]
        assert sorted(p.name for p in tmp_path.glob("pred.*")) == ["pred.x.tmp"]
        assert snapshot() == before


class TestOutputOnTheManifest:
    @pytest.mark.parametrize("spelling", ["same", "symlinked", "hardlinked"])
    @pytest.mark.parametrize(
        "command, flag", [("train", "--ckpt"), ("train", "--loss-csv"), ("evaluate", "--out")]
    )
    def test_is_one_parse_error_before_any_read_or_write(
        self, tmp_path, capsys, command, flag, spelling
    ):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=2, size=8)
        with open(manifest, "rb") as fh:
            original = fh.read()
        target = manifest
        if spelling == "symlinked":
            (tmp_path / "link").symlink_to(data_dir)
            target = str(tmp_path / "link" / "manifest.json")
        elif spelling == "hardlinked":
            target = str(tmp_path / "linked.json")
            os.link(manifest, target)
        new = str(tmp_path / "new")
        flags = {
            "train": {"--ckpt": f"{new}/m.ckpt", "--loss-csv": f"{new}/l.csv"},
            # refused before the (here missing) predictions are read
            "evaluate": {"--predictions": str(tmp_path / "none"), "--out": f"{new}/s.json"},
        }[command]
        flags[flag] = target
        argv = [arg for item in flags.items() for arg in item]
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {flag} {target} names the manifest"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # made no directory
        with open(manifest, "rb") as fh:
            assert fh.read() == original


class TestOutputOnAnInput:
    @pytest.mark.parametrize("spelling", ["same", "symlinked"])
    @pytest.mark.parametrize(
        "command, flag, name, what",
        [
            ("evaluate", "--out", "video_000/fixations.csv", "video_000's fixation file"),
            ("train", "--ckpt", "video_001/static/000000.pgm", "video_001's static map of frame 0"),
            (
                "train", "--loss-csv", "video_000/gt/000002.pgm",
                "video_000's ground-truth map of frame 2",
            ),
        ],
        ids=["evaluate-fixations", "train-static", "train-gt"],
    )
    def test_is_one_parse_error_and_leaves_the_input(
        self, tmp_path, capsys, command, flag, name, what, spelling
    ):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        target = os.path.join(data_dir, name)
        with open(target, "rb") as fh:
            original = fh.read()
        if spelling == "symlinked":
            (tmp_path / "link").symlink_to(data_dir)
            target = str(tmp_path / "link" / name)
        new = str(tmp_path / "new")
        flags = {
            "train": {
                "--ckpt": f"{new}/m.ckpt", "--loss-csv": f"{new}/l.csv",
                "--hidden": "2", "--max-steps": "1",
            },
            # refused before the (here missing) predictions are read
            "evaluate": {"--predictions": str(tmp_path / "none"), "--out": f"{new}/s.json"},
        }[command]
        flags[flag] = target
        argv = [arg for item in flags.items() for arg in item]
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {flag} {target} names {what}"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # made no directory
        with open(os.path.join(data_dir, name), "rb") as fh:
            assert fh.read() == original

    @pytest.mark.parametrize(
        "command, flag, link, name, what",
        [
            (
                "train", "--ckpt", "symlink", "data/video_001/static/000000.pgm",
                "video_001's static map of frame 0",
            ),
            (
                "train", "--loss-csv", "hardlink", "data/video_000/gt/000002.pgm",
                "video_000's ground-truth map of frame 2",
            ),
            (
                "evaluate", "--out", None, "pred/video_001/000002.pgm",
                "video_001's prediction map of frame 2",
            ),
        ],
        ids=["train-symlinked-static", "train-hardlinked-gt", "evaluate-prediction"],
    )
    def test_the_same_file_by_another_name_is_one_parse_error(
        self, tmp_path, capsys, command, flag, link, name, what
    ):
        """An output is refused when it is the input's file, whatever path reaches it."""
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        source = target = str(tmp_path / name)
        if link == "symlink":  # the input is a symlink to the file --ckpt names
            target = str(tmp_path / "elsewhere.pgm")
            os.replace(source, target)
            os.symlink(target, source)
        elif link == "hardlink":  # the output is a second name of the input's file
            target = str(tmp_path / "linked")
            os.link(source, target)
        with open(source, "rb") as fh:
            original = fh.read()
        new = str(tmp_path / "new")
        flags = {
            "train": {
                "--ckpt": f"{new}/m.ckpt", "--loss-csv": f"{new}/l.csv",
                "--hidden": "2", "--max-steps": "1",
            },
            "evaluate": {"--predictions": str(tmp_path / "pred"), "--out": f"{new}/s.json"},
        }[command]
        flags[flag] = target
        argv = [arg for item in flags.items() for arg in item]
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {flag} {target} names {what}"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # made no directory
        with open(source, "rb") as fh:
            assert fh.read() == original


class TestAtomicOutput:
    def test_a_writer_failing_part_way_leaves_the_old_output(self, tmp_path, capsys, monkeypatch):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        out = tmp_path / "scores" / "s.json"
        out.parent.mkdir()
        out.write_bytes(b'{"old": "report"}\n')

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"per_video": ')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        code, _, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred, "--out", str(out)
        )
        assert code == 1
        (line,) = error_lines(stderr)
        assert line == "ERROR IoError: [Errno 28] No space left on device"
        assert out.read_bytes() == b'{"old": "report"}\n'
        assert os.listdir(out.parent) == ["s.json"]  # no temp sibling

    def test_generate_failing_part_way_leaves_no_tree(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(D, "write_fixations", fail)
        code, _, stderr = run(capsys, "generate", "--out", str(tmp_path / "ds"), *SMALL_GENERATE)
        assert code == 1
        (line,) = error_lines(stderr)
        assert line == "ERROR IoError: [Errno 28] No space left on device"
        assert os.listdir(tmp_path) == []  # no --out, video_000/ or temp tree

    def test_generate_reports_the_first_failing_video_and_leaves_no_worker(
        self, tmp_path, capsys, monkeypatch
    ):
        """Videos are written in worker processes, but the error is the one a
        video-by-video run meets first, though a later video fails sooner."""
        write_map = D.write_map

        def fail_from_video_001(sal, path):
            video = os.path.basename(os.path.dirname(os.path.dirname(path)))
            if video == "video_001":
                time.sleep(0.2)
            if video != "video_000":
                raise OSError(28, "No space left on device", path)
            write_map(sal, path)

        monkeypatch.setattr(D, "write_map", fail_from_video_001)
        argv = ["--out", str(tmp_path / "ds"), "--videos", "3", "--frames", "2"]
        code, stdout, stderr = run(capsys, "generate", *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR IoError: [Errno 28] No space left on device: ")
        assert line.endswith(f"{os.sep}video_001{os.sep}static{os.sep}000000.pgm'")
        assert "Traceback" not in stderr
        assert os.listdir(tmp_path) == []  # no --out and no temp tree
        assert multiprocessing.active_children() == []


def _cap_address_space():
    """Runs in the child only: its address space is capped at 3 GiB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["generate", "train", "predict", "evaluate"])
    def test_is_one_error_line_and_leaves_no_output(self, tmp_path, command):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=2)
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        Tr.save_checkpoint(model, buffers, str(tmp_path / "m.tsal"))
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["resolution"] = [D.MAX_MAP_SIDE, D.MAX_MAP_SIDE]  # 32 GiB a float64 map
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = {
            "generate": ["--out", str(tmp_path / "ds"), "--height", "65535", "--width", "65535",
                         "--videos", "1", "--frames", "1"],
            "train": ["--manifest", manifest, "--ckpt", str(tmp_path / "new.tsal"),
                      "--hidden", "2"],
            "predict": ["--manifest", manifest, "--ckpt", str(tmp_path / "m.tsal"),
                        "--out", str(tmp_path / "out")],
            "evaluate": ["--manifest", manifest, "--predictions", str(tmp_path / "pred"),
                         "--out", str(tmp_path / "s.json")],
        }[command]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        before = sorted(os.listdir(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "tsal.cli", command, *argv],
            env=env, capture_output=True, text=True, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = error_lines(proc.stderr)
        assert line.startswith("ERROR OutOfMemory: Unable to allocate 32.0 GiB")
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == before  # no output and no temp sibling


def _die_in_a_worker(*args):
    """Stands in for a function that only pool workers call: the worker is killed
    as the out-of-memory killer would kill it."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDied:
    @pytest.mark.parametrize("command, victim", [("generate", "write_map"),
                                                 ("predict", "write_map"),
                                                 ("evaluate", "resize_bilinear")])
    def test_is_one_error_line_and_leaves_no_output(
        self, tmp_path, capsys, monkeypatch, command, victim
    ):
        data_dir, manifest = make_dataset(tmp_path, videos=3, frames=3, size=8)
        copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=2)
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        Tr.save_checkpoint(model, buffers, str(tmp_path / "m.tsal"))
        monkeypatch.setattr(D, victim, _die_in_a_worker)
        out = str(tmp_path / "out")
        argv = {
            "generate": ["--out", out, "--videos", "3", "--frames", "2"],
            "predict": ["--manifest", manifest, "--ckpt", str(tmp_path / "m.tsal"), "--out", out],
            "evaluate": ["--manifest", manifest, "--predictions", str(tmp_path / "pred"),
                         "--out", out],
        }[command]
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, command, *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR WorkerDied: ")
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # no output and no temp sibling
        assert multiprocessing.active_children() == []


def _children(pid):
    """The pids whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid):
    """True while ``pid`` runs or sleeps; a zombie has ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture(scope="module")
def long_videos(tmp_path_factory):
    """Two 1,500-frame videos, a width-8 checkpoint and their ground truth
    as predictions: each worker's video takes long enough to interrupt."""
    root = tmp_path_factory.mktemp("long")
    data_dir, manifest = make_dataset(root, videos=2, frames=1500, size=32)
    model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=8)
    buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
    Tr.save_checkpoint(model, buffers, str(root / "m.tsal"))
    os.makedirs(root / "pred")
    for vid in ("video_000", "video_001"):
        os.symlink(os.path.join(data_dir, vid, "gt"), root / "pred" / vid)
    return root, manifest


class TestInterrupt:
    """SIGTERM to the parent, or Ctrl-C's SIGINT to its process group, in the
    middle of a command's worker pool is one error line and 128 + the signal
    as exit code; the temp tree is removed and every worker has ended."""

    @pytest.mark.parametrize(
        "command, signum, group",
        [
            ("generate", signal.SIGTERM, False),
            ("predict", signal.SIGTERM, False),
            ("evaluate", signal.SIGTERM, False),
            ("predict", signal.SIGINT, True),
        ],
        ids=["generate-term", "predict-term", "evaluate-term", "predict-int-group"],
    )
    def test_is_one_error_line_and_leaves_nothing(
        self, tmp_path, long_videos, command, signum, group
    ):
        root, manifest = long_videos
        out = str(tmp_path / "out")
        argv = {
            "generate": ["--out", out, "--videos", "2", "--frames", "1500"],
            "predict": ["--manifest", manifest, "--ckpt", str(root / "m.tsal"), "--out", out],
            "evaluate": ["--manifest", manifest, "--predictions", str(root / "pred"),
                         "--out", out],
        }[command]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tsal.cli", command, *argv], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            pool_size = min(2, len(os.sched_getaffinity(0)))
            workers = []
            deadline = time.monotonic() + 60
            while len(workers) < pool_size and proc.poll() is None and time.monotonic() < deadline:
                workers = sorted(set(workers) | set(_children(proc.pid)))
                time.sleep(0.005)
            assert len(workers) == pool_size, "the pool never started"
            if group:
                os.killpg(proc.pid, signum)
            else:
                proc.send_signal(signum)
            signalled = time.monotonic()
            stdout, stderr = proc.communicate(timeout=30)
            assert proc.returncode == 128 + signum
            assert stdout == ""
            assert error_lines(stderr) == [f"ERROR Interrupted: {signal.Signals(signum).name}"]
            assert "Traceback" not in stderr
            assert os.listdir(tmp_path) == []  # no output and no temp sibling
            while any(map(_alive, workers)) and time.monotonic() < signalled + 2:
                time.sleep(0.01)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:  # a failing run's orphaned workers would hold the pipes open
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


class TestMemoryBoundedByAWindow:
    """Train holds one window of maps and an evaluate worker one block, so a video
    4x longer costs a command next to no memory; a whole video's maps, held as
    float64, would cost 64 KiB a 64x64 frame, about 56 MiB over these 900 frames."""

    GROWTH_BOUND_MIB = 8

    @pytest.fixture(scope="class")
    def short_and_long(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        manifest = make_dataset(root, videos=1, frames=1200, size=64)[1]
        os.makedirs(root / "pred")
        os.symlink(os.path.join(root, "data", "video_000", "gt"), root / "pred" / "video_000")
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        manifests = {}
        for frames in (300, 1200):
            payload["videos"][0]["frames"] = list(range(frames))
            manifests[frames] = os.path.join(root, "data", f"first_{frames}.json")
            with open(manifests[frames], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return root, manifests

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_peak_rss_does_not_grow_with_video_length(self, short_and_long, command):
        root, manifests = short_and_long
        peaks = {}
        for frames, manifest in manifests.items():
            flags = {
                "train": ["--ckpt", str(root / f"m{frames}.tsal"), "--hidden", "8",
                          "--max-steps", "1"],
                "evaluate": ["--predictions", str(root / "pred")],
            }[command]
            peaks[frames] = peak_rss_mib([command, "--manifest", manifest, *flags])
        assert peaks[1200] - peaks[300] < self.GROWTH_BOUND_MIB, peaks


class TestFramelessVideo:
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_is_one_parse_error_and_writes_nothing(self, tmp_path, capsys, command):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=10)
        if command == "predict":
            model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=2)
            buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
            Tr.save_checkpoint(model, buffers, str(tmp_path / "m.tsal"))
        if command == "evaluate":
            copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["videos"][1]["frames"] = []
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        before = sorted(os.listdir(tmp_path))
        flags = {
            "train": ["--ckpt", str(tmp_path / "m.tsal")],
            "predict": ["--ckpt", str(tmp_path / "m.tsal"), "--out", str(tmp_path / "out")],
            "evaluate": ["--predictions", str(tmp_path / "pred")],
        }[command]
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: {manifest}: video_001: video lists no frames"
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # no checkpoint, --out or temp tree


class TestUnsafeVideoId:
    @pytest.mark.parametrize(
        # the last can name no directory: 256 UTF-8 bytes, past Linux's NAME_MAX
        "vid", ["../escaped", "a\u0000b", pytest.param("\u00e9" * 128, id="256-bytes")]
    )
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_is_one_parse_error_before_any_read_or_write(self, tmp_path, capsys, command, vid):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=10)
        if command == "predict":
            model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=2)
            buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
            Tr.save_checkpoint(model, buffers, str(tmp_path / "m.tsal"))
            flags = ["--ckpt", str(tmp_path / "m.tsal"), "--out", str(tmp_path / "pred")]
        else:
            copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
            # what "../escaped" would reach from --predictions, were it followed
            shutil.copytree(os.path.join(data_dir, "video_001", "gt"), tmp_path / "escaped")
            flags = ["--predictions", str(tmp_path / "pred")]
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["videos"][1]["video_id"] = vid
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        before = sorted(os.listdir(tmp_path))
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        where = f"video {vid!r}" if len(vid.encode()) <= 255 else "video #1"  # never echoed
        assert line.startswith(f"ERROR ParseError: {manifest}: {where}: video_id may not be")
        assert len(line.encode()) <= 300
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before  # no --out, escaped or temp tree


class TestBadInputFile:
    @pytest.mark.parametrize(
        "command, name, message",
        [
            ("train", "gt/000001.pgm", "TruncatedData: {}: raster holds 0 of 64 bytes"),
            ("evaluate", "gt/000001.pgm", "TruncatedData: {}: raster holds 0 of 64 bytes"),
            ("evaluate", "fixations.csv", "ParseError: {}: line 11: expected 3 fields, got 2"),
        ],
        ids=["train-gt", "evaluate-gt", "evaluate-fixations"],
    )
    def test_is_one_error_naming_the_file(self, tmp_path, capsys, command, name, message):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        bad = os.path.join(data_dir, "video_001", name)
        if name.endswith(".pgm"):
            with open(bad, "r+b") as fh:
                fh.truncate(len(b"P5\n8 8\n255\n"))
        else:
            with open(bad, "a", encoding="utf-8") as fh:
                fh.write("2,3\n")  # after a header line and 3 frames x 3 fixations
        before = sorted(os.listdir(tmp_path))
        flags = {
            "train": ["--ckpt", str(tmp_path / "m.tsal")],
            "evaluate": ["--predictions", str(tmp_path / "pred")],
        }[command]
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *flags)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == "ERROR " + message.format(bad)
        assert "Traceback" not in stderr
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "field", ["9" * 20_000, "9" * 4_000, "-" + "9" * 4_000],
        ids=["non-integer", "too-large", "negative"],
    )
    def test_a_long_fixation_line_is_one_bounded_error(self, tmp_path, capsys, field):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        bad = os.path.join(data_dir, "video_001", "fixations.csv")
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(f"0,1,{field}\n")  # line 11, after a header and 3 frames x 3 fixations
        code, stdout, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", str(tmp_path / "pred")
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith(f"ERROR ParseError: {bad}: line 11: ")
        assert len(line.encode()) <= 300
        assert "Traceback" not in stderr


def _truncate_raster(path, side):
    with open(path, "r+b") as fh:
        fh.truncate(len(f"P5\n{side} {side}\n255\n"))


class TestFirstErrorOrder:
    """One rule picks the error of a tree with two bad files. Video by video, in manifest
    order, a command finds every map file it will read of that video, static maps, then
    ground truth, then predictions, before it reads any; it then reads them in frame order.
    So a missing map is reported before a malformed one. Evaluate makes two such passes,
    static maps first, and then reads ground truth and predictions in 16-frame blocks, each
    block's ground truth before its predictions."""

    @pytest.mark.parametrize(
        "command, missing_dir",
        [("train", "static"), ("train", "gt"), ("predict", "static"), ("evaluate", "static")],
    )
    def test_a_missing_map_is_reported_before_an_earlier_malformed_one(
        self, tmp_path, capsys, command, missing_dir
    ):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=6, size=8)
        video_dir = os.path.join(data_dir, "video_000")
        _truncate_raster(os.path.join(video_dir, "static", "000001.pgm"), 8)
        missing = os.path.join(video_dir, missing_dir, "000003.pgm")
        os.remove(missing)
        ckpt = str(tmp_path / "m.tsal")
        if command == "predict":
            model = Mo.init_parameters("convlstm", rng_seed=0, hidden_channels=2)
            buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
            Tr.save_checkpoint(model, buffers, ckpt)
        if command == "evaluate":
            copy_gt_as_predictions(data_dir, str(tmp_path / "pred"))
        flags = {
            "train": ["--ckpt", ckpt, "--hidden", "2"],
            "predict": ["--ckpt", ckpt, "--out", str(tmp_path / "out")],
            "evaluate": ["--predictions", str(tmp_path / "pred")],
        }[command]
        code, stdout, stderr = run(capsys, command, "--manifest", manifest, *flags)
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [
            f"ERROR MissingInput: video_000: frame 3 has no map {missing}"
        ]

    def test_train_checks_every_map_before_its_first_step(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=6, size=8)
        missing = os.path.join(data_dir, "video_000", "gt", "000005.pgm")
        os.remove(missing)
        os.remove(os.path.join(data_dir, "video_001", "static", "000000.pgm"))
        ckpt = tmp_path / "m.tsal"
        # one 2-frame step would read neither missing map, were the maps not checked first
        code, stdout, stderr = run(
            capsys, "train", "--manifest", manifest, "--ckpt", str(ckpt),
            "--hidden", "2", "--clip-length", "2", "--max-steps", "1",
        )
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [
            f"ERROR MissingInput: video_000: frame 5 has no map {missing}"
        ]
        assert not ckpt.exists()

    def _evaluate(self, tmp_path, capsys, frames=48):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=frames, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        gt_dir, pred_dir = os.path.join(data_dir, "video_000", "gt"), os.path.join(pred, "video_000")
        argv = ["evaluate", "--manifest", manifest, "--predictions", pred]
        return gt_dir, pred_dir, lambda: run(capsys, *argv)

    def test_evaluate_reports_a_missing_ground_truth_before_a_missing_prediction(
        self, tmp_path, capsys
    ):
        gt_dir, pred_dir, evaluate = self._evaluate(tmp_path, capsys)
        missing = os.path.join(gt_dir, "000040.pgm")
        os.remove(missing)
        os.remove(os.path.join(pred_dir, "000000.pgm"))
        code, stdout, stderr = evaluate()
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [
            f"ERROR MissingInput: video_000: frame 40 has no map {missing}"
        ]

    def test_evaluate_reports_a_missing_map_before_a_corrupt_one(self, tmp_path, capsys):
        gt_dir, pred_dir, evaluate = self._evaluate(tmp_path, capsys)
        _truncate_raster(os.path.join(gt_dir, "000000.pgm"), 8)
        missing = os.path.join(pred_dir, "000047.pgm")
        os.remove(missing)
        code, _, stderr = evaluate()
        assert code == 1
        assert error_lines(stderr) == [
            f"ERROR MissingPrediction: video_000: frame 47 has no map {missing}"
        ]

    @pytest.mark.parametrize(
        "gt_frame, named", [(3, "gt"), (40, "pred")], ids=["same-block", "later-block"]
    )
    def test_evaluate_reports_the_first_corrupt_map_in_block_order(
        self, tmp_path, capsys, gt_frame, named
    ):
        """Within a 16-frame block, ground truth is read before predictions."""
        gt_dir, pred_dir, evaluate = self._evaluate(tmp_path, capsys)
        bad = {
            "gt": os.path.join(gt_dir, D.frame_file_name(gt_frame)),
            "pred": os.path.join(pred_dir, "000000.pgm"),
        }
        for path in bad.values():
            _truncate_raster(path, 8)
        code, _, stderr = evaluate()
        assert code == 1
        assert error_lines(stderr) == [
            f"ERROR TruncatedData: {bad[named]}: raster holds 0 of 64 bytes"
        ]


class TestEvaluate:
    def test_gt_as_predictions_scores_perfectly(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=5, size=12)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        out_json = str(tmp_path / "report.json")
        code, stdout, _ = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", out_json,
        )
        assert code == 0
        with open(out_json) as fh:
            payload = json.load(fh)
        for row in payload["per_video"].values():
            assert row["cc"] == pytest.approx(1.0)
            assert row["sim"] == pytest.approx(1.0)
        assert "AVERAGE" in stdout
        assert "[free-viewing]" in stdout and "[task-driven]" in stdout

    def test_each_map_file_is_statted_once(self, tmp_path, monkeypatch):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=40, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        manifest = D.load_manifest(manifest)
        video, res = manifest["videos"][0], manifest["resolution"]
        fixs = [D.load_video(v, res) for v in manifest["videos"]]
        everything = np.concatenate(fixs[0] + fixs[1])
        stats, isfile = [], os.path.isfile
        monkeypatch.setattr(os.path, "isfile", lambda path: stats.append(path) or isfile(path))
        row = tsal.cli._score_video(
            video, fixs[0], 0, sum(map(len, fixs[0])), everything=everything, res=res,
            cfg={"predictions": pred, "shuffle_seed": 42},
        )
        assert row["frames"] == 40  # three blocks: 16, 16 and 8 frames
        names = [D.frame_file_name(frame) for frame in video["frames"]]
        folders = video["gt_map_dir"], os.path.join(pred, "video_000")
        assert sorted(stats) == sorted(os.path.join(d, name) for d in folders for name in names)

    def test_bytes_sent_to_workers_grow_linearly_with_the_videos(
        self, tmp_path, capsys, monkeypatch
    ):
        """The parent sends each video's worker that video's own arguments, so 4x
        the videos send less than 6x the bytes. Pickling every fixation of the
        dataset into each video's task grew them as the square of the videos."""
        config = D.SyntheticConfig(videos=16, frames=4, height=8, width=8, fixations_per_frame=10)
        manifest = D.generate_synthetic(str(tmp_path / "data"), config)
        copy_gt_as_predictions(str(tmp_path / "data"), str(tmp_path / "pred"))
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["videos"] = payload["videos"][:4]
        first_4 = str(tmp_path / "data" / "first_4.json")
        with open(first_4, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        pickler = multiprocessing.reduction.ForkingPickler
        dumps, sent = pickler.dumps, []
        monkeypatch.setattr(pickler, "dumps", lambda *a: sent.append(len(b := dumps(*a))) or b)
        totals = []
        for path in (first_4, manifest):
            sent.clear()
            code, _, _ = run(
                capsys, "evaluate", "--manifest", path, "--predictions", str(tmp_path / "pred")
            )
            assert code == 0
            totals.append(sum(sent))
        assert totals[1] < 6 * totals[0], totals

    def test_out_directory_is_made_and_a_directory_refused(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        out = tmp_path / "nodir" / "scores.json"
        code, _, _ = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred, "--out", str(out)
        )
        assert code == 0
        assert set(json.loads(out.read_text())["per_video"]) == {"video_000", "video_001"}
        # refused before the (here missing) predictions are read
        code, stdout, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", str(tmp_path / "none"),
            "--out", str(out.parent),
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == f"ERROR ParseError: --out {out.parent} names a directory"
        assert "Traceback" not in stderr
        assert os.listdir(out.parent) == ["scores.json"]

    def test_log_line_counts_equal_the_report(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=3, frames=4, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        # a frame without fixations and a ground truth without mass, so neither count is 0
        fixations = os.path.join(data_dir, "video_000", "fixations.csv")
        with open(fixations) as fh:
            lines = [line for line in fh if not line.startswith("1,")]
        with open(fixations, "w") as fh:
            fh.writelines(lines)
        D.write_map(np.zeros((8, 8)), os.path.join(data_dir, "video_001", "gt", "000002.pgm"))
        out_json = tmp_path / "report.json"
        code, _, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", str(out_json),
        )
        assert code == 0
        (counts,) = re.findall(
            r"^scored (\d+) frames of (\d+) videos in [\d.]+ s \(\d+ frames/s\) after [\d.]+ s"
            r" reading fixations; skipped (\d+) frames without fixations, (\d+) without"
            r" ground-truth mass$",
            stderr,
            re.M,
        )
        rows = json.loads(out_json.read_text())["per_video"].values()
        sums = [sum(row[key] for row in rows) for key in M.VIDEO_COUNTS]
        assert [int(n) for n in counts] == [sums[0], len(rows), *sums[1:]] == [12, 3, 1, 1]

    def test_duplicate_video_id_rejected(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=10)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        with open(manifest) as fh:
            payload = json.load(fh)
        payload["videos"].append(dict(payload["videos"][0]))
        with open(manifest, "w") as fh:
            json.dump(payload, fh)
        code, stdout, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith("ERROR ParseError:") and "video_000" in line

    def test_score_file_reloads_byte_identical(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=3, frames=4, size=12)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        # constant predictions leave video_000's CC undefined, so the file holds a null
        for name in os.listdir(os.path.join(pred, "video_000")):
            D.write_map(np.full((12, 12), 0.5), os.path.join(pred, "video_000", name))
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", str(out_json),
        )
        assert code == 0
        assert json.loads(out_json.read_text())["per_video"]["video_000"]["cc"] is None
        again = tmp_path / "again.json"
        with open(again, "w", encoding="utf-8") as fh:
            json.dump(D.load_scores(str(out_json)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert again.read_bytes() == out_json.read_bytes()

    def test_every_pixel_fixated_leaves_auc_j_undefined(self, tmp_path, capsys):
        # at 1x1 each frame's one pixel is fixated, so AUC-J has no negatives
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=3, size=8)
        with open(manifest, encoding="utf-8") as fh:
            fields = json.load(fh)
        fields["resolution"] = [1, 1]
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(fields, fh)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred, maps="static_map_dir")
        out_json = str(tmp_path / "report.json")
        code, stdout, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", out_json,
        )
        assert code == 0, stderr
        assert error_lines(stderr) == []
        with open(out_json) as fh:
            rows = json.load(fh)["per_video"]
        for row in rows.values():
            assert row["auc_j"] is None
            assert (row["s_auc"], row["nss"], row["cc"], row["sim"]) == (0.5, 0.0, None, 1.0)
            assert row["frames"] == 3 and row["skipped_no_fixations"] == 0
        assert "video_000    n/a  0.500  0.000  n/a  1.000" in stdout

    def test_missing_prediction(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=3, size=10)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        os.remove(os.path.join(pred, "video_000", "000002.pgm"))
        code, _, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred
        )
        assert code == 1
        assert "ERROR MissingPrediction:" in stderr

    def test_first_failure_in_manifest_order_and_no_worker_left(self, tmp_path, capsys):
        """Videos score in worker processes, but the error is the one a
        video-by-video run meets first, and no worker outlives the command."""
        data_dir, manifest = make_dataset(tmp_path, videos=3, frames=3, size=8)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        out_json = tmp_path / "scores.json"
        argv = ["evaluate", "--manifest", manifest, "--predictions", pred, "--out", str(out_json)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert multiprocessing.active_children() == []
        out_json.unlink()
        shutil.rmtree(os.path.join(pred, "video_001"))
        with open(os.path.join(data_dir, "video_002", "gt", "000001.pgm"), "r+b") as fh:
            fh.truncate(len(b"P5\n8 8\n255\n"))
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        missing = os.path.join(pred, "video_001", "000000.pgm")
        assert error_lines(stderr) == [
            f"ERROR MissingPrediction: video_001: frame 0 has no map {missing}"
        ]
        assert "Traceback" not in stderr
        assert not out_json.exists()
        assert multiprocessing.active_children() == []

    def test_scores_independent_of_blas_threads(self, tmp_path):
        """At 128x128, 16,384 pixels, CC's dot products are longer than
        OpenBLAS computes on one thread; the large set is one video, whose one
        worker keeps the BLAS thread count it is given. Pinned to one CPU, the
        same run scores every video in one worker process instead of one per CPU."""
        data_dir, small = make_dataset(tmp_path, "small", videos=3, frames=4, size=16)
        copy_gt_as_predictions(data_dir, str(tmp_path / "small_pred"))
        _, large = make_dataset(tmp_path, "large", videos=1, frames=3, size=128)
        os.makedirs(tmp_path / "large_pred")
        for video in D.load_manifest(large)["videos"]:
            # the static maps as predictions, so that CC is not 1
            os.symlink(video["static_map_dir"], tmp_path / "large_pred" / video["video_id"])
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tsal.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = {
            "1": ("1", None),
            "2": ("2", None),
            # acts on the child process alone
            "2-one-cpu": ("2", lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})),
        }
        for name, manifest, videos in (("small", small, 3), ("large", large, 1)):
            blobs = {}
            for key, (threads, pin) in runs.items():
                env["OPENBLAS_NUM_THREADS"] = threads
                out = tmp_path / f"{name}{key}.json"
                subprocess.run(
                    [sys.executable, "-m", "tsal.cli", "evaluate", "--manifest", manifest,
                     "--predictions", str(tmp_path / f"{name}_pred"), "--out", str(out)],
                    env=env, check=True, capture_output=True, preexec_fn=pin,
                )
                blobs[key] = out.read_bytes()
            assert len(json.loads(blobs["1"])["per_video"]) == videos
            assert blobs["1"] == blobs["2"], name
            assert blobs["2-one-cpu"] == blobs["2"], name

    def test_static_maps_of_two_sizes_are_one_error(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=2, frames=4, size=12)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        D.write_map(np.zeros((8, 8)), os.path.join(data_dir, "video_001", "static", "000002.pgm"))
        out_json = tmp_path / "report.json"
        code, stdout, stderr = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", str(out_json),
        )
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line == (
            "ERROR DimensionMismatch: video_001: static map of frame 2 is 8x8, frame 0's is 12x12"
        )
        assert "Traceback" not in stderr
        assert not out_json.exists()

    def test_missing_manifest_maps_to_io_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--manifest", str(tmp_path / "nope.json"),
            "--predictions", str(tmp_path),
        )
        assert code == 1
        assert "ERROR IoError:" in stderr


def write_report_json(path, nss_by_video, groups):
    per_video = {vid: {"nss": value, "frames": 1} for vid, value in nss_by_video.items()}
    report = M.checked_report({"per_video": per_video, "groups": groups})
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


class TestReport:
    def test_table_arithmetic_rendering(self, tmp_path, capsys):
        groups = {
            "free-viewing": ["bus_ride", "botanical_gardens", "dcu_park", "walking_office"],
            "task-driven": ["playing_cards", "presentation", "tortilla"],
        }
        values = {
            "bus_ride": 1.618, "botanical_gardens": 1.182, "dcu_park": 4.374,
            "walking_office": 3.435, "playing_cards": 0.967, "presentation": 1.360,
            "tortilla": 1.618,
        }
        path = str(tmp_path / "salgan.json")
        write_report_json(path, values, groups)
        code, stdout, _ = run(capsys, "report", path)
        assert code == 0
        free_line = next(
            line for line in stdout.splitlines() if line.startswith("salgan")
            and "2.652" in line
        )
        assert free_line  # free-viewing AVERAGE renders as 2.652
        assert "1.315" in stdout  # task-driven AVERAGE
        assert "*" not in stdout  # single model: no markers

    def test_byte_identical_re_render(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        write_report_json(
            path, {"a": 1.2345, "b": 2.3456}, {"free-viewing": ["a", "b"]}
        )
        outputs = []
        for _ in range(2):
            code, stdout, _ = run(capsys, "report", path)
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_dominant_model_gets_every_star(self, tmp_path, capsys):
        groups = {"free-viewing": ["v1", "v2"]}
        a = str(tmp_path / "model_a.json")
        b = str(tmp_path / "model_b.json")
        write_report_json(a, {"v1": 1.0, "v2": 2.0}, groups)
        write_report_json(b, {"v1": 1.5, "v2": 2.5}, groups)
        code, stdout, _ = run(capsys, "report", a, b)
        assert code == 0
        lines = stdout.splitlines()
        a_line = next(line for line in lines if line.startswith("model_a"))
        b_line = next(line for line in lines if line.startswith("model_b"))
        assert "*" not in a_line
        assert b_line.count("*") == 3  # both videos and the average

    def test_inconsistent_videos(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_report_json(a, {"v1": 1.0}, {"free-viewing": ["v1"]})
        write_report_json(b, {"v2": 1.0}, {"free-viewing": ["v2"]})
        code, _, stderr = run(capsys, "report", a, b)
        assert code == 1
        assert "ERROR InconsistentVideos:" in stderr

    def test_two_files_of_one_model_name_are_one_parse_error(self, tmp_path, capsys):
        paths = []
        for folder in ("a", "b", "c"):
            os.makedirs(tmp_path / folder)
            paths.append(str(tmp_path / folder / ("scores.json" if folder != "b" else "b.json")))
            write_report_json(paths[-1], {"v": 1.0}, {"free-viewing": ["v"]})
        code, stdout, stderr = run(capsys, "report", *paths)
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [
            f"ERROR ParseError: {paths[0]} and {paths[2]} both name model 'scores'"
        ]

    @pytest.mark.parametrize(
        "groups", [{"g": ["a"]}, {"g": ["a", "b"], "h": ["b"]}], ids=["subset", "shared"]
    )
    def test_identical_files_render(self, tmp_path, capsys, groups):
        a = tmp_path / "a.json"
        write_report_json(str(a), {"a": 1.0, "b": 2.0}, groups)
        copy = tmp_path / "a-copy.json"
        shutil.copyfile(a, copy)
        code, stdout, stderr = run(capsys, "report", str(a), str(copy))
        assert code == 0
        assert error_lines(stderr) == []
        assert "[g] metric: nss" in stdout
        assert [line.split()[0] for line in stdout.splitlines()[3:5]] == ["a", "a-copy"]

    def test_grouping_names_unknown_video(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        write_report_json(path, {"v1": 1.0}, {"free-viewing": ["v1"]})
        grouping = tmp_path / "groups.json"
        grouping.write_text(json.dumps({"g": ["v1", "ghost"]}))
        code, stdout, stderr = run(capsys, "report", path, "--grouping", str(grouping))
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith(f"ERROR UnknownVideo: {grouping}: ")

    def test_score_file_group_names_unknown_video(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_report_json(a, {"v1": 1.0}, {"free-viewing": ["v1"]})
        with open(b, "w") as fh:
            json.dump({"per_video": {"v1": {}}, "groups": {"free-viewing": ["v1", "v9"]}}, fh)
        code, stdout, stderr = run(capsys, "report", a, b)
        assert code == 1
        assert stdout == ""
        assert error_lines(stderr) == [
            f"ERROR UnknownVideo: {b}: group 'free-viewing' references unknown video 'v9'"
        ]

    @pytest.mark.parametrize("where", ["score-file", "grouping-file"])
    def test_a_video_listed_twice_in_a_group_is_one_parse_error(self, tmp_path, capsys, where):
        """Listed twice, a video would count twice in its group's average."""
        path, grouping = tmp_path / "m.json", tmp_path / "groups.json"
        twice = {"free-viewing": ["a", "b", "b"]}
        per_video = {"a": {"nss": 1.0, "frames": 1}, "b": {"nss": 4.0, "frames": 1}}
        groups = twice if where == "score-file" else {"free-viewing": ["a", "b"]}
        path.write_text(json.dumps({"per_video": per_video, "groups": groups}))
        grouping.write_text(json.dumps(twice))
        argv = [str(path)] + (["--grouping", str(grouping)] if where == "grouping-file" else [])
        code, stdout, stderr = run(capsys, "report", *argv)
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        bad = path if where == "score-file" else grouping
        assert line.startswith(f"ERROR ParseError: {bad}: ")
        assert "group 'free-viewing' lists video 'b' more than once" in line

    def test_grouping_override(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        write_report_json(
            path, {"v1": 1.0, "v2": 3.0}, {"free-viewing": ["v1", "v2"]}
        )
        grouping = tmp_path / "groups.json"
        grouping.write_text(json.dumps({"only-v2": ["v2"]}))
        code, stdout, _ = run(capsys, "report", path, "--grouping", str(grouping))
        assert code == 0
        assert "[only-v2]" in stdout
        assert "v1" not in stdout

    @pytest.mark.parametrize(
        "key, text",
        [("nss", "1e400"), ("cc", "Infinity"), ("sim", "NaN"), ("auc_j", "true"),
         ("frames", "-1"), ("frames", "1.0"), ("skipped_no_fixations", '"2"'),
         ("skipped_no_gt_mass", "false")],
    )
    def test_bad_score_value_is_one_parse_error(self, tmp_path, capsys, key, text):
        path = tmp_path / "m.json"
        path.write_text(
            '{"per_video": {"v": {"%s": %s}}, "groups": {"free-viewing": ["v"]}}' % (key, text)
        )
        code, stdout, stderr = run(capsys, "report", str(path))
        assert code == 1
        assert stdout == ""
        (line,) = error_lines(stderr)
        assert line.startswith(f"ERROR ParseError: {path}: ")
        assert f"video 'v': {key} " in line

    def test_huge_scores_render(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        write_report_json(path, {"a": 1e308, "b": 1e308}, {"free-viewing": ["a", "b"]})
        code, stdout, _ = run(capsys, "report", path)
        assert code == 0
        big = f"{10**308}.000"  # fmt3 rounds the shortest repr, 1e+308
        assert stdout.splitlines()[-1].split() == ["m", big, big, "inf"]  # the mean overflows

    def test_golden_comparison(self, tmp_path, capsys):
        """Every tied model is starred; n/a, and a column with nothing defined, never are."""
        groups = {"free-viewing": ["a", "b"], "task-driven": ["c"]}
        paths = []
        for name, values in (
            ("model_x", {"a": 1.0, "b": None, "c": None}),
            ("model_y", {"a": 1.0, "b": 2.5, "c": None}),
            ("model_z", {"a": 0.5, "b": 2.0, "c": None}),
        ):
            paths.append(str(tmp_path / f"{name}.json"))
            write_report_json(paths[-1], values, groups)
        code, stdout, _ = run(capsys, "report", *paths)
        assert code == 0
        assert stdout == (
            "[free-viewing] metric: nss\n"
            "model         a       b  AVERAGE\n"
            "--------------------------------\n"
            "model_x  1.000*     n/a    1.000\n"
            "model_y  1.000*  2.500*   1.750*\n"
            "model_z   0.500   2.000    1.250\n"
            "\n"
            "[task-driven] metric: nss\n"
            "model      c  AVERAGE\n"
            "---------------------\n"
            "model_x  n/a      n/a\n"
            "model_y  n/a      n/a\n"
            "model_z  n/a      n/a\n"
        )

    def test_unknown_metric(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        write_report_json(path, {"v": 1.0}, {"free-viewing": ["v"]})
        code, _, stderr = run(capsys, "report", path, "--metric", "emd")
        assert code == 1
        assert "ERROR ParseError:" in stderr


class TestPipeline:
    def test_generate_train_predict_evaluate_report(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code, stdout, _ = run(
            capsys, "generate", "--out", out, "--videos", "2", "--frames", "6",
            "--height", "12", "--width", "12", "--seed", "3",
        )
        assert code == 0
        manifest = stdout.strip()
        ckpt = str(tmp_path / "model.tsal")
        code, _, _ = run(
            capsys, "train", "--manifest", manifest, "--ckpt", ckpt,
            "--variant", "convlstm", "--hidden", "2", "--max-steps", "3",
        )
        assert code == 0
        pred = str(tmp_path / "pred")
        code, _, _ = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", pred
        )
        assert code == 0
        report_json = str(tmp_path / "scores.json")
        code, _, _ = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--out", report_json,
        )
        assert code == 0
        code, stdout, _ = run(capsys, "report", report_json, "--metric", "cc")
        assert code == 0
        assert "scores" in stdout and "AVERAGE" in stdout


class TestReadme:
    def test_quick_start_commands_parse(self):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv[1:] for argv in commands if argv and argv[0] == "tsal"]
        assert [argv[0] for argv in commands] == [
            "generate", "train", "predict", "evaluate", "report"
        ]
        for argv in commands:
            resolve_config(build_parser().parse_args(argv))
