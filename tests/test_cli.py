"""End-to-end tests of the command-line harness."""

import json
import os
import shutil
import shlex
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

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
    D.generate_synthetic(
        out,
        D.SyntheticConfig(
            videos=videos, frames=frames, height=size, width=size, seed=seed, lag=lag
        ),
    )
    return out, os.path.join(out, "manifest.json")


def copy_gt_as_predictions(dataset_dir, pred_dir):
    manifest = D.load_manifest(os.path.join(dataset_dir, "manifest.json"))
    for rec in manifest.videos:
        os.makedirs(os.path.join(pred_dir, rec.video_id), exist_ok=True)
        for frame in rec.frames:
            name = D.frame_file_name(frame)
            shutil.copyfile(
                os.path.join(manifest.root, rec.gt_map_dir, name),
                os.path.join(pred_dir, rec.video_id, name),
            )


class TestFmt3:
    def test_half_up_rendering(self):
        assert fmt3(2.65225) == "2.652"
        assert fmt3(1.315) == "1.315"
        assert fmt3(2.4675) == "2.468"
        assert fmt3(0.5) == "0.500"
        assert fmt3(None) == "n/a"
        assert fmt3(-0.1235) == "-0.124"


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
        assert len(manifest.videos) == 1

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
        assert len(manifest.videos) == 1
        assert len(manifest.videos[0].frames) == 4  # flag beat the config file

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


# (command, flags, config) -> one bad setting each; everything else is valid
BAD_SETTINGS = {
    "videos-0": ("generate", ["--videos", "0"], None),
    "height-4": ("generate", ["--height", "4"], None),
    "lag-negative": ("generate", ["--lag", "-1"], None),
    "blob-sigma-0": ("generate", ["--blob-sigma", "0"], None),
    "noise-negative": ("generate", ["--noise", "-1"], None),
    "generate-seed-negative": ("generate", ["--seed", "-1"], None),
    "train-seed-negative": ("train", ["--seed", "-1"], None),
    "config-videos-string": ("generate", [], {"videos": "3"}),
    "config-lr0-string": ("train", [], {"lr0": "x"}),
    "config-shuffle-seed-string": ("evaluate", [], {"shuffle_seed": "x"}),
    "config-metrics-number": ("evaluate", [], {"metrics": 5}),
    "videos-abc": ("generate", ["--videos", "abc"], None),
    "unknown-flag": ("generate", ["--bogus", "1"], None),
    "lr0-nan": ("train", ["--lr0", "nan"], None),
    "shuffle-seed-x": ("evaluate", ["--shuffle-seed", "x"], None),
    "metrics-repeated": ("evaluate", ["--metrics", "nss,nss,cc"], None),
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
}


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
        assert line.startswith("ERROR ParseError:")
        for word in named:
            assert word in line

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
        code, _, _ = run(
            capsys, "predict", "--manifest", manifest, "--ckpt", ckpt, "--out", out
        )
        assert code == 0
        for vid in ("video_000", "video_001"):
            files = sorted(os.listdir(os.path.join(out, vid)))
            assert files == [D.frame_file_name(t) for t in range(4)]

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
        manifest = D.DatasetManifest(
            videos=[
                D.VideoRecord("v", [0, 1], "v/static", "v/gt", "v/fixations.csv",
                              "free-viewing")
            ],
            resolution=(8, 8),
        )
        D.save_manifest(manifest, str(root / "manifest.json"))

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
        for rec in manifest.videos:
            frames = [s[None, None] for s in D.load_video(manifest, rec).static_maps]
            outputs, _ = Mo.forward_sequence(frames, model)
            names = [D.frame_file_name(frame) for frame in rec.frames]
            assert sorted(os.listdir(out / rec.video_id)) == names
            for name, y in zip(names, outputs):
                D.write_map(np.clip(y[0, 0], 0.0, 1.0), want)
                with open(want, "rb") as fh:
                    assert (out / rec.video_id / name).read_bytes() == fh.read(), name

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
        assert line.startswith("ERROR TruncatedData:")
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

    def test_metric_filtering(self, tmp_path, capsys):
        data_dir, manifest = make_dataset(tmp_path, videos=1, frames=4, size=12)
        pred = str(tmp_path / "pred")
        copy_gt_as_predictions(data_dir, pred)
        code, stdout, _ = run(
            capsys, "evaluate", "--manifest", manifest, "--predictions", pred,
            "--metrics", "nss",
        )
        assert code == 0
        assert "nss" in stdout
        for other in ("auc_j", "s_auc", "cc", "sim"):
            assert other not in stdout

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

    def test_missing_manifest_maps_to_io_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--manifest", str(tmp_path / "nope.json"),
            "--predictions", str(tmp_path),
        )
        assert code == 1
        assert "ERROR IoError:" in stderr


def write_report_json(path, nss_by_video, groups):
    per_video = {
        vid: M.VideoScores(scores=M.MetricScores(nss=value), frames=1)
        for vid, value in nss_by_video.items()
    }
    report = M.aggregate_report(per_video, groups)
    with open(path, "w") as fh:
        json.dump(M.report_to_dict(report), fh, indent=2, sort_keys=True)


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
