"""Tests of the benchmark itself: tracing, output checks and BENCHMARK.json.

Run from the root of a tsal checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

import checks
import layers
import run
import tsal.cli
import tsal.data as D
import tsal.metrics as M
import tsal.model as Mo
import tsal.tensor as T
import tsal.train as Tr
from tracer import Tracer, self_time
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer():
    t = Tracer("test")
    t.install()
    yield t
    t.uninstall()


def _dataset(path, videos=2, frames=4, size=8, fixations=3, seed=5):
    D.generate_synthetic(
        str(path),
        D.SyntheticConfig(
            videos=videos, frames=frames, height=size, width=size, seed=seed,
            fixations_per_frame=fixations,
        ),
    )  # fmt: skip
    return os.path.join(str(path), "manifest.json")


# -- tracing ----------------------------------------------------------------


def test_each_function_is_wrapped_once_and_rebound_everywhere(tracer):
    assert tsal.model.conv2d_forward is tsal.tensor.conv2d_forward
    assert tsal.train.forward_sequence is tsal.model.forward_sequence
    assert tsal.cli.Mo is tsal.model
    assert tsal.model.conv2d_forward._perfbench_span == "tensor.conv2d_forward"
    with pytest.raises(RuntimeError):
        Tracer("again").wrap("tensor.conv2d_forward", tsal.tensor.conv2d_forward)


def test_uninstall_restores_the_original_functions():
    original = tsal.model.conv2d_forward
    t = Tracer("test")
    t.install()
    assert tsal.model.conv2d_forward is not original
    t.uninstall()
    assert tsal.model.conv2d_forward is original
    assert not hasattr(tsal.tensor.conv2d_forward, "_perfbench_span")


def test_convlstm_step_counts_match_shapes(tracer):
    model = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=0, hidden_channels=4)
    state = Mo.LstmState.zeros(4, 8, 8)
    x = T.Tensor4(np.full((1, 1, 8, 8), 0.5))
    for _ in range(3):
        _, state = Mo.convlstm_step(x, state, model)
    frames = 3
    values, missing = layers.reduce(layers.STAGE_METRICS, tracer.spans, 1.0, tracer.names)
    assert missing == []
    assert values["model.convlstm_step.calls"] == frames
    assert values["tensor.conv2d_forward.k3.calls"] == 8 * frames
    assert values["tensor.conv2d_forward.k1.calls"] == frames
    # 4 input convs (1 channel in) and 4 hidden convs (4 in), 4 out, 3x3, 64 pixels
    k3_flop = 2 * 4 * (1 + 4) * 4 * 9 * 64 * frames
    assert values["tensor.conv2d_forward.k3.gflop"] == pytest.approx(k3_flop / 1e9)


def test_training_window_counts_forward_and_backward(tracer):
    model = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=0, hidden_channels=3)
    frames = [T.Tensor4(np.full((1, 1, 8, 8), v)) for v in (0.1, 0.5, 0.9)]
    sample = Tr.TrainSample("v", frames, [T.Tensor4(np.full((1, 1, 8, 8), 0.5))] * 3)
    Tr.train(model, [sample], Tr.TrainConfig(clip_length=3, max_steps=1))
    values, _ = layers.reduce(layers.STAGE_METRICS, tracer.spans, 1.0, tracer.names)
    for direction in ("forward", "backward"):
        assert values[f"tensor.conv2d_{direction}.k3.calls"] == 8 * 3
        assert values[f"tensor.conv2d_{direction}.k1.calls"] == 3
    assert values["train.steps"] == 1
    assert values["model.forward_sequence.self_s"] > 0.0


def test_pool_thread_spans_name_evaluate_video_as_parent(tracer):
    sal = M.SaliencyMap(np.linspace(0.0, 1.0, 64).reshape(8, 8))
    fix = M.FixationSet([(1, 2), (5, 5)])
    n = 6
    M.evaluate_video([sal] * n, [fix] * n, [sal] * n, fix, seed=1, threads=2)
    (video,) = [s for s in tracer.spans if s.name == "metrics.evaluate_video"]
    metric_spans = [s for s in tracer.spans if s.name in layers.METRIC_FNS]
    assert len(metric_spans) == 5 * n
    assert all(s.parent == video.id for s in metric_spans)
    assert any(s.thread != video.thread for s in metric_spans)
    assert 0.0 <= self_time(tracer.spans, "metrics.evaluate_video") < video.duration


def test_changed_signature_is_reported_absent_not_raised():
    t = Tracer("test")

    def conv2d_forward(x, weights):  # a refactored signature
        return x

    wrapped = t.wrap("tensor.conv2d_forward", conv2d_forward)
    assert wrapped(1, 2) == 1
    assert [s.extra for s in t.spans] == [None]
    names = {"tensor.conv2d_forward"}
    values, missing = layers.reduce(layers.STAGE_METRICS, t.spans, 1.0, names)
    assert "tensor.conv2d_forward.k3.calls" in missing
    assert values["tensor.conv2d_forward.k3.calls"] == 0.0
    assert "model.convlstm_step.calls" in missing  # never wrapped: vanished


def test_span_is_recorded_when_the_function_raises(tracer):
    with pytest.raises(tsal.errors.DimensionMismatch):
        T.relu_backward(T.Tensor4.zeros(1, 1, 2, 2), T.Tensor4.zeros(1, 1, 3, 3))
    assert [s.name for s in tracer.spans] == ["tensor.relu_backward"]


# -- output checks reject corrupted outputs ---------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = tmp_path_factory.mktemp("train")
    manifest = _dataset(d / "data", videos=1, frames=8)
    ckpt = str(d / "model.ckpt")
    argv = ["train", "--manifest", manifest, "--ckpt", ckpt, "--variant", "convlstm",
            "--hidden", "3", "--clip-length", "4", "--max-steps", "2"]  # fmt: skip
    assert tsal.cli.main(argv) == 0
    return ckpt


def _train_copy(trained, tmp_path):
    ckpt = str(tmp_path / "model.ckpt")
    shutil.copyfile(trained, ckpt)
    shutil.copyfile(trained + ".loss.csv", ckpt + ".loss.csv")
    with open(ckpt + ".loss.csv", encoding="utf-8") as fh:
        losses = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
    return ckpt, losses


def _fingerprints(ckpt):
    return checks.checkpoint_fingerprints(*Tr.load_checkpoint(ckpt))


def test_train_check_accepts_the_real_output(trained, tmp_path):
    ckpt, losses = _train_copy(trained, tmp_path)
    ref = _fingerprints(ckpt)
    assert checks.check_train(ckpt, "convlstm", 3, 2, losses, ref) == []
    nudged = [x * (1 + 1e-12) for x in losses]
    assert checks.check_train(ckpt, "convlstm", 3, 2, nudged, ref) == []


def test_train_check_tolerates_a_last_bit_flip_of_the_stored_floats(trained, tmp_path):
    ckpt, losses = _train_copy(trained, tmp_path)
    ref = _fingerprints(ckpt)
    model, buffers = Tr.load_checkpoint(ckpt)
    weights = dict(model.named_parameters())["lstm.wh_f"]
    weights.flat[5] = np.nextafter(np.float32(weights.flat[5]), np.float32(np.inf))
    buffers["lstm.b_o"].flat[0] = np.nextafter(np.float32(buffers["lstm.b_o"].flat[0]), np.float32(-np.inf))
    Tr.save_checkpoint(model, buffers, ckpt)
    assert checks.check_train(ckpt, "convlstm", 3, 2, losses, ref) == []


@pytest.mark.parametrize(
    "tensor", ["param/lstm.wh_f", "param/head.bias", "momentum/lstm.wx_i", "momentum/lstm.b_g"]
)
def test_train_check_rejects_a_perturbed_checkpoint_tensor(trained, tmp_path, tensor):
    """A wrong gradient or a skipped update changes the momentum buffers or
    the weights that the loss CSV, written before backward, cannot show."""
    ckpt, losses = _train_copy(trained, tmp_path)
    ref = _fingerprints(ckpt)
    model, buffers = Tr.load_checkpoint(ckpt)
    section, name = tensor.split("/")
    arr = dict(model.named_parameters())[name] if section == "param" else buffers[name]
    arr.flat[0] *= 1 + 1e-4
    Tr.save_checkpoint(model, buffers, ckpt)
    assert checks.check_train(ckpt, "convlstm", 3, 2, losses, None) == []
    problems = checks.check_train(ckpt, "convlstm", 3, 2, losses, ref)
    assert len(problems) == 1 and problems[0].startswith(tensor)


def test_train_check_rejects_a_skipped_update(trained, tmp_path):
    ckpt, losses = _train_copy(trained, tmp_path)
    ref = _fingerprints(ckpt)
    model, buffers = Tr.load_checkpoint(ckpt)
    Tr.save_checkpoint(model, {name: np.zeros_like(arr) for name, arr in buffers.items()}, ckpt)
    problems = checks.check_train(ckpt, "convlstm", 3, 2, losses, ref)
    assert problems and all(p.startswith("momentum/") for p in problems)


@pytest.mark.parametrize(
    "corrupt",
    ["flip_ckpt_byte", "wrong_width", "wrong_variant", "nan_loss", "missing_row",
     "extra_row", "no_csv", "loss_drift"],
)  # fmt: skip
def test_train_check_rejects_corruption(trained, tmp_path, corrupt):
    ckpt, losses = _train_copy(trained, tmp_path)
    variant, width, ref = "convlstm", 3, None  # the reference would also catch most corruptions
    csv_path = ckpt + ".loss.csv"
    lines = open(csv_path, encoding="utf-8").read().splitlines()
    if corrupt == "flip_ckpt_byte":
        blob = bytearray(open(ckpt, "rb").read())
        blob[40] ^= 0xFF
        open(ckpt, "wb").write(bytes(blob))
    elif corrupt == "wrong_width":
        width = 4
    elif corrupt == "wrong_variant":
        variant = "conv"
    elif corrupt == "nan_loss":
        lines[1] = "1,nan"
    elif corrupt == "missing_row":
        lines = lines[:-1]
    elif corrupt == "extra_row":
        lines.append("3,0.5")
    elif corrupt == "no_csv":
        os.remove(csv_path)
    elif corrupt == "loss_drift":
        ref = [x * (1 + 1e-8) for x in losses]
    if corrupt in ("nan_loss", "missing_row", "extra_row"):
        open(csv_path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
    assert checks.check_train(ckpt, variant, width, 2, ref, None) != []


@pytest.fixture(scope="module")
def predicted(tmp_path_factory):
    d = tmp_path_factory.mktemp("predict")
    manifest = _dataset(d / "data", videos=2, frames=3)
    model = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=1, hidden_channels=3)
    buffers = {name: np.zeros_like(arr) for name, arr in model.named_parameters()}
    Tr.save_checkpoint(model, buffers, str(d / "model.ckpt"))
    argv = ["predict", "--manifest", manifest, "--ckpt", str(d / "model.ckpt"), "--out", str(d / "maps")]
    assert tsal.cli.main(argv) == 0
    return str(d / "data"), str(d / "maps")


@pytest.mark.parametrize(
    "corrupt", ["none", "missing_map", "truncated", "wrong_size", "off_by_two", "off_by_one"]
)
def test_predict_check(predicted, tmp_path, corrupt):
    data, maps = predicted
    out = str(tmp_path / "maps")
    shutil.copytree(maps, out)
    ref, _ = checks.predicted_maps(data, out)
    victim = os.path.join(out, "video_001", "000002.pgm")
    if corrupt == "missing_map":
        os.remove(victim)
    elif corrupt == "truncated":
        blob = open(victim, "rb").read()
        open(victim, "wb").write(blob[:-1])
    elif corrupt == "wrong_size":
        D.write_map(M.SaliencyMap(np.zeros((9, 8))), victim)
    elif corrupt in ("off_by_two", "off_by_one"):
        ref = ref.copy()
        step = 2 if corrupt == "off_by_two" else 1
        v = int(ref[1, 2, 3, 4])
        ref[1, 2, 3, 4] = v + step if v + step <= 255 else v - step
    problems = checks.check_predict(data, out, ref)
    assert (problems == []) == (corrupt in ("none", "off_by_one"))


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    d = tmp_path_factory.mktemp("evaluate")
    manifest = _dataset(d / "data", videos=3, frames=4, size=16)
    os.makedirs(d / "pred")
    for v in range(3):
        os.symlink(os.path.join("..", "data", f"video_{v:03d}", "static"), d / "pred" / f"video_{v:03d}")
    argv = ["evaluate", "--manifest", manifest, "--predictions", str(d / "pred"),
            "--out", str(d / "report.json")]  # fmt: skip
    assert tsal.cli.main(argv) == 0
    return str(d / "data"), str(d / "report.json")


@pytest.mark.parametrize(
    "corrupt",
    ["none", "score_out_of_range", "score_null", "skip_count", "frames", "missing_video",
     "extra_video", "not_json", "bytes_differ"],
)  # fmt: skip
def test_evaluate_check(evaluated, tmp_path, corrupt):
    data, report_path = evaluated
    blob = open(report_path, "rb").read()
    report = json.loads(blob)
    row = report["per_video"]["video_001"]
    if corrupt == "score_out_of_range":
        row["auc_j"] = 1.5
    elif corrupt == "score_null":
        report["group_averages"]["task-driven"]["cc"] = None
    elif corrupt == "skip_count":
        row["skipped_no_fixations"] = 1
    elif corrupt == "frames":
        row["frames"] = 3
    elif corrupt == "missing_video":
        del report["per_video"]["video_002"]
    elif corrupt == "extra_video":
        report["per_video"]["video_003"] = row
    out = str(tmp_path / "report.json")
    if corrupt in ("none", "bytes_differ"):
        body = blob if corrupt == "none" else blob.replace(b"\n", b"\r\n", 1)
    elif corrupt == "not_json":
        body = blob[:-10]
    else:
        body = json.dumps(report, indent=2, sort_keys=True).encode() + b"\n"
    open(out, "wb").write(body)
    # structural corruptions are checked without the reference, which would also catch them
    problems = checks.check_evaluate(data, out, blob if corrupt in ("none", "bytes_differ") else None)
    assert (problems == []) == (corrupt == "none")


def test_evaluate_check_counts_skips_from_the_dataset(evaluated, tmp_path):
    data, _ = evaluated
    copy = str(tmp_path / "data")
    shutil.copytree(data, copy)
    assert checks.expected_skips(copy)["video_000"] == (0, 0)
    lines = open(os.path.join(copy, "video_000", "fixations.csv"), encoding="utf-8").readlines()
    with open(os.path.join(copy, "video_000", "fixations.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(line for line in lines if not line.startswith("2,"))
    D.write_map(M.SaliencyMap(np.zeros((16, 16))), os.path.join(copy, "video_000", "gt", "000001.pgm"))
    assert checks.expected_skips(copy)["video_000"] == (1, 1)


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.units()


def test_run_refuses_a_directory_without_tsal_source(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-src"))
    assert run.main(["--workload", "all", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
