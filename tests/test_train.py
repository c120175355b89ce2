"""Tests for loss, optimizer, schedule, training loop, and checkpoints."""

import hashlib
import os
import warnings
import zlib

import numpy as np
import pytest

from helpers import central_difference, in_memory, max_rel_err, train_settings
from tsal import model as Mo
from tsal import train as Tr
from tsal.errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    EmptyDataset,
    NonFinite,
)


def tiny_model(variant: str, seed: int = 0) -> Mo.AdaptationModel:
    return Mo.init_parameters(variant, rng_seed=seed, hidden_channels=4)


class TestBceLoss:
    def test_uniform_half_prediction(self):
        rng = np.random.default_rng(0)
        pred = np.full((1, 1, 4, 4), 0.5)
        target = rng.integers(0, 2, size=(1, 1, 4, 4)).astype(float)
        loss, _ = Tr.bce_loss(pred, target)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_stationary_at_pred_equal_target(self):
        pred = np.full((1, 1, 2, 2), 0.5)
        loss, grad = Tr.bce_loss(pred, pred)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(grad, 0.0)

    def test_loss_equals_target_entropy_at_match(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.1, 0.9, size=(1, 1, 3, 3))
        loss, grad = Tr.bce_loss(t, t)
        entropy = -np.mean(t * np.log(t) + (1 - t) * np.log(1 - t))
        assert loss == pytest.approx(entropy, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95, size=(1, 1, 4, 4))
            t = rng.uniform(0.0, 1.0, size=(1, 1, 4, 4))
            _, grad = Tr.bce_loss(p, t)
            numeric = central_difference(
                lambda: Tr.bce_loss(p, t)[0], p
            )
            assert max_rel_err(grad, numeric) < 1e-6

    def test_clamp_keeps_loss_finite(self):
        pred = np.array([[[[1e-12, 1.0 - 1e-12]]]])
        target = np.array([[[[1.0, 0.0]]]])
        loss, grad = Tr.bce_loss(pred, target)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Tr.bce_loss(np.full((1, 1, 2, 2), 0.5), np.zeros((1, 1, 3, 3)))


class TestSgdStep:
    def test_vanilla_without_momentum_or_decay(self):
        m = tiny_model(Mo.CONV_ONLY)
        buffers = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        before = {n: a.copy() for n, a in m.named_parameters()}
        grads = {n: np.full_like(a, 0.25) for n, a in m.named_parameters()}
        Tr.sgd_step(m, grads, buffers, 0.01, 0.0, 0.0)
        for n, a in m.named_parameters():
            assert np.allclose(a, before[n] - 0.01 * 0.25)

    def test_hand_computed_single_step(self):
        # w=1, g=0.5, lr=0.1, momentum=0.9, wd=1e-4 -> v=0.5001, w=0.94999
        m = tiny_model(Mo.CONV_ONLY)
        for _, a in m.named_parameters():
            a[...] = 1.0
        buffers = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        grads = {n: np.full_like(a, 0.5) for n, a in m.named_parameters()}
        Tr.sgd_step(m, grads, buffers, 0.1, 0.9, 1e-4)
        for n, a in m.named_parameters():
            assert np.max(np.abs(buffers[n] - 0.5001)) < 1e-12
            assert np.max(np.abs(a - 0.94999)) < 1e-12

    def test_momentum_coasting(self):
        m = tiny_model(Mo.CONV_ONLY)
        buffers = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        grads = {n: np.full_like(a, 1.0) for n, a in m.named_parameters()}
        Tr.sgd_step(m, grads, buffers, 0.1, 0.9, 0.0)
        before = {n: a.copy() for n, a in m.named_parameters()}
        zero = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        Tr.sgd_step(m, zero, buffers, 0.1, 0.9, 0.0)
        for n, a in m.named_parameters():
            assert np.allclose(before[n] - a, 0.1 * 0.9 * 1.0)

    def test_geometric_coasting_decay(self):
        m = tiny_model(Mo.CONV_ONLY)
        buffers = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        grads = {n: np.full_like(a, 2.0) for n, a in m.named_parameters()}
        Tr.sgd_step(m, grads, buffers, 0.05, 0.9, 0.0)
        zero = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        prev = {n: a.copy() for n, a in m.named_parameters()}
        expected = 0.05 * 0.9 * 2.0
        for _ in range(10):
            Tr.sgd_step(m, zero, buffers, 0.05, 0.9, 0.0)
            for n, a in m.named_parameters():
                assert np.max(np.abs((prev[n] - a) - expected)) < 1e-12
            prev = {n: a.copy() for n, a in m.named_parameters()}
            expected *= 0.9

    def test_shape_mismatch(self):
        m = tiny_model(Mo.CONV_ONLY)
        grads = {n: np.zeros(3) for n, _ in m.named_parameters()}
        buffers = {n: np.zeros_like(a) for n, a in m.named_parameters()}
        with pytest.raises(DimensionMismatch):
            Tr.sgd_step(m, grads, buffers, 1e-5, 0.9, 1e-4)


class TestLrSchedule:
    def test_paper_values(self):
        assert Tr.lr_schedule(1e-5, 3, 0) == pytest.approx(1e-5)
        assert Tr.lr_schedule(1e-5, 3, 3) == pytest.approx(1e-6)
        assert Tr.lr_schedule(1e-5, 3, 7) == pytest.approx(1e-7)

    def test_non_increasing_piecewise_constant(self):
        values = [Tr.lr_schedule(1e-5, 2, e) for e in range(10)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == values[1] and values[2] == values[3]


class TestClipGradients:
    def test_below_threshold_untouched(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        norm = Tr.clip_gradients(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grads["a"], [3.0, 4.0])

    def test_above_threshold_rescaled(self):
        grads = {"a": np.array([30.0, 40.0])}  # norm 50
        norm = Tr.clip_gradients(grads, 10.0)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(10.0)
        # direction preserved
        assert np.allclose(grads["a"] / np.linalg.norm(grads["a"]), [0.6, 0.8])


def blob_sample(rng, video_id: str, frames: int = 8, size: int = 8) -> tuple:
    xs, ts = [], []
    for _ in range(frames):
        x = rng.uniform(0, 1, size=(1, 1, size, size))
        xs.append(x)
        ts.append((x > 0.5).astype(float))
    return in_memory(video_id, xs, ts)


class TestTrainLoop:
    def test_single_window_single_step(self, tmp_path):
        rng = np.random.default_rng(3)
        sample = blob_sample(rng, "v0", frames=5)
        model = tiny_model(Mo.CONV_ONLY)
        cfg = train_settings(ckpt=str(tmp_path / "m.tsal"), epochs=1, clip_length=8, seed=0)
        history = Tr.train(model, [sample], cfg)
        assert history == [(1, history[0][1])]

    def test_window_count_bookkeeping(self, tmp_path):
        rng = np.random.default_rng(4)
        sample = blob_sample(rng, "v0", frames=10)
        model = tiny_model(Mo.CONV_ONLY)
        cfg = train_settings(ckpt=str(tmp_path / "m.tsal"), epochs=2, clip_length=4, seed=0)
        history = Tr.train(model, [sample], cfg)
        # 10 frames -> windows of 4,4,2 per epoch
        assert len(history) == 6
        assert [step for step, _ in history] == [1, 2, 3, 4, 5, 6]

    def test_max_steps_cap(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = [blob_sample(rng, f"v{k}", frames=8) for k in range(3)]
        model = tiny_model(Mo.CONV_ONLY)
        cfg = train_settings(
            ckpt=str(tmp_path / "m.tsal"), epochs=50, clip_length=4, seed=0, max_steps=7
        )
        history = Tr.train(model, samples, cfg)
        assert [step for step, _ in history] == [1, 2, 3, 4, 5, 6, 7]

    def test_deterministic_repeat(self, tmp_path):
        def run(tag):
            rng = np.random.default_rng(6)
            samples = [blob_sample(rng, f"v{k}") for k in range(2)]
            model = tiny_model(Mo.CONV_LSTM, seed=1)
            ckpt = str(tmp_path / f"{tag}.tsal")
            cfg = train_settings(ckpt=ckpt, epochs=2, clip_length=4, seed=9)
            return model, Tr.train(model, samples, cfg)  # train updates model in place

        (model_a, a), (model_b, b) = run("a"), run("b")
        assert a == b
        for (na, pa), (nb, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert na == nb and np.array_equal(pa, pb)
        assert (tmp_path / "a.tsal").read_bytes() == (tmp_path / "b.tsal").read_bytes()

    def test_loss_decreases_on_overfit(self, tmp_path):
        rng = np.random.default_rng(7)
        sample = blob_sample(rng, "v0", frames=4)
        model = tiny_model(Mo.CONV_ONLY, seed=2)
        cfg = train_settings(
            ckpt=str(tmp_path / "m.tsal"), epochs=60, clip_length=4, seed=0, lr0=0.5,
            decay_every=1000,
        )
        history = Tr.train(model, [sample], cfg)
        first = history[0][1]
        last = history[-1][1]
        assert last < 0.5 * first

    @pytest.mark.parametrize(
        "fault, start, reason",
        [
            ("nan-target", 2, "window loss is nan"),
            ("huge-weights", 0, "gradient norm is inf"),
            ("huge-lr", 2, "lstm.wx_i is not finite after the update"),
        ],
    )
    def test_non_finite_is_reported_in_its_window(self, tmp_path, fault, start, reason):
        rng = np.random.default_rng(10)
        sample = blob_sample(rng, "v0", frames=6)
        model = tiny_model(Mo.CONV_LSTM if fault == "huge-lr" else Mo.CONV_ONLY)
        # at 1e36 the first update stays within float32 range, the second leaves it
        lr0 = 1e36 if fault == "huge-lr" else 1e-5
        params = dict(model.named_parameters())
        if fault == "nan-target":
            _, targets = sample[2](slice(None))
            targets[3][0, 0, 0, 0] = np.nan  # the array the reader hands out
        elif fault == "huge-weights":
            params["feature.weights"][...] = 1e300
            params["head.weights"][...] = 1e-300
        ckpt = tmp_path / "m.tsal"
        cfg = train_settings(ckpt=str(ckpt), clip_length=2, lr0=lr0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check reports it, not a RuntimeWarning
            with pytest.raises(NonFinite) as info:
                Tr.train(model, [sample], cfg)
        assert str(info.value) == (
            f"non-finite values in video 'v0' window starting at frame {start}: {reason}"
        )
        assert not ckpt.exists()

    def test_reads_each_window_when_it_runs(self, tmp_path):
        """One read per step, of that step's frames only, and none past max_steps."""
        video_id, frame_count, read_window = blob_sample(np.random.default_rng(11), "v0", 10)
        windows = []

        def reader(window):
            windows.append((window.start, window.stop))
            return read_window(window)

        cfg = train_settings(ckpt=str(tmp_path / "m.tsal"), epochs=2, clip_length=4, max_steps=4)
        history = Tr.train(tiny_model(Mo.CONV_ONLY), [(video_id, frame_count, reader)], cfg)
        assert len(history) == 4
        assert windows == [(0, 4), (4, 8), (8, 12), (0, 4)]

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            Tr.train(tiny_model(Mo.CONV_ONLY), [], train_settings())

    def test_refuses_a_loaded_float32_model(self, tmp_path):
        # a checkpoint loads at float32; training it would lose the float64
        # precision the gradient checks rely on
        model = tiny_model(Mo.CONV_LSTM)
        path = str(tmp_path / "m.tsal")
        Tr.save_checkpoint(model, {n: np.zeros_like(a) for n, a in model.named_parameters()}, path)
        loaded, _ = Tr.load_checkpoint(path)
        before = [arr.copy() for _, arr in loaded.named_parameters()]
        sample = blob_sample(np.random.default_rng(9), "v0", frames=4)
        with pytest.raises(ValueError, match="float64 model, got float32"):
            Tr.train(loaded, [sample], train_settings(ckpt=path, clip_length=4))
        for (_, arr), old in zip(loaded.named_parameters(), before):
            np.testing.assert_array_equal(arr, old)


class TestCheckpoint:
    def roundtrip(self, tmp_path, variant):
        model = tiny_model(variant, seed=3)
        buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        rng = np.random.default_rng(8)
        for name in buffers:
            buffers[name][...] = rng.uniform(-1, 1, size=buffers[name].shape)
        path = str(tmp_path / "model.tsal")
        Tr.save_checkpoint(model, buffers, path)
        return model, buffers, path

    @pytest.mark.parametrize("variant", [Mo.CONV_ONLY, Mo.CONV_LSTM])
    def test_round_trip_exact_at_32_bit(self, tmp_path, variant):
        model, buffers_saved, path = self.roundtrip(tmp_path, variant)
        loaded, buffers = Tr.load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.hidden_channels == model.hidden_channels
        assert loaded.dtype == np.float32
        for name, arr in model.named_parameters():
            np.testing.assert_array_equal(
                dict(loaded.named_parameters())[name], arr.astype(np.float32), strict=True
            )
        for name, buf in buffers_saved.items():
            np.testing.assert_array_equal(buffers[name], buf.astype(np.float32), strict=True)
            assert buffers[name].flags.writeable

    @pytest.mark.parametrize("variant", [Mo.CONV_ONLY, Mo.CONV_LSTM])
    def test_loaded_arrays_are_writable_float32_and_share_no_memory(self, tmp_path, variant):
        # no loaded array may be a view of the file's bytes or of another array
        _, _, path = self.roundtrip(tmp_path, variant)
        loaded, buffers = Tr.load_checkpoint(path)
        arrays = list(loaded.arrays.values()) + list(buffers.values())
        for arr in arrays:
            assert arr.dtype == np.float32 and arr.flags.writeable and arr.flags.owndata
        for j, a in enumerate(arrays):
            for b in arrays[j + 1 :]:
                assert not np.shares_memory(a, b)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_LSTM)
        loaded, buffers = Tr.load_checkpoint(path)
        path2 = str(tmp_path / "again.tsal")
        Tr.save_checkpoint(loaded, buffers, path2)
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()

    # sha256 of the v1 files of two seeded width-2 models with seeded buffers:
    # any byte of the format that moves, header or record, changes them
    GOLDEN_SHA256 = {
        Mo.CONV_ONLY: "acc9f8a716ea601ee43fd297191773ba04e548c84910a933e5322890f9f4a05c",
        Mo.CONV_LSTM: "a2e6d85ee7fc6c3a856ee2760555de4e6dc865d41ed4a19d00af94dd4281f49a",
    }

    @pytest.mark.parametrize("variant", [Mo.CONV_ONLY, Mo.CONV_LSTM])
    def test_bytes_match_the_golden_digest(self, tmp_path, variant):
        model = Mo.init_parameters(variant, rng_seed=3, hidden_channels=2)
        rng = np.random.default_rng(8)
        buffers = {n: rng.uniform(-1, 1, size=a.shape) for n, a in model.named_parameters()}
        path = tmp_path / "model.tsal"
        Tr.save_checkpoint(model, buffers, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_SHA256[variant]

    def test_header_fields(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_LSTM)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:4] == b"TSAL"
        version, variant_code, hidden = (
            int.from_bytes(blob[4:6], "little"),
            blob[6],
            int.from_bytes(blob[7:9], "little"),
        )
        assert version == 1
        assert variant_code == 1
        assert hidden == 4

    def test_truncated_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_ONLY)
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in (len(blob) - 1, len(blob) // 2, 8, 3):
            bad = str(tmp_path / f"cut{cut}.tsal")
            with open(bad, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(CorruptCheckpoint):
                Tr.load_checkpoint(bad)

    def test_corrupted_payload_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_ONLY)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[20] ^= 0xFF
        bad = str(tmp_path / "flip.tsal")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            Tr.load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        bad = str(tmp_path / "junk.tsal")
        body = b"JUNK" + b"\x00" * 16
        with open(bad, "wb") as fh:
            fh.write(body + np.uint32(__import__("zlib").crc32(body)).tobytes())
        with pytest.raises(CorruptCheckpoint):
            Tr.load_checkpoint(bad)

    def test_variant_mismatch(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_ONLY)
        with pytest.raises(CorruptCheckpoint, match="variant mismatch"):
            Tr.load_checkpoint(path, expect_variant=Mo.CONV_LSTM)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_ONLY)
        assert not (tmp_path / "model.tsal.tmp").exists()
        assert os.listdir(tmp_path) == ["model.tsal"]

    def test_overflowing_save_writes_nothing(self, tmp_path):
        model = tiny_model(Mo.CONV_LSTM)
        dict(model.named_parameters())["lstm.wh_o"][0, 0, 1, 1] = 1e39  # inf as float32
        path = tmp_path / "model.tsal"
        with pytest.raises(NonFinite, match="lstm.wh_o"):
            buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
            Tr.save_checkpoint(model, buffers, str(path))
        assert os.listdir(tmp_path) == []

    def test_non_finite_value_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, Mo.CONV_ONLY)
        with open(path, "rb") as fh:
            body = bytearray(fh.read()[:-4])
        body[-4:] = np.float32(np.nan).tobytes()  # last momentum buffer value
        bad = str(tmp_path / "nan.tsal")
        with open(bad, "wb") as fh:
            fh.write(bytes(body) + np.uint32(zlib.crc32(bytes(body))).tobytes())
        with pytest.raises(CorruptCheckpoint, match="NaN or Inf"):
            Tr.load_checkpoint(bad)
