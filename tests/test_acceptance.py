"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every test computes its checks, then reports through :func:`_verdict`, which
prints ``criterion N: PASS/FAIL - detail [elapsed / budget]`` and stores the
line for the terminal summary. Tolerances are pinned in the detail strings.
"""

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import conftest
from helpers import (
    central_difference,
    in_memory,
    max_rel_err,
    resized_maps,
    train_settings,
    tree_digest,
)
from tsal import cli
from tsal import data as D
from tsal import metrics as M
from tsal import model as Mo
from tsal import train as Tr
from tsal.errors import CorruptCheckpoint
from tsal.tensor import (
    conv2d_backward,
    conv2d_forward,
    relu,
    sigmoid,
    tanh_act,
)


def _verdict(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    line = f"criterion {number}: {status} - {detail} [{elapsed:.1f}s / {budget:.0f}s budget]"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line
    assert in_budget, line


# published per-video NSS of the reference model, free-viewing then task-driven
REFERENCE_NSS = {
    "bus_ride": 1.618,
    "botanical_gardens": 1.182,
    "dcu_park": 4.374,
    "walking_office": 3.435,
    "playing_cards": 0.967,
    "presentation": 1.360,
    "tortilla": 1.618,
}
REFERENCE_GROUPS = {
    "free-viewing": ["bus_ride", "botanical_gardens", "dcu_park", "walking_office"],
    "task-driven": ["playing_cards", "presentation", "tortilla"],
}


def test_criterion_1_table_arithmetic(tmp_path):
    start = time.perf_counter()
    per_video = {vid: {"nss": value, "frames": 1} for vid, value in REFERENCE_NSS.items()}
    report = M.checked_report({"per_video": per_video, "groups": REFERENCE_GROUPS})
    free = report["group_averages"]["free-viewing"]["nss"]
    task = report["group_averages"]["task-driven"]["nss"]

    path = str(tmp_path / "reference.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = cli.main(["report", path, "--metric", "nss"])
    rendered = stdout.getvalue()

    ok = (
        abs(free - 2.652) < 5e-4
        and abs(task - 1.315) < 5e-4
        and code == 0
        and "2.652" in rendered
        and "1.315" in rendered
    )
    _verdict(
        1,
        ok,
        f"group averages {free:.5f}/{task:.5f} within 5e-4 of 2.652/1.315, "
        "rendered as 2.652/1.315",
        time.perf_counter() - start,
        budget=1.0,
    )


def _mann_whitney(pos: np.ndarray, neg: np.ndarray) -> float:
    p = pos[:, None]
    n = neg[None, :]
    return float(((p > n).sum() + 0.5 * (p == n).sum()) / (p.size * n.size))


def _direct_pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a.ravel()
    b = b.ravel()
    da = a - a.sum() / a.size
    db = b - b.sum() / b.size
    return float((da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum()))


def _cells_to_fixations(cells: np.ndarray, width: int) -> np.ndarray:
    return np.array([(int(c // width), int(c % width)) for c in cells])


def test_criterion_2_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_auc = worst_sauc = worst_cc = 0.0
    for _ in range(1000):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cells = h * w
        # tie-free by construction: every pixel value is distinct
        sal = rng.permutation(cells).astype(np.float64).reshape(h, w) / cells
        order = rng.permutation(cells)
        n_fix = int(rng.integers(1, min(10, cells - 1) + 1))
        fix_cells = order[:n_fix]
        fix = _cells_to_fixations(fix_cells, w)

        flat = sal.ravel()
        pos = flat[fix_cells]
        neg = np.delete(flat, fix_cells)
        worst_auc = max(worst_auc, abs(M.auc_judd(sal, fix) - _mann_whitney(pos, neg)))

        # pool disjoint from the fixations and below the subsampling cap
        n_pool = int(rng.integers(1, min(cells - n_fix, 10 * n_fix) + 1))
        pool_cells = order[n_fix : n_fix + n_pool]
        pool = _cells_to_fixations(pool_cells, w)
        got = M.shuffled_auc(sal, fix, pool, rng_seed=0)
        worst_sauc = max(worst_sauc, abs(got - _mann_whitney(pos, flat[pool_cells])))

        a = rng.random((h, w))
        b = rng.random((h, w))
        worst_cc = max(
            worst_cc, abs(M.cc(a, b) - _direct_pearson(a, b))
        )
    ok = worst_auc < 1e-9 and worst_sauc < 1e-9 and worst_cc < 1e-12
    _verdict(
        2,
        ok,
        "1000 tie-free instances: AUC-J vs Mann-Whitney max "
        f"{worst_auc:.1e}, sAUC max {worst_sauc:.1e} (tol 1e-9); "
        f"CC vs direct covariance max {worst_cc:.1e} (tol 1e-12)",
        time.perf_counter() - start,
        budget=10.0,
    )


def test_criterion_3_metric_invariances():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    worst = {"nss": 0.0, "auc": 0.0, "sauc": 0.0, "cc_sym": 0.0, "cc_aff": 0.0,
             "sim_sym": 0.0, "sim_scale": 0.0}
    for _ in range(200):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        cells = h * w
        sal = rng.permutation(cells).astype(np.float64).reshape(h, w) / cells
        order = rng.permutation(cells)
        n_fix = int(rng.integers(1, 5))
        fix = _cells_to_fixations(order[:n_fix], w)
        pool = _cells_to_fixations(order[n_fix : n_fix + 8], w)
        gain = float(rng.uniform(0.5, 3.0))
        offset = float(rng.uniform(0.0, 2.0))

        # NSS under positive affine maps; AUCs under positive monotone maps
        affine = gain * sal + offset
        worst["nss"] = max(worst["nss"], abs(M.nss(affine, fix) - M.nss(sal, fix)))
        mono = sal**3 + 2.0 * sal
        worst["auc"] = max(worst["auc"], abs(M.auc_judd(mono, fix) - M.auc_judd(sal, fix)))
        worst["sauc"] = max(
            worst["sauc"],
            abs(M.shuffled_auc(mono, fix, pool, rng_seed=1) - M.shuffled_auc(sal, fix, pool, rng_seed=1)),
        )

        a = rng.random((h, w))
        b = rng.random((h, w))
        worst["cc_sym"] = max(worst["cc_sym"], abs(M.cc(a, b) - M.cc(b, a)))
        scaled = gain * a + offset
        worst["cc_aff"] = max(worst["cc_aff"], abs(M.cc(scaled, b) - M.cc(a, b)))
        worst["sim_sym"] = max(worst["sim_sym"], abs(M.sim(a, b) - M.sim(b, a)))
        rescaled = gain * a
        worst["sim_scale"] = max(worst["sim_scale"], abs(M.sim(rescaled, b) - M.sim(a, b)))

    ok = (
        worst["nss"] < 1e-9
        and worst["auc"] < 1e-12
        and worst["sauc"] < 1e-12
        and worst["cc_sym"] < 1e-12
        and worst["cc_aff"] < 1e-9
        and worst["sim_sym"] < 1e-12
        and worst["sim_scale"] < 1e-9
    )
    _verdict(
        3,
        ok,
        "200 instances each: NSS affine {nss:.1e}, AUC-J/sAUC monotone {auc:.1e}/{sauc:.1e}, "
        "CC symmetry/affine {cc_sym:.1e}/{cc_aff:.1e}, SIM symmetry/scale "
        "{sim_sym:.1e}/{sim_scale:.1e} (tol 1e-9 affine-invariance, 1e-12 rest)".format(**worst),
        time.perf_counter() - start,
        budget=10.0,
    )


def _projection_loss(model, frames, projections) -> float:
    outputs, _ = Mo.forward_sequence(frames, model)
    return float(sum(np.sum(p * y) for p, y in zip(projections, outputs)))


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    trials = 20
    worst = 0.0

    rng = np.random.default_rng(40)
    for _ in range(trials):
        b, cin, cout = (int(rng.integers(1, 3)) for _ in range(3))
        k = int(rng.choice([1, 3]))
        h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, size=(b, cin, h, w))
        weights = rng.uniform(-1, 1, size=(cout, cin, k, k))
        bias = rng.uniform(-1, 1, size=cout)
        proj = rng.uniform(-1, 1, size=(b, cout, h, w))

        def conv_loss():
            return float(np.sum(proj * conv2d_forward(x, weights, bias)))

        gi, gw, gb = conv2d_backward(x, weights, proj)
        worst = max(worst, max_rel_err(gi, central_difference(conv_loss, x)))
        worst = max(worst, max_rel_err(gw, central_difference(conv_loss, weights)))
        worst = max(worst, max_rel_err(gb, central_difference(conv_loss, bias)))

    acts = {
        "sigmoid": (sigmoid, lambda v: 0.5 * (1 + np.tanh(0.5 * v)) * (1 - 0.5 * (1 + np.tanh(0.5 * v)))),
        "tanh": (tanh_act, lambda v: 1.0 - np.tanh(v) ** 2),
        "relu": (relu, lambda v: (v > 0).astype(float)),
    }
    for name, (fwd, deriv) in acts.items():
        for _ in range(trials):
            v = rng.uniform(-2, 2, size=(1, 2, 3, 3))
            if name == "relu":
                # keep clear of the kink at zero; FD is meaningless there
                v = np.sign(v) * (0.1 + np.abs(v))
            proj = rng.uniform(-1, 1, size=v.shape)

            def act_loss():
                return float(np.sum(proj * fwd(v)))

            worst = max(worst, max_rel_err(proj * deriv(v), central_difference(act_loss, v)))

    for _ in range(trials):
        pred = rng.uniform(0.05, 0.95, size=(1, 1, 4, 4))
        target = rng.uniform(0, 1, size=(1, 1, 4, 4))

        def bce_scalar():
            return Tr.bce_loss(pred, target)[0]

        _, grad = Tr.bce_loss(pred, target)
        worst = max(worst, max_rel_err(grad, central_difference(bce_scalar, pred)))

    # full BPTT at the pinned scale: 3 steps, 4 hidden channels, 4x4 maps
    for variant in (Mo.CONV_ONLY, Mo.CONV_LSTM):
        for trial in range(trials):
            model = Mo.init_parameters(variant, rng_seed=400 + trial, hidden_channels=4)
            frames = [rng.uniform(0, 1, size=(1, 1, 4, 4)) for _ in range(3)]
            projections = [rng.uniform(-1, 1, size=(1, 1, 4, 4)) for _ in range(3)]
            _, steps = Mo.forward_sequence(frames, model)
            analytic = Mo.backward_sequence(model, steps, projections)
            for name, arr in model.named_parameters():
                numeric = central_difference(
                    lambda: _projection_loss(model, frames, projections), arr
                )
                worst = max(worst, max_rel_err(analytic[name], numeric))

    _verdict(
        4,
        worst < 1e-4,
        f"conv2d, activations, bce_loss, and 3-step BPTT (both variants, 4 hidden, 4x4): "
        f"max rel err vs central differences {worst:.1e} over {trials} trials each (tol 1e-4)",
        time.perf_counter() - start,
        budget=60.0,
    )


def test_criterion_5_optimizer():
    start = time.perf_counter()
    model = Mo.init_parameters(Mo.CONV_ONLY, rng_seed=0, hidden_channels=2)
    for _, arr in model.named_parameters():
        arr[...] = 1.0
    grads = {name: np.full_like(arr, 0.5) for name, arr in model.named_parameters()}
    # the recipe's momentum and weight decay are the defaults of the train settings
    recipe = train_settings()
    buffers = {n: np.zeros_like(a) for n, a in model.named_parameters()}
    Tr.sgd_step(model, grads, buffers, 0.1, recipe["momentum"], recipe["weight_decay"])
    hand_err = 0.0
    for name, arr in model.named_parameters():
        hand_err = max(hand_err, float(np.abs(arr - 0.94999).max()))
        hand_err = max(hand_err, float(np.abs(buffers[name] - 0.5001).max()))

    expected = [1e-5] * 3 + [1e-6] * 3 + [1e-7] * 3
    sched_err = max(
        abs(Tr.lr_schedule(recipe["lr0"], recipe["decay_every"], epoch) - want) / want
        for epoch, want in enumerate(expected)
    )
    _verdict(
        5,
        hand_err < 1e-12 and sched_err < 1e-12,
        f"hand-computed step w=1, g=0.5 -> w=0.94999, v=0.5001: max err {hand_err:.1e} "
        f"(tol 1e-12); schedule 1e-5 -> 1e-6 -> 1e-7: max rel err {sched_err:.1e}",
        time.perf_counter() - start,
        budget=1.0,
    )


SMOKE_HIDDEN = 8
SMOKE_LR = 0.05
SMOKE_WINDOWS = 200


def _load_samples(manifest: dict) -> list[tuple]:
    samples = []
    res = manifest["resolution"]
    for video in manifest["videos"]:
        samples.append(
            (
                video["video_id"],
                [s[None, None] for s in resized_maps(video, "static_map_dir", res)],
                [g[None, None] for g in resized_maps(video, "gt_map_dir", res)],
            )
        )
    return samples


def _smoke_train(samples, variant, seed, ckpt) -> tuple[Mo.AdaptationModel, list]:
    """The model ``train`` updated in place, and its loss history."""
    model = Mo.init_parameters(variant, rng_seed=seed, hidden_channels=SMOKE_HIDDEN)
    cfg = train_settings(
        ckpt=ckpt, epochs=10**6, clip_length=16, seed=seed, max_steps=SMOKE_WINDOWS,
        lr0=SMOKE_LR, decay_every=10**6,
    )
    return model, Tr.train(model, [in_memory(*sample) for sample in samples], cfg)


def _dataset_bce(model, samples) -> float:
    total = 0.0
    frames = 0
    for _, inputs, targets in samples:
        outputs, _ = Mo.forward_sequence(inputs, model)
        for out, target in zip(outputs, targets):
            loss, _ = Tr.bce_loss(out, target)
            total += loss
            frames += 1
    return total / frames


def test_criterion_6_convergence_smoke(tmp_path):
    start = time.perf_counter()
    base = D.SyntheticConfig(videos=4, frames=64, height=32, width=32, seed=7)

    # part 1: 200 windows halve the windowed BCE for both variants
    lag1 = _load_samples(D.load_manifest(D.generate_synthetic(str(tmp_path / "lag1"), base)))
    ckpt = str(tmp_path / "smoke.ckpt")
    ratios = {}
    for variant in (Mo.CONV_ONLY, Mo.CONV_LSTM):
        history = _smoke_train(lag1, variant, seed=0, ckpt=ckpt)[1]
        losses = [loss for _, loss in history]
        ratios[variant] = float(np.mean(losses[-16:]) / np.mean(losses[:16]))
    halved = all(r <= 0.5 for r in ratios.values())

    # part 2: with lag 2 the recurrent variant ends strictly lower, seed-robust
    lag2_cfg = D.SyntheticConfig(videos=4, frames=64, height=32, width=32, seed=7, lag=2)
    lag2 = _load_samples(D.load_manifest(D.generate_synthetic(str(tmp_path / "lag2"), lag2_cfg)))
    margins = []
    separated = True
    for seed in (0, 1, 2):
        conv_bce = _dataset_bce(_smoke_train(lag2, Mo.CONV_ONLY, seed, ckpt)[0], lag2)
        lstm_bce = _dataset_bce(_smoke_train(lag2, Mo.CONV_LSTM, seed, ckpt)[0], lag2)
        separated = separated and lstm_bce < conv_bce
        margins.append((conv_bce - lstm_bce) / conv_bce)

    _verdict(
        6,
        halved and separated,
        f"200 windows at lr {SMOKE_LR}: BCE ratios conv {ratios[Mo.CONV_ONLY]:.2f}, "
        f"convlstm {ratios[Mo.CONV_LSTM]:.2f} (need <= 0.50); lag-2 final BCE "
        "convlstm < conv on seeds 0,1,2 with margins "
        + " ".join(f"{m:+.1%}" for m in margins),
        time.perf_counter() - start,
        budget=300.0,
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    cfg = D.SyntheticConfig(videos=2, frames=10, height=16, width=16, seed=5)
    D.generate_synthetic(str(tmp_path / "gen_a"), cfg)
    D.generate_synthetic(str(tmp_path / "gen_b"), cfg)
    digest_a = tree_digest(str(tmp_path / "gen_a"))
    datasets_match = digest_a == tree_digest(str(tmp_path / "gen_b"))

    manifest = os.path.join(str(tmp_path / "gen_a"), "manifest.json")
    blobs = []
    for tag in ("a", "b"):
        ckpt = str(tmp_path / f"run_{tag}.ckpt")
        csv = str(tmp_path / f"run_{tag}.csv")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(
                [
                    "train", "--manifest", manifest, "--ckpt", ckpt,
                    "--variant", "convlstm", "--epochs", "2", "--clip-length", "8",
                    "--seed", "3", "--hidden", "4", "--lr0", "0.01",
                    "--loss-csv", csv,
                ]
            )
        assert code == 0
        blobs.append((_read(ckpt), _read(csv)))
    ckpts_match = blobs[0][0] == blobs[1][0]
    csvs_match = blobs[0][1] == blobs[1][1]

    _verdict(
        7,
        datasets_match and ckpts_match and csvs_match,
        f"reruns bit-identical: dataset tree sha256 {digest_a[:12]} reproduced, "
        f"checkpoints {'match' if ckpts_match else 'differ'}, "
        f"loss CSVs {'match' if csvs_match else 'differ'}",
        time.perf_counter() - start,
        budget=300.0,
    )


def test_criterion_8_format_round_trips(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(80)

    # PGM: writing quantizes; a second write-load cycle must be byte stable
    sal = rng.uniform(0, 1, size=(9, 7))
    first = str(tmp_path / "first.pgm")
    second = str(tmp_path / "second.pgm")
    D.write_map(sal, first)
    D.write_map(D.load_map(first), second)
    pgm_ok = _read(first) == _read(second)
    quantized = np.round(sal * 255.0) / 255.0
    D.write_map(quantized, first)
    pgm_ok = pgm_ok and np.array_equal(D.load_map(first), quantized)

    # checkpoint: reload equals the float32 cast of what was saved, exactly
    model = Mo.init_parameters(Mo.CONV_LSTM, rng_seed=2, hidden_channels=3)
    buffers = {name: rng.standard_normal(arr.shape) for name, arr in model.named_parameters()}
    path = str(tmp_path / "model.ckpt")
    Tr.save_checkpoint(model, buffers, path)
    loaded, loaded_buffers = Tr.load_checkpoint(path)
    ckpt_ok = all(
        np.array_equal(dict(loaded.named_parameters())[name], arr.astype(np.float32).astype(np.float64))
        for name, arr in model.named_parameters()
    ) and all(
        np.array_equal(loaded_buffers[name], buf.astype(np.float32).astype(np.float64))
        for name, buf in buffers.items()
    )

    blob = _read(path)
    truncated = str(tmp_path / "cut.ckpt")
    with open(truncated, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpoint):
        Tr.load_checkpoint(truncated)

    _verdict(
        8,
        pgm_ok and ckpt_ok,
        "PGM write/load identity on quantized maps (byte stable), checkpoint reload "
        "equals the 32-bit cast exactly, truncated checkpoint rejected",
        time.perf_counter() - start,
        budget=5.0,
    )
