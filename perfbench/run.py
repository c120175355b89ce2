"""Benchmark of the tsal CLI stages: train, predict and evaluate.

Usage, from the root of a tsal checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The benchmark builds its inputs from the seed, sets up SETUP_REPEATS times
in one process, then invokes the workload's stage back to back in fresh
processes until S seconds have passed (at least once). Each further
invocation gets a fresh set-up in a process of its own, so set-up times
are sampled across the whole run. With ``--trace 0`` it reports the
end-to-end metrics, medians over the set-ups or invocations; with
``--trace 1`` it alternates untraced and traced invocations and reports
the per-layer metrics, medians over the traced invocations. Every
invocation's outputs are checked; the last line of standard output is
one JSON object, and the exit code is nonzero when any check failed.

Results with the environment go to perfbench/runs/results/, and the spans
of the last traced invocation to perfbench/runs/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

sys.path.insert(0, HERE)

import layers  # noqa: E402
from worker import host_steal_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
STEP_TIMEOUT_S = 170

END_TO_END = {"frames_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class StepFailed(Exception):
    pass


def _step(spec: dict, log_path: str) -> dict:
    """Run one worker process to completion and return its result JSON."""
    spec = {**spec, "src": SRC, "result": log_path + ".json"}
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=STEP_TIMEOUT_S,
            check=False,
        )
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise StepFailed(f"{spec['action']} worker exited with {proc.returncode}:\n{tail}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _setup(common: dict, dirs: list[str], trace: bool, log_path: str) -> dict:
    spec = {**common, "action": "setup", "dirs": dirs, "trace": trace}
    return _step({**spec, "run": f"{common['workload']}-setup"}, log_path)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    base = os.path.join(work, name)
    os.makedirs(base)
    common = {"workload": name, "seed": seed}

    dirs = [os.path.join(base, f"setup{i}") for i in range(SETUP_REPEATS)]
    prepared = _setup(common, dirs, trace, os.path.join(base, "setup.log"))
    setups, env, setup_dir = prepared["setups"], prepared["env"], dirs[-1]

    spans_dir = os.path.join(RUNS, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    invocations = []
    steal = host_steal_s()
    start = time.perf_counter()
    while True:
        i = len(invocations)
        if i:
            # a fresh set-up before each further invocation, in its own process
            setup_dir = os.path.join(base, f"setup-inv{i}")
            setups += _setup(common, [setup_dir], trace, setup_dir + ".log")["setups"]
        traced = trace and i % 2 == 1
        out = os.path.join(base, f"inv{i}")
        spec = {
            **common,
            "action": "stage",
            "dir": setup_dir,
            "out": out,
            "trace": traced,
            "run": f"{name}-seed{seed}-inv{i}",
            "spans": os.path.join(spans_dir, f"{name}.jsonl"),
        }
        try:
            result = _step(spec, out + ".log")
        except (StepFailed, subprocess.TimeoutExpired) as exc:
            result = {"problems": [str(exc)]}
        result["traced"] = traced
        invocations.append(result)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(setup_dir)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(invocations) >= 2):
            break
    env = {**env, "host_steal_s": host_steal_s() - steal}
    return {"env": env, "setups": setups, "invocations": invocations}


def net_wall_s(sample: dict, nproc: int) -> float:
    """Wall time less this sample's share of the time the hypervisor took.

    ``steal_s`` is summed over the machine's ``nproc`` CPUs, so one CPU's
    worth, ``steal_s / nproc``, is what a sample running on one CPU lost.
    On a shared host this steal moved plain wall time by up to 45% between
    runs of unchanged code."""
    return sample["wall_s"] - sample["steal_s"] / nproc


def end_to_end(name: str, raw: dict) -> dict:
    ok = [r for r in raw["invocations"] if not r["problems"]]
    frames, nproc = WORKLOADS[name].frames, raw["env"]["nproc"]
    samples = {
        "frames_per_s": [frames / net_wall_s(r, nproc) for r in ok],
        "setup_s": [net_wall_s(s, nproc) for s in raw["setups"]],
        "peak_rss_mib": [r["peak_rss_mib"] for r in ok],
    }
    return {
        metric: {"value": _median(values), "unit": END_TO_END[metric], "n": len(values)}
        for metric, values in samples.items()
    }


def per_layer(name: str, raw: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer medians, absent metric names, and call-count mismatches."""
    traced = [r for r in raw["invocations"] if r["traced"] and "layers" in r]
    plain = [r for r in raw["invocations"] if not r["traced"] and not r["problems"]]
    units = layers.units()
    absent = set()
    values, counts = {}, {}
    for metric in units:
        if metric.startswith("trace."):
            continue
        source = raw["setups"] if metric == layers.SETUP_METRIC[0] else traced
        values[metric] = _median([r["layers"][metric] for r in source])
        counts[metric] = len(source)
        absent.update(m for r in source for m in r["absent"] if m == metric)
    nproc = raw["env"]["nproc"]
    untraced_wall = _median([net_wall_s(r, nproc) for r in plain])
    traced_wall = _median([net_wall_s(r, nproc) for r in traced])
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    mismatches = [
        f"{metric}: {values[metric]:g} per invocation, shapes imply {expected}"
        for metric, expected in WORKLOADS[name].expected_calls.items()
        if metric not in absent and values[metric] != expected
    ]
    values["trace.call_count_mismatches"] = float(len(mismatches))
    metrics = {m: {"value": values[m], "unit": units[m], "n": counts.get(m, len(traced))} for m in units}
    return metrics, sorted(absent), mismatches


def _report(name: str, metrics: dict, attempted: int, failed: int, trace: bool) -> None:
    for metric, m in metrics.items():
        print(f"{name}  {metric:<42} {m['value']:>14.6g} {m['unit']:<15} median of n={m['n']}")
    kind = "traced and untraced invocations" if trace else "invocations"
    ratio = failed / attempted if attempted else 0.0
    print(f"{name}  {'fail_ratio':<42} {ratio:>14.6g} {'ratio':<15} {failed} of {attempted} {kind}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tsal", "cli.py")):
        print(f"no tsal source under {SRC}; run from the root of a tsal checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(RUNS, f"work-{os.getpid()}")
    results_dir = os.path.join(RUNS, "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    trace = bool(args.trace)
    attempted = failed = 0
    all_metrics: dict = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, trace, work)
            env = raw["env"]
            print("env " + json.dumps({**env, "workload": name, "seed": args.seed}, sort_keys=True))
            invs = raw["invocations"]
            n_failed = sum(1 for r in invs if r["problems"])
            for i, r in enumerate(invs):
                for problem in r["problems"]:
                    print(f"{name}  FAILED invocation {i}: {problem}")
            if trace:
                metrics, absent, mismatches = per_layer(name, raw)
                if absent:
                    print(f"{name}  absent (reported as 0): {', '.join(absent)}")
                for line in mismatches:
                    print(f"{name}  call-count mismatch: {line}")
                _report(name, metrics, len(invs), n_failed, trace)
            else:
                metrics = end_to_end(name, raw)
                _report(name, metrics, len(invs), n_failed, trace)
            attempted += len(invs)
            failed += n_failed
            with open(
                os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                "w",
                encoding="utf-8",
            ) as fh:
                json.dump(
                    {"env": env, "seed": args.seed, "seconds": args.seconds,
                     "attempted": len(invs), "failed": n_failed, "metrics": metrics,
                     "setups": raw["setups"],
                     "invocations": invs},
                    fh, indent=1, sort_keys=True,
                )  # fmt: skip
            prefix = "" if len(names) == 1 else f"{name}:"
            all_metrics.update(
                {prefix + m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()}
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
