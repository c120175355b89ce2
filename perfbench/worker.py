"""One benchmark step in a fresh process: a set-up, or one stage invocation.

Usage: python3 worker.py '<json spec>'. The spec names the action
(``setup``, repeated over a list of directories, or ``stage``), the
workload, seed, directories, whether to trace, and where to write the
result JSON. A stage runs
``tsal.cli.main`` with the workload's flags, timed from call to return,
then reads the peak resident memory of this process and checks the
outputs. Each set-up and stage also records ``steal_s``, the CPU time
the hypervisor took from the machine meanwhile, summed over its CPUs.
Tracing, when asked for, is installed before the stage and removed
before the check.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _import_tsal(src: str) -> None:
    sys.path.insert(0, src)
    import tsal.cli  # noqa: F401  (imports every module before any timing)

    origin = os.path.realpath(sys.modules["tsal"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"tsal was imported from {origin}, not from {src}")


def run(spec: dict) -> dict:
    _import_tsal(spec["src"])
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer(spec["run"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    result: dict = {}

    if spec["action"] == "setup":
        # Set up into each directory in turn, deleting the previous one first,
        # and keep the last for the stage.
        result["setups"] = []
        for i, d in enumerate(spec["dirs"]):
            if i:
                shutil.rmtree(spec["dirs"][i - 1])
            first_span = len(tracer.spans) if tracer is not None else 0
            steal, start, cpu = host_steal_s(), time.perf_counter(), time.process_time()
            workload.setup(d, spec["seed"])
            one = {
                "wall_s": time.perf_counter() - start,
                "cpu_s": time.process_time() - cpu,
                "steal_s": host_steal_s() - steal,
            }
            if tracer is not None:
                one["layers"], one["absent"] = layers.reduce(
                    [layers.SETUP_METRIC], tracer.spans[first_span:], 0.0, tracer.names
                )
            result["setups"].append(one)
        result["env"] = environment()
        return result

    import tsal.cli

    os.makedirs(spec["out"])
    argv = workload.argv(spec["dir"], spec["out"])
    steal, start, cpu = host_steal_s(), time.perf_counter(), time.process_time()
    try:
        code = tsal.cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu
    result["steal_s"] = host_steal_s() - steal
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = wall
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["absent"] = layers.reduce(
            layers.STAGE_METRICS, tracer.spans, wall, tracer.names
        )
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    if code != 0:
        result["problems"] = [f"tsal {argv[0]} exited with {code}"]
    else:
        result["problems"] = workload.check(spec["dir"], spec["out"], spec["seed"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
