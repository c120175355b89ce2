"""Record the reference outputs that the checks compare against at the
default workload seed.

Usage, from the root of a tsal checkout: python3 perfbench/record_refs.py

Run it only when the benchmark's workloads change; a change to tsal that
moves these outputs is what the references exist to catch.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from checks import checkpoint_fingerprints, predicted_maps  # noqa: E402
from workloads import DEFAULT_SEED, REFS, WORKLOADS  # noqa: E402


def main() -> int:
    import tsal.cli
    from tsal.train import load_checkpoint

    os.makedirs(REFS, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=HERE)
    try:
        for name, workload in WORKLOADS.items():
            d, out = os.path.join(tmp, name), os.path.join(tmp, name + "-out")
            workload.setup(d, DEFAULT_SEED)
            os.makedirs(out)
            if tsal.cli.main(workload.argv(d, out)) != 0:
                raise SystemExit(f"{name}: stage failed")
            if name == "train-convlstm":
                with open(os.path.join(out, "model.ckpt.loss.csv"), encoding="utf-8") as fh:
                    losses = [float(row["loss"]) for row in csv.DictReader(fh)]
                with open(os.path.join(REFS, f"{name}.losses.json"), "w", encoding="utf-8") as fh:
                    fh.write(repr(losses) + "\n")
                model, buffers = load_checkpoint(os.path.join(out, "model.ckpt"))
                with open(os.path.join(REFS, f"{name}.checkpoint.json"), "w", encoding="utf-8") as fh:
                    json.dump(checkpoint_fingerprints(model, buffers), fh, indent=1, sort_keys=True)
                    fh.write("\n")
            elif name == "predict-convlstm":
                pixels, problems = predicted_maps(os.path.join(d, "data"), os.path.join(out, "maps"))
                if problems:
                    raise SystemExit(f"{name}: {problems}")
                np.savez_compressed(os.path.join(REFS, f"{name}.pixels.npz"), pixels=pixels)
            else:
                shutil.copyfile(
                    os.path.join(out, "report.json"), os.path.join(REFS, f"{name}.report.json")
                )
            problems = workload.check(d, out, DEFAULT_SEED)
            if problems:
                raise SystemExit(f"{name}: recorded output fails its check: {problems}")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
