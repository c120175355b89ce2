"""The benchmark in perfbench/ drives tsal through its public names:
``init_parameters``, ``named_parameters``, ``save_checkpoint``,
``load_checkpoint`` with its ``expect_variant=`` keyword and
``hidden_channels``, ``generate_synthetic`` with ``SyntheticConfig``'s keyword
defaults, ``errors.SaliencyError`` and ``cli.main``. These tests run three of
its workloads at seed 0 in process, so a change to any of them that would make
a benchmark run fail, or move its outputs off the recorded references, fails
here first."""

import os
import sys

import pytest

from tsal import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.append(PERFBENCH)  # as perfbench/conftest.py does, after tests/ for its conftest

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["train-convlstm", "predict-convlstm", "evaluate-24v"])
def test_seed_0_run_matches_the_references(tmp_path, capsys, name):
    """Losses to 1e-9 relative, checkpoint fingerprints, pixels to one gray
    level and the score report byte for byte, as the workload's own check
    compares them."""
    workload = WORKLOADS[name]
    setup, out = str(tmp_path / "setup"), str(tmp_path / "out")
    workload.setup(setup, 0)
    assert cli.main(workload.argv(setup, out)) == 0, capsys.readouterr().err
    assert workload.check(setup, out, 0) == []
