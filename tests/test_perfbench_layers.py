"""perfbench must still see every layer of the package.

perfbench (``perfbench/spans.py``) times a layer by swapping a module global
for a wrapper. When the package stops calling a name through that global,
the span silently reads 0. These tests run one op per workload under the
tracer and check that every span the workload requires records a call, and
that the call counts its per-layer metrics rest on hold.
"""

import sys
from pathlib import Path

import pytest

from telebench import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import WORKLOADS  # noqa: E402
from spans import Recorder  # noqa: E402

OPS = {
    "ideal": ["bench", "--noise=off", "--format", "both"],
    "noisy": ["bench", "--noise=on", "--restarts", "5", "--format", "both"],
    "state_shots": ["state", "plus", "--noise=on", "--shots", "1000", "--seed", "1"],
}


@pytest.mark.parametrize("workload", OPS)
def test_traced_op_records_every_required_layer(workload, tmp_path, capsys):
    recorder = Recorder()
    with recorder.tracing(0) as call:
        assert call(cli.main, [*OPS[workload], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    calls, _ = recorder.totals()
    assert sorted(name for name in WORKLOADS[workload].required if calls[name] == 0) == []
    assert calls["circuit.apply_circuit"] == 1  # one evolution pass per op
    if WORKLOADS[workload].command == "bench":
        # processes_done_ratio divides these calls by 4 per op.
        assert calls["teleport_bench.process_tomography"] == 4
