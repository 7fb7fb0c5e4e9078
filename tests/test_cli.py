import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import telebench
from telebench.circuit import DeviceParams, ideal_phi
from telebench.cli import main
from telebench.qops import DensityMatrix
from telebench.tomography import pauli_set
from test_circuit import CHECKED_DEVICE_FIELDS


def run_cli(args):
    return main(list(args))


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.MULTILINE)


def test_bench_noiseless_summary(tmp_path, capsys):
    code = run_cli(["bench", "--noise=off", "--shots=0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("1.0000") >= 8  # all four state fidelities and Fp/Fbar columns
    assert "reference" in out
    assert (tmp_path / "report.json").exists()


def test_bench_reports_are_deterministic(tmp_path):
    args = ["bench", "--noise=on", "--shots=200", "--seed", "9", "--restarts", "5", "--format", "json"]
    code1 = run_cli(args + ["--out", str(tmp_path / "a")])
    code2 = run_cli(args + ["--out", str(tmp_path / "b")])
    assert code1 == 0 and code2 == 0
    text_a = (tmp_path / "a" / "report.json").read_text()
    text_b = (tmp_path / "b" / "report.json").read_text()
    assert strip_timestamp(text_a) == strip_timestamp(text_b)
    # and the only allowed difference really is the timestamp field
    parsed_a, parsed_b = json.loads(text_a), json.loads(text_b)
    parsed_a["metadata"].pop("timestamp")
    parsed_b["metadata"].pop("timestamp")
    assert parsed_a == parsed_b


def test_bench_empty_config_runs_analytic_noiseless(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    code = run_cli(["bench", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metadata"]["noise"] is False
    assert report["metadata"]["shots"] == 0
    assert report["states"]["minus"]["state_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_bench_missing_config_exits_2(tmp_path, capsys):
    code = run_cli(["bench", "--config", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope.json" in err


def test_bench_invalid_config_field_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"shotz": 5}')
    code = run_cli(["bench", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "shotz" in err


def test_bench_malformed_json_reports_line(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"shots": }')
    code = run_cli(["bench", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "true"])
@pytest.mark.parametrize("field", CHECKED_DEVICE_FIELDS)
def test_bench_non_finite_or_bool_device_value_exits_2(field, token, tmp_path, capsys):
    device = DeviceParams.reference().to_dict()
    if field in ("t1", "t2_star"):
        device[field][1] = "BAD"
    else:
        device[field] = "BAD"
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": device}).replace('"BAD"', token))
    code = run_cli(["bench", "--config", str(config), "--noise=on", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert not (tmp_path / "report.json").exists()


def test_bench_non_finite_run_setting_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"shots": Infinity}')
    code = run_cli(["bench", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Infinity" in err


def test_bench_seed_required_with_shots(tmp_path, capsys):
    code = run_cli(["bench", "--shots", "100", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed" in err


def test_bench_bundled_reference_config(tmp_path, capsys):
    code = run_cli(["bench", "--config", "paper_device.json", "--shots=0", "--noise=on",
                    "--restarts", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.88" in out  # reference mean Fbar printed next to the simulated one
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metadata"]["device"]["t1"] == [5.5e-7, 7.0e-7, 1.1e-6]
    assert report["averages"]["mean_average_output_fidelity"] > 2.0 / 3.0


def test_bench_csv_and_json_values_agree(tmp_path):
    code = run_cli(["bench", "--format", "both", "--out", str(tmp_path), "--restarts", "5"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "input,outcome,metric,value"
    by_key = {}
    for line in csv_lines[1:]:
        label, outcome, metric, value = line.split(",")
        by_key[(label, outcome, metric)] = float(value)
    for label in ("0", "1", "minus", "plus"):
        assert by_key[(label, "", "state_fidelity")] == report["states"][label]["state_fidelity"]
    for outcome in ("00", "01", "10", "11"):
        assert by_key[("", outcome, "process_fidelity")] == report["processes"][outcome]["process_fidelity"]
    assert by_key[("", "", "mean_average_output_fidelity")] == report["averages"]["mean_average_output_fidelity"]


def test_state_minus_noiseless(tmp_path, capsys):
    code = run_cli(["state", "minus", "--noise=off", "--shots=0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "fidelity 1.0000" in out
    result = json.loads((tmp_path / "state_minus.json").read_text())
    assert result["state_fidelity"] == pytest.approx(1.0, abs=1e-9)
    phi = ideal_phi(np.array([1.0, -1.0j]) / np.sqrt(2.0))
    expected = pauli_set(DensityMatrix.from_ket(phi))
    measured = np.array(result["pauli_set"]["values"])
    assert np.max(np.abs(measured - expected)) < 1e-9
    assert result["witness"]["expectation"] == pytest.approx(-0.5, abs=1e-9)
    rho = np.array(result["rho"]["real"]) + 1j * np.array(result["rho"]["imag"])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_state_noisy_reports_witness(tmp_path, capsys):
    code = run_cli(["state", "minus", "--noise=on", "--shots=0", "--restarts", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads((tmp_path / "state_minus.json").read_text())
    assert result["state_fidelity"] < 1.0
    assert result["witness"]["expectation"] < 0.0
    assert "witness expectation" in out


def test_state_zero_input_has_no_witness_block(tmp_path):
    code = run_cli(["state", "0", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "state_0.json").read_text())
    assert "witness" not in result
    assert "three_tangle_upper" not in result


def test_state_unknown_label_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "ghz"])
    assert excinfo.value.code == 2


def child_env() -> dict:
    # The child imports the same telebench as this process, installed or not.
    package_root = str(Path(telebench.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "telebench", "bench", "--noise=off", "--shots=0", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "mean Fbar" in proc.stdout
    assert (tmp_path / "report.json").exists()


def test_cli_import_does_not_load_scipy():
    # SciPy is a test-only dependency; the CLI must run without it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, telebench.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_noisy_sampled_run_does_not_load_numpy_fft():
    # numpy.fft costs resident memory on import; no stage needs it.
    script = (
        "import sys\n"
        "from telebench.circuit import DeviceParams\n"
        "from telebench.teleport_bench import run_benchmark\n"
        "run_benchmark(DeviceParams.reference(), shots=10000, seed=7, noise=True)\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
