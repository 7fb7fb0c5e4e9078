import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import telebench
import telebench.cli as cli
from telebench.circuit import DeviceParams, ideal_phi
from telebench.cli import _build_run_config, build_parser, main
from telebench.entanglement import MAX_RESTARTS
from telebench.qops import DensityMatrix
from telebench.tomography import pauli_set
from test_circuit import CHECKED_DEVICE_FIELDS

# Removed device fields: a C-Phase lasts its coupling's period 1/(2J), so no field sets it, and a
# gate's only error is its decoherence, so no field sets a depolarizing error.
REMOVED_DEVICE_FIELDS = ("cphase_time_ab", "cphase_time_bc", "single_qubit_error")


def run_cli(args):
    return main(list(args))


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.MULTILINE)


def test_bench_noiseless_summary(tmp_path, capsys):
    code = run_cli(["bench", "--noise=off", "--shots=0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("1.0000") >= 8  # all four state fidelities and Fp/Fbar columns
    assert "paper" in out
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


def test_bench_on_a_strongly_decohering_device_exits_0(tmp_path, capsys):
    # Outcomes that vanish for some input used to end the run with exit 1.
    config = tmp_path / "decohering.json"
    config.write_text(json.dumps({"device": DeviceParams.reference().scaled_coherence(1e-3).to_dict()}))
    code = run_cli(["bench", "--config", str(config), "--noise=on", "--restarts", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [report["processes"][o]["skipped"] for o in ("00", "01", "10", "11")] == [False, True, True, True]
    assert out.count("skipped") == 3


def test_bench_missing_config_exits_2(tmp_path, capsys, monkeypatch):
    code = run_cli(["bench", "--config", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope.json" in err
    # A bare name is read from the working directory only, not from the package's data.
    monkeypatch.chdir(tmp_path)
    code = run_cli(["bench", "--config", "paper_device.json", "--out", "out"])
    assert code == 2
    assert capsys.readouterr().err == "config error: config file not found: paper_device.json\n"
    assert list(tmp_path.iterdir()) == []


def test_bench_config_directory_exits_2(tmp_path, capsys, monkeypatch):
    code = run_cli(["bench", "--config", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and str(tmp_path) in err
    # An empty path names the working directory; it is not read as "no config".
    monkeypatch.chdir(tmp_path)
    code = run_cli(["bench", "--config", "", "--out", "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file : ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "path, reason", [("a\u0000b", "embedded null byte"), ("a" * 5000, "File name too long")], ids=["null_byte", "too_long"]
)
def test_bench_config_path_the_os_refuses_exits_2(path, reason, tmp_path, capsys):
    code = run_cli(["bench", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: cannot read config file {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_bench_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "utf16.json"
    config.write_bytes(b"\xff\xfe{}")
    code = run_cli(["bench", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "utf16.json" in err


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
@pytest.mark.parametrize("field", CHECKED_DEVICE_FIELDS + REMOVED_DEVICE_FIELDS)
def test_bench_non_finite_or_bool_device_value_exits_2(field, token, tmp_path, capsys):
    # The config parse rejects NaN, Infinity and -Infinity on any field. 1e400
    # parses to inf and true to True, so those two reach DeviceParams: a kept
    # field's own check names it, and a removed field is an unknown one.
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
    if token not in ("1e400", "true"):
        assert f"config error: config file {config} contains the non-finite number {token}\n" == err
    elif field in REMOVED_DEVICE_FIELDS:
        assert f"config error: invalid device config: unknown device field(s): ['{field}']\n" == err
    else:
        assert re.match(rf"config error: invalid device config: {field}(\[1\])? must be a finite positive number", err)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("j", [1e308, 5e-324])
@pytest.mark.parametrize("field", ["j_ab", "j_bc"])
def test_bench_coupling_whose_cphase_time_is_not_finite_positive_exits_2(field, j, tmp_path, capsys):
    # Unchecked, these exit 0: 2J overflows at 1e308, so that C-Phase lasts 0 s
    # with no decoherence, and at 5e-324 it lasts forever.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": {**DeviceParams.reference().to_dict(), field: j}}))
    code = run_cli(["bench", "--config", str(config), "--noise=on", "--restarts", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"config error: invalid device config: .*{field}", err)
    assert not (tmp_path / "report.json").exists()


def test_bench_t1_whose_decay_rate_overflows_exits_2(tmp_path, capsys):
    # Unchecked, this exits 1 after evolving the inputs: the dephasing rate
    # 1/T2* - 1/(2*T1) of qubit A is inf - inf = NaN.
    device = DeviceParams.reference().to_dict()
    device["t1"][0] = device["t2_star"][0] = 1e-310
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": device}))
    code = run_cli(["bench", "--config", str(config), "--noise=on", "--restarts", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(r"config error: invalid device config: decay rate 1/(2*t1[0]) must be finite")
    assert not (tmp_path / "report.json").exists()


def test_device_fields_are_pinned_and_a_removed_cphase_time_exits_2(tmp_path, capsys):
    names = [f.name for f in dataclasses.fields(DeviceParams)]
    assert names == ["t1", "t2_star", "j_ab", "j_bc", "single_qubit_gate_time"]
    for name in REMOVED_DEVICE_FIELDS:
        device = {**DeviceParams.reference().to_dict(), name: 0.0}
        message = f"unknown device field(s): ['{name}']"
        with pytest.raises(ValueError, match=re.escape(message)):
            DeviceParams.from_dict(device)
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"device": device}))
        assert run_cli(["bench", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"config error: invalid device config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "field, value",
    [("single_qubit_gate_time", "0.1"), ("single_qubit_gate_time", None), ("single_qubit_gate_time", [0.1]), ("t1", 5)],
)
def test_bench_device_value_of_the_wrong_type_exits_2_naming_the_field(field, value, tmp_path, capsys):
    # These used to exit 2 with a bare TypeError message such as
    # "'<=' not supported between instances of 'float' and 'str'".
    device = DeviceParams.reference().to_dict()
    device[field] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": device}))
    code = run_cli(["bench", "--config", str(config), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: invalid device config:") and field in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", [5, None, "abc", []], ids=["number", "null", "string", "list"])
def test_bench_device_that_is_not_an_object_exits_2(value, tmp_path, capsys):
    # These used to exit 2 with "'int' object is not iterable", and "abc" with
    # "unknown device field(s): ['a', 'b', 'c']". DeviceParams.from_dict checks this.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": value}))
    code = run_cli(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: invalid device config: device fields must be given as a dict, got {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_bench_non_finite_run_setting_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"shots": Infinity}')
    code = run_cli(["bench", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Infinity" in err


@pytest.mark.parametrize("out", [5, None, ["a"]], ids=["number", "null", "list"])
@pytest.mark.parametrize("command", [["bench"], ["state", "plus"]], ids=["bench", "state"])
def test_non_string_out_in_config_exits_2(command, out, tmp_path, capsys):
    # These used to exit 1 with a TypeError from Path().
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"out": out}))
    code = run_cli([*command, "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "'out'" in err


@pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", [["bench"], ["state", "plus"]], ids=["bench", "state"])
def test_out_that_names_a_file_exits_2_before_any_work(command, source, below, tmp_path, capsys, monkeypatch):
    # These used to run the whole pipeline, then exit 1 with FileExistsError or NotADirectoryError.
    monkeypatch.setattr(cli, "run_benchmark", lambda *a: pytest.fail("ran the benchmark"))
    monkeypatch.setattr(cli, "run_state", lambda *a: pytest.fail("ran the state"))
    existing = tmp_path / "existing"
    existing.write_text("keep")
    out = str(existing / "sub" if below else existing)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": out}))
    setting = ["--out", out] if source == "flag" else ["--config", str(config)]
    code = run_cli([*command, "--noise=on", *setting])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: 'out' must be a directory path, but {existing} is not a directory\n"
    assert existing.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "run.json"]


@pytest.mark.parametrize(
    "out, reason", [("a\u0000b", "embedded null byte"), ("a" * 5000, "File name too long")], ids=["null_byte", "too_long"]
)
@pytest.mark.parametrize("command", [["bench"], ["state", "plus"]], ids=["bench", "state"])
def test_out_that_the_os_refuses_exits_2_before_any_work(command, out, reason, tmp_path, capsys, monkeypatch):
    # A null byte used to run the whole pipeline, then exit 1 from mkdir; a
    # 5000-character name exited 1 with OSError before the run.
    monkeypatch.setattr(cli, "run_benchmark", lambda *a: pytest.fail("ran the benchmark"))
    monkeypatch.setattr(cli, "run_state", lambda *a: pytest.fail("ran the state"))
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({"out": out}))
    code = run_cli([*command, "--noise=on", "--config", "run.json"])
    assert code == 2
    assert capsys.readouterr().err == f"config error: 'out' is not a usable directory path: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_bench_seed_required_with_shots(tmp_path, capsys):
    code = run_cli(["bench", "--shots", "100", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_shots_beyond_the_sampler_exits_2(source, tmp_path, capsys):
    # numpy's binomial sampler takes at most 2**63 - 1 trials; more used to exit 1 with OverflowError.
    config = tmp_path / "run.json"
    config.write_text('{"shots": 100000000000000000000, "seed": 1}')
    setting = ["--shots", str(10**20), "--seed", "1"] if source == "flag" else ["--config", str(config)]
    code = run_cli(["bench", *setting, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: shots must be at most 9223372036854775807")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_restarts_above_the_bound_exits_2(source, tmp_path, capsys):
    # Unbounded, --restarts 10000000 asked the tangle search for about 74 GB.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"restarts": MAX_RESTARTS + 1}))
    setting = ["--restarts", str(MAX_RESTARTS + 1)] if source == "flag" else ["--config", str(config)]
    code = run_cli(["bench", *setting, "--noise=on", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: restarts must be at most {MAX_RESTARTS}")
    assert not (tmp_path / "out").exists()


# Invalid run settings: the library's runs and the CLI check them with one
# function, so a config file value exits 2 with the library's own message.
INVALID_SETTINGS = [
    ("shots", -1),
    ("shots", 2.5),
    ("shots", True),
    ("shots", 10**20),
    ("seed", "3"),
    ("seed", 2.0),
    ("noise", "on"),
    ("noise", 1),
    ("restarts", 0),
    ("restarts", True),
    ("restarts", MAX_RESTARTS + 1),
]


@pytest.mark.parametrize("name, value", INVALID_SETTINGS, ids=[f"{n}={v!r}" for n, v in INVALID_SETTINGS])
def test_invalid_setting_fails_alike_in_the_library_and_the_cli(name, value, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        telebench.run_benchmark(DeviceParams.reference(), **{name: value})
    message = str(raised.value)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: value}))
    code = run_cli(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# setting: (default, config file value, flag, flag value); the flag value
# differs from the config file's, and both from the default.
SETTING_SOURCES = {
    "shots": (0, 20, "--shots=30", 30),
    "seed": (0, 11, "--seed=7", 7),
    "noise": (False, True, "--noise=off", False),
    "out": (".", "from_config", "--out=from_flag", "from_flag"),
    "format": ("json", "csv", "--format=both", "both"),
    "restarts": (200, 3, "--restarts=2", 2),
}


def resolved_setting(name: str, run_dir: Path):
    """A run setting as the bench run in ``run_dir`` resolved it, read from what it wrote."""
    written = sorted(run_dir.rglob("report.*"))
    if name == "out":
        return str(written[0].parent.relative_to(run_dir))
    if name == "format":
        return "both" if len(written) == 2 else written[0].suffix[1:]
    return json.loads((run_dir / "report.json").read_text())["metadata"][name]


@pytest.mark.parametrize("name", SETTING_SOURCES)
def test_flag_overrides_config_file_which_overrides_default(name, tmp_path, monkeypatch):
    default, in_config, flag, in_flag = SETTING_SOURCES[name]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: in_config}))
    seeded = ["--seed=1"] if name == "shots" else []  # sampled runs need a seed
    runs = {"default": ([], default), "config": (["--config", str(config)], in_config)}
    runs["flag"] = (["--config", str(config), flag], in_flag)
    for source, (argv, expected) in runs.items():
        run_dir = tmp_path / source
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert run_cli(["bench", *seeded, *argv]) == 0
        assert resolved_setting(name, run_dir) == expected, source


def test_run_config_seed_is_the_resolved_int(tmp_path):
    config_file = tmp_path / "seeded.json"
    config_file.write_text('{"seed": 11, "shots": 10}')
    cases = {(): 0, ("--seed", "7"): 7, ("--config", str(config_file)): 11, ("--shots", "0"): 0}
    for extra, seed in cases.items():
        _, settings = _build_run_config(build_parser().parse_args(["bench", *extra]))
        assert settings["seed"] == seed and type(settings["seed"]) is int


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


@pytest.mark.parametrize("fmt", ["csv", "both"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_state_rejects_formats_other_than_json(fmt, source, tmp_path, capsys):
    out = tmp_path / "out"
    if source == "flag":
        args = ["state", "plus", "--format", fmt, "--out", str(out)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": fmt}))
        args = ["state", "plus", "--config", str(config), "--out", str(out)]
    code = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "json" in err
    assert not out.exists()


def test_state_unknown_label_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "ghz"])
    assert excinfo.value.code == 2


@pytest.fixture
def fresh_parser_cache():
    """Clears the cache of ``main``'s parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(fresh_parser_cache, tmp_path, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert run_cli(["state", "0", "--out", str(tmp_path)]) == 0
    assert run_cli(["bench", "--out", str(tmp_path)]) == 0
    assert len(built) == 1


def test_reused_parser_carries_nothing_from_one_call_to_the_next(fresh_parser_cache, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"restarts": 4, "seed": 3}')
    assert run_cli(["bench", "--restarts", "5", "--noise", "on", "--format", "csv", "--out", str(tmp_path / "a")]) == 0
    second = ["bench", "--config", str(config)]
    assert run_cli([*second, "--out", str(tmp_path / "b")]) == 0
    cli._parser.cache_clear()
    assert run_cli([*second, "--out", str(tmp_path / "fresh")]) == 0
    # restarts and seed from the config file; noise, shots and format from _DEFAULTS
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["report.json"]
    metadata = json.loads((tmp_path / "b" / "report.json").read_text())["metadata"]
    assert (metadata["restarts"], metadata["seed"], metadata["noise"], metadata["shots"]) == (4, 3, False, 0)
    reused, fresh = ((tmp_path / run / "report.json").read_text() for run in ("b", "fresh"))
    assert strip_timestamp(reused) == strip_timestamp(fresh)


def test_usage_error_leaves_the_parser_usable(fresh_parser_cache, tmp_path, capsys):
    for bad in (["bench", "--shots", "x"], ["bench", "--restarts", "7", "--noise", "maybe"], ["nope"]):
        with pytest.raises(SystemExit) as excinfo:
            main(bad)
        assert excinfo.value.code == 2
    capsys.readouterr()
    assert run_cli(["bench", "--out", str(tmp_path)]) == 0
    metadata = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert (metadata["restarts"], metadata["noise"]) == (200, False)


@pytest.mark.parametrize("command", [[], ["bench"], ["state"]], ids=["top", "bench", "state"])
def test_help_of_the_reused_parser_is_that_of_a_fresh_one(command, fresh_parser_cache, tmp_path, capsys):
    def help_text(parse):
        with pytest.raises(SystemExit) as excinfo:
            parse([*command, "--help"])
        assert excinfo.value.code == 0
        return capsys.readouterr().out

    assert run_cli(["state", "0", "--out", str(tmp_path)]) == 0  # builds main's parser
    capsys.readouterr()
    fresh = help_text(build_parser().parse_args)
    assert help_text(main) == fresh
    if not command:
        assert fresh == build_parser().format_help()


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


def test_cli_import_builds_no_parser():
    # main builds its parser on its first call; built at import, its cost
    # would land on every import of the CLI.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import telebench.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_draws_no_restart_pool():
    # The tangle search draws its restart pool at its first search; drawn at
    # import, its cost would land on every import of the CLI.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "built = []\n"
        "default_rng = np.random.default_rng\n"
        "def counting_rng(*args, **kwargs):\n"
        "    built.append(sys._getframe(1).f_globals['__name__'])\n"
        "    return default_rng(*args, **kwargs)\n"
        "np.random.default_rng = counting_rng\n"
        "import telebench.cli\n"
        "from telebench import entanglement\n"
        "print(entanglement._restart_isometries.cache_info().currsize, built.count(entanglement.__name__))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


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
