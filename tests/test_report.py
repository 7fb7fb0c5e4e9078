"""The report writers: ``report_json_text`` against the ``json.dumps`` oracle,
the CSV value spelling, the values a report cannot hold, and the CLI path."""

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import json_report_text
from telebench import cli
from telebench.circuit import DeviceParams
from telebench.teleport_bench import INPUT_LABELS, report_csv_rows, report_csv_text, report_json_text, run_benchmark

EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
    1e-5, 1e-4, 0.1, 1.0 / 3.0, 999999999999.0, 999999999999.5, 1e12, 123456789012.0, 1e15, 1e15 + 1.0,
    1e16, 9007199254740993.0, 1e17, -1e17, 1.7976931348623157e308,
]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
leaves = (
    floats
    | floats.map(np.float64)
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é✓   𝄞"])
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(-(10**40), 10**40)
)
trees = st.recursive(
    leaves | st.lists(floats) | st.lists(st.text()),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=trees)
def test_report_json_text_equals_json_dumps_of_rounded_values(tree):
    assert report_json_text(tree) == json_report_text(tree)


@functools.cache
def noiseless_report() -> dict:
    return run_benchmark(DeviceParams.reference(), restarts=5)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(floats, min_size=4, max_size=4))
def test_csv_values_are_repr_of_12_digit_rounding(values):
    report = copy.deepcopy(noiseless_report())
    for label, value in zip(INPUT_LABELS, values):
        report["states"][label]["state_fidelity"] = value
    lines = report_csv_text(report).splitlines()
    rows = report_csv_rows(report)
    assert len(lines) == len(rows) + 1
    for line, (*_, value) in zip(lines[1:], rows):
        assert line.rsplit(",", 1)[1] == repr(float(f"{value:.12g}"))


def test_csv_rows_walk_the_reports_numeric_leaves_in_insertion_order():
    # A new int or float leaf becomes a row where it sits in the report, named
    # by its key path below the input and outcome; bools, None and lists do not.
    report = run_benchmark(DeviceParams.reference(), noise=True, restarts=5)
    rows = report_csv_rows(report)
    report["states"]["minus"]["witness"]["extra"] = 0.25
    report["processes"]["00"]["steps"] = 7
    report["processes"]["01"]["flag"] = False
    report["states"]["plus"]["outcomes"]["10"]["note"] = None
    report["averages"]["values"] = [0.5, 1.0]
    keys = [row[:3] for row in rows]
    expected = list(rows)
    for after, row in [
        (("", "00", "average_output_fidelity"), ("", "00", "steps", 7)),
        (("minus", "", "witness_robustness_lower_bound"), ("minus", "", "witness_extra", 0.25)),
    ]:
        expected.insert(keys.index(after) + 1, row)
    walked = report_csv_rows(report)
    assert walked == expected
    assert len({row[:3] for row in walked}) == len(walked)


@pytest.mark.parametrize(
    "value",
    [np.zeros(2), np.int64(3), np.float32(0.5), np.bool_(True), {1, 2}, object()],
    ids=["ndarray", "int64", "float32", "bool_", "set", "object"],
)
def test_report_json_text_rejects_values_json_cannot_hold(value):
    tree = {"metadata": {"values": [0.5, value]}}
    with pytest.raises(TypeError):
        json.dumps(tree)
    with pytest.raises(TypeError):
        report_json_text(tree)


@pytest.mark.parametrize("key", [1, 0.5, None, True, ("a",)], ids=repr)
def test_report_json_text_rejects_non_str_keys(key):
    with pytest.raises(TypeError, match="keys must be str"):
        report_json_text({"states": {key: 1.0}})


def test_cli_writes_reports_without_the_json_encoder(monkeypatch, tmp_path, capsys):
    # The metadata's device hash still encodes with json.dumps, outside the
    # writers, so the encoder is refused only while a writer runs.
    writing = []
    written = []

    def refuse(real):
        def call(*args, **kwargs):
            assert not writing, "a report writer used the json encoder"
            return real(*args, **kwargs)

        return call

    def spy(writer):
        def call(report):
            writing.append(writer.__name__)
            try:
                return writer(report)
            finally:
                written.append(writing.pop())

        return call

    monkeypatch.setattr(json, "dumps", refuse(json.dumps))
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse(json.JSONEncoder.iterencode))
    for name in ("report_json_text", "report_csv_text"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    assert cli.main(["bench", "--noise=off", "--format", "both", "--out", str(tmp_path)]) == 0
    assert cli.main(["state", "plus", "--noise=on", "--shots", "1000", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert written == ["report_json_text", "report_csv_text", "report_json_text"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == 1
    assert json.loads((tmp_path / "state_plus.json").read_text())["input"] == "plus"
