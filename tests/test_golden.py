"""Golden reports: the CLI must keep writing the committed bytes.

``tests/data/golden/<config>/`` holds the files one CLI run wrote for each
configuration below, plus ``stdout.txt``, the run's printed summary with the
output directory spelled :data:`OUT_TOKEN`. A refactor that keeps the
arithmetic keeps every file byte-identical once the timestamp line is removed
(with criterion 9's pattern); a mismatch means the numbers or the summary
text changed. A change that is meant to change report values or the summary
regenerates the goldens on purpose, from the repository root::

    PYTHONPATH=src python tests/test_golden.py

Regeneration rewrites only the files whose text differs beyond the timestamp
line, and keeps the committed timestamp line in each, so its diff names
exactly the lines whose values moved.
For each rewritten golden it prints how many numbers in its JSON reports
changed, the old -> new figures of merit (:data:`MERIT_KEYS`), each number
added or removed, and the largest absolute change.

To compare without writing, for example as proof that a refactor kept every
report byte-identical::

    PYTHONPATH=src python tests/test_golden.py --check

prints every golden's change summary and exits 1 if any golden differs.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from telebench.cli import main as cli_main
from test_acceptance import TIMESTAMP_LINE

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

_SAMPLED = ["--noise=on", "--shots=10000", "--seed", "7"]
CONFIGS = {
    "bench_noise_off": ["bench", "--noise=off", "--shots=0", "--format", "both"],
    "bench_noise_on": ["bench", "--noise=on", "--shots=0", "--restarts", "200", "--format", "both"],
    "bench_sampled": ["bench", *_SAMPLED, "--format", "both"],
    # The reference device with every T1 and T2* scaled by 1e-3: outcome 00 is kept; 10 (p = 1.7e-10)
    # is below the analytic floor, so its process is skipped but its conditional fidelities stay; 01 and
    # 11 vanish and report null. Their probabilities (5.6e-16 and 8e-40) are float noise, so any
    # float-level change upstream of the projection moves them, and this golden with them.
    "bench_decohering": [
        "bench", "--config", str(DATA_DIR / "decohering_device.json"), "--noise=on", "--shots=0", "--format", "both"
    ],
    # 20 shots leave every outcome under the 10-count floor: four skipped processes and null means.
    "bench_few_shots": ["bench", "--noise=on", "--shots=20", "--seed", "7", "--format", "both"],
    **{f"state_{label}": ["state", label, *_SAMPLED] for label in ("0", "1", "minus", "plus")},
}


OUT_TOKEN = "<out>"


def run_config(args: list[str], out: Path) -> int:
    """Run the CLI with ``args`` into ``out`` and write its stdout there as ``stdout.txt``,
    with ``out`` spelled :data:`OUT_TOKEN`; returns the exit status."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main(args + ["--out", str(out)])
    (out / "stdout.txt").write_text(stdout.getvalue().replace(str(out), OUT_TOKEN))
    return status


def stripped_reports(directory: Path) -> dict[str, str]:
    """File name -> text without the timestamp line, for every file in ``directory``."""
    if not directory.is_dir():
        return {}
    return {p.name: TIMESTAMP_LINE.sub("", p.read_text()) for p in directory.iterdir()}


def with_timestamp_of(committed: str, text: str) -> str:
    """``text`` with its timestamp line replaced by the one ``committed`` has, if any."""
    line = TIMESTAMP_LINE.search(committed)
    return TIMESTAMP_LINE.sub(lambda _: line.group(0), text, count=1) if line else text


def differing_files(golden: Path, actual: Path) -> list[str]:
    """Files missing on one side or differing beyond the timestamp line."""
    want, got = stripped_reports(golden), stripped_reports(actual)
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


# Report keys whose old -> new values regeneration prints: state fidelities,
# mean fidelities, the mean average output fidelity and the tangle bound.
MERIT_KEYS = (
    "state_fidelity",
    "mean_state_fidelity",
    "mean_process_fidelity",
    "mean_average_output_fidelity",
    "three_tangle_upper",
)


def report_numbers(directory: Path) -> dict[tuple, float]:
    """(file name, key path) -> value for every number in the JSON reports of ``directory``."""
    numbers = {}

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, key + (k,))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, key + (i,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers[key] = value

    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            walk(json.loads(path.read_text()), (path.name,))
    return numbers


def change_summary(golden: Path, actual: Path) -> list[str]:
    """The count of changed numbers, one line per changed figure of merit
    and per number present on only one side, then the largest absolute
    change among the numbers on both sides."""
    old, new = report_numbers(golden), report_numbers(actual)
    changed = sorted((k for k in old.keys() | new.keys() if old.get(k) != new.get(k)), key=str)
    lines = [f"{len(changed)} of {len(new)} numbers changed"]
    for key in changed:
        path = "/".join(map(str, key))
        if key[-1] in MERIT_KEYS:
            lines.append(f"{path}: {old.get(key)} -> {new.get(key)}")
        if key not in new:
            lines.append(f"removed {path} ({old[key]})")
        elif key not in old:
            lines.append(f"added {path} ({new[key]})")
    both = [key for key in changed if key in old and key in new]
    if both:
        key = max(both, key=lambda k: abs(new[k] - old[k]))
        lines.append(f"largest change {abs(new[key] - old[key]):.3g} at {'/'.join(map(str, key))}")
    return lines


def test_change_summary_counts_numbers_and_names_figures_of_merit(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    report = {
        "states": {"0": {"state_fidelity": 0.9, "pauli_set": {"values": [0.5, 1.0]}}},
        "device": {"gate_error": 0.0},
        "noise": True,
    }
    (old / "report.json").write_text(json.dumps(report))
    report["states"]["0"]["state_fidelity"] = 0.8
    report["states"]["0"]["pauli_set"]["values"][1] = 0.75
    del report["device"]["gate_error"]
    report["device"]["gate_time"] = 1.2e-08
    (new / "report.json").write_text(json.dumps(report))
    assert change_summary(old, new) == [
        "4 of 4 numbers changed",
        "removed report.json/device/gate_error (0.0)",
        "added report.json/device/gate_time (1.2e-08)",
        "report.json/states/0/state_fidelity: 0.9 -> 0.8",
        "largest change 0.25 at report.json/states/0/pauli_set/values/1",
    ]
    assert change_summary(old, old) == ["0 of 4 numbers changed"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_reports_match_golden(name, tmp_path):
    assert run_config(CONFIGS[name], tmp_path) == 0
    assert differing_files(GOLDEN_DIR / name, tmp_path) == [], f"{name} differs from its golden copy"


def sync_goldens(golden_dir: Path = GOLDEN_DIR, configs: dict = CONFIGS, check: bool = False) -> int:
    """Run every config and compare its reports with ``golden_dir/<config>``.

    Prints a change summary per golden. With ``check``, nothing is written
    (the summary line of every golden is printed) and the result is 1 if any
    golden differs; without, each differing file is rewritten, keeping its
    committed timestamp line, and the result is 0.
    """
    differs = False
    for name, args in configs.items():
        out = golden_dir / name
        with tempfile.TemporaryDirectory() as tmp:
            if run_config(args, Path(tmp)) != 0:
                sys.exit(f"golden config {name} failed")
            files = differing_files(out, Path(tmp))
            if not files and not check:
                continue
            summary = change_summary(out, Path(tmp))
            differs = differs or bool(files)
            if check:
                print(f"{name}: {summary[0]}" + (f"; differing files: {', '.join(files)}" if files else ""))
            else:
                out.mkdir(parents=True, exist_ok=True)
                for file in files:
                    golden, new = out / file, Path(tmp) / file
                    if not new.exists():
                        golden.unlink()
                        continue
                    committed = golden.read_text() if golden.exists() else ""
                    golden.write_text(with_timestamp_of(committed, new.read_text()))
                print(f"rewrote {out}: {summary[0]}")
            for line in summary[1:]:
                print(f"  {line}")
    return int(check and differs)


def test_check_reports_a_changed_golden_and_writes_nothing(tmp_path, capsys):
    configs = {"state_0": CONFIGS["state_0"]}
    golden = tmp_path / "state_0"
    shutil.copytree(GOLDEN_DIR / "state_0", golden)
    count = len(report_numbers(golden))
    assert sync_goldens(tmp_path, configs, check=True) == 0
    assert capsys.readouterr().out == f"state_0: 0 of {count} numbers changed\n"

    report = golden / "state_0.json"
    text = report.read_text()
    edited = text.replace('"state_fidelity": 0.', '"state_fidelity": 1.', 1)
    assert edited != text
    report.write_text(edited)
    before = {p.name: p.read_bytes() for p in golden.iterdir()}
    assert sync_goldens(tmp_path, configs, check=True) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"state_0: 1 of {count} numbers changed; differing files: state_0.json"
    assert out[1].startswith("  state_0.json/state_fidelity: 1.")
    assert {p.name: p.read_bytes() for p in golden.iterdir()} == before

    missing = tmp_path / "missing"
    assert sync_goldens(missing, {"missing": CONFIGS["state_0"]}, check=True) == 1
    assert not missing.exists()


def test_regeneration_rewrites_only_differing_goldens(tmp_path, capsys):
    configs = {"state_0": CONFIGS["state_0"], "state_1": CONFIGS["state_1"]}
    for name in configs:
        shutil.copytree(GOLDEN_DIR / name, tmp_path / name)
    (tmp_path / "state_1" / "state_1.json").write_text("{}\n")
    untouched = (tmp_path / "state_0" / "state_0.json").stat().st_mtime_ns
    count = len(report_numbers(GOLDEN_DIR / "state_1"))
    assert sync_goldens(tmp_path, configs) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"rewrote {tmp_path / 'state_1'}: {count} of {count} numbers changed"
    assert differing_files(GOLDEN_DIR / "state_1", tmp_path / "state_1") == []
    assert (tmp_path / "state_0" / "state_0.json").stat().st_mtime_ns == untouched
    assert sync_goldens(tmp_path, configs, check=True) == 0
    capsys.readouterr()

    # A golden with one edited number comes back as the committed bytes, timestamp line included.
    report = tmp_path / "state_0" / "state_0.json"
    edited = report.read_text().replace('"state_fidelity": 0.', '"state_fidelity": 1.', 1)
    report.write_text(edited)
    assert edited != (GOLDEN_DIR / "state_0" / "state_0.json").read_text()
    assert sync_goldens(tmp_path, configs) == 0
    count = len(report_numbers(GOLDEN_DIR / "state_0"))
    assert capsys.readouterr().out.splitlines()[0] == f"rewrote {tmp_path / 'state_0'}: 1 of {count} numbers changed"
    committed = {p.name: p.read_bytes() for p in (GOLDEN_DIR / "state_0").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "state_0").iterdir()} == committed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden reports, or compare them with --check.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any golden differs")
    return sync_goldens(check=parser.parse_args(argv).check)


if __name__ == "__main__":
    sys.exit(main())
