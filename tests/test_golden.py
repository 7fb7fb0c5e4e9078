"""Golden reports: the CLI must keep writing the committed bytes.

``tests/data/golden/<config>/`` holds the files one CLI run wrote for each
configuration below. A refactor that keeps the arithmetic keeps every file
byte-identical once the timestamp line is removed (with criterion 9's
pattern); a mismatch means the numbers changed. A change that is meant to
change report values regenerates the goldens on purpose, from the repository
root::

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from telebench.cli import main as cli_main
from test_acceptance import TIMESTAMP_LINE

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

_SAMPLED = ["--noise=on", "--shots=10000", "--seed", "7"]
CONFIGS = {
    "bench_noise_off": ["bench", "--noise=off", "--shots=0", "--format", "both"],
    "bench_noise_on": ["bench", "--noise=on", "--shots=0", "--restarts", "200", "--format", "both"],
    "bench_sampled": ["bench", *_SAMPLED, "--format", "both"],
    **{f"state_{label}": ["state", label, *_SAMPLED] for label in ("0", "1", "minus", "plus")},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_reports_match_golden(name, tmp_path):
    assert cli_main(CONFIGS[name] + ["--out", str(tmp_path)]) == 0
    golden = sorted(p.name for p in (GOLDEN_DIR / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == golden
    for filename in golden:
        expected = TIMESTAMP_LINE.sub("", (GOLDEN_DIR / name / filename).read_text())
        actual = TIMESTAMP_LINE.sub("", (tmp_path / filename).read_text())
        assert actual == expected, f"{name}/{filename} differs from its golden copy"


def regenerate() -> None:
    for name, args in CONFIGS.items():
        out = GOLDEN_DIR / name
        shutil.rmtree(out, ignore_errors=True)
        if cli_main(args + ["--out", str(out)]) != 0:
            sys.exit(f"golden config {name} failed")


if __name__ == "__main__":
    regenerate()
