"""Golden reports: the CLI must keep writing the committed bytes.

``tests/data/golden/<config>/`` holds the files one CLI run wrote for each
configuration below. A refactor that keeps the arithmetic keeps every file
byte-identical once the timestamp line is removed (with criterion 9's
pattern); a mismatch means the numbers changed. A change that is meant to
change report values regenerates the goldens on purpose, from the repository
root::

    PYTHONPATH=src python tests/test_golden.py

Regeneration rewrites only the configurations whose reports differ beyond
the timestamp line, so its diff names exactly the goldens whose values moved.
"""

import shutil
import sys
import tempfile
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


def stripped_reports(directory: Path) -> dict[str, str]:
    """File name -> text without the timestamp line, for every file in ``directory``."""
    if not directory.is_dir():
        return {}
    return {p.name: TIMESTAMP_LINE.sub("", p.read_text()) for p in directory.iterdir()}


def differing_files(golden: Path, actual: Path) -> list[str]:
    """Files missing on one side or differing beyond the timestamp line."""
    want, got = stripped_reports(golden), stripped_reports(actual)
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_reports_match_golden(name, tmp_path):
    assert cli_main(CONFIGS[name] + ["--out", str(tmp_path)]) == 0
    assert differing_files(GOLDEN_DIR / name, tmp_path) == [], f"{name} differs from its golden copy"


def regenerate() -> None:
    for name, args in CONFIGS.items():
        out = GOLDEN_DIR / name
        with tempfile.TemporaryDirectory() as tmp:
            if cli_main(args + ["--out", tmp]) != 0:
                sys.exit(f"golden config {name} failed")
            if differing_files(out, Path(tmp)):
                shutil.rmtree(out, ignore_errors=True)
                shutil.copytree(tmp, out)
                print(f"rewrote {out}")


if __name__ == "__main__":
    regenerate()
