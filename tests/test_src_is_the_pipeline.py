"""The package holds only the pipeline: every function in it runs in a CLI run.

A fresh interpreter records each Python call into the package while the CLI
runs a small matrix of ``bench`` and ``state`` runs. A function that never
runs there must be imported by the acceptance suite or be on ``UNREACHED``
with its reason; anything else is dead code, to be deleted.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import telebench
from test_cli import child_env

PACKAGE = Path(telebench.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Functions that no CLI run reaches, each with the reason it stays.
UNREACHED = {
    "qops.stack_error": "error path: names the failing member of a stack",
    "cli._load_config_file.<locals>.reject_constant": "error path: a config file with NaN or Infinity",
    "qops.DensityMatrix.__setattr__": "error path: a DensityMatrix is immutable",
    "qops.DensityMatrix.__repr__": "error path: shown in error messages and the debugger",
    "circuit.DeviceParams.scaled_coherence": "called by acceptance criterion 8",
}

# bench with noise off, noise on, and sampled with a config that sets a
# coupling; state for all four inputs.
SCRIPT = """
import json, sys
import numpy
package, out = sys.argv[1], sys.argv[2]
ran = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        ran.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(record)
from telebench.circuit import DeviceParams
from telebench.cli import main

config = out + "/run.json"
with open(config, "w") as f:
    device = {**DeviceParams.reference().to_dict(), "j_ab": 3.3e7}
    json.dump({"device": device}, f)
small = ["--restarts", "2", "--out", out]
runs = [
    ["bench", "--noise=off", *small],
    ["bench", "--noise=on", "--format", "both", *small],
    ["bench", "--noise=on", "--shots", "1000", "--seed", "3", "--config", config, *small],
    *(["state", label, "--noise=on", *small] for label in ("0", "1", "minus", "plus")),
]
codes = [main(argv) for argv in runs]
sys.setprofile(None)
with open(out + "/ran.json", "w") as f:
    json.dump({"codes": codes, "ran": sorted(ran)}, f)
"""


def package_functions() -> dict[tuple[str, str], str]:
    """Every function defined in the package's source, as (file, qualified name) -> 'module.qualname'."""
    found = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[(str(path), prefix + child.name)] = f"{module}.{prefix}{child.name}"
                walk(child, path, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, f"{prefix}{child.name}.")
            else:
                walk(child, path, module, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        walk(ast.parse(path.read_text()), path, module, "")
    return found


def acceptance_imports() -> set[tuple[str, str]]:
    """(file, qualified name) of each package function that the acceptance suite imports by name."""
    imported = set()
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("telebench"):
            for alias in node.names:
                code = getattr(getattr(importlib.import_module(node.module), alias.name), "__code__", None)
                if code is not None:
                    imported.add((code.co_filename, code.co_qualname))
    return imported


def test_every_package_function_runs_in_the_cli_or_is_accounted_for(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "ran.json").read_text())
    assert result["codes"] == [0] * 7
    accounted = set(map(tuple, result["ran"])) | acceptance_imports()
    unreached = [name for key, name in package_functions().items() if key not in accounted]
    assert [name for name in unreached if name not in UNREACHED] == []


def test_every_unreached_entry_names_a_package_function():
    # A stale entry would excuse nothing and hide that its function is gone.
    names = set(package_functions().values())
    assert [name for name in UNREACHED if name not in names] == []
