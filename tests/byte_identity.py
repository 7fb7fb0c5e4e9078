"""Compare the report bytes of two source trees, case by case.

Usage, from the repository root::

    python tests/byte_identity.py OLD_SRC NEW_SRC
    python tests/byte_identity.py HEAD src

Either argument is a ``src`` directory or, when it is not a directory, a git
revision of this repository: its ``src`` is exported with ``git archive`` into
a temporary directory, removed afterwards. A revision git cannot export exits
2 with git's message. Each tree runs in its own subprocess with only its
``src`` on the path, and writes one SHA-256 per case. The cases are
:func:`run_benchmark` (JSON and CSV text) on the reference device and on
copies with every T1 and T2* scaled by 0.3, 1e-2 and 1e-3, at 0, 20, 200 and
10,000 shots, noise on and off, seeds 0-4, restarts 5; and :func:`run_state`
(JSON text) of each input on the same grid at seed 3. A case that raises is recorded as its exception. Prints the
case count and the ids that differ, and exits 1 on any difference. A refactor
must leave all 288 cases identical. pytest does not collect this file.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

FACTORS = (1.0, 0.3, 1e-2, 1e-3)
SHOTS = (0, 20, 200, 10_000)


def cases():
    """(case id, input label or None for the benchmark, device, shots, seed, noise) of every case."""
    from telebench.circuit import DeviceParams
    from telebench.teleport_bench import INPUT_LABELS

    for factor in FACTORS:
        device = DeviceParams.reference().scaled_coherence(factor)
        for shots in SHOTS:
            for noise in (False, True):
                grid = f"coherence{factor:g}-shots{shots}-noise_{'on' if noise else 'off'}"
                for seed in range(5):
                    yield f"bench-{grid}-seed{seed}", None, device, shots, seed, noise
                for label in INPUT_LABELS:
                    yield f"state_{label}-{grid}-seed3", label, device, shots, 3, noise


def emit() -> None:
    """Print {case id: SHA-256 of its report text} for the ``telebench`` on ``PYTHONPATH``."""
    import telebench
    from telebench.teleport_bench import report_csv_text, report_json_text, run_benchmark, run_state

    if not telebench.__file__.startswith(os.environ["PYTHONPATH"] + os.sep):
        sys.exit(f"imported {telebench.__file__}, not the tree under test")
    digests = {}
    for case, label, device, shots, seed, noise in cases():
        try:
            if label is None:
                report = run_benchmark(device, shots, seed, noise, 5)
                text = report_json_text(report) + report_csv_text(report)
            else:
                text = report_json_text(run_state(device, label, shots, seed, noise, 5))
        except Exception as error:  # a raise is an outcome too, and must match
            text = f"{type(error).__name__}: {error}"
        digests[case] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(digests))


def digests_of(src: str) -> dict:
    """The case digests of a ``src`` directory, or of the ``src`` of a git revision."""
    if not os.path.isdir(src):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        export = subprocess.run(["git", "archive", src, "src"], cwd=root, capture_output=True)
        if export.returncode:
            sys.stderr.write(export.stderr.decode())
            sys.exit(2)
        with tempfile.TemporaryDirectory() as tree:
            with tarfile.open(fileobj=io.BytesIO(export.stdout)) as archive:
                archive.extractall(tree, filter="data")
            return digests_of(os.path.join(tree, "src"))
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = map(digests_of, argv)
    differ = [case for case in old if old[case] != new.get(case)]
    print(f"{len(old)} cases, {len(differ)} differ")
    for case in differ:
        print(f"  {case}")
    return 1 if differ or old.keys() != new.keys() else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        emit()
    else:
        sys.exit(main(sys.argv[1:]))
