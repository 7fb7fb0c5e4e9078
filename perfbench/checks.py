"""Per-op correctness checks on what one ``telebench`` CLI call left behind.

Each check returns a list of problems (empty when the op is correct) and
the ``three_tangle_upper`` values the op reported for the entangled inputs.
Reference values are pinned from the package as of the benchmark's
introduction; the checks rebuild Pauli operators and input labels here so
that they do not share code with the layers they check.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from telebench.circuit import ideal_phi
from telebench.entanglement import three_tangle_pure
from telebench.qops import DensityMatrix

SCHEMA = 1
INPUTS = ("0", "1", "minus", "plus")
ENTANGLED = ("minus", "plus")
OUTCOMES = ("00", "01", "10", "11")
INPUT_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "minus": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "plus": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
}
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

EXACT_TOL = 1e-9
# Reports round to 12 significant digits; the noisy states' smallest
# eigenvalue gap is about 3e-3, so the rebuilt eigenvectors move by ~1e-9.
TANGLE_TOL = 1e-7
# Analytic (shots 0) state fidelities of the reference device with noise on.
NOISY_STATE_FIDELITY = {"0": 0.807210436138, "1": 0.677722871164, "minus": 0.717430544059, "plus": 0.71772906911}
# Shot-noise band for a 10,000-shot reconstruction. Each target is a
# stabilizer state, so its fidelity is (1 + sum of 7 signed Pauli estimates)/8
# with per-estimate sigma <= 0.01: sigma_F <= sqrt(7)*0.01/8 = 0.0033. The
# band is six of those; 400 seeds per input deviated by at most 0.0083.
SHOT_BAND = 0.02

_TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",?\n', flags=re.MULTILINE)


@dataclass
class Op:
    """One CLI call: wall time, exit code, captured streams, files written."""

    seconds: float
    code: int
    stdout: str
    stderr: str
    files: dict[str, str] = field(default_factory=dict)

    def comparable(self) -> tuple:
        """Everything the op emitted, with the report timestamp removed."""
        files = {name: _TIMESTAMP.sub("", text) for name, text in sorted(self.files.items())}
        return self.code, self.stdout, self.stderr, files


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol


def _load(op: Op, name: str, problems: list[str]) -> dict | None:
    if op.code != 0:
        problems.append(f"exit code {op.code}: {op.stderr.strip()}")
        return None
    if name not in op.files:
        problems.append(f"{name} was not written")
        return None
    try:
        report = json.loads(op.files[name])
    except json.JSONDecodeError as exc:
        problems.append(f"{name} does not parse: {exc}")
        return None
    if report.get("schema") != SCHEMA:
        problems.append(f"{name} has schema {report.get('schema')!r}, expected {SCHEMA}")
        return None
    return report


def _rho_from_pauli_set(pauli_set: dict) -> np.ndarray:
    rho = np.eye(8, dtype=complex)
    for label, value in zip(pauli_set["labels"], pauli_set["values"]):
        rho += value * reduce(np.kron, (_PAULI[ch] for ch in label))
    return rho / 8.0


def eigen_average_tangle(rho: np.ndarray) -> float:
    """Average tangle of the eigendecomposition: the loosest bound the search may return."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    lam = vals[keep] / vals[keep].sum()
    return float(sum(p * three_tangle_pure(v) for p, v in zip(lam, vecs[:, keep].T)))


def _check_tangle(label: str, bound: float, rho: np.ndarray, problems: list[str]) -> None:
    upper = eigen_average_tangle(rho)
    if not -EXACT_TOL <= bound <= upper + TANGLE_TOL:
        problems.append(f"{label}: tangle bound {bound} outside [0, {upper}]")


def check_bench(op: Op, noisy: bool) -> tuple[list[str], list[float]]:
    """Checks for ``telebench bench --format both`` with shots 0."""
    problems: list[str] = []
    report = _load(op, "report.json", problems)
    if report is None:
        return problems, []
    tangles = []
    for label in INPUTS:
        entry = report["states"][label]
        fidelity = entry["state_fidelity"]
        expected = NOISY_STATE_FIDELITY[label] if noisy else 1.0
        if not _close(fidelity, expected):
            problems.append(f"{label}: state fidelity {fidelity}, expected {expected}")
        probabilities = [entry["outcomes"][o]["probability"] for o in OUTCOMES]
        if not _close(sum(probabilities), 1.0):
            problems.append(f"{label}: outcome probabilities sum to {sum(probabilities)}")
        if not noisy:
            for outcome in OUTCOMES:
                o = entry["outcomes"][outcome]
                if not (_close(o["probability"], 0.25) and _close(o["conditional_fidelity"], 1.0)):
                    problems.append(f"{label}/{outcome}: ideal outcome reads {o}")
        if label in ENTANGLED:
            tangles.append(entry["three_tangle_upper"])
            _check_tangle(label, entry["three_tangle_upper"], _rho_from_pauli_set(entry["pauli_set"]), problems)
    for outcome in OUTCOMES:
        proc = report["processes"][outcome]
        if proc["skipped"]:
            problems.append(f"process {outcome} skipped")
            continue
        fp, fbar = proc["process_fidelity"], proc["average_output_fidelity"]
        if not _close(fbar, (2.0 * fp + 1.0) / 3.0):
            problems.append(f"process {outcome}: Fbar {fbar} != (2*{fp}+1)/3")
        if not noisy and not (_close(fp, 1.0) and _close(fbar, 1.0)):
            problems.append(f"process {outcome}: ideal Fp {fp}, Fbar {fbar}")
    rows = list(csv.reader(io.StringIO(op.files.get("report.csv", ""))))
    csv_fidelity = {r[0]: float(r[3]) for r in rows[1:] if r[2] == "state_fidelity"}
    if not rows or rows[0] != ["input", "outcome", "metric", "value"]:
        problems.append("report.csv is missing or has the wrong header")
    elif csv_fidelity != {label: report["states"][label]["state_fidelity"] for label in INPUTS}:
        problems.append(f"report.csv state fidelities {csv_fidelity} disagree with report.json")
    return problems, tangles


def check_state(op: Op, label: str) -> tuple[list[str], list[float]]:
    """Checks for ``telebench state <label>`` with noise on and 10,000 shots."""
    problems: list[str] = []
    result = _load(op, f"state_{label}.json", problems)
    if result is None:
        return problems, []
    try:
        rho = DensityMatrix(np.array(result["rho"]["real"]) + 1j * np.array(result["rho"]["imag"]))
    except ValueError as exc:
        problems.append(f"{label}: emitted rho is not a density matrix: {exc}")
        return problems, []
    fidelity = result["state_fidelity"]
    phi = ideal_phi(INPUT_KETS[label])
    if not _close(fidelity, float(np.real(phi.conj() @ rho.matrix @ phi))):
        problems.append(f"{label}: reported fidelity {fidelity} disagrees with the emitted rho")
    if abs(fidelity - NOISY_STATE_FIDELITY[label]) > SHOT_BAND:
        problems.append(f"{label}: fidelity {fidelity} outside {NOISY_STATE_FIDELITY[label]} +- {SHOT_BAND}")
    tangles = []
    if label in ENTANGLED:
        tangles.append(result["three_tangle_upper"])
        _check_tangle(label, result["three_tangle_upper"], rho.matrix, problems)
    return problems, tangles
