"""End-to-end benchmark: circuit, tomography, conditional projection,
process tomography, and figure-of-merit assembly.

The pipeline runs the compiled circuit for the four canonical input states,
reconstructs each output state from (simulated) joint readout, projects
onto the four two-qubit outcomes, and characterizes the conditional
transfer to qubit C as a process matrix in the operator basis
{I, X, Y~ = -i*sigma_y, Z}. Published reference values for the modeled
device are embedded in every report for side-by-side display; they are
annotations, not targets.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

from .circuit import (
    Circuit,
    DeviceParams,
    TELEPORT_BRANCH_OPS,
    apply_circuit,
    build_teleport_circuit,
    ideal_phi,
)
from .entanglement import three_tangle_mixed_upper, witness_evaluate
from .qops import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    computational_ket,
    nearest_physical,
    state_fidelity_pure,
)
from .tomography import PAULI_LABELS, mle_reconstruct, pauli_set, simulate_readout

SCHEMA_VERSION = 1

INPUT_LABELS = ("0", "1", "minus", "plus")
INPUT_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "minus": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "plus": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
}
# Inputs whose ideal output is genuinely tripartite entangled; the witness
# (with alpha = 1/2) and the tangle bound are only meaningful for these.
ENTANGLED_INPUT_LABELS = ("minus", "plus")
WITNESS_ALPHA = 0.5

OUTCOMES = ("00", "01", "10", "11")

CHI_LABELS = ("I", "X", "Y~", "Z")
CHI_BASIS = (ID2, PAULI_X, -1j * PAULI_Y, PAULI_Z)
_IDEAL_CHI_INDEX = {"00": 0, "01": 1, "10": 3, "11": 2}

# Probability floor below which an outcome's conditional tomography is
# skipped and flagged: analytic mode uses an absolute floor, sampled mode
# requires a minimum number of effective counts.
ANALYTIC_PROBABILITY_FLOOR = 1e-6
SAMPLED_MIN_COUNTS = 10

# Published measurements for the modeled device, reported alongside the
# simulated values. The device's full error budget (readout imperfections,
# coherent errors) is not modeled, so these are reference annotations only.
PAPER_REFERENCE = {
    "state_fidelity": {"0": 0.82, "1": 0.79, "minus": 0.78, "plus": 0.80},
    "process_fidelity": {"00": 0.82, "01": 0.78, "10": 0.84, "11": 0.87},
    "average_output_fidelity": {"00": 0.88, "01": 0.85, "10": 0.89, "11": 0.91},
    "mean_process_fidelity": 0.83,
    "mean_average_output_fidelity": 0.88,
    "witness_expectation": -0.28,
    "robustness_lower_bound": 0.56,
    "three_tangle": {"minus": 0.49, "plus": 0.52},
}


def conditional_output_state(rho_m: DensityMatrix, outcome: str) -> tuple[DensityMatrix, float]:
    """Project qubits A, B onto a computational outcome and reduce to C.

    Returns the renormalized single-qubit state of qubit C and the outcome
    probability. Raises when the outcome probability vanishes.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
    if rho_m.num_qubits != 3:
        raise ValueError("conditional projection expects a three-qubit state")
    i, j = int(outcome[0]), int(outcome[1])
    block = rho_m.matrix.reshape((2,) * 6)[i, j, :, i, j, :]
    probability = float(np.trace(block).real)
    if probability < 1e-12:
        raise ValueError("outcome has vanishing probability")
    return DensityMatrix(block / probability), probability


def process_tomography(input_kets, output_states) -> np.ndarray:
    """Reconstruct the single-qubit process matrix from input/output pairs.

    Solves rho_out = sum_mn chi_mn B_m rho_in B_n^dag as a least-squares
    linear system over the supplied states, then hermitizes, projects onto
    the positive cone by eigenvalue truncation, and renormalizes the trace.
    """
    kets = [np.asarray(k, dtype=complex).reshape(-1) for k in input_kets]
    outs = list(output_states)
    if len(kets) != len(outs) or len(kets) < 4:
        raise ValueError("need at least four matched input/output states")
    rho_ins = np.array([np.outer(psi, psi.conj()) for psi in kets])
    basis = np.array(CHI_BASIS)
    # design[(input, i, j), (m, n)] = (B_m rho_in B_n^dag)[i, j]
    design = np.einsum("mik,pkl,njl->pijmn", basis, rho_ins, basis.conj()).reshape(-1, 16)
    rhs = np.array([getattr(out, "matrix", out) for out in outs], dtype=complex).reshape(-1)
    if np.linalg.matrix_rank(design, tol=1e-9) < 16:
        raise ValueError("singular design matrix: input states are not tomographically complete")
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return np.array(nearest_physical(solution.reshape(4, 4)).matrix)


def ideal_chi(outcome: str) -> np.ndarray:
    """Ideal process matrix for an outcome: a single unit diagonal entry
    (00 -> II, 01 -> XX, 10 -> ZZ, 11 -> Y~Y~)."""
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
    chi = np.zeros((4, 4), dtype=complex)
    k = _IDEAL_CHI_INDEX[outcome]
    chi[k, k] = 1.0
    return chi


def process_fidelity(chi_m: np.ndarray, chi_t: np.ndarray) -> float:
    """Process fidelity Tr(chi_m . chi_t), clamped to [0, 1]."""
    val = complex(np.trace(np.asarray(chi_m) @ np.asarray(chi_t)))
    if abs(val.imag) >= 1e-9:
        raise ValueError(f"process fidelity has imaginary residue {val.imag:.3e}")
    return min(1.0, max(0.0, float(val.real)))


def average_output_fidelity(fp: float) -> float:
    """Average output state fidelity (2*Fp + 1)/3."""
    if not -1e-12 <= fp <= 1.0 + 1e-12:
        raise ValueError(f"process fidelity must lie in [0, 1], got {fp}")
    return (2.0 * min(1.0, max(0.0, fp)) + 1.0) / 3.0


def _derived_seed(seed: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence([int(seed) % (2**63), stream, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _pack_matrix(m: np.ndarray) -> dict:
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _pack_pauli_set(values: np.ndarray) -> dict:
    return {"labels": list(PAULI_LABELS), "values": [float(v) for v in values]}


def device_hash(device: DeviceParams) -> str:
    """Stable hash of the device parameters, for the report metadata."""
    text = json.dumps(device.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _metadata(device: DeviceParams, shots: int, seed: int, noise: bool, restarts: int) -> dict:
    return {
        "seed": int(seed),
        "shots": int(shots),
        "noise": bool(noise),
        "restarts": int(restarts),
        "device": device.to_dict(),
        "device_hash": device_hash(device),
    }


def _run_input(
    circuit: Circuit, device: DeviceParams, label: str, shots: int, seed: int, noise: bool, restarts: int
) -> tuple[dict, DensityMatrix]:
    """Per-input stage shared by :func:`run_benchmark` and :func:`run_state`.

    Evolution -> readout -> physical reconstruction -> state fidelity and
    Pauli sets, plus witness and tangle bound for the entangled inputs.
    Returns the figures of merit and the reconstructed state.
    """
    index = INPUT_LABELS.index(label)
    psi = INPUT_KETS[label]
    ket0 = computational_ket(0, 2)
    rho_in = DensityMatrix.from_ket(np.kron(psi, np.kron(ket0, ket0)))
    rho_out = apply_circuit(circuit, rho_in, device if noise else None)
    record = simulate_readout(rho_out, shots, _derived_seed(seed, 0, index), state_label=label)
    rho_m = mle_reconstruct(record)
    phi = ideal_phi(psi)
    entry: dict = {
        "state_fidelity": state_fidelity_pure(rho_m, phi),
        "pauli_set": _pack_pauli_set(pauli_set(rho_m)),
        "pauli_set_ideal": _pack_pauli_set(pauli_set(DensityMatrix.from_ket(phi))),
    }
    if label in ENTANGLED_INPUT_LABELS:
        entry["witness"] = witness_evaluate(rho_m, phi, WITNESS_ALPHA).to_dict()
        entry["three_tangle_upper"] = three_tangle_mixed_upper(
            rho_m, restarts=restarts, seed=_derived_seed(seed, 1, index)
        )
    return entry, rho_m


def run_benchmark(
    device: DeviceParams,
    shots: int = 0,
    seed: int = 0,
    noise: bool = False,
    restarts: int = 200,
) -> dict:
    """Run the full benchmark and return the report as a plain dict.

    For each canonical input, the per-input stage (:func:`_run_input`).
    Then, per measurement outcome: conditional states for all inputs ->
    process tomography -> process and average output fidelities.
    Deterministic for a given seed; per-input substreams keep the four
    pipelines independent.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    circuit = build_teleport_circuit("compiled_fig1b")

    states_block: dict[str, dict] = {}
    conditionals: dict[str, dict[str, DensityMatrix]] = {o: {} for o in OUTCOMES}
    probabilities: dict[str, dict[str, float]] = {o: {} for o in OUTCOMES}
    for label in INPUT_LABELS:
        entry, rho_m = _run_input(circuit, device, label, shots, seed, noise, restarts)
        entry["outcomes"] = {}
        for outcome in OUTCOMES:
            rho_c, probability = conditional_output_state(rho_m, outcome)
            branch = TELEPORT_BRANCH_OPS[outcome] @ INPUT_KETS[label]
            entry["outcomes"][outcome] = {
                "probability": probability,
                "conditional_fidelity": state_fidelity_pure(rho_c, branch),
            }
            conditionals[outcome][label] = rho_c
            probabilities[outcome][label] = probability
        states_block[label] = entry

    processes_block: dict[str, dict] = {}
    fps = []
    fbars = []
    for outcome in OUTCOMES:
        floor_hit = any(
            (probabilities[outcome][label] < ANALYTIC_PROBABILITY_FLOOR)
            if shots == 0
            else (probabilities[outcome][label] * shots < SAMPLED_MIN_COUNTS)
            for label in INPUT_LABELS
        )
        if floor_hit:
            processes_block[outcome] = {"skipped": True}
            continue
        chi = process_tomography(
            [INPUT_KETS[label] for label in INPUT_LABELS],
            [conditionals[outcome][label] for label in INPUT_LABELS],
        )
        fp = process_fidelity(chi, ideal_chi(outcome))
        fbar = average_output_fidelity(fp)
        processes_block[outcome] = {
            "skipped": False,
            "chi": _pack_matrix(chi),
            "process_fidelity": fp,
            "average_output_fidelity": fbar,
        }
        fps.append(fp)
        fbars.append(fbar)

    report = {
        "schema": SCHEMA_VERSION,
        "metadata": _metadata(device, shots, seed, noise, restarts),
        "states": states_block,
        "processes": processes_block,
        "averages": {
            "mean_state_fidelity": float(np.mean([states_block[l]["state_fidelity"] for l in INPUT_LABELS])),
            "mean_process_fidelity": float(np.mean(fps)) if fps else None,
            "mean_average_output_fidelity": float(np.mean(fbars)) if fbars else None,
        },
        "paper_reference": PAPER_REFERENCE,
    }
    return report


def run_state(
    device: DeviceParams,
    label: str,
    shots: int = 0,
    seed: int = 0,
    noise: bool = False,
    restarts: int = 200,
) -> dict:
    """Single-input drill-down: the reconstructed state and its figures of merit.

    Runs the same per-input stage as :func:`run_benchmark`, so its entries
    equal that report's ``states[label]`` apart from ``outcomes``, and
    additionally emits the reconstructed density matrix as real/imag arrays.
    """
    if label not in INPUT_LABELS:
        raise ValueError(f"input label must be one of {INPUT_LABELS}, got {label!r}")
    circuit = build_teleport_circuit("compiled_fig1b")
    entry, rho_m = _run_input(circuit, device, label, shots, seed, noise, restarts)
    return {
        "schema": SCHEMA_VERSION,
        "input": label,
        "rho": _pack_matrix(np.array(rho_m.matrix)),
        **entry,
        "metadata": _metadata(device, shots, seed, noise, restarts),
    }


def _round_sig(value, digits: int = 12):
    """Round floats to a fixed significant-digit budget, recursively."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v, digits) for v in value]
    return value


def report_json_text(report: dict) -> str:
    """Serialize a report deterministically (12 significant digits)."""
    return json.dumps(_round_sig(report), sort_keys=True, indent=2) + "\n"


def report_csv_rows(report: dict) -> list[tuple[str, str, str, float]]:
    """Flatten the report's scalar metrics to (input, outcome, metric, value)."""
    rows: list[tuple[str, str, str, float]] = []
    for label in INPUT_LABELS:
        entry = report["states"][label]
        rows.append((label, "", "state_fidelity", entry["state_fidelity"]))
        if "witness" in entry:
            for key in ("alpha", "expectation", "robustness_lower_bound"):
                rows.append((label, "", f"witness_{key}", entry["witness"][key]))
            rows.append((label, "", "three_tangle_upper", entry["three_tangle_upper"]))
        for outcome in OUTCOMES:
            o = entry["outcomes"][outcome]
            rows.append((label, outcome, "probability", o["probability"]))
            rows.append((label, outcome, "conditional_fidelity", o["conditional_fidelity"]))
    for outcome in OUTCOMES:
        proc = report["processes"][outcome]
        if proc.get("skipped"):
            continue
        rows.append(("", outcome, "process_fidelity", proc["process_fidelity"]))
        rows.append(("", outcome, "average_output_fidelity", proc["average_output_fidelity"]))
    for key, value in report["averages"].items():
        if value is not None:
            rows.append(("", "", key, value))
    return rows


def report_csv_text(report: dict) -> str:
    """Serialize the flat CSV form with the same rounding as the JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["input", "outcome", "metric", "value"])
    for label, outcome, metric, value in report_csv_rows(report):
        writer.writerow([label, outcome, metric, repr(_round_sig(float(value)))])
    return buf.getvalue()
