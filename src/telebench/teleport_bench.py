"""End-to-end benchmark: circuit, tomography, conditional projection,
process tomography, and figure-of-merit assembly.

The pipeline runs the compiled circuit for the four canonical input states,
reconstructs each output state from (simulated) joint readout, projects
onto the four two-qubit outcomes, and characterizes the conditional
transfer to qubit C as a process matrix in the operator basis
{I, X, Y~ = -i*sigma_y, Z}. The four states of a run travel as one stack:
evolution, readout, reconstruction, Pauli sets and fidelities are one call
each, the conditional projection one call per outcome, and :func:`run_state`
takes the same path with a stack of one. The inputs are fixed, so process
tomography of an outcome is one product with a constant 16x16 inverse built
at import (the fixed-input prescription of Chuang & Nielsen, J. Mod. Opt.
44, 2455 (1997)), made a 4x4 DensityMatrix. Every ideal chi is a pure state
c c^dag, so the process fidelity Tr(chi . c c^dag) = <c|chi|c> is a
``state_fidelity_pure`` like every other fidelity of a report. Published
reference values for the modeled device are embedded in every report for
side-by-side display; they are annotations, not targets.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .circuit import (
    DeviceParams,
    TELEPORT_BRANCH_OPS,
    apply_circuit,
    build_teleport_circuit,
    ideal_phi,
)
from .entanglement import DEFAULT_RESTARTS, MAX_RESTARTS, three_tangle_mixed_upper, witness_evaluate
from .qops import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_members,
    computational_ket,
    nearest_physical,
    require_count,
    require_integer,
    state_fidelity_pure,
    state_stack,
)
from .tomography import MAX_SHOTS, PAULI_LABELS, mle_reconstruct, pauli_set, simulate_readout

SCHEMA_VERSION = 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


INPUT_LABELS = ("0", "1", "minus", "plus")
INPUT_KETS = {
    "0": _read_only(np.array([1.0, 0.0], dtype=complex)),
    "1": _read_only(np.array([0.0, 1.0], dtype=complex)),
    "minus": _read_only(np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)),
    "plus": _read_only(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
}
# Inputs whose ideal output is genuinely tripartite entangled; the witness
# (with alpha = 1/2) and the tangle bound are only meaningful for these.
ENTANGLED_INPUT_LABELS = ("minus", "plus")
WITNESS_ALPHA = 0.5

OUTCOMES = ("00", "01", "10", "11")

CHI_BASIS = (ID2, PAULI_X, -1j * PAULI_Y, PAULI_Z)

# Probability floor below which an outcome's conditional tomography is
# skipped and flagged: analytic mode uses an absolute floor, sampled mode
# requires a minimum number of effective counts.
ANALYTIC_PROBABILITY_FLOOR = 1e-6
SAMPLED_MIN_COUNTS = 10
# Below this probability an outcome has no conditional state to renormalize:
# :func:`conditional_output_state` refuses it, and a run skips the outcome.
VANISHING_PROBABILITY = 1e-12

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


# The run's fixed inputs, built once at import: the compiled circuit; per
# input, the start state |psi>|00>, the ideal output ket and its exact Pauli
# set; per outcome, the four inputs' ideal branch kets of qubit C as one
# (4, 2) stack. All are immutable, and reports copy their values, so no
# report aliases them.
_CIRCUIT = build_teleport_circuit()
_KET00 = np.kron(computational_ket(0, 2), computational_ket(0, 2))
_INPUT_STATES = {label: DensityMatrix.from_ket(np.kron(psi, _KET00)) for label, psi in INPUT_KETS.items()}
_IDEAL_KETS = {label: _read_only(ideal_phi(psi)) for label, psi in INPUT_KETS.items()}
_IDEAL_PAULI_SETS = dict(
    zip(_IDEAL_KETS, _read_only(pauli_set([DensityMatrix.from_ket(phi) for phi in _IDEAL_KETS.values()])))
)
_BRANCH_KETS = {
    outcome: _read_only(np.array([op @ INPUT_KETS[label] for label in INPUT_LABELS]))
    for outcome, op in TELEPORT_BRANCH_OPS.items()
}
# Per outcome, in OUTCOMES order, the c of the ideal process matrix chi = c c^dag: c_m = Tr(B_m^dag U)/2
# expands its correction operator U in CHI_BASIS, exactly, as each U is a basis element up to sign.
_BRANCH_COEFFS = np.einsum("mij,kij->km", np.conj(CHI_BASIS), list(TELEPORT_BRANCH_OPS.values())) / 2.0
# The process-tomography design over the four inputs is square,
# design[(input, i, j), (m, n)] = (B_m rho_in B_n^dag)[i, j], and well
# conditioned (condition number about 3.2), so chi is one product with its inverse.
_RHO_INS = [np.outer(INPUT_KETS[label], INPUT_KETS[label].conj()) for label in INPUT_LABELS]
_CHI_SOLVE = _read_only(
    np.linalg.inv(np.einsum("mik,pkl,njl->pijmn", CHI_BASIS, _RHO_INS, np.conj(CHI_BASIS)).reshape(16, 16))
)


def conditional_output_state(rho_m, outcome: str):
    """Project qubits A, B onto a computational outcome and reduce to C.

    For one three-qubit :class:`DensityMatrix`, returns the renormalized
    single-qubit state of qubit C and the outcome probability. For a
    sequence of them, returns the list of states and an array of the
    probabilities. Raises when an outcome probability vanishes, naming the
    member of a sequence.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
    m, single = state_stack(rho_m, 8)
    i, j = int(outcome[0]), int(outcome[1])
    blocks = m.reshape((len(m),) + (2,) * 6)[:, i, j, :, i, j, :]
    probabilities = blocks.trace(axis1=1, axis2=2).real
    check_members(
        probabilities, lambda p: p < VANISHING_PROBABILITY, lambda p: "outcome has vanishing probability", single
    )
    out = blocks / probabilities[:, np.newaxis, np.newaxis]
    return (DensityMatrix(out[0]), float(probabilities[0])) if single else (DensityMatrix.stack(out), probabilities)


def process_tomography(output_states) -> DensityMatrix:
    """Reconstruct the single-qubit process matrix from the outputs of the
    four canonical inputs, given in :data:`INPUT_LABELS` order.

    rho_out = sum_mn chi_mn B_m rho_in B_n^dag over the four fixed inputs is
    a square linear system, so chi is one product with the constant inverse
    ``_CHI_SOLVE``; :func:`nearest_physical` then hermitizes it, projects it
    onto the positive cone by eigenvalue truncation and renormalizes it to
    unit trace. So chi is returned as a 4x4 :class:`DensityMatrix`, and its
    process fidelity against an ideal chi = c c^dag, which is pure, is
    ``state_fidelity_pure(chi, c)`` = <c|chi|c> = Tr(chi . c c^dag).
    """
    outs, _ = state_stack(output_states, 2)
    if len(outs) != len(INPUT_LABELS):
        raise ValueError(f"need the {len(INPUT_LABELS)} single-qubit outputs of the inputs {INPUT_LABELS}")
    return nearest_physical((_CHI_SOLVE @ outs.reshape(-1)).reshape(4, 4))


def ideal_chi(outcome: str) -> np.ndarray:
    """Ideal process matrix for an outcome, derived from its correction operator in
    :data:`TELEPORT_BRANCH_OPS`: a single unit diagonal entry (00 -> II, 01 -> XX,
    10 -> ZZ, 11 -> Y~Y~)."""
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
    c = _BRANCH_COEFFS[OUTCOMES.index(outcome)]
    return np.outer(c, c.conj())


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


def check_run_settings(shots, seed, noise, restarts) -> tuple[int, int, bool, int]:
    """The run settings as int, int, bool and int: their one check, for the runs and the CLI.

    Raises ``ValueError`` unless ``qops.require_count`` finds ``shots`` in [0, ``tomography.MAX_SHOTS``]
    and ``restarts`` in [1, ``entanglement.MAX_RESTARTS``], ``seed`` is an integer and ``noise`` a bool
    (numpy integers and bools pass; floats do not, nor booleans as integers).
    """
    if not isinstance(noise, (bool, np.bool_)):
        raise ValueError(f"noise must be a bool, got {noise!r}")
    shots = require_count("shots", shots, 0, MAX_SHOTS)
    return shots, require_integer("seed", seed), bool(noise), require_count("restarts", restarts, 1, MAX_RESTARTS)


def _metadata(device: DeviceParams, shots: int, seed: int, noise: bool, restarts: int) -> dict:
    """The checked run settings and the device parameters, with a stable hash of the latter."""
    params = device.to_dict()
    return {
        "seed": seed,
        "shots": shots,
        "noise": noise,
        "restarts": restarts,
        "device": params,
        "device_hash": hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest(),
    }


def _run_inputs(device: DeviceParams, labels, shots: int, seed: int, noise: bool, restarts: int):
    """The settings checks and state stage shared by :func:`run_benchmark` and :func:`run_state`.

    Checks the settings (:func:`check_run_settings`) and the device's type before any work,
    then evolution -> readout -> physical reconstruction -> state fidelities
    and Pauli sets, each one call on the whole stack of inputs, plus witness
    and tangle bound for each entangled input. Each input reads out from its
    own stream; the tangle bounds of a run share one seed, that of ``minus``.
    Only the seeds a run uses are derived: readout seeds when ``shots > 0``,
    the tangle seed once and when an entangled input is present.
    Returns the run metadata, the figures of merit per input and the
    reconstructed states.
    """
    shots, seed, noise, restarts = check_run_settings(shots, seed, noise, restarts)
    if not isinstance(device, DeviceParams):
        raise TypeError(f"device must be a DeviceParams, got {type(device).__name__}")
    rhos_out = apply_circuit(_CIRCUIT, [_INPUT_STATES[label] for label in labels], device if noise else None)
    indices = [INPUT_LABELS.index(label) for label in labels]
    readout_seeds = [_derived_seed(seed, 0, k) for k in indices] if shots else [0] * len(indices)
    rhos_m = mle_reconstruct(simulate_readout(rhos_out, shots, readout_seeds))
    fidelities = state_fidelity_pure(rhos_m, np.array([_IDEAL_KETS[label] for label in labels]))
    entangled = any(label in ENTANGLED_INPUT_LABELS for label in labels)
    tangle_seed = _derived_seed(seed, 1, INPUT_LABELS.index("minus")) if entangled else None
    entries = []
    for label, rho_m, fidelity, values in zip(labels, rhos_m, fidelities, pauli_set(rhos_m)):
        entry: dict = {
            "state_fidelity": float(fidelity),
            "pauli_set": _pack_pauli_set(values),
            "pauli_set_ideal": _pack_pauli_set(_IDEAL_PAULI_SETS[label]),
        }
        if label in ENTANGLED_INPUT_LABELS:
            entry["witness"] = witness_evaluate(rho_m, _IDEAL_KETS[label], WITNESS_ALPHA).to_dict()
            entry["three_tangle_upper"] = three_tangle_mixed_upper(rho_m, restarts=restarts, seed=tangle_seed)
        entries.append(entry)
    return _metadata(device, shots, seed, noise, restarts), entries, rhos_m


def _mean(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def run_benchmark(
    device: DeviceParams,
    shots: int = 0,
    seed: int = 0,
    noise: bool = False,
    restarts: int = DEFAULT_RESTARTS,
) -> dict:
    """Run the full benchmark and return the report as a plain dict.

    The four inputs go through the state stage (:func:`_run_inputs`) as one stack. Then one pass
    per outcome decides from its least probability over the inputs whether it is *projected* (not
    below :data:`VANISHING_PROBABILITY`), with conditional fidelities, else ``None``, and whether it
    is *kept* (projected, and not below the run's floor: 1e-6 at ``shots == 0``, else 10 counts),
    with a process matrix and fidelities, else ``{"skipped": True}``. Its process fidelity is chi's
    fidelity to the pure ideal chi = c c^dag (see :func:`process_tomography`). Deterministic for a
    given seed: each input reads out from its own substream, and the two entangled inputs bound their
    tangle from one substream. Raises before any work: ``ValueError`` for settings that
    :func:`check_run_settings` rejects, ``TypeError`` unless ``device`` is a :class:`DeviceParams`.
    """
    metadata, entries, rhos_m = _run_inputs(device, INPUT_LABELS, shots, seed, noise, restarts)
    scale, floor = (metadata["shots"], SAMPLED_MIN_COUNTS) if metadata["shots"] else (1, ANALYTIC_PROBABILITY_FLOOR)
    # Row ij holds outcome ij's probability per input: the sum of the two diagonal entries with A, B in ij.
    table = np.array([rho.matrix.diagonal().real for rho in rhos_m]).reshape(-1, 4, 2).sum(axis=2).T.tolist()
    records, processes = [{} for _ in entries], {}
    for outcome, probabilities, coeffs in zip(OUTCOMES, table, _BRANCH_COEFFS):
        projected = (least := min(probabilities)) >= VANISHING_PROBABILITY
        kept = projected and least * scale >= floor
        fidelities, processes[outcome] = [None] * len(entries), {"skipped": True}
        if projected:
            rhos_c, _ = conditional_output_state(rhos_m, outcome)
            fidelities = state_fidelity_pure(rhos_c, _BRANCH_KETS[outcome]).tolist()
        if kept:
            chi = process_tomography(rhos_c)
            fp = state_fidelity_pure(chi, coeffs)
            fps = {"process_fidelity": fp, "average_output_fidelity": average_output_fidelity(fp)}
            processes[outcome] = {"skipped": False, "chi": _pack_matrix(chi.matrix), **fps}
        for record, probability, fidelity in zip(records, probabilities, fidelities):
            record[outcome] = {"probability": probability, "conditional_fidelity": fidelity}
    done = [process for process in processes.values() if not process["skipped"]]
    return {
        "schema": SCHEMA_VERSION,
        "metadata": metadata,
        "states": {label: {**entry, "outcomes": rec} for label, entry, rec in zip(INPUT_LABELS, entries, records)},
        "processes": processes,
        "averages": {
            "mean_state_fidelity": _mean([entry["state_fidelity"] for entry in entries]),
            "mean_process_fidelity": _mean([process["process_fidelity"] for process in done]),
            "mean_average_output_fidelity": _mean([process["average_output_fidelity"] for process in done]),
        },
        "paper_reference": PAPER_REFERENCE,
    }


def run_state(
    device: DeviceParams,
    label: str,
    shots: int = 0,
    seed: int = 0,
    noise: bool = False,
    restarts: int = DEFAULT_RESTARTS,
) -> dict:
    """Single-input drill-down: the reconstructed state and its figures of merit.

    Runs the same state stage as :func:`run_benchmark` with a stack of one,
    so its entries equal that report's ``states[label]`` apart from
    ``outcomes``, and additionally emits the reconstructed density matrix as
    real/imag arrays.
    """
    if label not in INPUT_LABELS:
        raise ValueError(f"input label must be one of {INPUT_LABELS}, got {label!r}")
    metadata, (entry,), (rho_m,) = _run_inputs(device, (label,), shots, seed, noise, restarts)
    return {
        "schema": SCHEMA_VERSION,
        "input": label,
        "rho": _pack_matrix(rho_m.matrix),
        **entry,
        "metadata": metadata,
    }


# JSON spellings of the constants and of the float reprs "nan", "inf" and "-inf".
_JSON_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values, words: dict) -> list[str]:
    """``repr`` of each value rounded to 12 significant digits, nan and infinities respelled by ``words``.
    A ``.12g`` text without an exponent is that ``repr`` already, bar the ``.0`` of integers: a decimal
    of at most 15 significant digits is the shortest text of its double, and both print it fixed."""
    texts = [format(v, ".12g") for v in values]
    return [
        words.get(r := float.__repr__(float(s)), r) if "e" in s or "n" in s else s if "." in s else s + ".0"
        for s in texts
    ]


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, indented two spaces per level after ``pad``, to ``out``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_WORDS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out += _float_texts((value,), _JSON_WORDS)
    elif isinstance(value, dict):
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out += (",\n" if i else "{\n", pad, "  ", encode_basestring_ascii(key), ": ")
            _write_json(value[key], pad + "  ", out)
        out += ("\n", pad, "}") if value else ("{}",)
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {float} or kinds == {str}:
            items = _float_texts(value, _JSON_WORDS) if float in kinds else map(encode_basestring_ascii, value)
            out += ("[\n", pad, "  ", (",\n  " + pad).join(items))
        else:
            for i, item in enumerate(value):
                out += (",\n" if i else "[\n", pad, "  ")
                _write_json(item, pad + "  ", out)
        out += ("\n", pad, "]") if value else ("[]",)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_json_text(report: dict) -> str:
    """Serialize a report deterministically: ``json.dumps(sort_keys=True, indent=2)`` of the report
    with floats rounded to 12 significant digits, plus a newline. Raises ``TypeError`` where
    ``json.dumps`` would (arrays, NumPy integers, sets, other objects) and on non-``str`` keys."""
    out: list[str] = []
    _write_json(report, "", out)
    return "".join(out) + "\n"


def _numeric_leaves(tree: dict, path: tuple = ()):
    """(key path, value) of each int or float leaf but bools, in insertion order; lists are not walked."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,), value


def report_csv_rows(report: dict) -> list[tuple[str, str, str, float]]:
    """Flatten the report to (input, outcome, metric, value): each numeric leaf of ``states/<input>``,
    its ``outcomes/<outcome>``, ``processes/<outcome>`` and ``averages``, in the report's order, named
    by its key path below the input and outcome joined with ``_`` (``witness/alpha`` is ``witness_alpha``)."""
    rows: list[tuple[str, str, str, float]] = []
    for label, entry in report["states"].items():
        for path, value in _numeric_leaves(entry):
            outcome, path = (path[1], path[2:]) if path[0] == "outcomes" else ("", path)
            rows.append((label, outcome, "_".join(path), value))
    for outcome, block in (*report["processes"].items(), ("", report["averages"])):
        rows += (("", outcome, "_".join(path), value) for path, value in _numeric_leaves(block))
    return rows


def report_csv_text(report: dict) -> str:
    """Serialize the flat CSV form with the same rounding as the JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["input", "outcome", "metric", "value"])
    rows = report_csv_rows(report)
    texts = _float_texts([float(row[3]) for row in rows], {})
    writer.writerows((*row[:3], text) for row, text in zip(rows, texts))
    return buf.getvalue()
