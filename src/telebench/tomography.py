"""Simulated joint Pauli readout and state reconstruction.

Readout is modeled as ideal projective measurement of each of the 63
nontrivial three-qubit Pauli strings with binomial shot noise; the
dispersive transfer function of the physical joint readout is out of scope.
Reconstruction is linear inversion over the Pauli basis followed by
projection onto the physical set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qops import STRUCTURAL_TOL, DensityMatrix, nearest_physical, pauli_operator

# All 63 nontrivial Pauli strings in lexicographic order with I < X < Y < Z,
# leftmost character acting on qubit A.
PAULI_LABELS: tuple[str, ...] = tuple(
    "".join(p) for p in itertools.product("IXYZ", repeat=3) if p != ("I", "I", "I")
)
_LABEL_SET = frozenset(PAULI_LABELS)

# The 63 operators in PAULI_LABELS order, built once: shape (63, 8, 8).
PAULI_STACK = np.array([pauli_operator(label) for label in PAULI_LABELS])
PAULI_STACK.setflags(write=False)


@dataclass(frozen=True)
class TomographyRecord:
    """Estimated Pauli expectation values for one prepared state.

    ``entries`` holds (label, estimated expectation, shot count) triples.
    A shot count of 0 marks an analytic (exact) entry. Duplicate labels and
    out-of-range estimates are rejected here; completeness over all 63
    strings is checked where the record is consumed.
    """

    entries: tuple[tuple[str, float, int], ...]
    state_label: str = ""

    def __post_init__(self):
        seen = set()
        for label, value, shots in self.entries:
            if label not in _LABEL_SET:
                raise ValueError(f"unknown Pauli label {label!r}")
            if label in seen:
                raise ValueError(f"duplicate Pauli label {label!r}")
            seen.add(label)
            if abs(value) > 1.0 + 1e-12:
                raise ValueError(f"expectation for {label} out of range: {value}")
            if shots < 0:
                raise ValueError("shot count must be non-negative")

    def expectations(self) -> dict[str, float]:
        return {label: value for label, value, _ in self.entries}


def simulate_readout(rho: DensityMatrix, shots: int, seed: int, state_label: str = "") -> TomographyRecord:
    """Sample Pauli expectation values of a three-qubit state.

    With ``shots == 0`` the exact expectations Tr(rho P) are recorded.
    Otherwise each Pauli setting draws ``shots`` eigenvalue outcomes from
    the Born distribution and records the sample mean. Every setting uses
    an independent substream derived from (seed, setting index), so the
    record is deterministic for a given seed and settings could be sampled
    concurrently without changing the result.
    """
    if rho.num_qubits != 3:
        raise ValueError("readout simulation expects a three-qubit state")
    if shots < 0:
        raise ValueError("shots must be non-negative")
    entries = []
    for index, (label, exact) in enumerate(zip(PAULI_LABELS, pauli_set(rho).tolist())):
        if shots == 0:
            entries.append((label, exact, 0))
            continue
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + exact)))
        rng = np.random.default_rng([seed, index])
        n_plus = int(rng.binomial(shots, p_plus))
        estimate = (2.0 * n_plus - shots) / shots
        entries.append((label, estimate, shots))
    return TomographyRecord(entries=tuple(entries), state_label=state_label)


def linear_inversion(record: TomographyRecord) -> np.ndarray:
    """Pauli-basis inversion (1/8)(I + sum <P> P) of a complete record.

    The output is Hermitian with unit trace by construction but may have
    negative eigenvalues when the record is noisy.
    """
    values = record.expectations()
    missing = [label for label in PAULI_LABELS if label not in values]
    if missing:
        raise ValueError(f"record is missing Pauli string(s): {missing}")
    coeffs = np.array([1.0] + [values[label] for label in PAULI_LABELS])
    operators = np.concatenate((np.eye(8, dtype=complex)[np.newaxis], PAULI_STACK))
    return np.sum(coeffs[:, np.newaxis, np.newaxis] * operators, axis=0) / 8.0


def mle_reconstruct(record: TomographyRecord) -> DensityMatrix:
    """Physical state estimate: linear inversion projected onto the
    positive-semidefinite unit-trace set."""
    return nearest_physical(linear_inversion(record))


def pauli_set(rho: DensityMatrix) -> np.ndarray:
    """Exact expectation values of all 63 nontrivial Pauli strings,
    ordered as :data:`PAULI_LABELS`."""
    if rho.num_qubits != 3:
        raise ValueError("Pauli sets are defined for three-qubit states")
    values = np.trace(rho.matrix @ PAULI_STACK, axis1=1, axis2=2)
    worst = float(np.max(np.abs(values.imag)))
    if worst >= STRUCTURAL_TOL:
        raise ValueError(f"expectation has non-negligible imaginary part {worst:.3e}")
    return values.real
