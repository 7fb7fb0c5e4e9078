"""Simulated joint Pauli readout and state reconstruction.

Readout is modeled as ideal projective measurement of each of the 63
nontrivial three-qubit Pauli strings with binomial shot noise; the
dispersive transfer function of the physical joint readout is out of scope.
Reconstruction is linear inversion over the Pauli basis followed by
projection onto the physical set.
"""

from __future__ import annotations

import itertools

import numpy as np

from .qops import STRUCTURAL_TOL, DensityMatrix, nearest_physical, pauli_operator, require_count

# All 63 nontrivial Pauli strings in lexicographic order with I < X < Y < Z,
# leftmost character acting on qubit A.
PAULI_LABELS: tuple[str, ...] = tuple(
    "".join(p) for p in itertools.product("IXYZ", repeat=3) if p != ("I", "I", "I")
)

# The 63 operators in PAULI_LABELS order, built once: shape (63, 8, 8).
PAULI_STACK = np.array([pauli_operator(label) for label in PAULI_LABELS])
PAULI_STACK.setflags(write=False)


def simulate_readout(rho: DensityMatrix, shots: int, seed: int) -> np.ndarray:
    """Sample Pauli expectation values of a three-qubit state.

    Returns the 63 estimates in :data:`PAULI_LABELS` order. With
    ``shots == 0`` they are the exact expectations Tr(rho P) and nothing is
    drawn. Otherwise each Pauli setting draws ``shots`` eigenvalue outcomes
    from the Born distribution and records the sample mean: the counts of
    +1 outcomes are one ``binomial`` draw over the 63 settings from
    ``default_rng(seed)``. The estimates are deterministic for a given seed
    and state. All settings share that stream, and the binomial sampler
    uses a varying number of uniforms per setting, so setting i depends on
    the seed and on the probabilities of settings 0 .. i, not on (seed, i)
    alone. Raises ``ValueError`` unless ``shots`` is a non-negative integer.
    """
    shots = require_count("shots", shots, 0)
    exact = pauli_set(rho)
    if shots == 0:
        return exact
    p_plus = np.clip(0.5 * (1.0 + exact), 0.0, 1.0)
    n_plus = np.random.default_rng(seed).binomial(shots, p_plus)
    return (2.0 * n_plus - shots) / shots


def linear_inversion(values) -> np.ndarray:
    """Pauli-basis inversion (1/8)(I + sum <P> P) of 63 expectation values
    in :data:`PAULI_LABELS` order.

    Raises ``ValueError`` unless there are exactly 63 finite values of
    magnitude at most 1. The output is Hermitian with unit trace by
    construction but may have negative eigenvalues when the values are noisy.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(PAULI_LABELS),):
        raise ValueError(f"expected {len(PAULI_LABELS)} Pauli expectations, got shape {values.shape}")
    bad = ~(np.abs(values) <= 1.0 + 1e-12)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(f"expectation for {PAULI_LABELS[index]} not finite or out of range: {values[index]}")
    coeffs = np.concatenate(([1.0], values))
    operators = np.concatenate((np.eye(8, dtype=complex)[np.newaxis], PAULI_STACK))
    return np.sum(coeffs[:, np.newaxis, np.newaxis] * operators, axis=0) / 8.0


def mle_reconstruct(values) -> DensityMatrix:
    """Physical state estimate: linear inversion projected onto the
    positive-semidefinite unit-trace set.

    The Frobenius-norm projection of the linear-inversion estimate is the
    maximum-likelihood state only under equal-variance Gaussian noise on
    the expectation values (Smolin, Gambetta & Smith, PRL 108, 070502
    (2012)). Under binomial shot noise it is not the full maximum-likelihood
    estimate that the experiment used.
    """
    return nearest_physical(linear_inversion(values))


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
