"""Simulated joint Pauli readout and state reconstruction.

Readout is modeled as ideal projective measurement of each of the 63
nontrivial three-qubit Pauli strings with binomial shot noise; the
dispersive transfer function of the physical joint readout is out of scope.
Reconstruction is linear inversion over the Pauli basis followed by
projection onto the physical set.

Each Pauli string is a signed permutation matrix: every row and every
column holds one entry, +-1 or +-i. So no stage multiplies by a dense
string. :func:`pauli_set` gathers, for each string and each row i of rho,
the one entry rho[i, k] that meets the string's entry P[k, i], and sums the
8 products per string; :func:`linear_inversion` builds each entry of its
estimate from the 8 strings that are nonzero there, summed in string
order. Both reproduce the dense products bit for bit, signs of zero too.

Every stage takes one state (or one 63-value record) or a stack of them,
as :func:`telebench.circuit.apply_circuit` does: one in gives one result,
a sequence of B states or a (B, 63) array gives a list or a (B, ...) array.
Each member of a stacked result equals the single-state result bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .qops import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    nearest_physical,
    require_count,
    require_integer,
    stack_error,
    state_stack,
)

# All 63 nontrivial Pauli strings in lexicographic order with I < X < Y < Z,
# leftmost character acting on qubit A.
PAULI_LABELS: tuple[str, ...] = tuple(
    "".join(p) for p in itertools.product("IXYZ", repeat=3) if p != ("I", "I", "I")
)

# All 64 three-qubit Pauli operators as one broadcast product of the four
# single-qubit ones: entry [abc, ikm, jln] = ((1 P_a[i, j]) P_b[k, l]) P_c[m, n],
# the Kronecker product with qubit A leftmost. Every entry is a product of
# 0, +-1 and +-i, so the values are exact, and multiplying in kron's order
# from a leading 1 gives its signs of zero too. _INVERSION_OPERATORS keeps the
# identity in row 0; PAULI_STACK drops it: shape (63, 8, 8), PAULI_LABELS order.
_PAULI_1Q = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])
_INVERSION_OPERATORS = (
    (1.0 + 0.0j)
    * _PAULI_1Q[:, None, None, :, None, None, :, None, None]
    * _PAULI_1Q[None, :, None, None, :, None, None, :, None]
    * _PAULI_1Q[None, None, :, None, None, :, None, None, :]
).reshape(64, 8, 8)
_INVERSION_OPERATORS.setflags(write=False)
PAULI_STACK = _INVERSION_OPERATORS[1:]

# Gather tables, read off the operators above by np.nonzero, which lists
# indices in C order; take_along_axis copies the phases with their signs of
# zero. Column i of string s has its one entry _PHASES[s, i] in row
# _COLUMNS[s, i], so Tr(rho P_s) is the sum over i of
# rho[i, _COLUMNS[s, i]] * _PHASES[s, i]. Entry [i, j] of the 64 operators
# is nonzero in exactly 8 of them: strings _STRINGS[:, i, j], ascending,
# with values _STRING_PHASES[:, i, j]. _STRINGS is copied into C order
# because the gather takes its layout, and the order of the sum follows that.
_ROWS = np.arange(8)
_COLUMNS = np.nonzero(PAULI_STACK.transpose(0, 2, 1))[2].reshape(63, 8)
_PHASES = np.take_along_axis(PAULI_STACK, _COLUMNS[:, np.newaxis], axis=1)[:, 0]
_STRINGS = np.nonzero(_INVERSION_OPERATORS.transpose(1, 2, 0))[2].reshape(8, 8, 8).transpose(2, 0, 1).copy()
_STRING_PHASES = np.take_along_axis(_INVERSION_OPERATORS, _STRINGS, axis=0)

# numpy's binomial sampler takes a number of trials only up to the largest int64.
MAX_SHOTS = 2**63 - 1

# Sampled readout reads an expectation of at most this magnitude as exactly 0.
# numpy draws n - binomial(n, 1 - p) for p > 1/2, so an expectation that is 0
# up to rounding would otherwise draw one of two records by the sign of its
# rounding error. The cut-off is about 300 times below the finest resolution
# any shot count gives, 1/sqrt(MAX_SHOTS) = 3.3e-10.
ZERO_EXPECTATION = 1e-12


def simulate_readout(rho, shots: int, seed):
    """Sample Pauli expectation values of a three-qubit state, or of a stack.

    Returns the 63 estimates in :data:`PAULI_LABELS` order: shape (63,) for
    one :class:`DensityMatrix` and one ``seed``, (B, 63) for a sequence of
    B states and B seeds. With ``shots == 0`` they are the exact
    expectations Tr(rho P) and nothing is drawn. Otherwise each Pauli
    setting draws ``shots`` eigenvalue outcomes from the Born distribution
    and records the sample mean: the counts of +1 outcomes of a state are
    one ``binomial`` draw over the 63 settings from ``default_rng`` of that
    state's seed, so each member is drawn as if it were read out alone.
    An expectation within :data:`ZERO_EXPECTATION` of 0 is drawn as exactly
    0 (p = 1/2), so rounding error in the state cannot flip its draw.
    The estimates are deterministic for a given seed and state. All settings
    of a state share that stream, and the binomial sampler uses a varying
    number of uniforms per setting, so setting i depends on the seed and on
    the probabilities of settings 0 .. i, not on (seed, i) alone. Raises
    ``ValueError`` unless ``require_count`` finds ``shots`` in [0, :data:`MAX_SHOTS`]
    and every seed is an integer (numpy integers pass; floats and booleans do not).
    """
    shots = require_count("shots", shots, 0, MAX_SHOTS)
    exact = pauli_set(rho)
    single = exact.ndim == 1
    if single:
        seeds = [require_integer("seed", seed)]
    elif np.ndim(seed) != 1 or len(seed) != len(exact):
        raise ValueError(f"a stack of {len(exact)} states needs one seed per state, got {seed!r}")
    else:
        seeds = [require_integer("seed", s) for s in seed]
    if shots == 0:
        return exact
    snapped = np.where(np.abs(exact) <= ZERO_EXPECTATION, 0.0, exact)
    values = [
        (2.0 * np.random.default_rng(s).binomial(shots, np.clip(0.5 * (1.0 + e), 0.0, 1.0)) - shots) / shots
        for s, e in zip(seeds, snapped.reshape(len(seeds), -1))
    ]
    return values[0] if single else np.array(values)


def linear_inversion(values) -> np.ndarray:
    """Pauli-basis inversion (1/8)(I + sum <P> P) of 63 expectation values
    in :data:`PAULI_LABELS` order, or of a (B, 63) stack of them.

    Raises ``ValueError`` unless every record holds exactly 63 finite values
    of magnitude at most 1. The output, (8, 8) or (B, 8, 8), is Hermitian
    with unit trace by construction but may have negative eigenvalues when
    the values are noisy.

    Each entry sums its 8 nonzero terms <P> P[i, j], with <I> = 1, in
    :data:`PAULI_LABELS` order from +0: the terms the dense sum over all 64
    strings adds are exact zeros, so the two agree bit for bit.
    """
    values = np.asarray(values, dtype=float)
    single = values.ndim == 1
    stack = values[np.newaxis] if single else values
    if stack.ndim != 2 or stack.shape[1] != len(PAULI_LABELS) or not len(stack):
        raise ValueError(f"expected {len(PAULI_LABELS)} Pauli expectations per state, got shape {values.shape}")
    bad = ~(np.abs(stack) <= 1.0 + 1e-12)
    if bad.any():
        k, index = np.unravel_index(np.argmax(bad), bad.shape)
        message = f"expectation for {PAULI_LABELS[index]} not finite or out of range: {stack[k, index]}"
        raise stack_error(message, int(k), single)
    coeffs = np.concatenate((np.ones((len(stack), 1)), stack), axis=1)
    # Summed over a leading axis from +0, so numpy adds the 8 terms in string order, not pairwise.
    mu = (coeffs[:, _STRINGS] * _STRING_PHASES).sum(axis=1, initial=0.0) / 8.0
    return mu[0] if single else mu


def mle_reconstruct(values):
    """Physical state estimate: linear inversion projected onto the
    positive-semidefinite unit-trace set.

    One 63-value record gives a :class:`DensityMatrix`; a (B, 63) stack
    gives a list, projected with one batched eigendecomposition.

    The Frobenius-norm projection of the linear-inversion estimate is the
    maximum-likelihood state only under equal-variance Gaussian noise on
    the expectation values (Smolin, Gambetta & Smith, PRL 108, 070502
    (2012)). Under binomial shot noise it is not the full maximum-likelihood
    estimate that the experiment used.
    """
    return nearest_physical(linear_inversion(values))


def pauli_set(rho) -> np.ndarray:
    """Exact expectations Re Tr(rho P) of all 63 nontrivial Pauli strings, ordered as
    :data:`PAULI_LABELS`: shape (63,) for one state, (B, 63) for a sequence of B states.
    For a Hermitian P, Re Tr(rho P) is the expectation of rho's Hermitian part.

    Each trace is gathered as the 8 products rho[i, k] P[k, i], one per row i
    of rho, into a contiguous row. numpy sums that row pairwise, as
    ``np.trace`` sums the diagonal of the dense product rho P; summed in the
    gather's own memory order, it would differ in the last bit."""
    m, single = state_stack(rho, 8)
    values = np.ascontiguousarray(m[:, _ROWS, _COLUMNS] * _PHASES).sum(axis=-1).real
    return values[0] if single else values
