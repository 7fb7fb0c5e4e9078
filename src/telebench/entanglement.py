"""Entanglement quantification: concurrence, three-tangle, witness.

The pure-state three-tangle is 4|Hdet|, the Cayley hyperdeterminant of the
amplitudes, evaluated as a polynomial over a batch of kets. The mixed-state
three-tangle is reported as an upper bound on the convex roof, obtained by
searching over pure-state decompositions: random restarts scored in one
batch per column count, then pairwise re-mixing on an angle grid and a zoom
around its best point. Because Hdet is a quartic form, a pair's tangle sum
on a whole grid follows from five coefficients and the pair's Gram matrix,
so each grid costs two small matmuls. The search is heuristic, so the value
is never a certificate of separability, only of how much tangle a
decomposition can avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qops import DensityMatrix, PAULI_Y, require_normalized, state_fidelity_pure

_YY = np.kron(PAULI_Y, PAULI_Y)

# Tolerance for deciding that a witness expectation is genuinely negative.
_WITNESS_TOL = 1e-9


def _concurrences(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence for a batch of two-qubit density matrices.

    The square-rooted eigenvalues of rho * (YY rho^* YY) equal the singular
    values of L^T (YY) L with rho = L L^dag, which avoids the sqrt noise
    amplification near zero eigenvalues of the direct eigenvalue route.
    """
    w, v = np.linalg.eigh(rhos)
    factor = v * np.sqrt(np.clip(w, 0.0, None))[..., np.newaxis, :]
    sym = np.swapaxes(factor, -1, -2) @ _YY @ factor
    lam = np.linalg.svd(sym, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.clip(c, 0.0, 1.0)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1]."""
    if rho.num_qubits != 2:
        raise ValueError("concurrence is defined for two-qubit states")
    return float(_concurrences(rho.matrix[np.newaxis])[0])


def _hyperdeterminant(a: np.ndarray) -> np.ndarray:
    """Cayley hyperdeterminant of three-qubit amplitudes on the last axis.

    With a_ijk at index 4i + 2j + k,
    Hdet = (a000 a111 - a001 a110 - a010 a101 + a011 a100)^2
           - 4 (a000 a011 - a001 a010) (a100 a111 - a101 a110).
    4|Hdet| is the three-tangle of a normalized ket; the polynomial is
    homogeneous of degree 4 in the amplitudes.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = (a[..., i] for i in range(8))
    return (a0 * a7 - a1 * a6 - a2 * a5 + a3 * a4) ** 2 - 4.0 * (a0 * a3 - a1 * a2) * (a4 * a7 - a5 * a6)


def three_tangle_pure(psi) -> float:
    """Three-tangle 4|Hdet| of a pure three-qubit state, in [0, 1]."""
    v = require_normalized(psi)
    if v.shape[0] != 8:
        raise ValueError("expected a three-qubit ket of dimension 8")
    v = v / np.linalg.norm(v)
    return min(4.0 * abs(complex(_hyperdeterminant(v))), 1.0)


def _column_tangle_sum(w: np.ndarray) -> np.ndarray:
    """Average tangle sum(p_k * tau(w_k/|w_k|)) of unnormalized columns.

    ``w`` has shape (..., 8, m) and the result shape (...). As tau is
    homogeneous of degree 4, column k contributes 4|Hdet(w_k)| / p_k with
    p_k = |w_k|^2; columns with p_k <= 1e-14 contribute nothing.
    """
    p = np.sum(w.real**2 + w.imag**2, axis=-2)
    keep = p > 1e-14
    tau = 4.0 * np.abs(_hyperdeterminant(np.swapaxes(w, -1, -2)))
    return np.sum(np.where(keep, tau / np.where(keep, p, 1.0), 0.0), axis=-1)


def _haar_isometries(g: np.ndarray) -> np.ndarray:
    """Haar-random isometries from stacked complex Gaussian matrices."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real)[..., np.newaxis, :]


def _restart_values(m_root: np.ndarray, restarts: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Score the restart candidates m_root @ V_k^dag, k = 0 .. restarts - 1.

    Restart k draws a Haar isometry V_k with r + k % (r + 1) rows from its
    own stream ``default_rng([seed, k])``. Restarts with the same column
    count share one batch, so group j holds k = j, j + r + 1, ... Returns
    the values in k order and the candidate batches by group.
    """
    r = m_root.shape[1]
    values = np.empty(restarts)
    groups = []
    for j in range(min(restarts, r + 1)):
        ks = range(j, restarts, r + 1)
        rngs = [np.random.default_rng([seed, k]) for k in ks]
        g = np.stack([rng.normal(size=(r + j, r)) + 1j * rng.normal(size=(r + j, r)) for rng in rngs])
        w = m_root @ np.swapaxes(_haar_isometries(g).conj(), -1, -2)
        values[j :: r + 1] = _column_tangle_sum(w)
        groups.append(w)
    return values, groups


# Refine grid: theta in [0, pi/2) (larger theta only swaps the two columns up
# to phase), phi in [0, 2 pi); the zoom spans one coarse step either side of
# the best point at half the step.
_GRID_THETA = np.arange(12) * (np.pi / 24.0)
_GRID_PHI = np.arange(16) * (np.pi / 8.0)
_ZOOM_THETA = np.arange(-2, 3) * (np.pi / 48.0)
_ZOOM_PHI = np.arange(-2, 3) * (np.pi / 16.0)

# Hdet(alpha x + beta y) = sum_j C_j alpha^(4-j) beta^j. Sampling it at
# alpha = 1, beta = omega^k (omega = e^(2 pi i / 5)) is a 5-point DFT of the
# C_j, which the constant inverse-DFT matrix undoes.
_DEGREES = np.arange(5)
_FIFTHS = np.outer(_DEGREES, _DEGREES) * (2.0 * np.pi / 5.0)
_PAIR_SAMPLES = np.exp(1j * _FIFTHS[:2])
_QUARTIC_FROM_SAMPLES = np.exp(-1j * _FIFTHS) / 5.0


def _theta_tables(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Theta parts of both mixed columns' Hdet and norm, rows stacked.

    With c = cos(theta), s = sin(theta) and e = e^(i phi), ``_mix_pair``
    makes the columns c x + e s y and -e^* s x + c y. Their Hdet is
    sum_j C_j T_j e^(i j phi), times the unit factor e^(-4 i phi) for the
    second column, with T_j = c^(4-j) s^j and (-s)^(4-j) c^j. Their norms are
    the real parts of (c^2, s^2, 2cs) and (s^2, c^2, -2cs) dotted with
    (|x|^2, |y|^2, e x^dag y). ``theta`` has shape (..., n); the tables have
    shapes (..., 2n, 5) and (..., 2n, 3), first column's rows first, and are
    complex so that the per-pair matmuls convert nothing.
    """
    c = np.cos(theta)[..., np.newaxis]
    s = np.sin(theta)[..., np.newaxis]
    j = _DEGREES
    quartic = np.concatenate([c ** (4 - j) * s**j, (-s) ** (4 - j) * c**j], axis=-2)
    first = np.concatenate([c * c, s * s, 2.0 * c * s], axis=-1)
    second = np.concatenate([s * s, c * c, -2.0 * c * s], axis=-1)
    return quartic.astype(complex), np.concatenate([first, second], axis=-2).astype(complex)


def _phase_table(phi: np.ndarray) -> np.ndarray:
    """Phi parts, shape (..., 8, n) for ``phi`` (..., n), matching ``_pair_forms``.

    Rows e^(i j phi) for j = 0 .. 4 go with the C_j, and rows 1, 1, e^(i phi)
    with |x|^2, |y|^2 and x^dag y.
    """
    powers = np.array([0, 1, 2, 3, 4, 0, 0, 1])[:, np.newaxis]
    return np.exp(1j * powers * phi[..., np.newaxis, :])


_GRID_QUARTIC, _GRID_NORM = _theta_tables(_GRID_THETA)
_GRID_PHASES = _phase_table(_GRID_PHI)
_ZOOM_QUARTIC, _ZOOM_NORM = _theta_tables(_GRID_THETA[:, np.newaxis] + _ZOOM_THETA)
_ZOOM_PHASES = _phase_table(_GRID_PHI[:, np.newaxis] + _ZOOM_PHI)


def _mix_pair(pair: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re-mix two columns by the 2x2 special unitary with angles (theta, phi).

    ``pair`` is (8, 2); ``theta`` and ``phi`` are equal-shaped angle arrays
    and the result is (*angles.shape, 8, 2). Each result spans the same
    decomposition as ``pair``: the mix is unitary.
    """
    c = np.cos(theta)[..., np.newaxis]
    s = np.sin(theta)[..., np.newaxis]
    e = np.exp(1j * phi)[..., np.newaxis]
    wk, wl = pair[:, 0], pair[:, 1]
    return np.stack([c * wk + e * s * wl, -np.conj(e) * s * wk + c * wl], axis=-1)


def _pair_forms(pair: np.ndarray) -> np.ndarray:
    """(C_0, .., C_4, |x|^2, |y|^2, x^dag y) for the columns x, y of ``pair``.

    The C_j are the coefficients of Hdet(alpha x + beta y), from one batch
    of five hyperdeterminants. The columns are sampled at unit norm (a zero
    column stays zero), so each C_j carries the rounding of its own scale
    |x|^(4-j) |y|^j rather than that of the larger column.
    """
    gram = pair.conj().T @ pair
    gxx, gyy = float(gram[0, 0].real), float(gram[1, 1].real)
    nx, ny = math.sqrt(gxx) or 1.0, math.sqrt(gyy) or 1.0
    samples = _hyperdeterminant((pair @ (_PAIR_SAMPLES / np.array([[nx], [ny]]))).T)
    forms = np.empty(8, dtype=complex)
    forms[:5] = (_QUARTIC_FROM_SAMPLES @ samples) * (nx**4 * (ny / nx) ** _DEGREES)
    forms[5:] = gxx, gyy, gram[0, 1]
    return forms


def _pair_grid(forms: np.ndarray, quartic: np.ndarray, norm: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Tangle sum of ``_mix_pair`` on a theta x phi grid: two small matmuls.

    ``forms`` come from ``_pair_forms``, ``quartic`` and ``norm`` from
    ``_theta_tables`` and ``phases`` from ``_phase_table``. Entry (a, b)
    equals ``_column_tangle_sum(_mix_pair(pair, theta[a], phi[b]))``.
    """
    terms = forms[:, np.newaxis] * phases
    hdet = quartic @ terms[:5]
    p = (norm @ terms[5:]).real
    tau = np.divide(np.abs(hdet), p, out=np.zeros_like(p), where=p > 1e-14)
    n = tau.shape[0] // 2
    return 4.0 * (tau[:n] + tau[n:])


def _refine_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coordinate descent over two-column mixing angles.

    Each selected column pair (x, y) is re-mixed by the 2x2 special unitary
    that minimizes the pair's tangle sum over a theta x phi grid and then
    over one finer grid around the grid's best point. Both grids are scored
    in closed form: Hdet is a quartic, so five hyperdeterminants of
    x + omega^k y give its coefficients in (alpha, beta), and the Gram
    matrix gives the column norms (``_pair_forms``); each grid is then one
    small matmul for Hdet and one for the norms against constant angle
    tables (``_pair_grid``). The unmixed pair is grid point (0, 0). The mix
    is kept only when it lowers the pair's sum by more than 1e-12, and it
    is applied with ``_mix_pair``, so the decomposition stays exact.
    """
    m = w.shape[1]
    all_pairs = list(combinations(range(m), 2))
    max_sweeps = 6 if m <= 6 else 2
    for _ in range(max_sweeps):
        if len(all_pairs) > 30:
            chosen = [all_pairs[i] for i in rng.choice(len(all_pairs), size=30, replace=False)]
        else:
            chosen = all_pairs
        improved = False
        for k, l in chosen:
            pair = w[:, [k, l]]
            forms = _pair_forms(pair)
            coarse = _pair_grid(forms, _GRID_QUARTIC, _GRID_NORM, _GRID_PHASES)
            i, j = divmod(int(np.argmin(coarse)), coarse.shape[1])
            zoom = _pair_grid(forms, _ZOOM_QUARTIC[i], _ZOOM_NORM[i], _ZOOM_PHASES[j])
            a, b = divmod(int(np.argmin(zoom)), zoom.shape[1])
            if zoom[a, b] < coarse[0, 0] - 1e-12:
                w[:, [k, l]] = _mix_pair(pair, _GRID_THETA[i] + _ZOOM_THETA[a], _GRID_PHI[j] + _ZOOM_PHI[b])
                improved = True
        if not improved:
            break
    return w


def three_tangle_mixed_upper(rho: DensityMatrix, restarts: int = 200, seed: int = 0) -> float:
    """Upper bound on the convex-roof three-tangle of a mixed state.

    Pure-state decompositions are generated by mixing the eigendecomposition
    through random isometries with up to twice the rank many components
    (the unmixed eigendecomposition itself is the first candidate), and the
    best candidate is locally refined by coordinate descent on pairwise
    mixing angles. Deterministic for a given seed; the result is always a
    valid upper bound because every candidate is an exact decomposition.
    """
    if rho.num_qubits != 3:
        raise ValueError("expected a three-qubit state")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    lam = vals[keep]
    lam = lam / lam.sum()
    basis = vecs[:, keep]
    r = int(lam.shape[0])
    m_root = basis * np.sqrt(lam)
    best_val = float(_column_tangle_sum(m_root))
    if r == 1 or best_val < 1e-9:
        return best_val
    seed_norm = int(seed) % (2**63)
    values, groups = _restart_values(m_root, restarts, seed_norm)
    best_w = m_root
    for k, val in enumerate(values):
        if best_val < 1e-9:
            break
        if val < best_val:
            best_val = float(val)
            best_w = groups[k % (r + 1)][k // (r + 1)]
    if best_val >= 1e-9:
        refined = _refine_pairs(np.array(best_w), np.random.default_rng([seed_norm, restarts]))
        best_val = min(best_val, float(_column_tangle_sum(refined)))
    return best_val


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of evaluating the witness alpha*I - |phi><phi| on a state."""

    alpha: float
    expectation: float
    is_tripartite_entangled: bool
    robustness_lower_bound: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "expectation": self.expectation,
            "is_tripartite_entangled": self.is_tripartite_entangled,
            "robustness_lower_bound": self.robustness_lower_bound,
        }


def witness_evaluate(rho: DensityMatrix, phi, alpha: float) -> WitnessResult:
    """Evaluate Tr(W rho) for W = alpha*I - |phi><phi|.

    A negative expectation certifies genuine tripartite entanglement when
    ``alpha`` is the maximal squared biseparable overlap with ``phi``; the
    robustness lower bound is max(0, -expectation/alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    overlap = state_fidelity_pure(rho, phi)
    exp_value = alpha - overlap
    return WitnessResult(
        alpha=alpha,
        expectation=exp_value,
        is_tripartite_entangled=bool(exp_value < -_WITNESS_TOL),
        robustness_lower_bound=max(0.0, -exp_value / alpha),
    )


def biseparable_alpha(phi) -> float:
    """Maximal squared overlap of any biseparable state with ``phi``.

    Equals the largest squared Schmidt coefficient over the three one-vs-two
    qubit cuts, i.e. the largest eigenvalue among the three single-qubit
    reduced states.
    """
    v = require_normalized(phi)
    if v.shape[0] != 8:
        raise ValueError("expected a three-qubit ket of dimension 8")
    t = v.reshape(2, 2, 2)
    best = 0.0
    for axis in range(3):
        flat = np.moveaxis(t, axis, 0).reshape(2, 4)
        reduced = flat @ flat.conj().T
        best = max(best, float(np.linalg.eigvalsh(reduced)[-1]))
    return best
