"""Entanglement quantification: concurrence, three-tangle, witness.

The pure-state three-tangle is 4|Hdet|, the Cayley hyperdeterminant of the
amplitudes, evaluated as a polynomial over a batch of kets. The mixed-state
three-tangle is reported as an upper bound on the convex roof, obtained by
searching over pure-state decompositions: random restarts scored in one
batch per column count, then pairwise re-mixing scored on angle grids. The
search is heuristic, so the value is never a certificate of separability,
only of how much tangle a decomposition can avoid.
"""

from __future__ import annotations

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
    a0, a1, a2, a3, a4, a5, a6, a7 = np.moveaxis(a, -1, 0)
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


def _best_mix(pair: np.ndarray, theta: np.ndarray, phi: np.ndarray):
    """Angles, tangle sum and mixed pair of the best point on theta x phi."""
    t, f = np.meshgrid(theta, phi, indexing="ij")
    mixed = _mix_pair(pair, t.ravel(), f.ravel())
    values = _column_tangle_sum(mixed)
    i = int(np.argmin(values))
    return t.flat[i], f.flat[i], float(values[i]), mixed[i]


def _refine_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coordinate descent over two-column mixing angles.

    Each selected column pair is re-mixed by the 2x2 special unitary that
    minimizes the pair's tangle sum over a batched theta x phi grid and then
    over one finer grid around the grid's best point. The mix is kept only
    when it lowers that sum by more than 1e-12; the decomposition stays
    exact throughout.
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
            theta, phi, _, _ = _best_mix(pair, _GRID_THETA, _GRID_PHI)
            _, _, val, mixed = _best_mix(pair, theta + _ZOOM_THETA, phi + _ZOOM_PHI)
            if val < _column_tangle_sum(pair) - 1e-12:
                w[:, [k, l]] = mixed
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
