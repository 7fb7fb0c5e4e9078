"""Entanglement quantification: concurrence, three-tangle, witness.

The mixed-state three-tangle is reported as an upper bound on the convex
roof, obtained by searching over pure-state decompositions; the search is
heuristic, so the value is never a certificate of separability, only of
how much tangle a decomposition can avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

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


def _pure_tangles(states: np.ndarray) -> np.ndarray:
    """Residual tangle for a batch of normalized three-qubit kets.

    Uses the monogamy form C^2_A(BC) - C^2_AB - C^2_AC with
    C^2_A(BC) = 4 det(rho_A). Negative values beyond 1e-9 indicate a bug
    and raise; smaller negatives clamp to zero.
    """
    m = states.shape[0]
    t = states.reshape(m, 2, 2, 2)
    ta = states.reshape(m, 2, 4)
    g = np.einsum("mif,mjf->mij", ta, ta.conj())
    c2_a_bc = 4.0 * (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]).real
    rho_ab = np.einsum("mabc,mdec->mabde", t, t.conj()).reshape(m, 4, 4)
    rho_ac = np.einsum("mabc,mdbe->macde", t, t.conj()).reshape(m, 4, 4)
    c = _concurrences(np.concatenate([rho_ab, rho_ac]))
    tau = c2_a_bc - c[:m] ** 2 - c[m:] ** 2
    if float(tau.min(initial=0.0)) < -1e-9:
        raise AssertionError(f"monogamy violated beyond tolerance: {tau.min()}")
    return np.clip(tau, 0.0, 1.0)


def three_tangle_pure(psi) -> float:
    """Residual tangle of a pure three-qubit state, in [0, 1]."""
    v = require_normalized(psi)
    if v.shape[0] != 8:
        raise ValueError("expected a three-qubit ket of dimension 8")
    v = v / np.linalg.norm(v)
    return float(_pure_tangles(v[np.newaxis])[0])


def _column_tangle_sum(w: np.ndarray) -> float:
    """Average tangle sum(p_k * tau(w_k/|w_k|)) for unnormalized columns."""
    p = np.sum(np.abs(w) ** 2, axis=0)
    keep = p > 1e-14
    if not keep.any():
        return 0.0
    states = (w[:, keep] / np.sqrt(p[keep])).T
    return float(np.sum(p[keep] * _pure_tangles(states)))


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r).real)


def _mix_pair(pair: np.ndarray, x) -> np.ndarray:
    """Re-mix two columns by the 2x2 special unitary with angles ``x``."""
    wk, wl = pair[:, 0], pair[:, 1]
    c, s = math.cos(x[0]), math.sin(x[0])
    e = complex(math.cos(x[1]), math.sin(x[1]))
    return np.stack([c * wk + e * s * wl, -np.conj(e) * s * wk + c * wl], axis=1)


def _refine_pairs(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coordinate descent over two-column mixing angles.

    Each selected column pair is re-mixed by a 2x2 special unitary whose
    two angles are optimized with Nelder-Mead; the overall decomposition
    stays exact throughout.
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
            res = minimize(
                lambda x: _column_tangle_sum(_mix_pair(pair, x)),
                x0=np.zeros(2),
                method="Nelder-Mead",
                options={"maxfev": 60, "xatol": 1e-4, "fatol": 1e-12},
            )
            if res.fun < _column_tangle_sum(pair) - 1e-12:
                w[:, [k, l]] = _mix_pair(pair, res.x)
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
    if r == 1:
        return _column_tangle_sum(m_root)
    seed_norm = int(seed) % (2**63)
    best_val = _column_tangle_sum(m_root)
    best_w = np.array(m_root)
    for k in range(restarts):
        if best_val < 1e-9:
            break
        rng = np.random.default_rng([seed_norm, k])
        m = r + (k % (r + 1))
        w = m_root @ _haar_isometry(rng, m, r).conj().T
        val = _column_tangle_sum(w)
        if val < best_val:
            best_val = val
            best_w = w
    if best_val >= 1e-9:
        refined = _refine_pairs(np.array(best_w), np.random.default_rng([seed_norm, restarts]))
        best_val = min(best_val, _column_tangle_sum(refined))
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
