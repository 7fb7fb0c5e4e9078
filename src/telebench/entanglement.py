"""Entanglement quantification: three-tangle and fidelity witness.

The pure-state three-tangle is 4|Hdet|, the Cayley hyperdeterminant of the
amplitudes, evaluated as a polynomial over a batch of kets. The mixed-state
three-tangle is reported as an upper bound on the convex roof, obtained by
searching over pure-state decompositions: random restarts, scored in one
batch, then an L-BFGS descent (memory 3) over the unitaries that re-mix all
columns of the best one. The descent has two phases in one loop: 17 steps
on the smooth surrogate sum_k q_k^2 of the column tangles q_k, which has the
same zero set but no kink where a column's hyperdeterminant vanishes, then 2
on the tangle sum itself; each phase accepts a step only when it lowers its
own objective. 19 is the fewest steps whose held-out mean bound is not above
that of the 26-step plain descent it replaced (see _REFINE_STEPS). The
restarts are one pool of Haar isometries, drawn from a fixed seed once per
process for a restart count and rank, rotated by one Haar unitary drawn from
the search's seed. The eigendecomposition average is only the floor, never a
descent start. Hdet is a quartic, so the gradient
of either objective is in closed form. The search is heuristic, so the value
is never a certificate of separability, only of how much tangle a
decomposition can avoid.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .qops import (DensityMatrix, is_real, require_count, require_integer, require_normalized, state_fidelity_pure,
                   state_stack)

# Tolerance for deciding that a witness expectation is genuinely negative.
_WITNESS_TOL = 1e-9


def three_tangle_pure(psi) -> float:
    """Three-tangle 4|Hdet| of a pure three-qubit state, in [0, 1]."""
    v = require_normalized(psi)
    if v.shape[0] != 8:
        raise ValueError("expected a three-qubit ket of dimension 8")
    return min(float(_column_tangle_sum(v[:, np.newaxis] / np.linalg.norm(v))), 1.0)


def _tangle_terms(w: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``_column_tangle_sum`` at w together with the terms its gradient reuses.

    With a_ijk at row 4i + 2j + k of a column, the Cayley hyperdeterminant is
    Hdet = A^2 - 4 B C with A = a000 a111 - a001 a110 - a010 a101 + a011 a100,
    B = a000 a011 - a001 a010 and C = a100 a111 - a101 a110. The terms are
    (A, B, C, Hdet, |Hdet|, p, keep, q): the factors per column, the column
    norms p (1 where dropped), the mask of kept columns and the column
    tangles q = 4 |Hdet| / p (0 where dropped), whose sum is the value.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = (w[..., i, :] for i in range(8))
    big = a0 * a7 - a1 * a6 - a2 * a5 + a3 * a4
    b = a0 * a3 - a1 * a2
    c = a4 * a7 - a5 * a6
    hdet = big**2 - 4.0 * b * c
    p = np.sum(w.real**2 + w.imag**2, axis=-2)
    keep = p > 1e-14
    p = np.where(keep, p, 1.0)
    size = np.abs(hdet)
    q = np.where(keep, 4.0 * size / p, 0.0)
    return np.sum(q, axis=-1), (big, b, c, hdet, size, p, keep, q)


def _column_tangle_sum(w: np.ndarray) -> np.ndarray:
    """Average tangle sum(p_k * tau(w_k/|w_k|)) of unnormalized columns.

    ``w`` has shape (..., 8, m) and the result shape (...). As tau is
    homogeneous of degree 4, column k contributes 4|Hdet(w_k)| / p_k with
    p_k = |w_k|^2; columns with p_k <= 1e-14 contribute nothing.
    """
    return _tangle_terms(w)[0]


def _haar_isometries(g: np.ndarray) -> np.ndarray:
    """Haar-random isometries from stacked complex Gaussian matrices."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real)[..., np.newaxis, :]


# Seed of the one pool of restart isometries; each search's own seed only
# rotates the pool (see _restart_values).
_POOL_SEED = 0


# One kept pool per rank 2-8; see MAX_RESTARTS for the memory this holds.
@functools.lru_cache(maxsize=7)
def _restart_isometries(restarts: int, rank: int) -> np.ndarray:
    """The read-only (restarts, r, 2r) pool of V_k^dag, k = 0 .. restarts - 1.

    One draw from ``default_rng(_POOL_SEED)`` gives a (2r, r) complex
    Gaussian block per restart, and V_k is the Haar isometry of block k. So
    V_k depends only on k, not on the restart count, the batching, the state
    or the search's seed. The pool is drawn at the first search of a restart
    count and rank, never at import, and kept beside those of the other ranks:
    every later search of that restart count and rank in the process draws
    only its rotation.
    """
    g = np.random.default_rng(_POOL_SEED).standard_normal((restarts, 2 * rank, rank, 2)).view(complex)[..., 0]
    v_dag = np.swapaxes(_haar_isometries(g).conj(), -1, -2)
    v_dag.setflags(write=False)
    return v_dag


def _restart_values(m_root: np.ndarray, restarts: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Score the restart candidates m_root R^dag V_k^dag, V_k^dag from :func:`_restart_isometries`.

    R is one Haar unitary of U(r) drawn from ``default_rng(seed)``. Haar
    measure on isometries is invariant under right multiplication by a
    unitary (Mezzadri, Notices AMS 54, 592 (2007)), so over the draw of the
    pool the V_k R of one seed are again jointly iid Haar isometries, and
    candidate k depends only on (seed, k). Returns the values in k order and the (restarts, 8, 2r)
    candidates.
    """
    rank = m_root.shape[1]
    rotation = _haar_isometries(np.random.default_rng(seed).standard_normal((rank, rank, 2)).view(complex)[..., 0])
    candidates = (m_root @ rotation.conj().T) @ _restart_isometries(restarts, rank)
    return _column_tangle_sum(candidates), candidates


# d(a0 a7 - a1 a6 - a2 a5 + a3 a4)/da_i is _SIGNS[i] a[7 - i]; on the first
# four amplitudes d(a0 a3 - a1 a2)/da_i is _SIGNS[i] a[3 - i], and on the last
# four d(a4 a7 - a5 a6)/da_i is _SIGNS[i] a[11 - i].
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])[:, np.newaxis]
_HALF_REVERSED = np.array([3, 2, 1, 0, 7, 6, 5, 4])

# Most accepted steps of the refine's L-BFGS descent in all, the first
# _SMOOTH_STEPS of them on the smooth surrogate, and the (s, y) pairs it keeps.
# The total is the smallest whose mean bound on a held-out set (the noisy
# reference outputs at shots 0, seeds 20-39; ``tests/tangle_table.py``) is not
# above 0.091737, that of the 26-step plain descent it replaced, with at least
# one step on the tangle sum and every test passing; of the splits of that
# total, the one with the lowest held-out mean. At 18 steps, 17 + 1 fails the
# GHZ/|000> scan oracle and 16 + 2 reads 0.093007; at 19, 18 + 1 fails that
# oracle too, and 17 + 2 reads 0.085849.
_REFINE_STEPS = 19
_SMOOTH_STEPS = 17
_LBFGS_MEMORY = 3

# Restarts of the tangle search when a run sets none, and the most it takes: its
# candidates take about 7.4 KB per restart at rank 8, so at most about 75 MB. A
# kept pool of restart isometries takes 32 r^2 bytes per restart at rank r, so one
# pool for each rank 2-8 takes about 6.3 KB per restart, 1.3 MB at 200 restarts.
# At most 7 pools are kept, so at most 7 x 20 MB at MAX_RESTARTS.
DEFAULT_RESTARTS = 200
MAX_RESTARTS = 10_000


def _tangle_gradient(w: np.ndarray, terms: tuple) -> np.ndarray:
    """Gradient G of ``_column_tangle_sum`` at w (8, m), so df = Re tr(G^dag dW),
    from the ``terms`` ``_tangle_terms(w)[1]``.

    dHdet is the cubic 2 A dA - 4 (C dB + B dC). Column k of G is
    4 (H_k / |H_k| conj(dH_k) / p_k - 2 |H_k| w_k / p_k^2) with p_k = |w_k|^2;
    a column with H_k = 0 keeps only the (zero) norm term, and columns with
    p_k <= 1e-14 contribute nothing, as in ``_column_tangle_sum``.
    """
    big, b, c, hdet, size, p, keep, _ = terms
    d_hdet = _SIGNS * (2.0 * big * w[::-1] - 4.0 * np.repeat([c, b], 4, axis=0) * w[_HALF_REVERSED])
    phase = np.divide(hdet, size, out=np.zeros_like(hdet), where=size > 0.0)
    return np.where(keep, 4.0 * (phase * d_hdet.conj() / p - 2.0 * (size / p**2) * w), 0.0)


def _tangle_sum(value: np.ndarray, terms: tuple) -> tuple[np.ndarray, float]:
    """The tangle sum ``value`` as a descent objective, with gradient weight 1."""
    return value, 1.0


def _smooth_sum(value: np.ndarray, terms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The smooth surrogate sum_k q_k^2 of the column tangles q_k = 4 |H_k| / p_k
    in ``terms``, and the column weights 2 q_k that turn ``_tangle_gradient``
    into its gradient, since d(q^2) = 2 q dq.
    """
    q = terms[-1]
    return np.sum(q * q, axis=-1), 2.0 * q


def _descend(w: np.ndarray, value: float, terms: tuple, objective, steps: int) -> tuple[np.ndarray, float, tuple]:
    """At most ``steps`` accepted L-BFGS steps on ``objective`` from w, whose
    tangle sum and terms are ``value`` and ``terms``.

    ``objective(value, terms)`` gives the objective and the column weights of
    its gradient. With A = W^dag (G * weights) the gradient is
    g = A - A^dag in the Lie algebra u(m) of anti-Hermitian matrices, with the
    inner product Re vdot. The direction r is limited-memory BFGS (Huang,
    Gallivan and Absil, SIAM J. Optim. 25, 1660 (2015)): the two-loop
    recursion over the last ``_LBFGS_MEMORY`` pairs s = -t r, y = g_new - g,
    with no vector transport and scaled by s.y / y.y; the first direction is
    g scaled to norm 1/8. A pair is kept only when s.y > 1e-12. The trial
    W (I + X)^-1 (I - X), X = t/2 * r, is a Cayley transform, so W W^dag is
    kept. It tries t = 1 first; a trial that lowers the objective by more
    than 1e-12 is accepted, otherwise t halves. Stops once t is below 1e-9.
    Returns the last accepted W with its tangle sum and terms.
    """
    eye = np.eye(w.shape[1])
    f, weights = objective(value, terms)
    pairs = []
    g = None
    for _ in range(steps):
        a = w.conj().T @ (_tangle_gradient(w, terms) * weights)
        g_new = a - a.conj().T
        if g is not None:
            y = g_new - g
            if (sy := np.vdot(s, y).real) > 1e-12:
                pairs = [*pairs, (s, y, 1.0 / sy)][-_LBFGS_MEMORY:]
        g = r = g_new
        alphas = []
        for s_k, y_k, rho_k in reversed(pairs):
            alphas.append(rho_k * np.vdot(s_k, r).real)
            r = r - alphas[-1] * y_k
        if pairs:
            _, y_k, rho_k = pairs[-1]
            r = r / (rho_k * np.vdot(y_k, y_k).real)
        else:
            r = r * (0.125 / np.linalg.norm(g))
        for (s_k, y_k, rho_k), alpha in zip(pairs, reversed(alphas)):
            r = r + (alpha - rho_k * np.vdot(y_k, r).real) * s_k
        t = 1.0
        while True:
            x = (t / 2.0) * r
            trial = w @ np.linalg.solve(eye + x, eye - x)
            trial_value, trial_terms = _tangle_terms(trial)
            trial_f, trial_weights = objective(trial_value, trial_terms)
            if trial_f < f - 1e-12:
                break
            t *= 0.5
            if t < 1e-9:
                return w, value, terms
        s = -t * r
        w, value, terms, f, weights = trial, float(trial_value), trial_terms, trial_f, trial_weights
    return w, value, terms


def _refine(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Two-phase L-BFGS descent of the tangle sum over W -> W U, U in U(m).

    Every W U with U unitary is an exact decomposition of the same state
    (Hughston-Jozsa-Wootters), so the descent runs on U(m), as in
    Roethlisberger, Lehmann and Loss, PRA 80, 042301 (2009); each phase is
    one ``_descend``. The tangle sum sum_k q_k is not smooth where a
    column's Hdet vanishes, and its minimiser puts most columns there, so a
    descent of it crawls. So the first ``_SMOOTH_STEPS`` (17) accepted steps
    descend the smooth surrogate sum_k q_k^2, which vanishes exactly where
    the tangle sum does. Its minimisers differ from the tangle sum's where
    the roof is positive, so the remaining ``_REFINE_STEPS - _SMOOTH_STEPS``
    (2) steps descend the tangle sum, with fresh L-BFGS memory. Returns the start or the end of the descent,
    whichever has the lower tangle sum, with that sum.
    """
    value, terms = _tangle_terms(w)
    value = float(value)
    end, end_value, end_terms = _descend(w, value, terms, _smooth_sum, _SMOOTH_STEPS)
    end, end_value, _ = _descend(end, end_value, end_terms, _tangle_sum, _REFINE_STEPS - _SMOOTH_STEPS)
    return (end, end_value) if end_value < value else (w, value)


def three_tangle_mixed_upper(rho: DensityMatrix, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> float:
    """Upper bound on the convex-roof three-tangle of a mixed state.

    Pure-state decompositions are generated by mixing the eigendecomposition
    through random isometries with twice the rank many components, and the
    best candidate is refined by L-BFGS descent over unitaries that re-mix
    all its columns at once. The eigendecomposition's average is
    the floor; the descent starts from the best restart. Deterministic for a
    given seed; the result is always a valid upper bound because every
    candidate is an exact decomposition. Raises ``TypeError`` for a sequence
    of states and ``ValueError`` unless ``require_count`` finds ``restarts`` in
    [1, :data:`MAX_RESTARTS`] and ``seed`` is an integer (numpy integers are
    accepted; floats and booleans are not).
    """
    if not state_stack(rho, 8)[1]:
        raise TypeError("three_tangle_mixed_upper takes one DensityMatrix, not a sequence")
    restarts = require_count("restarts", restarts, 1, MAX_RESTARTS)
    seed = require_integer("seed", seed)
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    lam = vals[keep]
    lam = lam / lam.sum()
    basis = vecs[:, keep]
    r = int(lam.shape[0])
    m_root = basis * np.sqrt(lam)
    floor = float(_column_tangle_sum(m_root))
    if r == 1 or floor < 1e-9:
        return floor
    values, candidates = _restart_values(m_root, restarts, seed % (2**63))
    return min(floor, _refine(candidates[int(np.argmin(values))])[1])


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of evaluating the witness alpha*I - |phi><phi| on a state."""

    alpha: float
    expectation: float
    is_tripartite_entangled: bool
    robustness_lower_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def witness_evaluate(rho: DensityMatrix, phi, alpha: float) -> WitnessResult:
    """Evaluate Tr(W rho) for W = alpha*I - |phi><phi|.

    A negative expectation certifies genuine tripartite entanglement when
    ``alpha`` is the maximal squared biseparable overlap with ``phi``; the
    robustness lower bound is max(0, -expectation/alpha).
    """
    if not (is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be a real number strictly between 0 and 1, got {alpha!r}")
    overlap = state_fidelity_pure(rho, phi)
    exp_value = alpha - overlap
    return WitnessResult(
        alpha=alpha,
        expectation=exp_value,
        is_tripartite_entangled=bool(exp_value < -_WITNESS_TOL),
        robustness_lower_bound=max(0.0, -exp_value / alpha),
    )

