import numpy as np
import pytest

from oracles import hyperdet_tangle, monogamy_tangle, random_density, random_ket, random_unitary
from telebench.entanglement import (
    _GRID_NORM,
    _GRID_PHASES,
    _GRID_PHI,
    _GRID_QUARTIC,
    _GRID_THETA,
    _ZOOM_NORM,
    _ZOOM_PHASES,
    _ZOOM_PHI,
    _ZOOM_QUARTIC,
    _ZOOM_THETA,
    WitnessResult,
    _column_tangle_sum,
    _haar_isometries,
    _mix_pair,
    _pair_forms,
    _pair_grid,
    _refine_pairs,
    biseparable_alpha,
    concurrence,
    three_tangle_mixed_upper,
    three_tangle_pure,
    witness_evaluate,
)
from telebench.circuit import ideal_phi
from telebench.qops import DensityMatrix, computational_ket


GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1.0 / np.sqrt(2.0)
W_STATE = np.zeros(8, dtype=complex)
W_STATE[1] = W_STATE[2] = W_STATE[4] = 1.0 / np.sqrt(3.0)
MINUS = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def local_unitary(rng, parts=3):
    u = np.array([[1.0 + 0.0j]])
    for _ in range(parts):
        u = np.kron(u, random_unitary(rng, 2))
    return u


# --- concurrence ------------------------------------------------------------


def test_concurrence_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert concurrence(DensityMatrix.from_ket(bell)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    assert concurrence(DensityMatrix.from_ket(computational_ket(0, 4))) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert concurrence(DensityMatrix(np.eye(4) / 4.0)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_range_and_local_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = random_ket(rng, 4)
        rho = DensityMatrix.from_ket(psi)
        c = concurrence(rho)
        assert 0.0 <= c <= 1.0
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(c, abs=1e-9)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(np.eye(8) / 8.0))


# --- pure-state tangle --------------------------------------------------------


def test_three_tangle_ghz():
    assert three_tangle_pure(GHZ) == pytest.approx(1.0, abs=1e-8)


def test_three_tangle_w_state():
    assert three_tangle_pure(W_STATE) == pytest.approx(0.0, abs=1e-8)


def test_three_tangle_product_states():
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = np.kron(random_ket(rng, 2), np.kron(random_ket(rng, 2), random_ket(rng, 2)))
        assert three_tangle_pure(psi) == pytest.approx(0.0, abs=1e-8)


def test_three_tangle_matches_hyperdeterminant_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        psi = random_ket(rng, 8)
        value = three_tangle_pure(psi)
        assert abs(value - hyperdet_tangle(psi)) < 1e-8
        assert abs(value - monogamy_tangle(psi)) < 1e-8


def test_column_tangle_sum_matches_normalized_oracle_sum():
    # Unnormalized columns, one of them zero: the homogeneous form must equal
    # sum_k p_k tau(w_k / sqrt(p_k)), skipping the zero column, also batched.
    rng = np.random.default_rng(12)
    for m in (1, 2, 5, 9):
        stack = rng.normal(size=(3, 8, m)) + 1j * rng.normal(size=(3, 8, m))
        stack *= rng.uniform(0.05, 2.0, size=(3, 1, m))
        stack[1, :, m // 2] = 0.0
        expected = []
        for w in stack:
            p = np.sum(np.abs(w) ** 2, axis=0)
            expected.append(sum(pk * hyperdet_tangle(wk / np.sqrt(pk)) for pk, wk in zip(p, w.T) if pk > 0))
        batched = _column_tangle_sum(stack)
        assert batched.shape == (3,)
        for w, b, e in zip(stack, batched, expected):
            assert abs(_column_tangle_sum(w) - e) < 1e-12
            assert abs(b - e) < 1e-12


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_ket(rng, 8)
        value = three_tangle_pure(psi)
        rotated = local_unitary(rng) @ psi
        assert three_tangle_pure(rotated) == pytest.approx(value, abs=1e-8)


def test_ckw_monogamy_never_violated():
    from telebench.qops import partial_trace

    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = random_ket(rng, 8)
        rho = DensityMatrix.from_ket(psi)
        rho_a = partial_trace(rho, {0}).matrix
        c2_a_bc = 4.0 * np.linalg.det(rho_a).real
        c_ab = concurrence(partial_trace(rho, {0, 1}))
        c_ac = concurrence(partial_trace(rho, {0, 2}))
        assert c_ab**2 + c_ac**2 <= c2_a_bc + 1e-9


def test_three_tangle_rejects_unnormalized():
    with pytest.raises(ValueError):
        three_tangle_pure(np.ones(8))


# --- mixed-state tangle upper bound -------------------------------------------


def test_mixed_tangle_of_pure_ghz():
    value = three_tangle_mixed_upper(DensityMatrix.from_ket(GHZ), restarts=10, seed=0)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_mixed_tangle_equals_pure_tangle_for_pure_states():
    rng = np.random.default_rng(6)
    for seed in range(5):
        psi = random_ket(rng, 8)
        rho = DensityMatrix.from_ket(psi)
        value = three_tangle_mixed_upper(rho, restarts=10, seed=seed)
        assert value == pytest.approx(three_tangle_pure(psi), abs=1e-6)


def test_mixed_tangle_maximally_mixed_reaches_zero():
    value = three_tangle_mixed_upper(DensityMatrix(np.eye(8) / 8.0), restarts=200, seed=0)
    assert value <= 1e-6


def test_mixed_tangle_is_deterministic_given_seed():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    a = three_tangle_mixed_upper(rho, restarts=25, seed=5)
    b = three_tangle_mixed_upper(rho, restarts=25, seed=5)
    assert a == b


def test_mixed_tangle_ghz_zero_mixture_against_scan_oracle():
    # Equal mixture of |GHZ><GHZ| and |000><000|: scan all two-component
    # rank-2 decompositions (one complex mixing angle) with the
    # hyperdeterminant as the tangle, and require the search to do at least
    # as well. The dominant-eigenvector tangle is a weaker surrogate that
    # the bound must also beat.
    zero = computational_ket(0, 8)
    rho = DensityMatrix(0.5 * np.outer(GHZ, GHZ.conj()) + 0.5 * np.outer(zero, zero.conj()))
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    lam, basis = vals[keep], vecs[:, keep]
    assert lam.shape[0] == 2
    m = basis * np.sqrt(lam)
    best_scan = np.inf
    for theta in np.linspace(0.0, np.pi / 2.0, 91):
        c, s = np.cos(theta), np.sin(theta)
        for phase in np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False):
            e = np.exp(1j * phase)
            w1 = c * m[:, 0] + e * s * m[:, 1]
            w2 = -np.conj(e) * s * m[:, 0] + c * m[:, 1]
            total = 0.0
            for w in (w1, w2):
                p = float(np.linalg.norm(w)) ** 2
                if p > 1e-14:
                    total += p * hyperdet_tangle(w / np.sqrt(p))
            best_scan = min(best_scan, total)
    value = three_tangle_mixed_upper(rho, restarts=60, seed=3)
    dominant = three_tangle_pure(vecs[:, -1])
    assert value <= best_scan + 1e-3
    assert value <= dominant + 1e-9


def eigen_average_tangle(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    return sum(lam * hyperdet_tangle(v) for lam, v in zip(vals, vecs.T) if lam > 1e-12)


@pytest.mark.parametrize("restarts", [1, 2, 8, 9, 10])
def test_mixed_tangle_rank_eight_few_restarts(restarts):
    # Rank 8 draws r + k % (r + 1) = 8..16 columns per restart, so fewer than
    # nine restarts leave some column counts without a candidate.
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    value = three_tangle_mixed_upper(rho, restarts=restarts, seed=4)
    assert 0.0 <= value <= eigen_average_tangle(rho) + 1e-12


# Convex roof of rho(p) = p |GHZ><GHZ| + (1 - p) |W><W| (Lohmayer, Osterloh,
# Siewert and Uhlmann, PRL 97, 260502 (2006)). The pure superpositions
# sqrt(p) GHZ - sqrt(1 - p) W have tangle g(p) = p^2 - (8 sqrt6 / 9) sqrt(p (1 - p)^3),
# which vanishes at p0; the roof is 0 up to p0, g(p) up to p1, and beyond p1
# the tangent line from (p1, g(p1)) to the pure GHZ point (1, 1).
GHZ_W_P0 = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))
GHZ_W_P1 = 0.5 + 3.0 * np.sqrt(465.0) / 310.0
GHZ_W_SLOPE = 1.5 + np.sqrt(465.0) / 18.0


def ghz_w_superposition_tangle(p):
    return p**2 - (8.0 * np.sqrt(6.0) / 9.0) * np.sqrt(p * (1.0 - p) ** 3)


def ghz_w_roof(p):
    if p <= GHZ_W_P0:
        return 0.0
    if p <= GHZ_W_P1:
        return ghz_w_superposition_tangle(p)
    return 1.0 - (1.0 - p) * GHZ_W_SLOPE


def ghz_w_mixture(p):
    return DensityMatrix(p * np.outer(GHZ, GHZ.conj()) + (1.0 - p) * np.outer(W_STATE, W_STATE.conj()))


def test_ghz_w_roof_constants():
    assert GHZ_W_P0 == pytest.approx(0.6269, abs=1e-4)
    assert GHZ_W_P1 == pytest.approx(0.7087, abs=1e-4)
    for p in (0.3, GHZ_W_P0, 0.68, GHZ_W_P1, 0.9):
        psi = np.sqrt(p) * GHZ - np.sqrt(1.0 - p) * W_STATE
        assert hyperdet_tangle(psi) == pytest.approx(abs(ghz_w_superposition_tangle(p)), abs=1e-12)
    assert ghz_w_superposition_tangle(GHZ_W_P0) == pytest.approx(0.0, abs=1e-12)
    # p1 is where the line through (1, 1) touches g: equal value and slope.
    assert 1.0 - (1.0 - GHZ_W_P1) * GHZ_W_SLOPE == pytest.approx(ghz_w_superposition_tangle(GHZ_W_P1), abs=1e-12)
    h = 1e-6
    slope = (ghz_w_superposition_tangle(GHZ_W_P1 + h) - ghz_w_superposition_tangle(GHZ_W_P1 - h)) / (2.0 * h)
    assert slope == pytest.approx(GHZ_W_SLOPE, abs=1e-6)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0])
def test_mixed_tangle_ghz_w_bound_is_valid(p):
    # Every candidate is an exact decomposition, so no seed may go below the
    # roof. Below p0 the search stays far above the roof (0.2 at p = 0.2);
    # nothing is asserted about tightness there.
    rho = ghz_w_mixture(p)
    for seed in range(3):
        assert three_tangle_mixed_upper(rho, seed=seed) >= ghz_w_roof(p) - 1e-9


@pytest.mark.parametrize("p", [0.7, 0.8, 0.9])
def test_mixed_tangle_ghz_w_bound_is_tight_above_p0(p):
    rho = ghz_w_mixture(p)
    best = min(three_tangle_mixed_upper(rho, seed=seed) for seed in range(3))
    assert best <= ghz_w_roof(p) + 0.02


def random_pairs():
    # Column pairs (8, 2): generic ones, a zero column, parallel columns, a
    # pair of total weight 1e-3 and columns 1e4 apart in norm.
    rng = np.random.default_rng(14)
    pairs = [rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)) for _ in range(7)]
    pairs[3][:, 1] = 0.0
    pairs[4][:, 1] = (0.6 - 0.3j) * pairs[4][:, 0]
    pairs[5] *= np.sqrt(1e-3 / np.sum(np.abs(pairs[5]) ** 2))
    pairs[6][:, 0] *= 1e-4
    return pairs


@pytest.mark.parametrize("index", range(7))
def test_pair_grid_matches_mixed_column_oracle(index):
    # The closed-form grid must score every point as the direct tangle sum of
    # the mixed pair does: on the coarse grid and on the zoom around each of
    # the 12 x 16 coarse points, including the negative angles zoomed at
    # theta index 0. Grid point (0, 0) is the unmixed pair.
    pair = random_pairs()[index]
    forms = _pair_forms(pair)
    theta, phi = np.meshgrid(_GRID_THETA, _GRID_PHI, indexing="ij")
    coarse = _pair_grid(forms, _GRID_QUARTIC, _GRID_NORM, _GRID_PHASES)
    np.testing.assert_allclose(coarse, _column_tangle_sum(_mix_pair(pair, theta, phi)), rtol=1e-12, atol=0.0)
    assert coarse[0, 0] == pytest.approx(_column_tangle_sum(pair), rel=1e-12)
    assert np.min(_GRID_THETA[0] + _ZOOM_THETA) < 0.0
    for i in range(_GRID_THETA.size):
        for j in range(_GRID_PHI.size):
            theta, phi = np.meshgrid(_GRID_THETA[i] + _ZOOM_THETA, _GRID_PHI[j] + _ZOOM_PHI, indexing="ij")
            zoom = _pair_grid(forms, _ZOOM_QUARTIC[i], _ZOOM_NORM[i], _ZOOM_PHASES[j])
            oracle = _column_tangle_sum(_mix_pair(pair, theta, phi))
            np.testing.assert_allclose(zoom, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("state", ["rank3", "rank8", "ghz_w"])
def test_refine_pairs_keeps_the_decomposition_and_never_raises_the_tangle(state):
    # Every accepted move is a unitary mix of two columns, so W W^dag must stay
    # the input's to 1e-12, and the direct tangle sum may only fall.
    rng = np.random.default_rng(15)
    rho = {
        "rank3": lambda: random_density(rng, 8, 3),
        "rank8": lambda: random_density(rng, 8),
        "ghz_w": lambda: ghz_w_mixture(0.5).matrix,
    }[state]()
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    root = vecs[:, keep] * np.sqrt(vals[keep])
    r = root.shape[1]
    lowered = []
    for seed, m in enumerate((r, r + 2, 2 * r)):
        g = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
        w = root @ _haar_isometries(g).conj().T
        before = _column_tangle_sum(w)
        refined = _refine_pairs(w.copy(), np.random.default_rng([seed, 1]))
        assert np.max(np.abs(refined @ refined.conj().T - w @ w.conj().T)) <= 1e-12
        after = _column_tangle_sum(refined)
        assert after <= before
        lowered.append(after < before - 1e-6)
    assert any(lowered)


def test_mixed_tangle_validates_inputs():
    with pytest.raises(ValueError):
        three_tangle_mixed_upper(DensityMatrix(np.eye(4) / 4.0))
    with pytest.raises(ValueError):
        three_tangle_mixed_upper(DensityMatrix(np.eye(8) / 8.0), restarts=0)


# --- witness -------------------------------------------------------------------


def test_witness_ideal_state_closed_form():
    phi = ideal_phi(MINUS)
    result = witness_evaluate(DensityMatrix.from_ket(phi), phi, alpha=0.5)
    assert result.expectation == pytest.approx(-0.5, abs=1e-12)
    assert result.is_tripartite_entangled
    assert result.robustness_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_witness_robustness_mapping_reference_values():
    # The reported witness value -0.28 with alpha = 0.5 maps to the
    # robustness bound 0.56.
    assert max(0.0, -(-0.28) / 0.5) == pytest.approx(0.56, abs=1e-12)
    phi = ideal_phi(MINUS)
    rho = DensityMatrix(0.78 * np.outer(phi, phi.conj()) + 0.22 * np.eye(8) / 8.0)
    result = witness_evaluate(rho, phi, alpha=0.5)
    assert result.robustness_lower_bound == pytest.approx(-result.expectation / 0.5, abs=1e-15)


def test_witness_separable_state_not_flagged():
    phi = ideal_phi(MINUS)
    result = witness_evaluate(DensityMatrix(np.eye(8) / 8.0), phi, alpha=0.5)
    assert result.expectation == pytest.approx(0.375, abs=1e-12)
    assert not result.is_tripartite_entangled
    assert result.robustness_lower_bound == 0.0


def test_witness_rejects_bad_alpha():
    phi = ideal_phi(MINUS)
    rho = DensityMatrix.from_ket(phi)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            witness_evaluate(rho, phi, alpha=alpha)


def test_witness_result_serializes():
    result = WitnessResult(0.5, -0.3, True, 0.6)
    assert result.to_dict() == {
        "alpha": 0.5,
        "expectation": -0.3,
        "is_tripartite_entangled": True,
        "robustness_lower_bound": 0.6,
    }


# --- biseparable overlap ----------------------------------------------------------


def test_biseparable_alpha_ghz():
    assert biseparable_alpha(GHZ) == pytest.approx(0.5, abs=1e-9)


def test_biseparable_alpha_ideal_outputs():
    assert biseparable_alpha(ideal_phi(MINUS)) == pytest.approx(0.5, abs=1e-9)
    assert biseparable_alpha(ideal_phi(PLUS)) == pytest.approx(0.5, abs=1e-9)


def test_biseparable_alpha_product_state():
    rng = np.random.default_rng(10)
    psi = np.kron(random_ket(rng, 2), np.kron(random_ket(rng, 2), random_ket(rng, 2)))
    assert biseparable_alpha(psi) == pytest.approx(1.0, abs=1e-9)


def test_biseparable_alpha_bounded_below_by_max_amplitude():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = random_ket(rng, 8)
        alpha = biseparable_alpha(psi)
        assert alpha <= 1.0 + 1e-12
        assert alpha >= float(np.max(np.abs(psi) ** 2)) - 1e-12
