import sys
from collections import Counter

import numpy as np
import pytest

from oracles import (
    biseparable_alpha,
    hyperdet_tangle,
    monogamy_tangle,
    partial_trace_index_sum,
    random_density,
    random_ket,
    random_unitary,
    rank_two_roof,
    wootters_concurrence,
)
import telebench.entanglement as entanglement
from telebench.entanglement import (
    MAX_RESTARTS,
    WitnessResult,
    _column_tangle_sum,
    _haar_isometries,
    _refine,
    _restart_isometries,
    _restart_values,
    _smooth_sum,
    _tangle_gradient,
    _tangle_terms,
    three_tangle_mixed_upper,
    three_tangle_pure,
    witness_evaluate,
)
from telebench.circuit import DeviceParams, ideal_phi
from telebench.qops import DensityMatrix, computational_ket, state_fidelity_pure
from telebench.teleport_bench import ENTANGLED_INPUT_LABELS, INPUT_KETS, WITNESS_ALPHA, run_benchmark, run_state


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


# --- concurrence (the oracle behind monogamy_tangle) ----------------------------


def test_concurrence_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert wootters_concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    assert wootters_concurrence(DensityMatrix.from_ket(computational_ket(0, 4)).matrix) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert wootters_concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_range_and_local_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = random_ket(rng, 4)
        rho = np.outer(psi, psi.conj())
        c = wootters_concurrence(rho)
        assert 0.0 <= c <= 1.0
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert wootters_concurrence(u @ rho @ u.conj().T) == pytest.approx(c, abs=1e-9)


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
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = random_ket(rng, 8)
        rho = np.outer(psi, psi.conj())
        c2_a_bc = 4.0 * np.linalg.det(partial_trace_index_sum(rho, [2, 2, 2], [0])).real
        c_ab = wootters_concurrence(partial_trace_index_sum(rho, [2, 2, 2], [0, 1]))
        c_ac = wootters_concurrence(partial_trace_index_sum(rho, [2, 2, 2], [0, 2]))
        assert c_ab**2 + c_ac**2 <= c2_a_bc + 1e-9


def test_three_tangle_rejects_unnormalized():
    with pytest.raises(ValueError):
        three_tangle_pure(np.ones(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kets_are_not_normalized(bad):
    # A NaN norm compares false against any tolerance, so a check written as
    # abs(norm - 1) > tol lets a NaN ket through.
    rho = DensityMatrix(np.eye(8) / 8.0)
    ket = computational_ket(0, 8)
    ket[3] = bad
    calls = (
        lambda: state_fidelity_pure(rho, ket),
        lambda: witness_evaluate(rho, ket, WITNESS_ALPHA),
        lambda: three_tangle_pure(ket),
        lambda: ideal_phi(np.array([bad, 0.0])),
    )
    for call in calls:
        with pytest.raises(ValueError, match="not normalized"):
            call()
    with pytest.raises(ValueError, match="member 1: ket is not normalized"):
        state_fidelity_pure([rho, rho], np.array([computational_ket(0, 8), ket]))


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


@pytest.fixture(scope="module")
def ghz_zero_mixture_scan():
    # Equal mixture of |GHZ><GHZ| and |000><000|: scan all two-component
    # rank-2 decompositions (one complex mixing angle) with the
    # hyperdeterminant as the tangle.
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
    return rho, best_scan, three_tangle_pure(vecs[:, -1])


@pytest.mark.parametrize("seed", range(40))
def test_mixed_tangle_ghz_zero_mixture_against_scan_oracle(ghz_zero_mixture_scan, seed):
    # The search must do at least as well as the scan on every seed. The
    # dominant-eigenvector tangle is a weaker surrogate that the bound must
    # also beat.
    rho, best_scan, dominant = ghz_zero_mixture_scan
    value = three_tangle_mixed_upper(rho, restarts=60, seed=seed)
    assert value <= best_scan + 1e-3
    assert value <= dominant + 1e-9


def eigen_average_tangle(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    return sum(lam * hyperdet_tangle(v) for lam, v in zip(vals, vecs.T) if lam > 1e-12)


@pytest.mark.parametrize("rank", [3, 8])
def test_restart_candidates_depend_only_on_seed_and_index(rank):
    # Restart k is block k of one Gaussian draw, so the first 50 restarts of
    # a 200-restart search are those of a 50-restart search, bit for bit.
    # Every candidate is an exact decomposition with 2r columns.
    rho = random_density(np.random.default_rng(16), 8, rank)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    assert np.count_nonzero(keep) == rank
    root = vecs[:, keep] * np.sqrt(vals[keep])
    few_values, few_candidates = _restart_values(root, 50, 9)
    values, candidates = _restart_values(root, 200, 9)
    np.testing.assert_array_equal(few_values, values[:50])
    assert candidates.shape == (200, 8, 2 * rank)
    for k, w in enumerate(candidates):
        assert np.max(np.abs(w @ w.conj().T - rho)) <= 1e-12
        assert values[k] == _column_tangle_sum(w)
        if k < 50:
            np.testing.assert_array_equal(few_candidates[k], w)


@pytest.fixture
def built_generators(monkeypatch):
    """The (function, arguments) of every ``default_rng`` that ``entanglement``
    builds from here on, with the restart pool of an earlier test dropped
    from the cache."""
    built = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_globals["__name__"] == entanglement.__name__:
            built.append((caller.f_code.co_name, args))
        return default_rng(*args, **kwargs)

    _restart_isometries.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    return built


def pool_draws(built):
    return [args for name, args in built if name == "_restart_isometries"]


def rotation_draws(built):
    return [args for name, args in built if name == "_restart_values"]


def test_mixed_tangle_builds_one_generator_per_call(built_generators):
    # One rotation stream per call serves all restarts and the refine draws
    # nothing; the pool comes from its fixed seed once, at the first call.
    # Building a generator per restart cost more than a third of the restart
    # phase.
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    for seed in (4, 5, 4):
        assert three_tangle_mixed_upper(rho, restarts=200, seed=seed) > 1e-9
    assert pool_draws(built_generators) == [(entanglement._POOL_SEED,)]
    assert rotation_draws(built_generators) == [(4,), (5,), (4,)]
    assert len(built_generators) == 4


def test_a_noisy_run_draws_its_restarts_once(built_generators):
    # Every entangled output of a noisy run at shots 0 has rank 8, so runs of
    # any seed share one pool; each search draws only its rotation.
    for seed in (3, 4, 5):
        report = run_benchmark(DeviceParams.reference(), shots=0, seed=seed, noise=True, restarts=20)
        assert all(report["states"][label]["three_tangle_upper"] > 1e-9 for label in ENTANGLED_INPUT_LABELS)
    assert len(pool_draws(built_generators)) == 1
    assert len(rotation_draws(built_generators)) == 3 * len(ENTANGLED_INPUT_LABELS)
    assert _restart_isometries.cache_info().misses == 1


def test_restart_draw_is_shared_only_by_states_of_one_rank(built_generators):
    rng = np.random.default_rng(17)
    rank_three, rank_eight, other_rank_eight = (DensityMatrix(random_density(rng, 8, r)) for r in (3, 8, 8))
    for seed, (rho, drawn) in enumerate(((rank_three, 1), (rank_eight, 2), (other_rank_eight, 2), (rank_three, 2))):
        three_tangle_mixed_upper(rho, restarts=20, seed=seed)
        assert len(pool_draws(built_generators)) == drawn
    assert len(rotation_draws(built_generators)) == 4


def test_a_cached_restart_draw_gives_the_bound_of_a_fresh_one():
    rng = np.random.default_rng(18)
    rho, other = (DensityMatrix(random_density(rng, 8, 4)) for _ in range(2))
    _restart_isometries.cache_clear()
    cold = three_tangle_mixed_upper(rho, restarts=50, seed=8)
    _restart_isometries.cache_clear()
    three_tangle_mixed_upper(other, restarts=50, seed=9)
    assert three_tangle_mixed_upper(rho, restarts=50, seed=8) == cold
    assert _restart_isometries.cache_info().hits == 1
    v_dag = _restart_isometries(50, 4)
    assert v_dag.shape == (50, 4, 8)
    with pytest.raises(ValueError, match="read-only"):
        v_dag[0, 0, 0] = 0.0


@pytest.mark.parametrize("rank", [2, 8])
def test_restart_candidates_are_the_pool_rotated_by_one_unitary_per_seed(rank):
    # With the root [I_r; 0], candidate k is [R^dag V_k^dag; 0], and
    # V_k^dag V_k = I_r gives R^dag back from every k: one R per seed,
    # unitary to 1e-12, and another R for another seed.
    root = np.eye(8, rank, dtype=complex)
    pool = _restart_isometries(20, rank)
    rotations = []
    for seed in (3, 4):
        candidates = _restart_values(root, 20, seed)[1]
        np.testing.assert_array_equal(candidates[:, rank:], 0.0)
        r_dag = candidates[:, :rank] @ np.swapaxes(pool.conj(), -1, -2)
        assert np.max(np.abs(r_dag - r_dag[0])) <= 1e-12
        assert np.max(np.abs(r_dag[0] @ r_dag[0].conj().T - np.eye(rank))) <= 1e-12
        rotations.append(r_dag[0])
    assert np.max(np.abs(rotations[0] - rotations[1])) > 0.1


@pytest.mark.parametrize("restarts", [1, 2, 8, 9, 10])
def test_mixed_tangle_rank_eight_few_restarts(restarts):
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
    # roof. Below p0 the search can stay far above the roof (up to 0.2 at
    # p = 0.2 over seeds 0-9); nothing is asserted about tightness there.
    rho = ghz_w_mixture(p)
    for seed in range(3):
        assert three_tangle_mixed_upper(rho, seed=seed) >= ghz_w_roof(p) - 1e-9


@pytest.mark.parametrize("p", [0.65, 0.7, 0.8, 0.9])
def test_mixed_tangle_ghz_w_bound_is_tight_above_p0(p):
    rho = ghz_w_mixture(p)
    for seed in range(3):
        assert three_tangle_mixed_upper(rho, seed=seed) <= ghz_w_roof(p) + 0.02


@pytest.mark.parametrize("amplitude", [1 / np.sqrt(3.0), 3**-0.5], ids=["1/np.sqrt(3.0)", "3**-0.5"])
def test_mixed_tangle_ghz_w_bound_is_tight_at_half(amplitude):
    # Below p0 the roof is 0. At p = 0.5 the plain 26-step descent ended up
    # to 0.233 above it on 6 of these 10 seeds, with W built either way; the
    # smooth-first descent ends within 0.02 on all of them.
    w_state = np.zeros(8, dtype=complex)
    w_state[[1, 2, 4]] = amplitude
    rho = DensityMatrix(0.5 * np.outer(GHZ, GHZ.conj()) + 0.5 * np.outer(w_state, w_state.conj()))
    for seed in range(10):
        assert three_tangle_mixed_upper(rho, seed=seed) <= ghz_w_roof(0.5) + 0.02


@pytest.mark.parametrize("p", [0.2, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9])
def test_rank_two_roof_reproduces_the_ghz_w_roof(p):
    # The LP is a second oracle for the analytic roof: exact above p0, and
    # within 2e-5 of the zero roof below it.
    value = rank_two_roof(ghz_w_mixture(p).matrix)
    if p < GHZ_W_P0:
        assert 0.0 <= value <= 2e-5
    else:
        assert value == pytest.approx(ghz_w_roof(p), abs=1e-6)


def test_mixed_tangle_never_goes_below_the_rank_two_roof():
    # Both are exact decompositions, so a search value below the LP is no
    # defect in itself: the LP is an upper bound, exact only to its grid
    # refinement. The 1e-6 tolerance therefore also bounds how far the LP may
    # sit above the roof: on these states and seeds 0-4 the search ends at most 3.7e-10
    # below the LP, but the last state at seed 9 ends 1.45e-7 below it (LP
    # 0.2378), so there the LP is at least that far above the roof. If it
    # ever fails, check the oracle's refinement before the search. How far
    # the search stays above the LP is not gated here.
    rng = np.random.default_rng(2026)
    for _ in range(10):
        rho = random_density(rng, 8, 2)
        roof = rank_two_roof(rho)
        for seed in range(5):
            assert three_tangle_mixed_upper(DensityMatrix(rho), seed=seed) >= roof - 1e-6


def test_descent_always_starts_from_a_restart_candidate(monkeypatch):
    # The r eigendecomposition columns cannot re-mix into a decomposition with
    # more elements, so the descent starts from the best 2r-column restart even
    # where the eigendecomposition scores lower: GHZ/W at p = 0.2, W as 3**-0.5.
    starts = []
    refine = entanglement._refine

    def recording_refine(w):
        starts.append(w.shape)
        return refine(w)

    monkeypatch.setattr(entanglement, "_refine", recording_refine)
    w_state = np.zeros(8, dtype=complex)
    w_state[[1, 2, 4]] = 3**-0.5
    rho = DensityMatrix(0.2 * np.outer(GHZ, GHZ.conj()) + 0.8 * np.outer(w_state, w_state.conj()))
    for seed in range(10):
        three_tangle_mixed_upper(rho, seed=seed)
    assert starts == [(8, 4)] * 10


def gradient_columns():
    # Column pairs (8, 2): generic ones, a zero column, parallel columns, a
    # pair of total weight 1e-3 and columns 1e4 apart in norm; then a generic
    # column beside a product state, whose Hdet is exactly 0.
    rng = np.random.default_rng(14)
    pairs = [rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)) for _ in range(8)]
    pairs[3][:, 1] = 0.0
    pairs[4][:, 1] = (0.6 - 0.3j) * pairs[4][:, 0]
    pairs[5] *= np.sqrt(1e-3 / np.sum(np.abs(pairs[5]) ** 2))
    pairs[6][:, 0] *= 1e-4
    pairs[7][:, 1] = np.kron(pairs[7][:4, 1], [1.0, 0.0])
    return pairs


@pytest.mark.parametrize("index", range(8))
def test_tangle_gradient_matches_central_differences(index):
    # Each column adds to _column_tangle_sum on its own, so each is
    # differenced alone, with a step relative to its norm; G is the
    # gradient in the sense df = Re tr(G^dag dW).
    w = gradient_columns()[index]
    gradient = _tangle_gradient(w, _tangle_terms(w)[1])
    assert np.all(np.isfinite(gradient))
    for k in range(w.shape[1]):
        column = w[:, [k]]
        norm = float(np.linalg.norm(column))
        h = 1e-5 * (norm or 0.1)
        numeric = np.zeros(8, dtype=complex)
        for unit in (1.0, 1.0j):
            steps = h * unit * np.eye(8)[:, :, np.newaxis]
            numeric += unit * (_column_tangle_sum(column + steps) - _column_tangle_sum(column - steps)) / (2.0 * h)
        np.testing.assert_allclose(gradient[:, k], numeric, rtol=1e-6, atol=1e-9 * norm)


@pytest.mark.parametrize("rank", [8, 2])
def test_smooth_sum_gradient_matches_central_differences(rank):
    # The surrogate sum_k q_k^2 is differenced column by column, like the
    # tangle sum, on a 2r-column decomposition of a random rank-r state; its
    # gradient is _tangle_gradient with column k weighted by 2 q_k.
    rng = np.random.default_rng(16)
    vals, vecs = np.linalg.eigh(random_density(rng, 8, rank))
    root = vecs[:, -rank:] * np.sqrt(vals[-rank:])
    w = root @ _haar_isometries(rng.normal(size=(2 * rank, rank)) + 1j * rng.normal(size=(2 * rank, rank))).conj().T
    value, terms = _tangle_terms(w)
    surrogate, weights = _smooth_sum(value, terms)
    gradient = _tangle_gradient(w, terms) * weights
    assert surrogate > 0.0
    for k in range(w.shape[1]):
        column = w[:, [k]]
        h = 1e-5 * float(np.linalg.norm(column))
        numeric = np.zeros(8, dtype=complex)
        for unit in (1.0, 1.0j):
            steps = h * unit * np.eye(8)[:, :, np.newaxis]
            plus, minus = (_smooth_sum(*_tangle_terms(column + sign * steps))[0] for sign in (1.0, -1.0))
            numeric += unit * (plus - minus) / (2.0 * h)
        np.testing.assert_allclose(gradient[:, k], numeric, rtol=1e-6, atol=1e-9 * float(np.linalg.norm(gradient[:, k])))


@pytest.mark.parametrize("state", ["rank3", "rank8", "ghz_w"])
def test_refine_keeps_the_decomposition_and_never_raises_the_tangle(state):
    # Every accepted move is a unitary mix of all columns, so W W^dag must stay
    # the input's to 1e-12, and the direct tangle sum may only fall. The value
    # the descent returns is the tangle sum of the W it returns, bit for bit.
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
    for m in (r, r + 2, 2 * r):
        g = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
        w = root @ _haar_isometries(g).conj().T
        before = _column_tangle_sum(w)
        refined, after = _refine(w)
        assert np.max(np.abs(refined @ refined.conj().T - w @ w.conj().T)) <= 1e-12
        assert after == _column_tangle_sum(refined)
        assert after <= before
        lowered.append(after < before - 1e-6)
    assert any(lowered)


def test_a_noisy_search_evaluates_few_rejected_trials(monkeypatch):
    # One search on the noisy reference minus output (shots 0, seed 0): one
    # gradient per accepted step, and at most 1.3 tangle sums per step plus 2
    # for the floor, the restarts, the start and the trials. So a descent that
    # brings back rejected trials fails here without any timing; the 30-step
    # conjugate-gradient descent made 56 and 30 such calls.
    calls = Counter()
    for name in ("_tangle_terms", "_tangle_gradient"):
        function = getattr(entanglement, name)
        monkeypatch.setattr(entanglement, name, lambda *args, name=name, f=function: calls.update([name]) or f(*args))
    run_state(DeviceParams.reference(), "minus", shots=0, seed=0, noise=True)
    assert 1 <= calls["_tangle_gradient"] <= entanglement._REFINE_STEPS + 1
    assert calls["_tangle_terms"] <= 1.3 * entanglement._REFINE_STEPS + 2


def test_mixed_tangle_validates_inputs():
    with pytest.raises(ValueError):
        three_tangle_mixed_upper(DensityMatrix(np.eye(4) / 4.0))
    with pytest.raises(ValueError):
        three_tangle_mixed_upper(DensityMatrix(np.eye(8) / 8.0), restarts=0)


@pytest.mark.parametrize("restarts", [True, 2.5, 200.0, "200", None])
def test_mixed_tangle_rejects_non_integer_restarts(restarts):
    # Unchecked, restarts=True fails inside numpy with a TypeError, and a
    # float is no restart count.
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    with pytest.raises(ValueError, match="restarts must be an integer"):
        three_tangle_mixed_upper(rho, restarts=restarts, seed=4)


def refuse_draws(*args, **kwargs):
    raise AssertionError("drew random numbers before checking restarts")


def test_mixed_tangle_rejects_restarts_above_the_bound_before_any_draw(monkeypatch):
    # Unbounded, each restart holds about 7.4 KB of candidates at rank 8,
    # so a count of 10**7 asked for about 74 GB before failing.
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    monkeypatch.setattr(np.random, "default_rng", refuse_draws)
    for restarts in (MAX_RESTARTS + 1, 10**7):
        with pytest.raises(ValueError, match=f"restarts must be at most {MAX_RESTARTS}, got {restarts}"):
            three_tangle_mixed_upper(rho, restarts=restarts, seed=4)


def test_mixed_tangle_accepts_restarts_at_the_bound():
    # A pure state needs no search, so the bound itself is checked without drawing.
    assert three_tangle_mixed_upper(DensityMatrix.from_ket(GHZ), restarts=MAX_RESTARTS) == pytest.approx(1.0)


def test_mixed_tangle_accepts_numpy_integer_restarts():
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    assert three_tangle_mixed_upper(rho, restarts=np.int64(20), seed=4) == three_tangle_mixed_upper(
        rho, restarts=20, seed=4
    )


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
    # A string, None or a list used to raise a bare TypeError from the range comparison.
    for alpha in (0.0, 1.0, -0.2, 1.5, True, False, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            witness_evaluate(rho, phi, alpha=alpha)
    assert witness_evaluate(rho, phi, alpha=np.float64(0.5)) == witness_evaluate(rho, phi, alpha=0.5)


def test_witness_takes_a_target_inside_the_norm_tolerance():
    e0 = computational_ket(0, 8)
    result = witness_evaluate(DensityMatrix.from_ket(e0), e0 * (1 + 5e-7), alpha=0.5)
    assert result.expectation == -0.5 and result.robustness_lower_bound == 1.0


def test_witness_result_serializes():
    result = WitnessResult(0.5, -0.3, True, 0.6)
    assert result.to_dict() == {
        "alpha": 0.5,
        "expectation": -0.3,
        "is_tripartite_entangled": True,
        "robustness_lower_bound": 0.6,
    }


# --- biseparable overlap (the oracle for WITNESS_ALPHA) -----------------------------


def test_witness_alpha_is_the_biseparable_bound_of_the_entangled_outputs():
    # The oracle's largest reduced eigenvalue is 1/2 up to rounding.
    for label in ENTANGLED_INPUT_LABELS:
        assert WITNESS_ALPHA == pytest.approx(biseparable_alpha(ideal_phi(INPUT_KETS[label])), abs=1e-15)


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
