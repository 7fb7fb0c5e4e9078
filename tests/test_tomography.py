import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import dense_linear_inversion, dense_pauli_set, kron_pauli, random_density, random_ket
import telebench.teleport_bench as tb
import telebench.tomography as tomography
from telebench.circuit import DeviceParams, apply_circuit, ideal_phi
from telebench.qops import PAULI_X, DensityMatrix, computational_ket
from telebench.tomography import (
    MAX_SHOTS,
    PAULI_LABELS,
    ZERO_EXPECTATION,
    linear_inversion,
    mle_reconstruct,
    pauli_set,
    simulate_readout,
)


def test_pauli_labels_are_the_63_nontrivial_strings_in_order():
    assert len(PAULI_LABELS) == 63
    assert "III" not in PAULI_LABELS
    assert PAULI_LABELS[0] == "IIX"
    assert PAULI_LABELS[-1] == "ZZZ"
    assert list(PAULI_LABELS) == sorted(PAULI_LABELS, key=lambda s: ["IXYZ".index(c) for c in s])


def test_analytic_readout_matches_exact_expectations():
    rng = np.random.default_rng(1)
    rho = DensityMatrix(random_density(rng, 8))
    values = simulate_readout(rho, shots=0, seed=0)
    for label, value in zip(PAULI_LABELS, values):
        assert value == pytest.approx(np.trace(rho.matrix @ kron_pauli(label)).real, abs=1e-12)


def test_analytic_readout_ground_state():
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    values = simulate_readout(rho, shots=0, seed=0)
    assert values[PAULI_LABELS.index("ZII")] == pytest.approx(1.0)
    assert values[PAULI_LABELS.index("XII")] == pytest.approx(0.0, abs=1e-12)


def test_sampled_readout_deterministic_given_seed():
    rho = DensityMatrix.from_ket(ideal_phi(np.array([1.0, -1.0j]) / np.sqrt(2.0)))
    a = simulate_readout(rho, shots=500, seed=123)
    b = simulate_readout(rho, shots=500, seed=123)
    c = simulate_readout(rho, shots=500, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("shots", [0, 500])
@pytest.mark.parametrize("seed", [17, 2024])
def test_sampled_readout_is_one_binomial_draw(seed, shots):
    # The +1 counts of all 63 settings are one binomial draw from
    # default_rng(seed); shots 0 returns the exact values.
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    exact = pauli_set(rho)
    expected = exact
    if shots:
        n_plus = np.random.default_rng(seed).binomial(shots, np.clip(0.5 * (1.0 + exact), 0.0, 1.0))
        expected = (2.0 * n_plus - shots) / shots
    values = simulate_readout(rho, shots=shots, seed=seed)
    assert values.shape == (63,)
    assert values.dtype == np.float64
    assert np.array_equal(values, expected)


def test_sampled_readout_builds_one_generator_per_call(monkeypatch):
    # Building a generator per setting cost most of a 10k-shot call.
    built = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    simulate_readout(rho, shots=500, seed=17)
    assert len(built) == 1
    simulate_readout(rho, shots=0, seed=17)
    assert len(built) == 1


def test_sampled_readout_settings_are_unbiased_with_binomial_variance_and_uncorrelated():
    # One stream must still give each setting the binomial statistics of
    # its own Born probability, with no coupling between settings: setting
    # i's mean is <P_i>, its variance (1 - <P_i>^2) / shots, and the
    # sample correlation of two settings is near 0 (one generator re-seeded
    # per setting would read 1).
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    exact = pauli_set(rho)
    shots, seeds = 400, 300
    samples = np.array([simulate_readout(rho, shots=shots, seed=seed) for seed in range(seeds)])
    variance = (1.0 - exact**2) / shots
    z = (samples.mean(axis=0) - exact) / np.sqrt(variance / seeds)
    assert np.max(np.abs(z)) < 5.0
    ratio = samples.var(axis=0, ddof=1) / variance
    assert 0.7 < ratio.min() and ratio.max() < 1.3
    r = np.corrcoef(samples, rowvar=False)
    assert np.max(np.abs(r - np.eye(63))) < 0.3


@pytest.mark.parametrize("delta", [1e-16, 1e-13])
@pytest.mark.parametrize("device", [None, DeviceParams.reference()], ids=["noise_off", "noise_on"])
def test_sampled_readout_does_not_jump_at_half_probability(device, delta, monkeypatch):
    # For p > 1/2 numpy draws n - binomial(n, 1 - p), so an expectation that
    # is 0 up to rounding drew one of two records by the sign of its rounding
    # error: at 10k shots this moved setting 26 of the noisy minus output.
    inputs = [tb._INPUT_STATES[label] for label in tb.INPUT_LABELS]
    signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(3, 63))
    signs[:2] = [[1.0], [-1.0]]
    for rho in apply_circuit(tb._CIRCUIT, inputs, device):
        exact = pauli_set(rho)
        near_zero = np.abs(exact) <= ZERO_EXPECTATION
        assert near_zero.any()
        for seed in (7, 8):
            record = simulate_readout(rho, shots=10_000, seed=seed)
            for sign in signs:
                perturbed = np.where(near_zero, exact + sign * delta, exact)
                monkeypatch.setattr(tomography, "pauli_set", lambda _, values=perturbed: values)
                assert np.array_equal(simulate_readout(rho, shots=10_000, seed=seed), record)
                monkeypatch.undo()


@pytest.mark.parametrize("shots", [2.5, 2.0, True, False, "10", None, -1, 2**63, 10**20])
def test_simulate_readout_rejects_invalid_shots(shots):
    # Unchecked, numpy would truncate 2.5 to 2 draws while the mean divides
    # by 2.5, True would run one shot, and 2**63 raised OverflowError.
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    with pytest.raises(ValueError, match="shots must be"):
        simulate_readout(rho, shots=shots, seed=0)


def test_simulate_readout_accepts_numpy_integer_shots():
    rho = DensityMatrix(random_density(np.random.default_rng(13), 8))
    assert np.array_equal(simulate_readout(rho, shots=np.int64(500), seed=17), simulate_readout(rho, shots=500, seed=17))
    assert np.array_equal(simulate_readout(rho, shots=np.uint16(0), seed=17), pauli_set(rho))


def test_simulate_readout_takes_shots_up_to_the_sampler_limit():
    assert MAX_SHOTS == np.iinfo(np.int64).max
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    values = simulate_readout(rho, shots=MAX_SHOTS, seed=3)
    assert np.all(np.abs(values - pauli_set(rho)) < 1e-6)


def test_sampled_readout_standard_error_scales_as_inverse_sqrt_shots():
    # <XII> = 0 on |000>, so the estimator is a centered binomial mean with
    # standard deviation 1/sqrt(shots).
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    shots = 400
    index = PAULI_LABELS.index("XII")
    estimates = [simulate_readout(rho, shots=shots, seed=seed)[index] for seed in range(100)]
    std = np.std(estimates)
    assert 0.7 / np.sqrt(shots) < std < 1.3 / np.sqrt(shots)


def test_linear_inversion_recovers_physical_state():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng, 8))
    mu = linear_inversion(simulate_readout(rho, shots=0, seed=0))
    assert np.max(np.abs(mu - rho.matrix)) < 1e-12


def test_linear_inversion_of_zero_record_is_maximally_mixed():
    assert np.allclose(linear_inversion(np.zeros(63)), np.eye(8) / 8.0)


def test_linear_inversion_output_is_hermitian_unit_trace_by_construction():
    rng = np.random.default_rng(5)
    mu = linear_inversion(rng.uniform(-1, 1, size=63))
    assert np.max(np.abs(mu - mu.conj().T)) < 1e-12
    assert np.trace(mu).real == pytest.approx(1.0, abs=1e-12)


def _set_xii(value):
    values = np.zeros(63)
    values[PAULI_LABELS.index("XII")] = value
    return values


@pytest.mark.parametrize(
    "values",
    [
        _set_xii(np.nan),
        _set_xii(np.inf),
        _set_xii(-np.inf),
        _set_xii(1.5),
        _set_xii(-1.0 - 1e-9),
        np.zeros(62),
        np.zeros(64),
    ],
    ids=["nan", "inf", "-inf", "above_one", "below_minus_one", "62_values", "64_values"],
)
def test_linear_inversion_rejects_invalid_estimates(values):
    with pytest.raises(ValueError):
        linear_inversion(values)
    with pytest.raises(ValueError):
        mle_reconstruct(values)


def test_mle_round_trip_analytic():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = DensityMatrix(random_density(rng, 8))
        recon = mle_reconstruct(simulate_readout(rho, shots=0, seed=0))
        assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-9


def test_mle_reconstruction_quality_at_1e4_shots():
    psi = ideal_phi(np.array([1.0, -1.0j]) / np.sqrt(2.0))
    rho = DensityMatrix.from_ket(psi)
    recon = mle_reconstruct(simulate_readout(rho, shots=10_000, seed=42))
    fidelity = float((psi.conj() @ recon.matrix @ psi).real)
    assert fidelity > 0.95


def test_mle_handles_negative_linear_inversion():
    # A noisy estimate whose linear inversion has negative eigenvalues must
    # land exactly on the truncate-and-redistribute projection.
    from telebench.qops import nearest_physical

    rng = np.random.default_rng(11)
    rho = DensityMatrix.from_ket(random_ket(rng, 8))
    values = simulate_readout(rho, shots=50, seed=3)
    mu = linear_inversion(values)
    assert np.linalg.eigvalsh(mu)[0] < -1e-6
    recon = mle_reconstruct(values)
    assert np.max(np.abs(recon.matrix - nearest_physical(mu).matrix)) < 1e-12
    assert np.linalg.eigvalsh(recon.matrix)[0] > -1e-9


def test_estimator_consistency_with_growing_shots():
    psi = ideal_phi(np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = DensityMatrix.from_ket(psi)
    medians = []
    for shots in (100, 1_000, 10_000):
        dists = []
        for seed in range(20):
            recon = mle_reconstruct(simulate_readout(rho, shots=shots, seed=seed))
            dists.append(np.linalg.norm(recon.matrix - rho.matrix))
        medians.append(float(np.median(dists)))
    assert medians[0] >= medians[1] >= medians[2]


def test_pauli_set_examples():
    assert np.allclose(pauli_set(DensityMatrix(np.eye(8) / 8.0)), np.zeros(63), atol=1e-12)
    values = pauli_set(DensityMatrix.from_ket(computational_ket(0, 8)))
    by_label = dict(zip(PAULI_LABELS, values))
    plus_one = {"ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ"}
    for label, value in by_label.items():
        expected = 1.0 if label in plus_one else 0.0
        assert value == pytest.approx(expected, abs=1e-12), label


def test_pauli_set_consistent_with_expectation():
    rng = np.random.default_rng(9)
    rho = DensityMatrix(random_density(rng, 8))
    values = pauli_set(rho)
    for label, value in zip(PAULI_LABELS, values):
        assert value == pytest.approx(np.trace(rho.matrix @ kron_pauli(label)).real, abs=1e-12)


# -- the gather and the scatter against the dense products --------------------

# Exact zeros of both signs are drawn often, so zero results and their signs are tested too.
entries = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(-1.0, 1.0))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@settings(max_examples=60, deadline=None)
@given(g=st.integers(1, 3).flatmap(lambda b: arrays(np.float64, (b, 8, 8, 2), elements=entries)))
def test_pauli_set_equals_the_dense_traces_bit_for_bit(g):
    g = g.view(complex)[..., 0]
    m = g @ g.conj().swapaxes(1, 2)
    traces = m.trace(axis1=1, axis2=2).real
    assume(np.all(traces > 1e-3))
    states = [DensityMatrix(x) for x in m / traces[:, np.newaxis, np.newaxis]]
    dense = dense_pauli_set([s.matrix for s in states])
    assert_same_bits(pauli_set(states), dense)
    assert_same_bits(pauli_set(states[0]), dense[0])


@settings(max_examples=60, deadline=None)
@given(values=st.integers(1, 3).flatmap(lambda b: arrays(np.float64, (b, 63), elements=entries)))
@example(values=np.zeros((1, 63)))
@example(values=np.full((2, 63), -0.0))
def test_linear_inversion_equals_the_dense_sum_bit_for_bit(values):
    dense = dense_linear_inversion(values)
    assert_same_bits(linear_inversion(values), dense)
    assert_same_bits(linear_inversion(values[0]), dense[0])


def test_gather_tables_are_signed_permutations():
    operators = tomography._INVERSION_OPERATORS
    assert tomography._COLUMNS.shape == (63, 8)
    for columns in tomography._COLUMNS:
        assert sorted(columns) == list(range(8))
    # Every entry [i, j] is nonzero in exactly the 8 strings listed for it, in ascending order.
    assert tomography._STRINGS.shape == (8, 8, 8)
    assert np.all(np.diff(tomography._STRINGS, axis=0) > 0)
    # The gather takes the table's layout, and the inversion's summation order follows it.
    assert tomography._STRINGS.flags.c_contiguous
    assert np.all(np.count_nonzero(operators, axis=0) == 8)
    for phases in (tomography._PHASES, tomography._STRING_PHASES):
        assert np.all(np.isin(phases, [1.0, -1.0, 1.0j, -1.0j]))
    # The tables rebuild the operators: each string's entries, and each entry's strings.
    rebuilt = np.zeros((63, 8, 8), dtype=complex)
    rebuilt[np.arange(63)[:, np.newaxis], tomography._COLUMNS, np.arange(8)] = tomography._PHASES
    assert np.array_equal(rebuilt, tomography.PAULI_STACK)
    i, j = np.indices((8, 8))
    assert np.array_equal(operators[tomography._STRINGS, i, j], tomography._STRING_PHASES)


# Hermitian to 9.8e-10, inside the constructor's 1e-9; summed over the 8 entries
# of a Pauli trace, its imaginary part reaches 3.9e-9.
NEAR_HERMITIAN_XXX = np.eye(8) / 8.0 + 4.9e-10j * np.kron(PAULI_X, np.kron(PAULI_X, PAULI_X))
READOUT_STAGES = {
    "pauli_set": pauli_set,
    "readout_analytic": lambda rho: simulate_readout(rho, 0, 0),
    "readout_sampled": lambda rho: simulate_readout(rho, 100, 0),
    "mle_reconstruct": lambda rho: mle_reconstruct(simulate_readout(rho, 0, 0)).matrix,
}


@pytest.mark.parametrize("stage", READOUT_STAGES)
def test_readout_stages_take_every_state_the_constructor_accepts(stage):
    # The real part of each trace is the expectation of the state's Hermitian
    # part, here I/8's, so every stage reads it as the maximally mixed state.
    run = READOUT_STAGES[stage]
    near = run(DensityMatrix(NEAR_HERMITIAN_XXX))
    assert near.tobytes() == run(DensityMatrix(np.eye(8) / 8.0)).tobytes()


def test_pauli_set_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        pauli_set(DensityMatrix(np.eye(4) / 4.0))
    with pytest.raises(ValueError):
        simulate_readout(DensityMatrix(np.eye(4) / 4.0), shots=10, seed=0)
