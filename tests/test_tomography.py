import numpy as np
import pytest

from oracles import random_density, random_ket
from telebench.circuit import ideal_phi
from telebench.qops import DensityMatrix, computational_ket, expectation, pauli_operator
from telebench.tomography import (
    PAULI_LABELS,
    PAULI_STACK,
    TomographyRecord,
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


def test_pauli_stack_equals_pauli_operator_for_every_label():
    assert PAULI_STACK.shape == (63, 8, 8)
    assert not PAULI_STACK.flags.writeable
    for k, label in enumerate(PAULI_LABELS):
        assert np.array_equal(PAULI_STACK[k], pauli_operator(label))


def test_analytic_readout_matches_exact_expectations():
    rng = np.random.default_rng(1)
    rho = DensityMatrix(random_density(rng, 8))
    record = simulate_readout(rho, shots=0, seed=0)
    values = record.expectations()
    for label in PAULI_LABELS:
        assert values[label] == pytest.approx(expectation(rho, pauli_operator(label)), abs=1e-12)


def test_analytic_readout_ground_state():
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    values = simulate_readout(rho, shots=0, seed=0).expectations()
    assert values["ZII"] == pytest.approx(1.0)
    assert values["XII"] == pytest.approx(0.0, abs=1e-12)


def test_sampled_readout_deterministic_given_seed():
    rho = DensityMatrix.from_ket(ideal_phi(np.array([1.0, -1.0j]) / np.sqrt(2.0)))
    a = simulate_readout(rho, shots=500, seed=123)
    b = simulate_readout(rho, shots=500, seed=123)
    c = simulate_readout(rho, shots=500, seed=124)
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_sampled_readout_standard_error_scales_as_inverse_sqrt_shots():
    # <XII> = 0 on |000>, so the estimator is a centered binomial mean with
    # standard deviation 1/sqrt(shots).
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    shots = 400
    estimates = []
    for seed in range(100):
        record = simulate_readout(rho, shots=shots, seed=seed)
        estimates.append(record.expectations()["XII"])
    std = np.std(estimates)
    assert 0.7 / np.sqrt(shots) < std < 1.3 / np.sqrt(shots)


def test_record_validation():
    with pytest.raises(ValueError):
        TomographyRecord(entries=(("XXQ", 0.0, 0),))
    with pytest.raises(ValueError):
        TomographyRecord(entries=(("XII", 0.0, 0), ("XII", 0.1, 0)))
    with pytest.raises(ValueError):
        TomographyRecord(entries=(("XII", 1.5, 0),))


def test_linear_inversion_recovers_physical_state():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng, 8))
    mu = linear_inversion(simulate_readout(rho, shots=0, seed=0))
    assert np.max(np.abs(mu - rho.matrix)) < 1e-12


def test_linear_inversion_of_zero_record_is_maximally_mixed():
    record = TomographyRecord(entries=tuple((label, 0.0, 0) for label in PAULI_LABELS))
    assert np.allclose(linear_inversion(record), np.eye(8) / 8.0)


def test_linear_inversion_output_is_hermitian_unit_trace_by_construction():
    rng = np.random.default_rng(5)
    entries = tuple((label, float(rng.uniform(-1, 1)), 100) for label in PAULI_LABELS)
    mu = linear_inversion(TomographyRecord(entries=entries))
    assert np.max(np.abs(mu - mu.conj().T)) < 1e-12
    assert np.trace(mu).real == pytest.approx(1.0, abs=1e-12)


def test_linear_inversion_reports_missing_strings():
    entries = tuple((label, 0.0, 0) for label in PAULI_LABELS[:-2])
    with pytest.raises(ValueError, match="ZZY.*ZZZ|missing"):
        linear_inversion(TomographyRecord(entries=entries))


def test_mle_round_trip_analytic():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = DensityMatrix(random_density(rng, 8))
        recon = mle_reconstruct(simulate_readout(rho, shots=0, seed=0))
        assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-9


def test_mle_reconstruction_quality_at_1e4_shots():
    psi = ideal_phi(np.array([1.0, -1.0j]) / np.sqrt(2.0))
    rho = DensityMatrix.from_ket(psi)
    record = simulate_readout(rho, shots=10_000, seed=42)
    recon = mle_reconstruct(record)
    fidelity = float((psi.conj() @ recon.matrix @ psi).real)
    assert fidelity > 0.95


def test_mle_handles_negative_linear_inversion():
    # A noisy record whose linear inversion has negative eigenvalues must
    # land exactly on the truncate-and-redistribute projection.
    from telebench.qops import nearest_physical

    rng = np.random.default_rng(11)
    rho = DensityMatrix.from_ket(random_ket(rng, 8))
    record = simulate_readout(rho, shots=50, seed=3)
    mu = linear_inversion(record)
    assert np.linalg.eigvalsh(mu)[0] < -1e-6
    recon = mle_reconstruct(record)
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
        assert value == pytest.approx(expectation(rho, pauli_operator(label)), abs=1e-12)


def test_pauli_set_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        pauli_set(DensityMatrix(np.eye(4) / 4.0))
