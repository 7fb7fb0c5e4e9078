import numpy as np
import pytest

from oracles import partial_trace_index_sum, random_density, random_ket, simplex_projection_psd
from telebench.qops import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Z,
    computational_ket,
    expectation,
    nearest_physical,
    partial_trace,
    pauli_operator,
    state_fidelity_pure,
)
from telebench.teleport_bench import conditional_output_state


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.1, -0.1]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_partial_trace_product_state():
    rho = DensityMatrix.from_ket(np.kron(computational_ket(0, 2), computational_ket(0, 2)))
    reduced = partial_trace(rho, {0})
    assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]))


def test_partial_trace_bell_state():
    bell = (np.kron(computational_ket(0, 2), computational_ket(0, 2))
            + np.kron(computational_ket(1, 2), computational_ket(1, 2))) / np.sqrt(2)
    rho = DensityMatrix.from_ket(bell)
    reduced = partial_trace(rho, {1})
    assert np.allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)
    oracle = partial_trace_index_sum(rho.matrix, [2, 2], [1])
    assert np.allclose(reduced.matrix, oracle, atol=1e-12)


def test_partial_trace_keep_all_is_identity_map():
    rng = np.random.default_rng(0)
    rho = DensityMatrix(random_density(rng, 8))
    assert np.allclose(partial_trace(rho, {0, 1, 2}).matrix, rho.matrix)


def test_partial_trace_empty_keep_errors():
    rho = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        partial_trace(rho, set())


def test_partial_trace_recovers_left_factor_of_products():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 4)
        rho = DensityMatrix(np.kron(a, b))
        assert np.allclose(partial_trace(rho, {0}).matrix, a, atol=1e-12)
        assert np.allclose(partial_trace(rho, {1, 2}).matrix, b, atol=1e-12)


def test_partial_trace_matches_index_sum_oracle():
    rng = np.random.default_rng(7)
    rho = DensityMatrix(random_density(rng, 8))
    for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}):
        oracle = partial_trace_index_sum(rho.matrix, [2, 2, 2], sorted(keep))
        assert np.allclose(partial_trace(rho, keep).matrix, oracle, atol=1e-12)


def test_pauli_operator_examples():
    assert np.array_equal(pauli_operator("III"), np.eye(8))
    assert np.array_equal(pauli_operator("ZII"), np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex))
    assert np.array_equal(pauli_operator("IXI"), np.kron(ID2, np.kron(PAULI_X, ID2)))


def test_pauli_operator_rejects_bad_labels():
    with pytest.raises(ValueError):
        pauli_operator("ABX")
    with pytest.raises(ValueError):
        pauli_operator("XX")


def test_expectation_examples():
    rho0 = DensityMatrix.from_ket(computational_ket(0, 2))
    assert expectation(rho0, np.array(PAULI_Z)) == pytest.approx(1.0)
    mixed = DensityMatrix(np.eye(2) / 2.0)
    assert expectation(mixed, np.array(PAULI_X)) == pytest.approx(0.0, abs=1e-12)
    plus = DensityMatrix.from_ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert expectation(plus, np.array(PAULI_X)) == pytest.approx(1.0)


def test_expectation_identity_is_one_for_any_state():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 8))
        assert expectation(rho, np.eye(8)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        expectation(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_fidelity_pure_examples():
    rng = np.random.default_rng(11)
    target = random_ket(rng, 8)
    assert state_fidelity_pure(DensityMatrix.from_ket(target), target) == pytest.approx(1.0)
    assert state_fidelity_pure(DensityMatrix(np.eye(8) / 8.0), target) == pytest.approx(0.125)
    e0, e1 = computational_ket(0, 2), computational_ket(1, 2)
    assert state_fidelity_pure(DensityMatrix.from_ket(e0), e1) == pytest.approx(0.0, abs=1e-12)


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity_pure(DensityMatrix(np.eye(2) / 2.0), np.ones(8) / np.sqrt(8.0))


# --- projection onto an outcome of qubits A, B (conditional_output_state) ----


def test_project_and_renormalize_examples():
    psi000 = computational_ket(0, 8)
    rho = DensityMatrix.from_ket(psi000)
    out, prob = conditional_output_state(rho, "00")
    assert prob == pytest.approx(1.0)
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="vanishing probability"):
        conditional_output_state(rho, "11")


def test_project_and_renormalize_maximally_mixed():
    rho = DensityMatrix(np.eye(8) / 8.0)
    p = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), ID2)
    out, prob = conditional_output_state(rho, "01")
    assert prob == pytest.approx(0.25)
    dense = partial_trace(DensityMatrix(p @ rho.matrix @ p / prob), {2})
    assert np.allclose(out.matrix, dense.matrix)
    assert np.allclose(out.matrix, ID2 / 2.0)


def test_projection_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 8))
        total = sum(conditional_output_state(rho, f"{i}{j}")[1] for i in range(2) for j in range(2))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_nearest_physical_two_level_truncation():
    out = nearest_physical(np.diag([1.1, -0.1]))
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_nearest_physical_redistribution():
    out = nearest_physical(np.diag([0.9, 0.3, -0.2, 0.0])[:3, :3])
    assert np.allclose(out.matrix, np.diag([0.8, 0.2, 0.0]), atol=1e-12)


def test_nearest_physical_fixed_point():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = random_density(rng, 8)
        out = nearest_physical(rho)
        assert np.max(np.abs(out.matrix - rho)) < 1e-9


def test_nearest_physical_matches_simplex_oracle():
    rng = np.random.default_rng(17)
    for dim in (4, 8):
        for _ in range(100):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (g + g.conj().T) / 2.0
            h = h / np.trace(h).real if abs(np.trace(h).real) > 0.2 else h + np.eye(dim) * 1.0
            h = h / np.trace(h).real
            ours = nearest_physical(h).matrix
            oracle = simplex_projection_psd(h)
            assert np.max(np.abs(ours - oracle)) < 1e-9


def test_nearest_physical_is_idempotent_and_trace_preserving():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2.0 + np.eye(4)
        h = h / np.trace(h).real
        once = nearest_physical(h)
        twice = nearest_physical(once)
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-9
        assert np.trace(once.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_nearest_physical_projection_property():
    # A projection onto a convex set never moves the input farther from any
    # point of the set.
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2.0
        h = h + np.eye(4) * (1.0 - np.trace(h).real) / 4.0  # unit trace, possibly non-PSD
        projected = nearest_physical(h).matrix
        sigma = random_density(rng, 4)
        assert np.linalg.norm(projected - sigma) <= np.linalg.norm(h - sigma) + 1e-9
