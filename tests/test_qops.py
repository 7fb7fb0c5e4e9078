import warnings

import numpy as np
import pytest

from oracles import (
    argmin_truncate_spectra,
    kron_pauli,
    partial_trace_index_sum,
    random_density,
    random_ket,
    simplex_projection_psd,
)
import telebench.qops as qops
from telebench.qops import (
    DensityMatrix,
    ID2,
    PAULI_X,
    computational_ket,
    nearest_physical,
    state_fidelity_pure,
)
from telebench.circuit import DeviceParams
from telebench.teleport_bench import conditional_output_state, run_benchmark
from telebench.tomography import PAULI_LABELS, pauli_set


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.1, -0.1]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    # from_ket holds a ket by its state's trace check alone: |norm^2 - 1| <= 1e-9.
    e0 = computational_ket(0, 8)
    with pytest.raises(ValueError, match=r"^trace differs from 1 by 3\.000e\+00$"):
        DensityMatrix.from_ket(2 * e0)
    with pytest.raises(ValueError, match="^density matrix contains non-finite entries$"):
        DensityMatrix.from_ket(np.full(8, np.nan))
    with pytest.raises(ValueError, match=r"^trace differs from 1 by 1\.000e-06$"):
        DensityMatrix.from_ket(e0 * (1 + 5e-7))
    assert DensityMatrix.from_ket(e0 * (1 + 4e-10)).matrix[0, 0] == (1 + 4e-10) ** 2


# --- partial trace (partial_trace_index_sum, the oracle the tests reduce with) ---


def test_partial_trace_product_state():
    rho = DensityMatrix.from_ket(np.kron(computational_ket(0, 2), computational_ket(0, 2)))
    reduced = partial_trace_index_sum(rho.matrix, [2, 2], [0])
    assert np.allclose(reduced, np.diag([1.0, 0.0]))


def test_partial_trace_bell_state():
    bell = (np.kron(computational_ket(0, 2), computational_ket(0, 2))
            + np.kron(computational_ket(1, 2), computational_ket(1, 2))) / np.sqrt(2)
    rho = DensityMatrix.from_ket(bell)
    for keep in ([0], [1]):
        assert np.allclose(partial_trace_index_sum(rho.matrix, [2, 2], keep), np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_keep_all_is_identity_map():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 8)
    assert np.allclose(partial_trace_index_sum(rho, [2, 2, 2], [0, 1, 2]), rho)


def test_partial_trace_recovers_left_factor_of_products():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 4)
        rho = np.kron(a, b)
        assert np.allclose(partial_trace_index_sum(rho, [2, 2, 2], [0]), a, atol=1e-12)
        assert np.allclose(partial_trace_index_sum(rho, [2, 2, 2], [1, 2]), b, atol=1e-12)


def test_partial_trace_matches_index_sum_oracle():
    # Every cut of a product of three states, the non-adjacent {0, 2} included.
    rng = np.random.default_rng(7)
    factors = [random_density(rng, 2) for _ in range(3)]
    rho = np.kron(factors[0], np.kron(factors[1], factors[2]))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        expected = factors[keep[0]] if len(keep) == 1 else np.kron(factors[keep[0]], factors[keep[1]])
        assert np.allclose(partial_trace_index_sum(rho, [2, 2, 2], keep), expected, atol=1e-12)


# --- Pauli expectations (kron-built operators and a trace against pauli_set) ---


def test_kron_pauli_examples():
    assert np.array_equal(kron_pauli("III"), np.eye(8))
    assert np.array_equal(kron_pauli("ZII"), np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex))
    assert np.array_equal(kron_pauli("IXI"), np.kron(ID2, np.kron(PAULI_X, ID2)))


def test_kron_pauli_and_pauli_set_expectation_examples():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ket000, ket_plus00 = computational_ket(0, 8), np.kron(plus, computational_ket(0, 4))
    for ket, label, value in ((ket000, "ZII", 1.0), (ket000, "XII", 0.0), (ket_plus00, "XII", 1.0)):
        rho = DensityMatrix.from_ket(ket)
        assert np.trace(rho.matrix @ kron_pauli(label)).real == pytest.approx(value, abs=1e-12)
        assert pauli_set(rho)[PAULI_LABELS.index(label)] == pytest.approx(value, abs=1e-12)
    assert np.all(np.abs(pauli_set(DensityMatrix(np.eye(8) / 8.0))) < 1e-15)


def test_kron_pauli_identity_has_unit_expectation_in_any_state():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 8))
        assert np.trace(rho.matrix @ kron_pauli("III")).real == pytest.approx(1.0, abs=1e-12)


def test_state_fidelity_pure_examples():
    rng = np.random.default_rng(11)
    target = random_ket(rng, 8)
    assert state_fidelity_pure(DensityMatrix.from_ket(target), target) == pytest.approx(1.0)
    assert state_fidelity_pure(DensityMatrix(np.eye(8) / 8.0), target) == pytest.approx(0.125)
    e0, e1 = computational_ket(0, 2), computational_ket(1, 2)
    assert state_fidelity_pure(DensityMatrix.from_ket(e0), e1) == pytest.approx(0.0, abs=1e-12)


def test_state_fidelity_of_a_ket_inside_the_norm_tolerance_is_clamped_to_one():
    # A norm of 1 + 5e-7 passes the ket check; the overlap 1 + 1e-6 is clamped, not rejected.
    e0 = computational_ket(0, 8)
    rho = DensityMatrix.from_ket(e0)
    assert state_fidelity_pure(rho, e0 * (1 + 5e-7)) == 1.0
    assert state_fidelity_pure([rho, rho], np.array([e0, e0 * (1 + 5e-7)])).tolist() == [1.0, 1.0]


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity_pure(DensityMatrix(np.eye(2) / 2.0), np.ones(8) / np.sqrt(8.0))


# --- projection onto an outcome of qubits A, B (conditional_output_state) ----


def test_conditional_output_state_examples():
    psi000 = computational_ket(0, 8)
    rho = DensityMatrix.from_ket(psi000)
    out, prob = conditional_output_state(rho, "00")
    assert prob == pytest.approx(1.0)
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="vanishing probability"):
        conditional_output_state(rho, "11")


def test_conditional_output_state_of_the_maximally_mixed_state():
    rho = DensityMatrix(np.eye(8) / 8.0)
    p = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), ID2)
    out, prob = conditional_output_state(rho, "01")
    assert prob == pytest.approx(0.25)
    dense = partial_trace_index_sum(p @ rho.matrix @ p / prob, [2, 2, 2], [2])
    assert np.allclose(out.matrix, dense)
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
        twice = nearest_physical(once.matrix)
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


def test_nearest_physical_rejects_a_negative_trace():
    # Rescaling diag(0.5, -1.5) by its trace used to flip the spectrum and
    # return |1><1|, at Frobenius distance 2.55; the nearest state is |0><0|, at 1.58.
    with pytest.raises(ValueError, match=r"matrix trace is too close to zero or negative to rescale, got -1.0"):
        nearest_physical(np.diag([0.5, -1.5]))
    for tr in (0.0, 5e-10, -1e-3, np.nan):
        with pytest.raises(ValueError, match="matrix trace is too close to zero or negative") as info:
            nearest_physical(np.diag([tr, 0.0]))
        assert "member" not in str(info.value)
    assert np.allclose(nearest_physical(np.diag([2e-9, 0.0])).matrix, np.diag([1.0, 0.0]))


def test_nearest_physical_takes_matrices_not_states():
    # A state is physical already: the projection is for estimates that may not be.
    state = DensityMatrix(np.eye(2) / 2.0)
    for value in (state, [state, state]):
        with pytest.raises(TypeError):
            nearest_physical(value)


def test_nearest_physical_rejects_a_non_finite_entry_before_dividing():
    # These used to warn "invalid value encountered in divide" (an error in this
    # suite), then name member 0 of a single matrix.
    good = np.eye(2) / 2.0
    for bad in (
        np.diag([np.inf, 1.0]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.array([[0.5, np.inf], [-np.inf, 0.5]]),
        np.array([[0.5, np.nan], [0.0, 0.5]]),
    ):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            nearest_physical(bad)
        with pytest.raises(ValueError, match="^member 1: matrix contains non-finite entries$"):
            nearest_physical(np.array([good, bad, good]))


def test_nearest_physical_projects_matrices_near_the_float_limit():
    # The projection divides by the trace, so scaling the input changes nothing. Hermitizing
    # diag(1e308, 1e308) used to overflow: a warning (an error in this suite), then a non-finite error.
    good = np.eye(2) / 2.0
    huge = np.diag([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(nearest_physical(huge).matrix, good)
        assert np.array_equal(nearest_physical(np.array([good, huge]))[1].matrix, good)


def test_stacked_nearest_physical_names_the_member_with_a_negative_trace():
    good = np.eye(2) / 2.0
    with pytest.raises(ValueError, match=r"member 2: matrix trace is too close to zero or negative to rescale"):
        nearest_physical(np.array([good, good, np.diag([0.5, -1.5]), good]))
    with pytest.raises(ValueError, match=r"member 0: matrix trace is too close to zero or negative"):
        nearest_physical([-good, good])


def test_spectrum_walk_equals_the_argmin_loop_byte_for_byte():
    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 8):
        for scale in (1.0, 1e-3, 1e-9, 1e-17):
            # d - 1 eigenvalues of size ``scale`` and one that makes the sum 1, ascending as eigh gives them.
            vals = rng.normal(size=(500, d)) * scale
            vals[:, -1] = 1.0 - vals[:, :-1].sum(axis=1)
            vals.sort(axis=1)
            walked, looped = vals.copy(), vals.copy()
            qops._truncate_spectra(walked)
            argmin_truncate_spectra(looped)
            assert walked.tobytes() == looped.tobytes(), (d, scale)
            assert (walked >= 0.0).all() and (walked != vals).any()


@pytest.mark.parametrize("shots, noise", [(0, False), (0, True), (200, True)])
def test_pipeline_projections_are_unchanged_by_the_spectrum_walk(shots, noise, monkeypatch):
    device = DeviceParams.reference()
    walked = [run_benchmark(device, shots, seed, noise, restarts=2) for seed in range(3)]
    monkeypatch.setattr(qops, "_truncate_spectra", argmin_truncate_spectra)
    looped = [run_benchmark(device, shots, seed, noise, restarts=2) for seed in range(3)]
    assert walked == looped
