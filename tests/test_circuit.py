import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_kraus, kron_gate_unitary, qutrit_pair_leakage, random_density, random_ket
from telebench.circuit import (
    _apply_kraus,
    _depolarizing_kraus,
    Circuit,
    DeviceParams,
    Gate,
    TELEPORT_BRANCH_OPS,
    apply_circuit,
    build_teleport_circuit,
    circuit_unitary,
    cphase_avoided_crossing,
    cphase_ideal,
    damping_channels,
    gate_unitary,
    ideal_phi,
    rotation_unitary,
)
from telebench.qops import DensityMatrix, PAULI_X, computational_ket, state_fidelity_pure


INPUT_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "minus": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "plus": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
}


def reference_device():
    return DeviceParams.reference()


def uniform_device(t1, t2_star):
    """Reference device with the same T1 and T2* on every qubit."""
    return dataclasses.replace(reference_device(), t1=(t1,) * 3, t2_star=(t2_star,) * 3)


def embed_input(psi):
    return np.kron(psi, np.kron(computational_ket(0, 2), computational_ket(0, 2)))


# --- gate unitaries -----------------------------------------------------


def test_rotation_unitary_examples():
    assert np.allclose(rotation_unitary((0, 0, 1), 0.0), np.eye(2))
    assert np.allclose(rotation_unitary((1, 0, 0), math.pi), -1j * PAULI_X, atol=1e-12)
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(rotation_unitary((0, 1, 0), math.pi / 2.0), expected, atol=1e-12)


def test_rotation_unitary_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rotation_unitary((1.0, 1.0, 0.0), 0.3)


def test_gate_unitaries_are_unitary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = rotation_unitary(axis, rng.uniform(-2 * math.pi, 2 * math.pi))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    for variant in ("standard_fig1a", "compiled_fig1b"):
        for gate in build_teleport_circuit(variant).gates:
            u = gate_unitary(gate, 3)
            assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_gate_unitary_matches_kron_embedding():
    extra = (Gate.hadamard(2), Gate.cnot(2, 0), Gate.cnot(1, 0), Gate.cphase("AB"))
    gates = [g for v in ("standard_fig1a", "compiled_fig1b") for g in build_teleport_circuit(v).gates]
    for gate in gates + list(extra):
        assert np.max(np.abs(gate_unitary(gate, 3) - kron_gate_unitary(gate, 3))) < 1e-12


def test_cphase_ideal():
    cz = cphase_ideal()
    assert np.array_equal(cz, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
    assert np.allclose(cz @ cz, np.eye(4))


def test_cphase_gate_embeds_ideal_matrix():
    from telebench.qops import ID2 as I2

    assert np.allclose(gate_unitary(Gate.cphase("AB"), 3), np.kron(cphase_ideal(), I2))
    assert np.allclose(gate_unitary(Gate.cphase("BC"), 3), np.kron(I2, cphase_ideal()))


# --- avoided-crossing physics -------------------------------------------


@pytest.mark.parametrize("j", [36e6, 23e6])
def test_cphase_gate_time_gives_pi_phase_and_no_leakage(j):
    op, leakage = cphase_avoided_crossing(j, 1.0 / (2.0 * j))
    assert abs(np.angle(op[3, 3]) - math.pi) < 1e-6
    assert leakage < 1e-9


def test_cphase_avoided_crossing_time_zero_is_identity():
    op, leakage = cphase_avoided_crossing(36e6, 0.0)
    assert np.allclose(op, np.eye(4))
    assert leakage == 0.0


def test_cphase_half_gate_time_fully_leaks():
    _, leakage = cphase_avoided_crossing(36e6, 0.5 / (2.0 * 36e6))
    assert leakage == pytest.approx(1.0, abs=1e-12)


def test_cphase_leakage_is_periodic():
    j = 23e6
    period = 1.0 / j
    for t in np.linspace(0.0, period, 17):
        _, l1 = cphase_avoided_crossing(j, t)
        _, l2 = cphase_avoided_crossing(j, t + period)
        assert l1 == pytest.approx(l2, abs=1e-9)


@pytest.mark.parametrize("j", [36e6, 23e6])
def test_cphase_leakage_matches_qutrit_oracle(j):
    for t in np.linspace(0.0, 2.0 / j, 50):
        _, leakage = cphase_avoided_crossing(j, t)
        assert abs(leakage - qutrit_pair_leakage(j, t)) < 1e-9


def test_cphase_rejects_negative_time():
    with pytest.raises(ValueError):
        cphase_avoided_crossing(36e6, -1e-9)


# --- circuit construction ------------------------------------------------


def test_compiled_circuit_reaches_ideal_state_for_zero_input():
    circuit = build_teleport_circuit("compiled_fig1b")
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS["0"])))
    assert state_fidelity_pure(rho, ideal_phi(INPUT_KETS["0"])) > 1.0 - 1e-9


def test_compiled_and_standard_variants_agree_up_to_global_phase():
    u_compiled = circuit_unitary(build_teleport_circuit("compiled_fig1b"))
    u_standard = circuit_unitary(build_teleport_circuit("standard_fig1a"))
    anchor = np.unravel_index(np.argmax(np.abs(u_compiled)), u_compiled.shape)
    phase = u_standard[anchor] / u_compiled[anchor]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(u_standard - phase * u_compiled)) < 1e-9


def test_compiled_circuit_gate_inventory():
    circuit = build_teleport_circuit("compiled_fig1b")
    kinds = [g.kind for g in circuit.gates]
    assert set(kinds) == {"rotation", "cphase"}
    assert kinds.count("cphase") == 2
    assert {g.pair for g in circuit.gates if g.kind == "cphase"} == {"AB", "BC"}


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        build_teleport_circuit("fancy")


# --- ideal output state ---------------------------------------------------


def test_ideal_phi_zero_input_amplitudes():
    phi = ideal_phi(INPUT_KETS["0"])
    expected = 0.5 * np.array([1, 0, 0, -1, -1, 0, 0, 1], dtype=complex)
    assert np.allclose(phi, expected, atol=1e-12)


def test_ideal_phi_norm_is_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        psi = random_ket(rng, 2)
        assert np.linalg.norm(ideal_phi(psi)) == pytest.approx(1.0, abs=1e-12)


def test_ideal_phi_branch_projections():
    rng = np.random.default_rng(12)
    for _ in range(20):
        psi = random_ket(rng, 2)
        phi = ideal_phi(psi)
        for outcome, op in TELEPORT_BRANCH_OPS.items():
            ab = int(outcome, 2)
            block = phi[2 * ab : 2 * ab + 2]
            assert np.allclose(block, 0.5 * (op @ psi), atol=1e-12)


def test_ideal_phi_rejects_unnormalized():
    with pytest.raises(ValueError):
        ideal_phi(np.array([1.0, 1.0]))


def test_ideal_phi_minus_projection_equals_input():
    phi = ideal_phi(INPUT_KETS["minus"])
    block = 2.0 * phi[0:2]  # outcome 00 branch, weight 1/2
    assert np.allclose(block, INPUT_KETS["minus"], atol=1e-12)


# --- evolution -------------------------------------------------------------


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(4)
    psi = random_ket(rng, 8)
    rho = DensityMatrix.from_ket(psi)
    out = apply_circuit(Circuit(num_qubits=3, gates=()), rho)
    assert np.allclose(out.matrix, rho.matrix)


@pytest.mark.parametrize("label", sorted(INPUT_KETS))
def test_noiseless_teleport_circuit_fidelity_one(label):
    circuit = build_teleport_circuit("compiled_fig1b")
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS[label])))
    assert state_fidelity_pure(rho, ideal_phi(INPUT_KETS[label])) > 1.0 - 1e-9


def test_noiseless_evolution_preserves_purity():
    rng = np.random.default_rng(6)
    circuit = build_teleport_circuit("compiled_fig1b")
    for _ in range(5):
        rho = DensityMatrix.from_ket(random_ket(rng, 8))
        out = apply_circuit(circuit, rho)
        assert np.trace(out.matrix @ out.matrix).real == pytest.approx(1.0, abs=1e-9)


def test_noisy_teleport_fidelity_between_half_and_one():
    device = reference_device()
    circuit = build_teleport_circuit("compiled_fig1b")
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS["minus"])), device)
    fidelity = state_fidelity_pure(rho, ideal_phi(INPUT_KETS["minus"]))
    assert 0.5 < fidelity < 1.0
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert purity < 1.0 + 1e-9


def test_noisy_fidelity_degrades_monotonically_with_coherence():
    device = reference_device()
    circuit = build_teleport_circuit("compiled_fig1b")
    rho_in = DensityMatrix.from_ket(embed_input(INPUT_KETS["minus"]))
    fidelities = []
    for k in (0.25, 0.5, 1.0):
        scaled = device.scaled_coherence(k)
        out = apply_circuit(circuit, rho_in, scaled)
        fidelities.append(state_fidelity_pure(out, ideal_phi(INPUT_KETS["minus"])))
    assert fidelities[0] <= fidelities[1] <= fidelities[2]


def test_apply_circuit_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_circuit(build_teleport_circuit(), DensityMatrix(np.eye(4) / 4.0))


def test_depolarizing_knob_reduces_fidelity():
    base = reference_device()
    knobbed = DeviceParams(
        t1=base.t1, t2_star=base.t2_star, j_ab=base.j_ab, j_bc=base.j_bc,
        single_qubit_gate_time=base.single_qubit_gate_time, single_qubit_error=0.05,
    )
    circuit = build_teleport_circuit("compiled_fig1b")
    rho_in = DensityMatrix.from_ket(embed_input(INPUT_KETS["plus"]))
    fid_base = state_fidelity_pure(apply_circuit(circuit, rho_in, base), ideal_phi(INPUT_KETS["plus"]))
    fid_knob = state_fidelity_pure(apply_circuit(circuit, rho_in, knobbed), ideal_phi(INPUT_KETS["plus"]))
    assert fid_knob < fid_base


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    duration=st.floats(0.0, 200e-9),
    t1=st.floats(0.1e-6, 5e-6),
    t2_ratio=st.floats(0.01, 2.0),
    p=st.floats(0.0, 1.0),
)
def test_contracted_kraus_matches_dense_embedding(seed, duration, t1, t2_ratio, p):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    device = uniform_device(t1, t2_ratio * t1)
    cases = [(damping_channels(duration, device, q), (q,)) for q in range(3)]
    cases += [(_depolarizing_kraus(p), (q,)) for q in range(3)]
    for qubits in ((0, 1), (1, 2), (0, 2), (2, 1)):
        ops = [(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 4.0 for _ in range(2)]
        cases.append((ops, qubits))
    for kraus, qubits in cases:
        contracted = _apply_kraus(rho, kraus, qubits, 3)
        assert np.max(np.abs(contracted - dense_kraus(rho, kraus, qubits, 3))) < 1e-12


# --- noise channels --------------------------------------------------------


def test_damping_channels_identity_limit():
    rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    for q in range(3):
        kraus = damping_channels(0.0, reference_device(), q)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2), atol=1e-12)
        evolved = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.allclose(evolved, rho, atol=1e-12)


def test_damping_gamma_closed_form():
    t1 = 0.55e-6
    kraus = damping_channels(t1, uniform_device(t1, 2.0 * t1), 0)  # pure damping: T2* = 2 T1
    raising = [k for k in kraus if abs(k[0, 1]) > 1e-12]
    gamma = sum(abs(k[0, 1]) ** 2 for k in raising)
    assert gamma == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_damping_channels_complete_for_any_parameters():
    rng = np.random.default_rng(14)
    for _ in range(20):
        t1 = rng.uniform(0.1e-6, 2e-6)
        t2 = rng.uniform(0.05e-6, 2.0 * t1)
        duration = rng.uniform(0.0, 100e-9)
        kraus = damping_channels(duration, uniform_device(t1, t2), 1)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_damping_channels_reject_unphysical_dephasing():
    # The channels read a validated DeviceParams, so T2* > 2 T1 never reaches them.
    with pytest.raises(ValueError, match="unphysical dephasing"):
        damping_channels(10e-9, uniform_device(1e-6, 2.5e-6), 0)


# --- parameter containers ---------------------------------------------------


def test_device_params_validation():
    with pytest.raises(ValueError, match="unphysical"):
        DeviceParams(t1=(1e-6, 1e-6, 1e-6), t2_star=(2.5e-6, 1e-6, 1e-6), j_ab=36e6, j_bc=23e6)
    with pytest.raises(ValueError):
        DeviceParams(t1=(1e-6, 1e-6), t2_star=(1e-6, 1e-6), j_ab=36e6, j_bc=23e6)
    with pytest.raises(ValueError):
        DeviceParams(t1=(1e-6, 1e-6, 1e-6), t2_star=(1e-6, 1e-6, 1e-6), j_ab=-1.0, j_bc=23e6)


CHECKED_DEVICE_FIELDS = (
    "t1", "t2_star", "j_ab", "j_bc", "single_qubit_gate_time", "cphase_time_ab", "cphase_time_bc",
)


def device_dict_with(field, value, qubit=0):
    """Reference-device dict with one field (one qubit for t1/t2_star) replaced."""
    d = reference_device().to_dict()
    if field in ("t1", "t2_star"):
        d[field][qubit] = value
    else:
        d[field] = value
    return d


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, 0.0, -1.0])
@pytest.mark.parametrize("field", CHECKED_DEVICE_FIELDS)
def test_device_params_rejects_non_finite_bool_and_non_positive(field, value):
    for qubit in range(3) if field in ("t1", "t2_star") else (0,):
        with pytest.raises(ValueError, match=f"{field}.* must be a finite positive number"):
            DeviceParams.from_dict(device_dict_with(field, value, qubit))


def test_device_params_rejects_bool_single_qubit_error():
    with pytest.raises(ValueError, match="single_qubit_error"):
        DeviceParams.from_dict(device_dict_with("single_qubit_error", True))


def test_device_params_dict_round_trip_and_scaling():
    device = reference_device()
    assert DeviceParams.from_dict(device.to_dict()) == device
    scaled = device.scaled_coherence(0.5)
    assert scaled.t1 == tuple(0.5 * t for t in device.t1)
    assert scaled.t2_star == tuple(0.5 * t for t in device.t2_star)
    assert dataclasses.replace(scaled, t1=device.t1, t2_star=device.t2_star) == device


def test_device_default_cphase_times_from_couplings():
    device = reference_device()
    assert device.cphase_time("AB") == pytest.approx(1.0 / (2.0 * 36e6))
    assert device.cphase_time("BC") == pytest.approx(1.0 / (2.0 * 23e6))
    assert device.cphase_time("AB") == pytest.approx(13.89e-9, rel=1e-3)
    assert device.cphase_time("BC") == pytest.approx(21.74e-9, rel=1e-3)


def test_damping_channels_dephase_every_reference_qubit():
    device = reference_device()
    for q in range(3):
        kraus = damping_channels(device.single_qubit_gate_time, device, q)
        dephasing = kraus[2]  # sqrt(p) Z applied after the no-decay damping operator
        assert np.max(np.abs(dephasing)) > 0.0


def test_gate_constructors_validate():
    with pytest.raises(ValueError):
        Gate.cphase("AC")
    with pytest.raises(ValueError):
        Gate.rotation((1.0, 1.0, 1.0), 0.1, qubit=0)
    with pytest.raises(ValueError):
        Gate.cnot(1, 1)
    with pytest.raises(ValueError):
        Circuit(num_qubits=3, gates=(Gate.hadamard(5),))
