import dataclasses
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    damping_channels,
    decohere_qubit,
    dense_kraus,
    gate_duration,
    kron_gate_unitary,
    partial_trace_index_sum,
    qutrit_pair_leakage,
    random_density,
    random_ket,
    textbook_teleport_unitary,
    transfer_matrices,
)
import telebench
import telebench.circuit as circuit_module
from telebench.circuit import (
    CPHASE_PAIRS,
    CPhase,
    Circuit,
    DeviceParams,
    Gate,
    Rotation,
    TELEPORT_BRANCH_OPS,
    apply_circuit,
    build_teleport_circuit,
    circuit_superoperator,
    cphase_avoided_crossing,
    ideal_phi,
    rotation_unitary,
)
from telebench.qops import DensityMatrix, PAULI_X, computational_ket, state_fidelity_pure
from telebench.teleport_bench import conditional_output_state, run_state


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


def decohered(rho, duration, device, q):
    """The in-place block update applied to a copy of an 8x8 matrix."""
    t = np.array(rho, dtype=complex).reshape((1,) + (2,) * 6)
    decohere_qubit(t, duration, device, q)
    return t.reshape(8, 8)


def reduced_qubit(rho, q):
    return partial_trace_index_sum(rho, [2, 2, 2], [q])


def textbook_circuit():
    """The textbook circuit of Fig. 1a in native gates. Each Hadamard is a pi
    rotation about (x + z)/sqrt(2), which is -i H; each CNOT is a C-Phase
    between Hadamards on its target. Two z flips end it, as in
    :func:`oracles.textbook_teleport_unitary`."""
    x_plus_z = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    h = [Rotation(x_plus_z, math.pi, qubit=q) for q in range(3)]
    flips = [Rotation((0.0, 0.0, 1.0), math.pi, qubit=q) for q in (0, 1)]
    cnot_bc, cnot_ab = (h[2], CPhase("BC"), h[2]), (h[1], CPhase("AB"), h[1])
    return Circuit((h[1], *cnot_bc, *cnot_ab, h[0], *flips))


# The evolution tests run the compiled circuit and a second, textbook-shaped
# one with other rotation axes and repeated gates.
CIRCUITS = {"compiled_fig1b": build_teleport_circuit(), "standard_fig1a": textbook_circuit()}


# --- gate unitaries -----------------------------------------------------


def test_rotation_unitary_examples():
    assert np.allclose(rotation_unitary(Rotation((0, 0, 1), 0.0, qubit=0)), np.eye(2))
    assert np.allclose(rotation_unitary(Rotation((1, 0, 0), math.pi, qubit=0)), -1j * PAULI_X, atol=1e-12)
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(rotation_unitary(Rotation((0, 1, 0), math.pi / 2.0, qubit=0)), expected, atol=1e-12)


def test_gate_unitaries_are_unitary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = rotation_unitary(Rotation(tuple(axis), rng.uniform(-2 * math.pi, 2 * math.pi), qubit=0))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    for circuit in CIRCUITS.values():
        for gate in circuit.gates:
            if isinstance(gate, Rotation):
                u = rotation_unitary(gate)
                assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        # Without a device, S is U (x) conj(U) of the whole circuit, C-Phases included.
        s = circuit_superoperator(circuit)
        assert np.max(np.abs(s @ s.conj().T - np.eye(64))) < 1e-12


def test_gate_unitary_matches_kron_embedding():
    # apply_circuit contracts each gate's operator on its own qubits' axes.
    rng = np.random.default_rng(3)
    extra = [Rotation(tuple(a / np.linalg.norm(a)), 0.7, qubit=q) for q, a in enumerate(rng.normal(size=(3, 3)))]
    rho = random_density(rng, 8)
    for gate in [g for c in CIRCUITS.values() for g in c.gates] + extra:
        u = kron_gate_unitary(gate, 3)
        out = apply_circuit(Circuit((gate,)), DensityMatrix(rho))
        assert np.max(np.abs(out.matrix - u @ rho @ u.conj().T)) < 1e-12


def test_cphase_gate_embeds_ideal_matrix():
    rho = random_density(np.random.default_rng(6), 8)
    for pair in ("AB", "BC"):
        u = kron_gate_unitary(CPhase(pair), 3)
        out = apply_circuit(Circuit((CPhase(pair),)), DensityMatrix(rho))
        assert np.allclose(out.matrix, u @ rho @ u.conj().T, atol=1e-15)


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


@pytest.mark.parametrize(
    "j, t, field",
    [
        (36e6, math.nan, "interaction time"),
        (36e6, math.inf, "interaction time"),
        (36e6, True, "interaction time"),
        (36e6, "1e-9", "interaction time"),
        (0.0, 1e-9, "coupling strength"),
        (-36e6, 1e-9, "coupling strength"),
        (math.nan, 1e-9, "coupling strength"),
        (math.inf, 1e-9, "coupling strength"),
        (True, 1e-9, "coupling strength"),
        (None, 1e-9, "coupling strength"),
    ],
)
def test_cphase_avoided_crossing_rejects_non_finite_or_non_real_inputs(j, t, field):
    # NaN used to give a NaN operator entry and leakage, and True a 1 Hz coupling.
    with pytest.raises(ValueError, match=field):
        cphase_avoided_crossing(j, t)


# --- circuit construction ------------------------------------------------


def test_compiled_circuit_reaches_ideal_state_for_zero_input():
    circuit = build_teleport_circuit()
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS["0"])))
    assert state_fidelity_pure(rho, ideal_phi(INPUT_KETS["0"])) > 1.0 - 1e-9


def test_compiled_and_standard_variants_agree_up_to_global_phase():
    u_standard = textbook_teleport_unitary()
    for circuit in CIRCUITS.values():
        u = np.eye(8, dtype=complex)
        for gate in circuit.gates:
            u = kron_gate_unitary(gate, 3) @ u
        anchor = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        phase = u_standard[anchor] / u[anchor]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(u_standard - phase * u)) < 1e-9


def test_compiled_circuit_gate_inventory():
    gates = build_teleport_circuit().gates
    kinds = [type(g) for g in gates]
    assert set(kinds) == {Rotation, CPhase} and all(isinstance(g, Gate) for g in gates)
    assert kinds.count(CPhase) == 2
    assert {g.pair for g in gates if isinstance(g, CPhase)} == {"AB", "BC"}


def test_build_teleport_circuit_takes_no_variant():
    # Only the compiled circuit is built; the function takes no variant at all.
    for variant in ("fancy", "compiled_fig1b", "standard_fig1a"):
        with pytest.raises(TypeError):
            build_teleport_circuit(variant)


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
    out = apply_circuit(Circuit(()), rho)
    assert np.allclose(out.matrix, rho.matrix)


@pytest.mark.parametrize("label", sorted(INPUT_KETS))
def test_noiseless_teleport_circuit_fidelity_one(label):
    circuit = build_teleport_circuit()
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS[label])))
    assert state_fidelity_pure(rho, ideal_phi(INPUT_KETS[label])) > 1.0 - 1e-9


def test_noiseless_evolution_preserves_purity():
    rng = np.random.default_rng(6)
    circuit = build_teleport_circuit()
    for _ in range(5):
        rho = DensityMatrix.from_ket(random_ket(rng, 8))
        out = apply_circuit(circuit, rho)
        assert np.trace(out.matrix @ out.matrix).real == pytest.approx(1.0, abs=1e-9)


def test_noisy_teleport_fidelity_between_half_and_one():
    device = reference_device()
    circuit = build_teleport_circuit()
    rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(INPUT_KETS["minus"])), device)
    fidelity = state_fidelity_pure(rho, ideal_phi(INPUT_KETS["minus"]))
    assert 0.5 < fidelity < 1.0
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert purity < 1.0 + 1e-9


def test_noisy_fidelity_degrades_monotonically_with_coherence():
    device = reference_device()
    circuit = build_teleport_circuit()
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


STACK_DEVICES = {
    "none": None,
    "reference": reference_device(),
    "scaled_coherence_0.3": reference_device().scaled_coherence(0.3),
}


@pytest.mark.parametrize("device", STACK_DEVICES.values(), ids=STACK_DEVICES.keys())
@pytest.mark.parametrize("circuit", CIRCUITS.values(), ids=CIRCUITS.keys())
def test_stacked_evolution_equals_single_evolutions_bit_for_bit(device, circuit):
    inputs = [DensityMatrix.from_ket(embed_input(INPUT_KETS[label])) for label in INPUT_KETS]
    stacked = apply_circuit(circuit, inputs, device)
    assert isinstance(stacked, list) and len(stacked) == len(inputs)
    for rho_in, out in zip(inputs, stacked):
        single = apply_circuit(circuit, rho_in, device)
        assert isinstance(single, DensityMatrix)
        assert np.array_equal(out.matrix, single.matrix)
    assert np.array_equal(apply_circuit(circuit, inputs[2:3], device)[0].matrix, stacked[2].matrix)


def test_stacked_evolution_rejects_a_wrong_dimension_member():
    circuit = build_teleport_circuit()
    good = DensityMatrix.from_ket(embed_input(INPUT_KETS["plus"]))
    with pytest.raises(ValueError, match="does not match"):
        apply_circuit(circuit, [good, DensityMatrix(np.eye(4) / 4.0), good])
    with pytest.raises(TypeError, match="DensityMatrix"):
        apply_circuit(circuit, [good, good.matrix])
    with pytest.raises(ValueError, match="at least one state"):
        apply_circuit(circuit, [])


@pytest.mark.parametrize(
    "device",
    [
        None,
        reference_device(),
        reference_device().scaled_coherence(2.0),
    ],
    ids=["none", "reference", "scaled_coherence_2"],
)
def test_transfer_matrices_give_the_exact_conditional_channel(device):
    # T_ij, read off the columns of the circuit's map, takes rho_A to the
    # unnormalised qubit-C state of outcome ij: the exact channel that
    # process tomography estimates.
    circuit = build_teleport_circuit()
    transfers = transfer_matrices(circuit_superoperator(circuit, device))
    trace = np.eye(2).reshape(-1)
    assert np.max(np.abs(trace @ sum(transfers.values()) - trace)) < 1e-12
    for psi in INPUT_KETS.values():
        out = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(psi)), device)
        for outcome, transfer in transfers.items():
            rho_c, probability = conditional_output_state(out, outcome)
            channel = transfer @ np.outer(psi, psi.conj()).reshape(-1)
            assert np.max(np.abs(channel - probability * rho_c.matrix.reshape(-1))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    duration=st.floats(0.0, 200e-9, exclude_min=True),
    t1=st.floats(0.1e-6, 5e-6),
    t2_ratio=st.floats(0.01, 2.0),
)
def test_contracted_kraus_matches_dense_embedding(seed, duration, t1, t2_ratio):
    # The oracles' block updates and the one-qubit factors of a gate's map in
    # circuit_superoperator act on one qubit's indices at a time; both must
    # equal the channels with every Kraus operator embedded densely. A
    # rotation on the device lasts ``duration``, a C-Phase its coupling's
    # period 1/(2J).
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    device = dataclasses.replace(uniform_device(t1, t2_ratio * t1), single_qubit_gate_time=duration)
    for q in range(3):
        expected = dense_kraus(rho, damping_channels(duration, device, q), (q,), 3)
        assert np.max(np.abs(decohered(rho, duration, device, q) - expected)) < 1e-13
    axis = rng.normal(size=3)
    angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
    rotation = Rotation(tuple(axis / np.linalg.norm(axis)), angle, int(rng.integers(3)))
    for gate in (rotation, CPhase(str(rng.choice(["AB", "BC"])))):
        u = kron_gate_unitary(gate, 3)
        expected = u @ rho @ u.conj().T
        for q in range(3):
            expected = dense_kraus(expected, damping_channels(gate_duration(gate, device), device, q), (q,), 3)
        out = apply_circuit(Circuit((gate,)), DensityMatrix(rho), device)
        assert np.max(np.abs(out.matrix - expected)) < 1e-13


# --- noise channels --------------------------------------------------------


def test_damping_channels_identity_limit():
    rho = random_density(np.random.default_rng(3), 8)
    for q in range(3):
        assert np.array_equal(decohered(rho, 0.0, reference_device(), q), rho)


def test_damping_gamma_closed_form():
    t1 = 0.55e-6
    device = uniform_device(t1, 2.0 * t1)  # pure damping: T2* = 2 T1
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for q in range(3):
        kets = [plus if k == q else computational_ket(1, 2) for k in range(3)]
        rho = DensityMatrix.from_ket(np.kron(kets[0], np.kron(kets[1], kets[2]))).matrix
        block = reduced_qubit(decohered(rho, t1, device, q), q)
        assert block[1, 1].real == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)
        assert block[0, 0].real == pytest.approx(1.0 - 0.5 * math.exp(-1.0), abs=1e-15)
        assert block[0, 1].real == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)


def test_damping_channels_complete_for_any_parameters():
    rng = np.random.default_rng(14)
    for _ in range(20):
        t1 = rng.uniform(0.1e-6, 2e-6)
        t2 = rng.uniform(0.05e-6, 2.0 * t1)
        duration = rng.uniform(0.0, 100e-9)
        device = uniform_device(t1, t2)
        rho = random_density(rng, 8)
        for q in range(3):
            out = decohered(rho, duration, device, q)
            assert abs(np.trace(out) - 1.0) < 1e-14
            expected = reduced_qubit(dense_kraus(rho, damping_channels(duration, device, q), (q,), 3), q)
            assert np.max(np.abs(reduced_qubit(out, q) - expected)) < 1e-14


def test_damping_channels_reject_unphysical_dephasing():
    # The update reads a validated DeviceParams, so T2* > 2 T1 never reaches it.
    with pytest.raises(ValueError, match="unphysical dephasing"):
        uniform_device(1e-6, 2.5e-6)
    # T2* at 2 T1 within the tolerance gives a rate of 0, not a coherence gain.
    device = uniform_device(1e-6, 2e-6 * (1.0 + 5e-13))
    rho = random_density(np.random.default_rng(5), 8)
    for q in range(3):
        before, after = reduced_qubit(rho, q), reduced_qubit(decohered(rho, 1e-6, device, q), q)
        assert after[0, 1] == pytest.approx(math.exp(-0.5) * before[0, 1], abs=1e-15)


# --- parameter containers ---------------------------------------------------


def test_device_params_validation():
    with pytest.raises(ValueError, match="unphysical"):
        DeviceParams(t1=(1e-6, 1e-6, 1e-6), t2_star=(2.5e-6, 1e-6, 1e-6), j_ab=36e6, j_bc=23e6)
    with pytest.raises(ValueError):
        DeviceParams(t1=(1e-6, 1e-6), t2_star=(1e-6, 1e-6), j_ab=36e6, j_bc=23e6)
    with pytest.raises(ValueError):
        DeviceParams(t1=(1e-6, 1e-6, 1e-6), t2_star=(1e-6, 1e-6, 1e-6), j_ab=-1.0, j_bc=23e6)


# Values that hold three items but are not a list or tuple: a set or a dict has
# no order of its own, and a generator or an array is not a stored sequence.
NOT_A_LIST_OR_TUPLE = {
    "set": set,
    "dict": dict.fromkeys,
    "generator": lambda values: (v for v in values),
    "array": np.array,
}


def test_device_coherence_times_must_be_a_list_or_tuple():
    # A set of T1 values used to be stored in the set's own order: this one as
    # T1 = (0.70, 0.55, 1.10) us, giving qubit A another qubit's T1.
    with pytest.raises(ValueError, match=re.escape("t1 must list exactly three qubits (A, B, C)")):
        DeviceParams(t1={5.5e-7, 7e-7, 1.1e-6}, t2_star=(4.5e-7, 6e-7, 9e-7), j_ab=36e6, j_bc=23e6)
    for field in ("t1", "t2_star"):
        for make in NOT_A_LIST_OR_TUPLE.values():
            d = reference_device().to_dict()
            d[field] = make(d[field])
            with pytest.raises(ValueError, match=re.escape(f"{field} must list exactly three qubits (A, B, C)")):
                DeviceParams.from_dict(d)


CHECKED_DEVICE_FIELDS = ("t1", "t2_star", "j_ab", "j_bc", "single_qubit_gate_time")


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


@pytest.mark.parametrize("j", [1e308, 5e-324])
@pytest.mark.parametrize("field", ["j_ab", "j_bc"])
def test_device_params_reject_a_coupling_whose_cphase_time_is_not_finite_positive(field, j):
    # Unchecked, 2J overflows at J = 1e308, so that C-Phase lasts 0 s and skips
    # its decoherence; at J = 5e-324 it lasts forever, and inf * 0 makes S NaN.
    with pytest.raises(ValueError, match=rf"C-Phase time 1/\(2\*{field}\) must be finite and positive"):
        DeviceParams.from_dict(device_dict_with(field, j))


@pytest.mark.parametrize("qubit", range(3))
def test_device_params_reject_a_t1_whose_decay_rate_overflows(qubit):
    # Unchecked, 1/T2* - 1/(2*T1) is inf - inf = NaN at T1 = T2* = 1e-310, and
    # the noisy run fails after evolving its inputs, with non-finite states.
    d = device_dict_with("t1", 1e-310, qubit)
    d["t2_star"][qubit] = 1e-310
    with pytest.raises(ValueError, match=re.escape(f"decay rate 1/(2*t1[{qubit}]) must be finite")):
        DeviceParams.from_dict(d)


def test_device_with_a_subnormal_t2_star_alone_runs_fully_dephased():
    # 1/(2*T1) stays finite down to T1 = 2.8e-309; an infinite 1/T2* is full dephasing.
    for t1, t2_star in ((2.8e-309, 2.8e-309), (5.5e-7, 1e-310)):
        d = device_dict_with("t1", t1)
        d["t2_star"][0] = t2_star
        rho = run_state(DeviceParams.from_dict(d), "plus", noise=True)["rho"]
        m = np.array(rho["real"]) + 1j * np.array(rho["imag"])
        assert np.isfinite(m).all()
        assert not m.reshape(2, 4, 2, 4)[0, :, 1, :].any()  # no coherence between A = 0 and A = 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("single_qubit_gate_time", "0.1"),
        ("single_qubit_gate_time", None),
        ("single_qubit_gate_time", [0.1]),
        ("single_qubit_gate_time", math.nan),
        ("t1", 5),
        ("t1", None),
        ("t2_star", "abc"),
        ("t2_star", [4.5e-7, 6e-7]),
        ("j_ab", "3.6e7"),
    ],
)
def test_device_params_type_errors_name_the_field(field, value):
    # Each fails naming its field, not with a bare TypeError from a
    # comparison or len().
    d = reference_device().to_dict()
    d[field] = value
    with pytest.raises(ValueError, match=field):
        DeviceParams.from_dict(d)


@pytest.mark.parametrize(
    "value", [5, None, "abc", [], [("j_ab", 1.0)]], ids=["number", "none", "string", "empty_list", "pairs"]
)
def test_device_params_from_dict_rejects_a_non_dict(value):
    # Unchecked, "abc" reads as the fields 'a', 'b', 'c', a list of pairs as
    # unknown fields, and 5 and None raise TypeError.
    with pytest.raises(ValueError, match=re.escape(f"device fields must be given as a dict, got {value!r}")):
        DeviceParams.from_dict(value)


def test_device_params_dict_round_trip_and_scaling():
    device = reference_device()
    assert DeviceParams.from_dict(device.to_dict()) == device
    # to_dict is asdict's dict, key order included, with t1 and t2_star as lists.
    for d in (device, dataclasses.replace(device, j_ab=3.3e7, single_qubit_gate_time=2e-8)):
        expected = {**dataclasses.asdict(d), "t1": list(d.t1), "t2_star": list(d.t2_star)}
        assert list(d.to_dict().items()) == list(expected.items())
        assert type(d.to_dict()["t1"]) is list and type(d.to_dict()["t2_star"]) is list
    scaled = device.scaled_coherence(0.5)
    assert scaled.t1 == tuple(0.5 * t for t in device.t1)
    assert scaled.t2_star == tuple(0.5 * t for t in device.t2_star)
    assert dataclasses.replace(scaled, t1=device.t1, t2_star=device.t2_star) == device


def test_reference_device_is_read_once_and_shared():
    # It used to parse paper_device.json on every call, about 0.1 ms.
    text = resources.files("telebench").joinpath("data/paper_device.json").read_text()
    assert DeviceParams.reference() is DeviceParams.reference()
    assert DeviceParams.reference() == DeviceParams.from_dict(json.loads(text)["device"])


def test_device_default_cphase_times_from_couplings():
    device = reference_device()
    assert device.cphase_time("AB") == pytest.approx(1.0 / (2.0 * 36e6))
    assert device.cphase_time("BC") == pytest.approx(1.0 / (2.0 * 23e6))
    assert device.cphase_time("AB") == pytest.approx(13.89e-9, rel=1e-3)
    assert device.cphase_time("BC") == pytest.approx(21.74e-9, rel=1e-3)
    with pytest.raises(KeyError):
        device.cphase_time("AC")


def test_damping_channels_dephase_every_reference_qubit():
    device = reference_device()
    duration = device.single_qubit_gate_time
    rho = DensityMatrix.from_ket(np.full(8, 1.0 / np.sqrt(8.0))).matrix
    for q in range(3):
        coherence = reduced_qubit(decohered(rho, duration, device, q), q)[0, 1].real
        damping_only = 0.5 * math.exp(-0.5 * duration / device.t1[q])
        assert coherence < damping_only - 1e-6
        expected = reduced_qubit(dense_kraus(rho, damping_channels(duration, device, q), (q,), 3), q)
        assert coherence == pytest.approx(expected[0, 1].real, abs=1e-15)


def test_gate_duration_decoheres_idle_excited_state():
    # |111> through an identity rotation of 1 us must decay on every qubit.
    device = dataclasses.replace(reference_device(), single_qubit_gate_time=1e-6)
    circuit = Circuit((Rotation((0.0, 0.0, 1.0), 0.0, qubit=0),))
    out = apply_circuit(circuit, DensityMatrix.from_ket(computational_ket(7, 8)), device)
    t1 = device.t1
    assert out.matrix[7, 7].real == pytest.approx(math.prod(math.exp(-1e-6 / t) for t in t1), abs=1e-12)


def test_gate_constructors_validate():
    with pytest.raises(ValueError):
        CPhase("AC")
    with pytest.raises(ValueError):
        Rotation((1.0, 1.0, 1.0), 0.1, qubit=0)
    with pytest.raises(ValueError):
        CPhase(["AB"])
    with pytest.raises(ValueError):
        Rotation((0.0, 1.0, 0.0), 0.1, qubit=5)


@pytest.mark.parametrize("qubit", [3, -1, np.int64(3)])
def test_rotation_rejects_a_qubit_outside_the_register(qubit):
    # The register is A, B and C; Circuit used to catch qubit 3 only against its num_qubits.
    with pytest.raises(ValueError, match=r"gate qubit must be 0, 1 or 2 \(A, B or C\)"):
        Rotation((0.0, 1.0, 0.0), 0.1, qubit=qubit)


def test_cphase_qubits_must_be_its_pairs():
    # (0, 2) with pair AB used to build a C-Phase between A and C, decohered for
    # AB's duration. A C-Phase's qubits are now read from its pair, never given.
    assert CPHASE_PAIRS == {"AB": (0, 1), "BC": (1, 2)}
    for pair, qubits in (("AB", (0, 2)), ("BC", (2, 1))):
        with pytest.raises(TypeError, match="unexpected keyword argument 'qubits'"):
            CPhase(pair, qubits=qubits)


@pytest.mark.parametrize("pair", [None, "AC", "ab", ["AB"]])
def test_cphase_needs_a_known_pair(pair):
    # Without a pair, a C-Phase used to fail only at noisy evolution.
    with pytest.raises(ValueError, match="C-Phase pair must be one of"):
        CPhase(pair)


@pytest.mark.parametrize(
    "axis",
    [None, "xyz", (0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (math.nan, 0.0, 1.0), (0.0, True, 0.0), (0, 0, 1j)],
)
def test_rotation_needs_a_real_unit_axis(axis):
    with pytest.raises(ValueError, match="rotation axis must be a unit 3-vector"):
        Rotation(axis, 0.1, qubit=0)


def test_rotation_axis_must_be_a_list_or_tuple():
    # Each used to be read through tuple(): a set axis in the set's own order.
    for make in NOT_A_LIST_OR_TUPLE.values():
        with pytest.raises(ValueError, match="rotation axis must be a unit 3-vector"):
            Rotation(make((0.0, 0.6, 0.8)), 0.1, qubit=0)


@pytest.mark.parametrize("angle", [None, math.nan, math.inf, -math.inf, True, "0.1", 1j])
def test_rotation_needs_a_finite_real_angle(angle):
    with pytest.raises(ValueError, match="rotation angle must be a finite number"):
        Rotation((0.0, 0.0, 1.0), angle, qubit=0)


def test_gate_fields_belong_to_their_kind():
    # Each kind has only its own fields, so a C-Phase with an axis cannot be written.
    with pytest.raises(TypeError, match="unexpected keyword argument 'axis'"):
        CPhase("AB", axis=(0.0, 0.0, 1.0))
    with pytest.raises(TypeError, match="unexpected keyword argument 'angle'"):
        CPhase("AB", angle=0.1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'pair'"):
        Rotation((0.0, 0.0, 1.0), 0.1, qubit=0, pair="AB")


def test_rotation_stores_its_axis_and_angle_as_floats_in_a_tuple():
    # A list axis used to build, then fail in apply_circuit: unhashable for circuit_superoperator's cache.
    gate = Rotation([0.0, np.int64(0), 1], np.float32(0.5), qubit=0)
    assert gate.axis == (0.0, 0.0, 1.0) and gate.angle == 0.5
    assert all(type(a) is float for a in (*gate.axis, gate.angle))
    assert gate == Rotation((0.0, 0.0, 1.0), 0.5, qubit=0)
    rho = DensityMatrix.from_ket(computational_ket(0, 8))
    assert np.allclose(apply_circuit(Circuit((gate,)), rho, reference_device()).matrix[0, 0], 1.0)


def test_circuit_stores_its_gates_as_a_tuple_of_gates():
    gates = [CPhase("AB")]
    circuit = Circuit(gates)
    gates.append(CPhase("BC"))
    assert circuit.gates == (CPhase("AB"),)
    with pytest.raises(TypeError, match="a circuit holds Gate values, got tuple"):
        Circuit((("cphase", (0, 1)),))


def test_circuit_gates_must_be_a_list_or_tuple():
    # A set of gates used to become a circuit in the set's own order.
    gates = (Rotation((0.0, 1.0, 0.0), 0.3, qubit=0), CPhase("AB"))
    for make in NOT_A_LIST_OR_TUPLE.values():
        value = make(gates)
        with pytest.raises(TypeError, match=f"^a circuit's gates must be a list or tuple, got {type(value).__name__}$"):
            Circuit(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=1.7),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=(1,)),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=True),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=np.float64(1.0)),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=0.2),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit="1"),
        lambda: Rotation((0.0, 1.0, 0.0), 0.3, qubit=None),
    ],
)
def test_gate_rejects_non_integer_qubits(build):
    # int() used to turn 1.7 and True into qubit 1, and 0.2 into 0.
    with pytest.raises(ValueError, match="gate qubit must be an integer"):
        build()


def test_gate_accepts_numpy_integer_qubits_as_ints():
    y = (0.0, 1.0, 0.0)
    gates = tuple(Rotation(y, 0.3, qubit=q) for q in (np.int64(2), np.int32(1), np.uint8(0)))
    assert [g.qubit for g in gates] == [2, 1, 0]
    assert all(type(g.qubit) is int for g in gates)
    assert gates[0] == Rotation(y, 0.3, qubit=2)
    assert circuit_superoperator(Circuit(gates[:1])) is circuit_superoperator(Circuit((Rotation(y, 0.3, qubit=2),)))


@pytest.mark.parametrize(
    "kind, qubits",
    [
        ("rotation", (0, 1)),
        ("rotation", ()),
        ("rotation", (0, 2)),
        ("cphase", (1,)),
        ("cphase", (0,)),
        ("cphase", (0, 1, 2)),
    ],
)
def test_neither_gate_takes_qubits_and_a_rotation_takes_no_qubit_tuple(kind, qubits):
    # A rotation on (0, 1) used to rotate qubit 0 alone and pass for a valid
    # state. A rotation takes one qubit and a C-Phase none: its pair names them.
    with pytest.raises(TypeError, match="unexpected keyword argument 'qubits'"):
        Rotation((0.0, 1.0, 0.0), 0.3, 0, qubits=qubits) if kind == "rotation" else CPhase("AB", qubits=qubits)
    if kind == "rotation":
        with pytest.raises(ValueError, match="gate qubit must be an integer"):
            Rotation((0.0, 1.0, 0.0), 0.3, qubit=qubits)


def test_gates_take_no_qubits_and_gate_kinds_are_types():
    for qubits in ((1, 1), (np.int64(2), 2)):
        with pytest.raises(TypeError, match="unexpected keyword argument 'qubits'"):
            CPhase("BC", qubits=qubits)
    # The textbook circuit's Hadamard and CNOT are not gate types: the device has neither.
    for kind, qubits in (("toffoli", (0, 1, 2)), ("hadamard", (0,)), ("cnot", (0, 1))):
        with pytest.raises(TypeError, match="not callable"):
            Gate(kind=kind, qubits=qubits)
        for native in (Rotation, CPhase):
            with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
                native(kind=kind, qubits=qubits)


def test_gate_is_the_union_of_the_two_native_types():
    assert telebench.Gate is Gate and telebench.Rotation is Rotation and telebench.CPhase is CPhase
    assert isinstance(Rotation((0.0, 1.0, 0.0), 0.3, qubit=0), Gate) and isinstance(CPhase("AB"), Gate)
    for name in ("_GATE_ARITY", "_pair_qubits", "gate_operator", "cphase_ideal", "_check_duration", "_gate_duration"):
        assert not hasattr(circuit_module, name)
    for name in ("rotation", "cphase", "kind", "duration", "qubits"):
        assert not hasattr(Gate, name) and not hasattr(Rotation, name) and not hasattr(CPhase, name)
    # A gate is what the device runs: its duration is the device's, never the gate's.
    assert [f.name for f in dataclasses.fields(Rotation)] == ["axis", "angle", "qubit"]
    assert [f.name for f in dataclasses.fields(CPhase)] == ["pair"]
    with pytest.raises(TypeError, match="unexpected keyword argument 'duration'"):
        CPhase("AB", duration=0.0)


@pytest.mark.parametrize("num_qubits", [2.5, 3.0, True, 0, -1, "3", None])
def test_circuit_takes_no_register_size(num_qubits):
    # The register is the device's A, B and C, so a circuit takes no size at all.
    with pytest.raises(TypeError, match="unexpected keyword argument 'num_qubits'"):
        Circuit(num_qubits=num_qubits, gates=())


def test_circuit_stores_a_numpy_integer_qubit_as_an_int_and_has_no_register_size():
    circuit = Circuit(gates=(Rotation((0.0, 1.0, 0.0), 0.3, qubit=np.int64(2)),))
    assert circuit.gates[0].qubit == 2 and type(circuit.gates[0].qubit) is int
    assert not hasattr(circuit, "num_qubits")


@pytest.mark.parametrize("num_qubits", [1, 2, 4])
def test_device_evolution_needs_the_three_device_qubits(num_qubits):
    # A 4-qubit register used to raise IndexError, and a 2-qubit one was
    # silently decohered with A's and B's T1 and T2*. Every circuit is on A,
    # B and C now, with or without a device.
    rho = DensityMatrix.from_ket(computational_ket(0, 2**num_qubits))
    for device in (reference_device(), None):
        with pytest.raises(ValueError, match=f"^state dimension {2**num_qubits} does not match 8$"):
            apply_circuit(build_teleport_circuit(), rho, device)


def test_circuit_superoperator_is_built_once_per_circuit_and_device_and_read_only():
    circuit = build_teleport_circuit()
    circuit_superoperator.cache_clear()
    s = circuit_superoperator(circuit, reference_device())
    assert s.shape == (64, 64) and not s.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = 2.0
    # Equal values share one map: a device read again, a circuit built again.
    twin = DeviceParams.from_dict(reference_device().to_dict())
    assert twin is not reference_device()
    assert circuit_superoperator(build_teleport_circuit(), twin) is s
    assert circuit_superoperator(circuit, None) is not s
    info = circuit_superoperator.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 2, 32)


def test_second_apply_circuit_builds_no_rotation(monkeypatch):
    calls = []
    build = circuit_module.rotation_unitary
    monkeypatch.setattr(circuit_module, "rotation_unitary", lambda *a: calls.append(a) or build(*a))
    circuit_superoperator.cache_clear()
    circuit = build_teleport_circuit()
    rho = DensityMatrix.from_ket(embed_input(INPUT_KETS["plus"]))
    first = apply_circuit(circuit, rho, reference_device())
    # One build per rotation gate, repeated gates included: S's cache is the only cache.
    assert len(calls) == sum(isinstance(g, Rotation) for g in circuit.gates) == 6
    calls.clear()
    second = apply_circuit(circuit, rho, reference_device())
    assert calls == []
    assert np.array_equal(first.matrix, second.matrix)
