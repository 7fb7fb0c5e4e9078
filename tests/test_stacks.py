"""The benchmark's stages on stacks of states.

Every stage takes one state or a stack of them. These tests pin that each
member of a stacked result equals the single-state result bit for bit, that
a stack is validated member by member, and that a run makes one call per
stage on its whole stack (one per outcome for the conditional projection).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import telebench.teleport_bench as tb
from oracles import kron_pauli, per_state_benchmark, per_state_entry, random_density, random_ket
from telebench.circuit import DeviceParams, apply_circuit, build_teleport_circuit
from telebench.entanglement import three_tangle_mixed_upper
from telebench.qops import DensityMatrix, nearest_physical, state_fidelity_pure
from telebench.teleport_bench import (
    INPUT_LABELS,
    OUTCOMES,
    conditional_output_state,
    process_tomography,
    report_json_text,
    run_benchmark,
    run_state,
)
from telebench.tomography import (
    PAULI_LABELS,
    PAULI_STACK,
    linear_inversion,
    mle_reconstruct,
    pauli_set,
    simulate_readout,
)

SWEEP = {
    "noise_off": {},
    "noise_on": {"noise": True, "shots": 0, "restarts": 5},
    "sampled": {"noise": True, "shots": 1000, "restarts": 5},
    # Outcomes 01 and 11 vanish for some input, so both pipelines skip them.
    "decohering": {"noise": True, "shots": 0, "restarts": 5, "device": DeviceParams.reference().scaled_coherence(1e-3)},
}


def pop_process_values(report: dict) -> tuple:
    """Remove what is computed from chi (the process blocks and their two
    means) from ``report`` and return it."""
    means = tuple(report["averages"].pop(key) for key in ("mean_process_fidelity", "mean_average_output_fidelity"))
    return report.pop("processes"), means


def assert_close_tree(got, want, tol: float) -> None:
    """Equal structure and non-float leaves, floats within ``tol``."""
    if isinstance(got, dict):
        assert got.keys() == want.keys()
        for key in got:
            assert_close_tree(got[key], want[key], tol)
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close_tree(g, w, tol)
    elif isinstance(got, float):
        assert abs(got - want) <= tol, (got, want)
    else:
        assert got == want


@pytest.mark.parametrize("config", SWEEP)
def test_stacked_benchmark_report_equals_the_per_state_pipeline(config):
    # Every value but those computed from chi is compared as report text.
    # The per-state pipeline solves for chi by least squares, not with the
    # package's constant inverse, so chi and the process fidelities agree
    # to rounding: they are compared to 1e-12.
    settings = {"device": DeviceParams.reference(), **SWEEP[config]}
    for seed in range(10):
        stacked = run_benchmark(seed=seed, **settings)
        oracle = per_state_benchmark(seed=seed, **settings)
        processes, oracle_processes = pop_process_values(stacked), pop_process_values(oracle)
        assert report_json_text(stacked) == report_json_text(oracle)
        assert_close_tree(processes, oracle_processes, 1e-12)


@pytest.mark.parametrize("label", INPUT_LABELS)
def test_run_state_entry_equals_the_per_state_stage(label):
    device = DeviceParams.reference()
    report = run_state(device, label, shots=1000, seed=3, noise=True, restarts=5)
    rho_out = tb.apply_circuit(tb._CIRCUIT, tb._INPUT_STATES[label], device)
    entry, rho_m = per_state_entry(rho_out, label, 1000, 3, 5)
    assert report_json_text({k: report[k] for k in entry}) == report_json_text(entry)
    assert np.array_equal(np.array(report["rho"]["real"]) + 1j * np.array(report["rho"]["imag"]), rho_m.matrix)


def test_pauli_stack_is_the_kron_built_operators():
    assert PAULI_STACK.shape == (63, 8, 8)
    assert not PAULI_STACK.flags.writeable
    for label, op in zip(PAULI_LABELS, PAULI_STACK):
        # Bytes, not values: the signs of the zeros reach the report text.
        assert op.tobytes() == kron_pauli(label).tobytes(), label


# -- stacked stages equal single-state calls ---------------------------------

records = arrays(np.float64, (3, 63), elements=st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(values=records)
def test_stacked_reconstruction_equals_single_calls(values):
    # Drawn records are mostly unphysical: their inversions have negative
    # eigenvalues, so the truncation loop runs.
    stacked = mle_reconstruct(values)
    assert len(stacked) == len(values)
    for row, state in zip(values, stacked):
        assert np.array_equal(state.matrix, mle_reconstruct(row).matrix)
    mus = linear_inversion(values)
    assert all(np.array_equal(mu, linear_inversion(row)) for mu, row in zip(mus, values))
    projected = nearest_physical(mus)
    assert all(np.array_equal(p.matrix, nearest_physical(mu).matrix) for p, mu in zip(projected, mus))
    assert all(np.array_equal(p.matrix, s.matrix) for p, s in zip(projected, stacked))
    again = nearest_physical([s.matrix for s in stacked])  # a list of arrays
    assert all(np.array_equal(p.matrix, nearest_physical(s.matrix).matrix) for p, s in zip(again, stacked))


@settings(max_examples=20, deadline=None)
@given(entries=arrays(np.float64, (2, 4, 4, 2), elements=st.floats(-1.0, 1.0)))
def test_stacked_projection_of_hermitian_matrices_equals_single_calls(entries):
    g = entries[..., 0] + 1j * entries[..., 1]
    h = g + g.conj().swapaxes(1, 2) + 4.0 * np.eye(4)  # trace well away from zero
    for p, single in zip(nearest_physical(list(h)), h):
        assert np.array_equal(p.matrix, nearest_physical(single).matrix)


def test_stacked_readout_pauli_sets_fidelities_and_projections_equal_single_calls():
    rng = np.random.default_rng(5)
    states = [DensityMatrix(random_density(rng, 8)) for _ in range(4)]
    seeds = [11, 12, 2**40, 13]
    for shots in (0, 500):
        values = simulate_readout(states, shots, seeds)
        for row, state, seed in zip(values, states, seeds):
            assert np.array_equal(row, simulate_readout(state, shots, seed))
    exact = pauli_set(states)
    assert all(np.array_equal(row, pauli_set(state)) for row, state in zip(exact, states))
    kets = np.array([random_ket(rng, 8) for _ in states])
    fidelities = state_fidelity_pure(states, kets)
    assert [f for f in fidelities] == [state_fidelity_pure(s, k) for s, k in zip(states, kets)]
    for outcome in OUTCOMES:
        rhos_c, probabilities = conditional_output_state(states, outcome)
        for rho_c, probability, state in zip(rhos_c, probabilities, states):
            single_c, single_p = conditional_output_state(state, outcome)
            assert np.array_equal(rho_c.matrix, single_c.matrix) and probability == single_p


def test_one_state_in_gives_one_result_out():
    rho = DensityMatrix(np.eye(8) / 8.0)
    assert simulate_readout(rho, 100, 0).shape == (63,)
    assert simulate_readout([rho], 100, [0]).shape == (1, 63)
    assert isinstance(mle_reconstruct(np.zeros(63)), DensityMatrix)
    assert isinstance(mle_reconstruct(np.zeros((1, 63))), list)
    assert isinstance(state_fidelity_pure(rho, np.eye(8)[0]), float)
    assert isinstance(conditional_output_state(rho, "00")[1], float)


# -- stacks are validated member by member -----------------------------------

GOOD = np.eye(2) / 2.0
BAD = {
    "non_finite": np.array([[np.nan, 0.0], [0.0, 0.5]]),
    "not_hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "trace": np.diag([0.7, 0.7]),
    "negative": np.diag([1.1, -0.1]),
}


@pytest.mark.parametrize("kind", BAD)
def test_stack_with_one_bad_member_raises_like_the_constructor_and_names_it(kind):
    with pytest.raises(ValueError) as single:
        DensityMatrix(BAD[kind])
    with pytest.raises(ValueError) as stacked:
        DensityMatrix.stack([GOOD, GOOD, BAD[kind], GOOD])
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == f"member 2: {single.value}"


def test_stacked_stages_name_the_bad_member():
    rho = DensityMatrix(np.eye(8) / 8.0)
    basis_000 = DensityMatrix(np.diag([1.0] + [0.0] * 7))
    with pytest.raises(ValueError, match="member 1: outcome has vanishing probability"):
        conditional_output_state([rho, basis_000], "11")
    values = np.zeros((3, 63))
    values[2, 5] = 1.5
    with pytest.raises(ValueError, match=f"member 2: expectation for {PAULI_LABELS[5]}"):
        linear_inversion(values)
    with pytest.raises(ValueError, match="member 1: matrix trace is too close to zero"):
        nearest_physical(np.array([GOOD, np.diag([1.0, -1.0])]))
    with pytest.raises(ValueError, match="member 1: ket is not normalized"):
        state_fidelity_pure([rho, rho], np.array([np.eye(8)[0], np.ones(8)]))
    with pytest.raises(ValueError, match="does not match"):
        pauli_set([rho, DensityMatrix(GOOD)])
    with pytest.raises(ValueError, match="one seed per state"):
        simulate_readout([rho, rho], 10, [1])
    with pytest.raises(ValueError, match="one seed per state"):
        simulate_readout([rho, rho], 10, 1)


def _near_hermitian(seed=None):
    """I/8 plus an imaginary symmetric part, Hermitian to 9.8e-10 (just inside
    the constructor's 1e-9): on entries 01 and 10, or on every off-diagonal
    entry, drawn from ``seed``."""
    if seed is None:
        s = np.zeros((8, 8))
        s[0, 1] = s[1, 0] = 1.0
    else:
        s = np.random.default_rng(seed).standard_normal((8, 8))
        s = s + s.T
        np.fill_diagonal(s, 0.0)
    return DensityMatrix(np.eye(8) / 8.0 + 0.49e-9j * s / np.abs(s).max())


# Inputs the constructor accepts whose outputs it rejects: the projection onto
# 00 divides the Hermitian residue by p = 1/4, and the evolution mixes it. A
# DensityMatrix that stored its Hermitian part would accept both outputs.
ONE_STATE_ERRORS = {
    "conditional_output_state": (
        lambda rho: conditional_output_state(rho, "00"),
        _near_hermitian(),
        "matrix is not Hermitian (deviation 3.920e-09)",
    ),
    "apply_circuit": (
        lambda rho: apply_circuit(build_teleport_circuit(), rho),
        _near_hermitian(3),
        "matrix is not Hermitian (deviation 1.192e-09)",
    ),
}


@pytest.mark.parametrize("stage", ONE_STATE_ERRORS)
def test_an_error_names_the_member_of_a_stack_and_no_member_of_one_state(stage):
    run, rho, message = ONE_STATE_ERRORS[stage]
    with pytest.raises(ValueError) as single:
        run(rho)
    assert str(single.value) == message
    with pytest.raises(ValueError) as stacked:
        run([DensityMatrix(np.eye(8) / 8.0), rho])
    assert str(stacked.value) == f"member 1: {message}"


# Each stage's register size: 8x8 states, except process tomography, which
# takes the 2x2 states of qubit C. The tangle bound takes one state only.
STAGE_SIZES = {
    "apply_circuit": (lambda rho: apply_circuit(build_teleport_circuit(), rho), 8),
    "pauli_set": (pauli_set, 8),
    "simulate_readout": (lambda rho: simulate_readout(rho, 10, 1 if isinstance(rho, DensityMatrix) else [1, 2]), 8),
    "conditional_output_state": (lambda rho: conditional_output_state(rho, "00"), 8),
    "three_tangle_mixed_upper": (three_tangle_mixed_upper, 8),
    "process_tomography": (process_tomography, 2),
}


@pytest.mark.parametrize("stage", STAGE_SIZES)
def test_every_stage_rejects_a_state_of_the_wrong_size(stage):
    run, dim = STAGE_SIZES[stage]
    good = DensityMatrix(np.eye(dim) / dim)
    wrong = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError, match=f"^state dimension 4 does not match {dim}$"):
        run(wrong)
    with pytest.raises(ValueError, match=f"^member 1: state dimension 4 does not match {dim}$"):
        run([good, wrong])
    if stage == "three_tangle_mixed_upper":
        for states in ([good], [good, good]):
            with pytest.raises(TypeError, match="^three_tangle_mixed_upper takes one DensityMatrix, not a sequence$"):
                run(states)


def test_every_member_of_a_stack_is_read_only():
    states = DensityMatrix.stack(np.array([GOOD, np.diag([1.0, 0.0])]))
    states += mle_reconstruct(np.zeros((2, 63)))
    for state in states:
        with pytest.raises(ValueError, match="read-only"):
            state.matrix[0, 0] = 0.25


# -- seeds are integers -------------------------------------------------------


@pytest.mark.parametrize("seed", [2.7, True, "3", 2.0, None], ids=["float", "true", "str", "integral_float", "none"])
def test_readout_rejects_non_integer_seeds(seed):
    rho = DensityMatrix(np.eye(8) / 8.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate_readout(rho, 100, seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate_readout([rho, rho], 100, [1, seed])


def test_readout_accepts_numpy_integer_seeds():
    rho = DensityMatrix(np.eye(8) / 8.0)
    assert np.array_equal(simulate_readout(rho, 100, np.uint64(7)), simulate_readout(rho, 100, 7))
    assert np.array_equal(simulate_readout([rho], 100, np.array([7])), simulate_readout([rho], 100, [7]))


@pytest.mark.parametrize("seed", [2.7, True], ids=["float", "true"])
def test_mixed_tangle_rejects_non_integer_seeds(seed):
    rho = DensityMatrix(np.eye(8) / 8.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        three_tangle_mixed_upper(rho, restarts=5, seed=seed)


def test_mixed_tangle_accepts_numpy_integer_seeds():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng, 8, rank=2))
    value = three_tangle_mixed_upper(rho, restarts=5, seed=4)
    assert three_tangle_mixed_upper(rho, restarts=5, seed=np.int64(4)) == value
    assert three_tangle_mixed_upper(rho, restarts=5, seed=np.uint32(4)) == value
