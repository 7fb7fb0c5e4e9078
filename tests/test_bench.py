import json
import re

import numpy as np
import pytest

import telebench.teleport_bench as tb
from oracles import chi_from_kraus, dense_conditional_state, lstsq_process_tomography, random_density, random_unitary
from telebench.entanglement import MAX_RESTARTS
from telebench.circuit import DeviceParams, TELEPORT_BRANCH_OPS, apply_circuit, ideal_phi
from telebench.qops import DensityMatrix, computational_ket, nearest_physical, state_fidelity_pure
from telebench.tomography import MAX_SHOTS
from telebench.teleport_bench import (
    CHI_BASIS,
    INPUT_KETS,
    INPUT_LABELS,
    OUTCOMES,
    PAPER_REFERENCE,
    average_output_fidelity,
    conditional_output_state,
    ideal_chi,
    process_tomography,
    report_csv_rows,
    report_csv_text,
    report_json_text,
    run_benchmark,
    run_state,
)

MINUS = INPUT_KETS["minus"]


def apply_channel(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


# --- conditional projection -------------------------------------------------


def test_conditional_output_state_recovers_input_on_00():
    rho = DensityMatrix.from_ket(ideal_phi(MINUS))
    rho_c, prob = conditional_output_state(rho, "00")
    assert prob == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(rho_c.matrix, np.outer(MINUS, MINUS.conj()), atol=1e-9)


def test_conditional_output_state_x_branch():
    rho = DensityMatrix.from_ket(ideal_phi(MINUS))
    rho_c, prob = conditional_output_state(rho, "01")
    branch = TELEPORT_BRANCH_OPS["01"] @ MINUS
    assert prob == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(rho_c.matrix, np.outer(branch, branch.conj()), atol=1e-9)


def test_conditional_probabilities_quarter_each():
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = v / np.linalg.norm(v)
    rho = DensityMatrix.from_ket(ideal_phi(psi))
    probs = [conditional_output_state(rho, o)[1] for o in OUTCOMES]
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_conditional_output_state_vanishing_probability():
    rho = DensityMatrix.from_ket(computational_ket(0, 8))  # A,B fixed to 00
    with pytest.raises(ValueError, match="vanishing probability"):
        conditional_output_state(rho, "11")


def test_conditional_output_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = DensityMatrix(random_density(rng, 8))
        total = sum(conditional_output_state(rho, o)[1] for o in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_conditional_output_state_matches_dense_projection():
    rng = np.random.default_rng(3)
    for rank in (1, 3, 8):
        rho = DensityMatrix(random_density(rng, 8, rank))
        for outcome in OUTCOMES:
            rho_c, prob = conditional_output_state(rho, outcome)
            oracle, oracle_prob = dense_conditional_state(rho.matrix, int(outcome[0]), int(outcome[1]))
            assert abs(prob - oracle_prob) < 1e-12
            assert np.max(np.abs(rho_c.matrix - oracle)) < 1e-12


# --- process tomography -------------------------------------------------------


def canonical_inputs():
    return [INPUT_KETS[label] for label in INPUT_LABELS]


def test_process_tomography_identity():
    outputs = [DensityMatrix.from_ket(k) for k in canonical_inputs()]
    chi = process_tomography(outputs).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(chi - expected)) < 1e-9


def test_process_tomography_pauli_conjugations():
    x = np.array(CHI_BASIS[1])
    outputs = [DensityMatrix.from_ket(x @ k) for k in canonical_inputs()]
    chi = process_tomography(outputs).matrix
    assert chi[1, 1] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(chi - ideal_chi("01"))) < 1e-9

    y_tilde = np.array(CHI_BASIS[2])
    outputs = [DensityMatrix.from_ket(y_tilde @ k) for k in canonical_inputs()]
    chi = process_tomography(outputs).matrix
    assert np.max(np.abs(chi - ideal_chi("11"))) < 1e-9


def test_process_tomography_round_trip_against_kraus_expansion():
    # Amplitude damping composed with a rotation has a dense chi: recover it
    # from the four canonical in/out pairs and compare with the direct
    # basis expansion of the Kraus operators.
    from telebench.circuit import Rotation, rotation_unitary

    gamma = 0.3
    kraus = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    u = rotation_unitary(Rotation((0.0, 1.0, 0.0), 0.7, qubit=0))
    kraus = [u @ k for k in kraus]
    outputs = []
    for ket in canonical_inputs():
        rho_out = apply_channel(kraus, np.outer(ket, ket.conj()))
        outputs.append(DensityMatrix(rho_out))
    chi = process_tomography(outputs).matrix
    oracle = chi_from_kraus(kraus)
    assert np.max(np.abs(chi - oracle)) < 1e-9
    assert np.max(np.abs(chi - lstsq_process_tomography(canonical_inputs(), outputs))) < 1e-12


def test_process_tomography_equals_the_least_squares_oracle_on_random_channels():
    rng = np.random.default_rng(11)
    for rank in (1, 2, 4):
        # A random CPTP channel: the isometry columns of a Haar unitary, cut into Kraus operators.
        v = random_unitary(rng, 2 * rank)[:, :2]
        kraus = [v[2 * k : 2 * k + 2] for k in range(rank)]
        outputs = [DensityMatrix(apply_channel(kraus, np.outer(k, k.conj()))) for k in canonical_inputs()]
        chi = process_tomography(outputs).matrix
        assert np.max(np.abs(chi - lstsq_process_tomography(canonical_inputs(), outputs))) < 1e-12
        assert np.max(np.abs(chi - chi_from_kraus(kraus))) < 1e-12


def test_process_tomography_equals_the_least_squares_oracle_on_noisy_conditionals():
    rho_out = apply_circuit(tb._CIRCUIT, [tb._INPUT_STATES[label] for label in INPUT_LABELS], DeviceParams.reference())
    for outcome in OUTCOMES:
        conditionals, _ = conditional_output_state(rho_out, outcome)
        oracle = lstsq_process_tomography(canonical_inputs(), conditionals)
        assert np.max(np.abs(process_tomography(conditionals).matrix - oracle)) < 1e-12


def test_least_squares_oracle_rejects_degenerate_inputs():
    kets = [INPUT_KETS["0"]] * 4
    with pytest.raises(ValueError, match="singular design matrix"):
        lstsq_process_tomography(kets, [DensityMatrix.from_ket(INPUT_KETS["0"])] * 4)


def test_process_tomography_takes_the_four_single_qubit_outputs():
    outputs = [DensityMatrix.from_ket(k) for k in canonical_inputs()]
    for bad in (outputs[:3], outputs + outputs[:1]):
        with pytest.raises(ValueError, match="single-qubit outputs"):
            process_tomography(bad)
    with pytest.raises(ValueError, match="^member 0: state dimension 4 does not match 2$"):
        process_tomography([DensityMatrix.from_ket(np.ones(4) / 2.0)] * 4)
    with pytest.raises(TypeError, match="DensityMatrix"):
        process_tomography([o.matrix for o in outputs])


def test_chi_solve_is_a_read_only_well_conditioned_inverse():
    solve = tb._CHI_SOLVE
    assert solve.shape == (16, 16) and not solve.flags.writeable
    assert np.linalg.matrix_rank(solve) == 16
    assert np.linalg.cond(solve) < 4.0
    rho_ins = [np.outer(k, k.conj()) for k in canonical_inputs()]
    for m, n in np.ndindex(4, 4):
        # Column (m, n) of the design is the four outputs of the map rho -> B_m rho B_n^dag.
        column = np.concatenate([(CHI_BASIS[m] @ rho @ CHI_BASIS[n].conj().T).reshape(-1) for rho in rho_ins])
        unit = np.zeros(16)
        unit[4 * m + n] = 1.0
        assert np.max(np.abs(solve @ column - unit)) < 1e-14


def test_ideal_chi_entries():
    assert ideal_chi("00")[0, 0] == 1.0
    assert ideal_chi("01")[1, 1] == 1.0
    assert ideal_chi("10")[3, 3] == 1.0
    assert ideal_chi("11")[2, 2] == 1.0
    for outcome in OUTCOMES:
        chi = ideal_chi(outcome)
        assert np.trace(chi) == pytest.approx(1.0)
        assert np.max(np.abs(chi @ chi - chi)) < 1e-12  # rank-1 projector


def test_state_fidelity_pure_scores_a_density_matrix_chi_against_its_coefficients():
    # Every ideal chi is the pure state c c^dag, so a chi's process fidelity is <c|chi|c>.
    for outcome, coeffs in zip(OUTCOMES, tb._BRANCH_COEFFS):
        assert np.array_equal(np.outer(coeffs, coeffs.conj()), ideal_chi(outcome))
        assert state_fidelity_pure(DensityMatrix(ideal_chi(outcome)), coeffs) == 1.0
        assert state_fidelity_pure(DensityMatrix(np.eye(4) / 4.0), coeffs) == 0.25


def test_process_fidelity_rejects_non_finite_chi():
    # A non-finite chi can neither be projected nor held as a state, and a non-finite row of coefficients is no ket.
    for bad in (np.nan, np.inf, -np.inf):
        chi = ideal_chi("00").copy()
        chi[1, 2] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            nearest_physical(chi)
        with pytest.raises(ValueError, match="density matrix contains non-finite entries"):
            DensityMatrix(chi)
        coeffs = tb._BRANCH_COEFFS[0].copy()
        coeffs[1] = bad
        with pytest.raises(ValueError, match="ket is not normalized"):
            state_fidelity_pure(DensityMatrix(ideal_chi("00")), coeffs)


def test_process_fidelity_takes_4x4_chi_matrices():
    # A chi of another size does not match the four coefficients of an outcome.
    for chi in (np.eye(3) / 3.0, np.eye(8) / 8.0):
        with pytest.raises(ValueError, match=rf"target shape \(1, 4\) does not match states \(1, {len(chi)}\)"):
            state_fidelity_pure(DensityMatrix(chi), tb._BRANCH_COEFFS[0])
    with pytest.raises(ValueError, match=r"target shape \(1, 3\) does not match states \(1, 4\)"):
        state_fidelity_pure(DensityMatrix(ideal_chi("00")), np.array([1.0, 0.0, 0.0]))
    # Tomography reconstructs chi from single-qubit outputs only.
    with pytest.raises(ValueError, match="member 0: state dimension 4 does not match 2"):
        process_tomography([DensityMatrix(np.eye(4) / 4.0)] * len(INPUT_LABELS))


def test_process_fidelity_rejects_values_outside_the_unit_interval():
    # A chi whose score against an ideal chi could leave [0, 1] by more than rounding is not a state.
    with pytest.raises(ValueError, match=r"trace differs from 1 by 3.000e\+00"):
        DensityMatrix(np.eye(4))
    with pytest.raises(ValueError, match="trace differs from 1"):
        DensityMatrix(-ideal_chi("01"))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(1j * ideal_chi("01"))
    # Rounding either side of [0, 1] is clamped.
    coeffs = tb._BRANCH_COEFFS[OUTCOMES.index("10")]
    assert state_fidelity_pure(DensityMatrix((1.0 + 5e-10) * ideal_chi("10")), coeffs) == 1.0
    below = (1.0 + 5e-10) * ideal_chi("00") - 5e-10 * ideal_chi("10")
    assert state_fidelity_pure(DensityMatrix(below), coeffs) == 0.0


def test_process_fidelity_of_noisy_conditionals_is_the_clamped_trace_against_the_ideal_chi():
    # The report's chi and Fp at shots 0, from the reconstructions the run makes of the noisy outputs.
    device = DeviceParams.reference()
    rho_out = apply_circuit(tb._CIRCUIT, [tb._INPUT_STATES[label] for label in INPUT_LABELS], device)
    rhos_m = tb.mle_reconstruct(tb.simulate_readout(rho_out, 0, [0] * len(INPUT_LABELS)))
    report = run_benchmark(device, noise=True)
    for outcome in OUTCOMES:
        chi = process_tomography(conditional_output_state(rhos_m, outcome)[0])
        assert isinstance(chi, DensityMatrix) and chi.matrix.shape == (4, 4) and not chi.matrix.flags.writeable
        packed = report["processes"][outcome]["chi"]
        assert np.array_equal(np.array(packed["real"]) + 1j * np.array(packed["imag"]), chi.matrix)
        expected = min(1.0, max(0.0, np.trace(chi.matrix @ ideal_chi(outcome)).real))
        assert report["processes"][outcome]["process_fidelity"] == expected


def test_average_output_fidelity():
    assert average_output_fidelity(1.0) == pytest.approx(1.0)
    assert average_output_fidelity(0.83) == pytest.approx(0.8866666666666667)
    assert average_output_fidelity(0.5) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        average_output_fidelity(1.2)
    with pytest.raises(ValueError):
        average_output_fidelity(-0.1)


# --- full benchmark -------------------------------------------------------------


@pytest.fixture(scope="module")
def noiseless_report():
    return run_benchmark(DeviceParams.reference(), shots=0, seed=0, noise=False, restarts=20)


@pytest.fixture(scope="module")
def noisy_report():
    return run_benchmark(DeviceParams.reference(), shots=0, seed=0, noise=True, restarts=40)


@pytest.fixture(scope="module")
def sampled_noisy_report():
    return run_benchmark(DeviceParams.reference(), shots=300, seed=21, noise=True, restarts=5)


@pytest.mark.parametrize(
    "kwargs",
    [dict(shots=2.5), dict(shots=True), dict(shots=-1), dict(restarts=True), dict(restarts=2.5), dict(restarts=0)],
    ids=["shots_float", "shots_bool", "shots_negative", "restarts_bool", "restarts_float", "restarts_zero"],
)
def test_runs_reject_non_integer_shots_and_restarts(kwargs):
    # Unchecked, shots=2.5 draws 2 shots, divides by 2.5 and records "shots": 2.
    with pytest.raises(ValueError, match="shots|restarts"):
        run_benchmark(DeviceParams.reference(), **kwargs)
    with pytest.raises(ValueError, match="shots|restarts"):
        run_state(DeviceParams.reference(), "0", **kwargs)


def test_runs_reject_restarts_above_the_bound_before_any_work(monkeypatch):
    # run_state("0") never reaches the tangle search, so the run checks the bound itself.
    def refuse(*args, **kwargs):
        raise AssertionError("ran a stage before checking restarts")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(tb, "apply_circuit", refuse)
    too_many = MAX_RESTARTS + 1
    with pytest.raises(ValueError, match=f"restarts must be at most {MAX_RESTARTS}"):
        run_benchmark(DeviceParams.reference(), shots=100, seed=1, noise=True, restarts=too_many)
    with pytest.raises(ValueError, match=f"restarts must be at most {MAX_RESTARTS}"):
        run_state(DeviceParams.reference(), "0", shots=100, seed=1, noise=True, restarts=too_many)


def test_runs_reject_shots_above_the_cap_before_any_work(monkeypatch):
    # The cap is the sampler's, but a run must fail on it before it evolves the inputs.
    def refuse(*args, **kwargs):
        raise AssertionError("ran a stage before checking shots")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(tb, "apply_circuit", refuse)
    with pytest.raises(ValueError, match=f"shots must be at most {MAX_SHOTS}"):
        run_benchmark(DeviceParams.reference(), shots=2**63, seed=1, noise=True, restarts=5)
    with pytest.raises(ValueError, match=f"shots must be at most {MAX_SHOTS}"):
        run_state(DeviceParams.reference(), "0", shots=2**63, seed=1, noise=True, restarts=5)


@pytest.mark.parametrize("noise", ["off", "on", 1, 0, None])
def test_runs_reject_non_bool_noise_before_any_work(noise, monkeypatch):
    # Read for its truth value, noise="off" would run the noisy model and record "noise": true.
    def refuse(*args, **kwargs):
        raise AssertionError("ran a stage before checking noise")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(tb, "apply_circuit", refuse)
    with pytest.raises(ValueError, match=f"noise must be a bool, got {noise!r}"):
        run_benchmark(DeviceParams.reference(), noise=noise)
    with pytest.raises(ValueError, match=f"noise must be a bool, got {noise!r}"):
        run_state(DeviceParams.reference(), "plus", noise=noise)


@pytest.mark.parametrize("noise", [False, True], ids=["noise_off", "noise_on"])
@pytest.mark.parametrize(
    "device", [None, DeviceParams.reference().to_dict(), "paper_device"], ids=["none", "dict", "string"]
)
def test_runs_reject_a_device_that_is_not_device_params_before_any_work(device, noise, monkeypatch):
    # Unchecked, a run evolved, read out and searched the tangle before its
    # metadata failed on device.to_dict(); with noise on, a dict failed in S's
    # cache as unhashable and a string once apply_circuit read its gate time.
    calls = []
    evolve = tb.apply_circuit
    monkeypatch.setattr(tb, "apply_circuit", lambda *a, **k: calls.append(a) or evolve(*a, **k))
    message = re.escape(f"device must be a DeviceParams, got {type(device).__name__}")
    with pytest.raises(TypeError, match=message):
        run_benchmark(device, noise=noise, restarts=5)
    with pytest.raises(TypeError, match=message):
        run_state(device, "plus", noise=noise, restarts=5)
    assert calls == []


def test_runs_accept_numpy_bool_noise():
    kwargs = dict(shots=100, seed=3, restarts=5)
    for noise in (np.True_, np.False_):
        state = run_state(DeviceParams.reference(), "plus", noise=noise, **kwargs)
        assert state == run_state(DeviceParams.reference(), "plus", noise=bool(noise), **kwargs)
        assert type(state["metadata"]["noise"]) is bool


@pytest.mark.parametrize(
    "seed", [2.7, 2.0, True, False, "3", None], ids=["float", "integral_float", "true", "false", "str", "none"]
)
def test_runs_reject_non_integer_seed(seed):
    # Unchecked, seed=2.7 ran with seed 2 and seed=True with seed 1, and the report recorded them.
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_benchmark(DeviceParams.reference(), shots=100, seed=seed, noise=True, restarts=5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_state(DeviceParams.reference(), "0", shots=100, seed=seed, noise=True, restarts=5)


@pytest.mark.parametrize("seed", [np.int64(-3), np.uint32(7), -3], ids=["numpy_negative", "numpy_unsigned", "negative"])
def test_runs_accept_numpy_and_negative_integer_seeds(seed):
    kwargs = dict(shots=100, noise=True, restarts=5)
    state = run_state(DeviceParams.reference(), "plus", seed=seed, **kwargs)
    assert state == run_state(DeviceParams.reference(), "plus", seed=int(seed), **kwargs)
    assert state["metadata"]["seed"] == int(seed) and type(state["metadata"]["seed"]) is int
    bench = run_benchmark(DeviceParams.reference(), seed=seed, **kwargs)
    assert bench == run_benchmark(DeviceParams.reference(), seed=int(seed), **kwargs)


def test_run_benchmark_evolves_the_four_inputs_in_one_call(monkeypatch):
    import telebench.teleport_bench as tb

    calls = []
    evolve = tb.apply_circuit
    monkeypatch.setattr(tb, "apply_circuit", lambda *a, **k: calls.append(a[1]) or evolve(*a, **k))
    run_benchmark(DeviceParams.reference(), noise=True, restarts=5)
    assert len(calls) == 1 and len(calls[0]) == len(INPUT_LABELS)
    run_state(DeviceParams.reference(), "minus", noise=True, restarts=5)
    assert len(calls) == 2 and len(calls[1]) == 1


def test_run_makes_one_call_per_stage_on_the_whole_stack(monkeypatch):
    import telebench.teleport_bench as tb

    calls = []

    def spy(name):
        original = getattr(tb, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(tb, name, wrapper)

    for name in ("simulate_readout", "mle_reconstruct", "pauli_set", "conditional_output_state"):
        spy(name)
    run_benchmark(DeviceParams.reference(), shots=1000, seed=1, noise=True, restarts=5)
    names = [name for name, _ in calls]
    assert names.count("simulate_readout") == 1
    assert names.count("mle_reconstruct") == 1
    assert names.count("pauli_set") == 1
    assert names.count("conditional_output_state") == len(OUTCOMES)
    for name, stack in calls:
        assert len(stack) == len(INPUT_LABELS), name
    assert [a for name, a in calls if name == "mle_reconstruct"][0].shape == (len(INPUT_LABELS), 63)

    calls.clear()
    run_state(DeviceParams.reference(), "plus", shots=1000, seed=1, noise=True, restarts=5)
    assert sorted(name for name, _ in calls) == ["mle_reconstruct", "pauli_set", "simulate_readout"]
    assert all(len(stack) == 1 for _, stack in calls)


def test_run_makes_no_least_squares_solve_or_rank_check(monkeypatch):
    calls = []
    for name in ("lstsq", "matrix_rank"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    for noise in (False, True):
        report = run_benchmark(DeviceParams.reference(), noise=noise, restarts=5)
        assert not any(report["processes"][o]["skipped"] for o in OUTCOMES)
    assert calls == []


def test_reports_do_not_share_the_run_constants():
    device = DeviceParams.reference()
    bench_text = json.dumps(run_benchmark(device, restarts=5))
    state_text = json.dumps(run_state(device, "plus", restarts=5))
    for report in (run_benchmark(device, restarts=5), run_state(device, "plus", restarts=5)):
        entries = report["states"].values() if "states" in report else [report]
        for entry in entries:
            ideal = entry["pauli_set_ideal"]
            ideal["values"][:] = [9.0] * len(ideal["values"])
            ideal["labels"].clear()
    assert json.dumps(run_benchmark(device, restarts=5)) == bench_text
    assert json.dumps(run_state(device, "plus", restarts=5)) == state_text


def test_runs_accept_numpy_integer_shots_and_restarts():
    kwargs = dict(seed=21, noise=True)
    numpy_counts = run_state(DeviceParams.reference(), "minus", shots=np.int64(300), restarts=np.int32(5), **kwargs)
    assert numpy_counts == run_state(DeviceParams.reference(), "minus", shots=300, restarts=5, **kwargs)
    assert numpy_counts["metadata"]["shots"] == 300


def test_device_params_store_numpy_scalars_as_floats():
    # An np.int64 coupling or an np.float32 gate time used to pass validation, run the
    # whole pipeline and then fail to serialize in the report's metadata.
    numpy_fields = {
        "j_ab": np.int64(36_000_000),
        "j_bc": np.float32(23e6),
        "single_qubit_gate_time": np.float32(12e-9),
    }
    reference = DeviceParams.reference().to_dict()
    device = DeviceParams(**{**reference, **numpy_fields})
    floats = DeviceParams(**{**reference, **{name: float(v) for name, v in numpy_fields.items()}})
    for value in vars(device).values():
        assert all(type(v) is float for v in value) if isinstance(value, tuple) else type(value) is float
    assert device == floats
    texts = [report_json_text(run_benchmark(d, noise=True, restarts=3)) for d in (device, floats)]
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["metadata"]["device"]["j_ab"] == 36e6


@pytest.mark.parametrize("label", INPUT_LABELS)
def test_run_state_equals_benchmark_entry(label, sampled_noisy_report):
    state = run_state(DeviceParams.reference(), label, shots=300, seed=21, noise=True, restarts=5)
    entry = {k: v for k, v in sampled_noisy_report["states"][label].items() if k != "outcomes"}
    assert {k: v for k, v in state.items() if k not in ("schema", "input", "rho", "metadata")} == entry
    assert state["metadata"] == sampled_noisy_report["metadata"]


def test_noiseless_benchmark_is_ideal(noiseless_report):
    rep = noiseless_report
    for label in INPUT_LABELS:
        assert rep["states"][label]["state_fidelity"] == pytest.approx(1.0, abs=1e-9)
    for outcome in OUTCOMES:
        proc = rep["processes"][outcome]
        assert not proc["skipped"]
        assert proc["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert proc["average_output_fidelity"] == pytest.approx(1.0, abs=1e-9)
    for label in ("minus", "plus"):
        assert rep["states"][label]["witness"]["expectation"] == pytest.approx(-0.5, abs=1e-9)


def test_noiseless_benchmark_chi_matches_wireframes(noiseless_report):
    for outcome in OUTCOMES:
        chi_block = noiseless_report["processes"][outcome]["chi"]
        chi = np.array(chi_block["real"]) + 1j * np.array(chi_block["imag"])
        assert np.max(np.abs(chi - ideal_chi(outcome))) < 1e-9


def test_sampled_noiseless_benchmark_high_fidelity():
    rep = run_benchmark(DeviceParams.reference(), shots=10_000, seed=7, noise=False, restarts=10)
    for outcome in OUTCOMES:
        assert rep["processes"][outcome]["process_fidelity"] > 0.97


def test_noisy_benchmark_fidelity_ranges(noisy_report):
    rep = noisy_report
    for label in INPUT_LABELS:
        assert 0.5 < rep["states"][label]["state_fidelity"] < 1.0
    for outcome in OUTCOMES:
        assert 0.5 < rep["processes"][outcome]["process_fidelity"] < 1.0
    assert rep["averages"]["mean_average_output_fidelity"] > 2.0 / 3.0
    for label in ("minus", "plus"):
        assert rep["states"][label]["witness"]["expectation"] < 0.0
        assert rep["states"][label]["three_tangle_upper"] > 0.0


def test_benchmark_probabilities_sum_to_one(noisy_report):
    for label in INPUT_LABELS:
        total = sum(noisy_report["states"][label]["outcomes"][o]["probability"] for o in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_benchmark_fbar_recomputes_from_fp(noisy_report):
    for outcome in OUTCOMES:
        proc = noisy_report["processes"][outcome]
        assert proc["average_output_fidelity"] == pytest.approx(
            (2.0 * proc["process_fidelity"] + 1.0) / 3.0, abs=1e-15
        )


def test_benchmark_chi_physicality(noisy_report):
    for outcome in OUTCOMES:
        chi_block = noisy_report["processes"][outcome]["chi"]
        chi = np.array(chi_block["real"]) + 1j * np.array(chi_block["imag"])
        assert np.max(np.abs(chi - chi.conj().T)) < 1e-9
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(chi)[0] > -1e-9


def test_benchmark_conditional_fidelities_noiseless(noiseless_report):
    for label in INPUT_LABELS:
        for outcome in OUTCOMES:
            block = noiseless_report["states"][label]["outcomes"][outcome]
            assert block["conditional_fidelity"] == pytest.approx(1.0, abs=1e-9)
            assert block["probability"] == pytest.approx(0.25, abs=1e-9)


def test_benchmark_reference_block_present(noiseless_report):
    ref = noiseless_report["paper_reference"]
    assert ref == PAPER_REFERENCE
    assert ref["state_fidelity"]["minus"] == 0.78
    assert ref["process_fidelity"] == {"00": 0.82, "01": 0.78, "10": 0.84, "11": 0.87}
    assert ref["mean_average_output_fidelity"] == 0.88
    assert ref["witness_expectation"] == -0.28
    assert ref["robustness_lower_bound"] == 0.56
    assert ref["three_tangle"] == {"minus": 0.49, "plus": 0.52}


def test_benchmark_deterministic_given_seed():
    kwargs = dict(device=DeviceParams.reference(), shots=300, seed=21, noise=True, restarts=5)
    a = report_json_text(run_benchmark(**kwargs))
    b = report_json_text(run_benchmark(**kwargs))
    assert a == b


def test_benchmark_skips_outcomes_below_count_floor():
    # At 20 shots per setting, every outcome has well under 10 effective
    # counts, so conditional tomography is skipped and flagged.
    rep = run_benchmark(DeviceParams.reference(), shots=20, seed=3, noise=False, restarts=5)
    assert all(rep["processes"][o]["skipped"] for o in OUTCOMES)
    assert rep["averages"]["mean_process_fidelity"] is None
    rows = report_csv_rows(rep)
    assert rows and all(r[2] != "process_fidelity" for r in rows)
    assert '"skipped": true' in report_json_text(rep)


def test_benchmark_skips_outcomes_that_vanish_for_some_input():
    # With coherence scaled by 1e-3 the output is near |000>: outcomes 01 and
    # 11 have probabilities of 5.6e-16 and 8e-40 for some input, too small to
    # renormalize a conditional state. The run used to raise "outcome has
    # vanishing probability"; those outcomes are now skipped with no
    # conditional fidelity, and 10 (1.7e-10) is skipped by the floor alone.
    rep = run_benchmark(DeviceParams.reference().scaled_coherence(1e-3), noise=True, restarts=5)
    assert [rep["processes"][o]["skipped"] for o in OUTCOMES] == [False, True, True, True]
    assert rep["processes"]["00"]["process_fidelity"] == pytest.approx(0.25, abs=1e-12)
    for label in INPUT_LABELS:
        outcomes = rep["states"][label]["outcomes"]
        assert outcomes["01"]["conditional_fidelity"] is None and outcomes["11"]["conditional_fidelity"] is None
        assert isinstance(outcomes["00"]["conditional_fidelity"], float)
        assert isinstance(outcomes["10"]["conditional_fidelity"], float)
        assert sum(outcomes[o]["probability"] for o in OUTCOMES) == pytest.approx(1.0, abs=1e-9)
    assert min(rep["states"][label]["outcomes"]["01"]["probability"] for label in INPUT_LABELS) < 1e-12
    assert all(r[2] != "conditional_fidelity" for r in report_csv_rows(rep) if r[1] in ("01", "11"))
    assert '"conditional_fidelity": null' in report_json_text(rep)


def test_benchmark_seed_changes_sampled_results():
    device = DeviceParams.reference()
    a = run_benchmark(device, shots=300, seed=1, noise=False, restarts=5)
    b = run_benchmark(device, shots=300, seed=2, noise=False, restarts=5)
    assert a["states"]["0"]["state_fidelity"] != b["states"]["0"]["state_fidelity"]


def test_report_serialization_round_trip(noisy_report):
    text = report_json_text(noisy_report)
    parsed = json.loads(text)
    assert parsed["schema"] == 1
    assert parsed["metadata"]["noise"] is True
    rows = report_csv_rows(noisy_report)
    metrics = {(r[0], r[1], r[2]) for r in rows}
    assert ("minus", "", "state_fidelity") in metrics
    assert ("", "00", "process_fidelity") in metrics
    csv_text = report_csv_text(noisy_report)
    assert csv_text.splitlines()[0] == "input,outcome,metric,value"
    # CSV and JSON carry identical (rounded) values
    for label, outcome, metric, value in rows:
        line_value = None
        for line in csv_text.splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == label and cells[1] == outcome and cells[2] == metric:
                line_value = float(cells[3])
        assert line_value == float(f"{value:.12g}")
