import json

import numpy as np
import pytest

from oracles import chi_from_kraus, dense_conditional_state, random_density
from telebench.circuit import DeviceParams, TELEPORT_BRANCH_OPS, ideal_phi
from telebench.qops import DensityMatrix, computational_ket
from telebench.teleport_bench import (
    CHI_BASIS,
    INPUT_KETS,
    INPUT_LABELS,
    OUTCOMES,
    PAPER_REFERENCE,
    average_output_fidelity,
    conditional_output_state,
    ideal_chi,
    process_fidelity,
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
    chi = process_tomography(canonical_inputs(), outputs)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(chi - expected)) < 1e-9


def test_process_tomography_pauli_conjugations():
    x = np.array(CHI_BASIS[1])
    outputs = [DensityMatrix.from_ket(x @ k) for k in canonical_inputs()]
    chi = process_tomography(canonical_inputs(), outputs)
    assert chi[1, 1] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(chi - ideal_chi("01"))) < 1e-9

    y_tilde = np.array(CHI_BASIS[2])
    outputs = [DensityMatrix.from_ket(y_tilde @ k) for k in canonical_inputs()]
    chi = process_tomography(canonical_inputs(), outputs)
    assert np.max(np.abs(chi - ideal_chi("11"))) < 1e-9


def test_process_tomography_round_trip_against_kraus_expansion():
    # Amplitude damping composed with a rotation has a dense chi: recover it
    # from the four canonical in/out pairs and compare with the direct
    # basis expansion of the Kraus operators.
    from telebench.circuit import rotation_unitary

    gamma = 0.3
    kraus = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    u = rotation_unitary((0.0, 1.0, 0.0), 0.7)
    kraus = [u @ k for k in kraus]
    outputs = []
    for ket in canonical_inputs():
        rho_out = apply_channel(kraus, np.outer(ket, ket.conj()))
        outputs.append(DensityMatrix(rho_out))
    chi = process_tomography(canonical_inputs(), outputs)
    oracle = chi_from_kraus(kraus)
    assert np.max(np.abs(chi - oracle)) < 1e-9


def test_process_tomography_rejects_degenerate_inputs():
    kets = [INPUT_KETS["0"]] * 4
    outputs = [DensityMatrix.from_ket(INPUT_KETS["0"])] * 4
    with pytest.raises(ValueError, match="singular design matrix"):
        process_tomography(kets, outputs)


def test_ideal_chi_entries():
    assert ideal_chi("00")[0, 0] == 1.0
    assert ideal_chi("01")[1, 1] == 1.0
    assert ideal_chi("10")[3, 3] == 1.0
    assert ideal_chi("11")[2, 2] == 1.0
    for outcome in OUTCOMES:
        chi = ideal_chi(outcome)
        assert np.trace(chi) == pytest.approx(1.0)
        assert np.max(np.abs(chi @ chi - chi)) < 1e-12  # rank-1 projector


def test_process_fidelity_examples():
    for outcome in OUTCOMES:
        chi = ideal_chi(outcome)
        assert process_fidelity(chi, chi) == pytest.approx(1.0)
    depolarizing = np.eye(4, dtype=complex) / 4.0
    assert process_fidelity(depolarizing, ideal_chi("00")) == pytest.approx(0.25)


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
