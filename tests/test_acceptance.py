"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single `ACCEPTANCE <n> PASS` line on success (visible
with ``pytest -s``); a failed criterion simply fails its test.
"""

import json
import re
import time

import numpy as np
import pytest

from oracles import hyperdet_tangle, qutrit_pair_leakage, random_density, random_ket, simplex_projection_psd
from telebench.circuit import (
    DeviceParams,
    TELEPORT_BRANCH_OPS,
    apply_circuit,
    build_teleport_circuit,
    cphase_avoided_crossing,
    ideal_phi,
)
from telebench.cli import main as cli_main
from telebench.entanglement import three_tangle_mixed_upper, three_tangle_pure, witness_evaluate
from telebench.qops import DensityMatrix, computational_ket, nearest_physical, state_fidelity_pure
from telebench.teleport_bench import (
    INPUT_KETS,
    INPUT_LABELS,
    OUTCOMES,
    conditional_output_state,
    ideal_chi,
    run_benchmark,
)
from telebench.tomography import mle_reconstruct, simulate_readout


# The one report line allowed to differ between identical runs. Criterion 9
# and the golden-report test both strip it with this pattern and nothing else.
TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": "[^"]*",?\n', flags=re.MULTILINE)


def embed_input(psi):
    zero = computational_ket(0, 2)
    return np.kron(psi, np.kron(zero, zero))


def test_criterion_1_ideal_state_exactness():
    start = time.perf_counter()
    circuit = build_teleport_circuit("compiled_fig1b")
    for label in INPUT_LABELS:
        psi = INPUT_KETS[label]
        rho = apply_circuit(circuit, DensityMatrix.from_ket(embed_input(psi)))
        assert state_fidelity_pure(rho, ideal_phi(psi)) > 1.0 - 1e-9
        for outcome in OUTCOMES:
            rho_c, prob = conditional_output_state(rho, outcome)
            branch = TELEPORT_BRANCH_OPS[outcome] @ psi
            assert abs(prob - 0.25) < 1e-9
            assert state_fidelity_pure(rho_c, branch) > 1.0 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: compiled circuit reproduces the ideal state and all "
          f"16 conditional branches within 1e-9 ({elapsed:.3f} s)")


def test_criterion_2_ideal_process_wireframes():
    report = run_benchmark(DeviceParams.reference(), shots=0, seed=0, noise=False, restarts=10)
    for outcome in OUTCOMES:
        proc = report["processes"][outcome]
        chi = np.array(proc["chi"]["real"]) + 1j * np.array(proc["chi"]["imag"])
        assert np.max(np.abs(chi - ideal_chi(outcome))) < 1e-9
        assert abs(proc["process_fidelity"] - 1.0) < 1e-9
        assert abs(proc["average_output_fidelity"] - 1.0) < 1e-9
    print("\nACCEPTANCE 2 PASS: noiseless pipeline yields the four ideal process "
          "matrices (II, XX, ZZ, Y~Y~) entrywise within 1e-9 with Fp = Fbar = 1")


def test_criterion_3_gate_time_consistency():
    for j in (36e6, 23e6):
        t_gate = 1.0 / (2.0 * j)
        op, leakage = cphase_avoided_crossing(j, t_gate)
        assert abs(np.angle(op[3, 3]) - np.pi) < 1e-6
        assert leakage < 1e-9
        for t in np.linspace(0.0, 2.0 / j, 50):
            _, leak = cphase_avoided_crossing(j, t)
            assert abs(leak - qutrit_pair_leakage(j, t)) < 1e-9
    assert abs(1.0 / (2.0 * 36e6) - 13.89e-9) < 0.005e-9
    assert abs(1.0 / (2.0 * 23e6) - 21.74e-9) < 0.005e-9
    print("\nACCEPTANCE 3 PASS: C-Phase at t = 1/(2J) gives phase pi and leakage < 1e-9 "
          "for both couplings; leakage matches the 9-dim qutrit-pair evolution within 1e-9")


def test_criterion_4_witness_closed_form():
    # Dyadic-exact instance: ideal_phi(|0>) has amplitudes +-1/2, so every
    # float operation is exact and the closed form alpha - 1 is reproduced
    # bit for bit.
    phi_exact = ideal_phi(INPUT_KETS["0"])
    result = witness_evaluate(DensityMatrix.from_ket(phi_exact), phi_exact, alpha=0.5)
    assert result.expectation == -0.5
    for label in ("minus", "plus"):
        phi = ideal_phi(INPUT_KETS[label])
        res = witness_evaluate(DensityMatrix.from_ket(phi), phi, alpha=0.5)
        assert abs(res.expectation - (-0.5)) < 1e-12
    assert abs(max(0.0, -(-0.28) / 0.5) - 0.56) < 1e-12
    print("\nACCEPTANCE 4 PASS: witness closed form alpha - 1 reproduced exactly on the "
          "dyadic instance (and to 1e-12 for |+->); robustness mapping gives 0.56 to 1e-12")


def test_criterion_5_tangle_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        psi = random_ket(rng, 8)
        assert abs(three_tangle_pure(psi) - hyperdet_tangle(psi)) < 1e-8
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    w_state = np.zeros(8, dtype=complex)
    w_state[1] = w_state[2] = w_state[4] = 1.0 / np.sqrt(3.0)
    assert abs(three_tangle_pure(ghz) - 1.0) < 1e-8
    assert three_tangle_pure(w_state) < 1e-8
    for _ in range(10):
        product = np.kron(random_ket(rng, 2), np.kron(random_ket(rng, 2), random_ket(rng, 2)))
        assert three_tangle_pure(product) < 1e-8
    mixed_bound = three_tangle_mixed_upper(DensityMatrix(np.eye(8) / 8.0), restarts=200, seed=0)
    assert mixed_bound <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: tangle agrees with the hyperdeterminant oracle on 100 "
          f"states; GHZ/W/product anchors hold; I/8 bound reached {mixed_bound:.2e} ({elapsed:.2f} s)")


def test_criterion_6_physicality_projection():
    rng = np.random.default_rng(630)
    for dim in (4, 8):
        for _ in range(100):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (g + g.conj().T) / 2.0
            h += np.eye(dim) * (1.0 - np.trace(h).real) / dim  # unit trace, generally not PSD
            ours = nearest_physical(h).matrix
            oracle = simplex_projection_psd(h)
            assert np.max(np.abs(ours - oracle)) < 1e-9
        for _ in range(20):
            rho = random_density(rng, dim)
            assert np.max(np.abs(nearest_physical(rho).matrix - rho)) < 1e-9
    print("\nACCEPTANCE 6 PASS: truncate-and-redistribute projection matches the "
          "brute-force simplex oracle on 100 random 4x4 and 8x8 matrices within 1e-9")


def test_criterion_7_tomography_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(50):
        rho = DensityMatrix(random_density(rng, 8))
        recon = mle_reconstruct(simulate_readout(rho, shots=0, seed=0))
        assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-9
    phi = ideal_phi(INPUT_KETS["minus"])
    target_rho = DensityMatrix.from_ket(phi)
    successes = 0
    for seed in range(100):
        recon = mle_reconstruct(simulate_readout(target_rho, shots=10_000, seed=seed))
        if state_fidelity_pure(recon, phi) > 0.95:
            successes += 1
    assert successes >= 95
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: analytic round trip exact to 1e-9 on 50 states; "
          f"{successes}/100 sampled reconstructions above 0.95 fidelity ({elapsed:.2f} s)")


def test_criterion_8_noisy_benchmark_properties(capsys):
    device = DeviceParams.reference()
    report = run_benchmark(device, shots=0, seed=0, noise=True, restarts=30)
    for outcome in OUTCOMES:
        fp = report["processes"][outcome]["process_fidelity"]
        assert 0.5 < fp < 1.0
    assert report["averages"]["mean_average_output_fidelity"] > 2.0 / 3.0
    for label in ("minus", "plus"):
        assert report["states"][label]["witness"]["expectation"] < 0.0
    fidelity_by_scale = {}
    for scale in (1.0, 0.5, 0.25):
        scaled_report = report if scale == 1.0 else run_benchmark(
            device.scaled_coherence(scale), shots=0, seed=0, noise=True, restarts=30
        )
        fidelity_by_scale[scale] = float(
            np.mean([scaled_report["states"][l]["state_fidelity"] for l in INPUT_LABELS])
        )
    assert fidelity_by_scale[0.25] <= fidelity_by_scale[0.5] <= fidelity_by_scale[1.0]
    # reference column printed beside simulated values
    assert cli_main(["bench", "--noise=on", "--shots=0", "--restarts", "5", "--out", "/tmp/acceptance8"]) == 0
    out = capsys.readouterr().out
    assert "reference" in out and "0.88" in out
    print(f"\nACCEPTANCE 8 PASS: noisy benchmark has all Fp in (0.5, 1), mean Fbar "
          f"{report['averages']['mean_average_output_fidelity']:.3f} > 2/3, negative witnesses, "
          f"monotone degradation {fidelity_by_scale[0.25]:.3f} <= {fidelity_by_scale[0.5]:.3f} "
          f"<= {fidelity_by_scale[1.0]:.3f}, and prints the reference column")


def test_criterion_9_byte_identical_reports(tmp_path):
    args = ["bench", "--noise=on", "--shots=200", "--seed", "5", "--restarts", "5"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    text_a = (tmp_path / "a" / "report.json").read_text()
    text_b = (tmp_path / "b" / "report.json").read_text()
    assert TIMESTAMP_LINE.sub("", text_a) == TIMESTAMP_LINE.sub("", text_b)
    parsed = json.loads(text_a)
    assert parsed["schema"] == 1
    print("\nACCEPTANCE 9 PASS: identical config and seed produce byte-identical JSON "
          "reports (timestamp metadata field excluded)")
