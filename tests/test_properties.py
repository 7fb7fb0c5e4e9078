"""Hypothesis property tests over random valid devices and random states."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import kraus_apply_circuit, random_density, random_ket, random_unitary
from telebench.circuit import DeviceParams, apply_circuit, build_teleport_circuit
from telebench.entanglement import three_tangle_pure
from telebench.qops import DensityMatrix, computational_ket, nearest_physical
from telebench.teleport_bench import INPUT_KETS, INPUT_LABELS, OUTCOMES, conditional_output_state

seeds = st.integers(0, 2**32 - 1)


@st.composite
def devices(draw):
    """Valid devices: T2* <= 2*T1 per qubit, couplings and gate times in a
    physically plausible range, optional single-qubit depolarizing error."""
    t1 = tuple(draw(st.floats(0.2e-6, 5e-6)) for _ in range(3))
    t2_star = tuple(draw(st.floats(0.05, 2.0)) * t for t in t1)
    return DeviceParams(
        t1=t1,
        t2_star=t2_star,
        j_ab=draw(st.floats(5e6, 100e6)),
        j_bc=draw(st.floats(5e6, 100e6)),
        single_qubit_gate_time=draw(st.floats(1e-9, 50e-9)),
        single_qubit_error=draw(st.sampled_from([0.0, 0.01, 0.2])),
    )


@settings(max_examples=10, deadline=None)
@given(device=devices())
def test_noisy_outputs_are_states_with_outcome_probabilities_summing_to_one(device):
    circuit = build_teleport_circuit("compiled_fig1b")
    ket00 = np.kron(computational_ket(0, 2), computational_ket(0, 2))
    for label in INPUT_LABELS:
        out = apply_circuit(circuit, DensityMatrix.from_ket(np.kron(INPUT_KETS[label], ket00)), device)
        assert isinstance(out, DensityMatrix)
        total = sum(conditional_output_state(out, outcome)[1] for outcome in OUTCOMES)
        assert abs(total - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    device=devices(),
    seed=seeds,
    rank=st.sampled_from([1, 3, 8]),
    variant=st.sampled_from(["compiled_fig1b", "standard_fig1a"]),
)
def test_noisy_evolution_matches_per_gate_kraus_oracle(device, seed, rank, variant):
    circuit = build_teleport_circuit(variant)
    rho = random_density(np.random.default_rng(seed), 8, rank)
    out = apply_circuit(circuit, DensityMatrix(rho), device)
    assert np.max(np.abs(out.matrix - kraus_apply_circuit(circuit, rho, device))) < 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_nearest_physical_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (g + g.conj().T) / 2.0
    h += (1.0 - np.trace(h).real) / 8.0 * np.eye(8)  # unit trace, generally indefinite
    once = nearest_physical(h)
    twice = nearest_physical(once)
    assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_three_tangle_pure_is_local_unitary_invariant(seed):
    rng = np.random.default_rng(seed)
    psi = random_ket(rng, 8)
    local = np.kron(random_unitary(rng, 2), np.kron(random_unitary(rng, 2), random_unitary(rng, 2)))
    assert abs(three_tangle_pure(local @ psi) - three_tangle_pure(psi)) < 1e-9


FALSIFIABLE_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsifiable_property(n):
    assert n < 10


def test_plain_failure():
    assert False
"""


def test_falsified_property_does_not_end_the_session(tmp_path):
    # Under the repository's warning filters, a falsified property must be
    # reported as one failure, and the tests after it must still run.
    (tmp_path / "test_two_failures.py").write_text(FALSIFIABLE_TESTS)
    ini = Path(__file__).parents[1] / "pyproject.toml"
    args = ["-q", "-p", "no:cacheprovider", "-c", str(ini), "--rootdir", str(tmp_path), str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout, proc.stdout
