"""Density-matrix simulator and benchmarking toolkit for a three-qubit
superconducting teleportation circuit: the compiled circuit and its noisy
evolution, state and process tomography, three-tangle and witness bounds,
and machine-readable benchmark reports."""

from .qops import DensityMatrix, nearest_physical
from .circuit import (
    CPhase,
    Circuit,
    DeviceParams,
    Gate,
    Rotation,
    apply_circuit,
    build_teleport_circuit,
    ideal_phi,
)
from .tomography import mle_reconstruct, pauli_set, simulate_readout
from .entanglement import (
    WitnessResult,
    three_tangle_mixed_upper,
    three_tangle_pure,
    witness_evaluate,
)
from .teleport_bench import run_benchmark, run_state

__version__ = "0.1.0"

__all__ = [
    "CPhase",
    "Circuit",
    "DensityMatrix",
    "DeviceParams",
    "Gate",
    "Rotation",
    "WitnessResult",
    "apply_circuit",
    "build_teleport_circuit",
    "ideal_phi",
    "mle_reconstruct",
    "nearest_physical",
    "pauli_set",
    "run_benchmark",
    "run_state",
    "simulate_readout",
    "three_tangle_mixed_upper",
    "three_tangle_pure",
    "witness_evaluate",
]
