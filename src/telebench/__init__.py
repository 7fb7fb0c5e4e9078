"""Density-matrix simulator and benchmarking toolkit for a three-qubit
superconducting teleportation circuit: circuit synthesis, noisy evolution,
state and process tomography, entanglement quantification, and
machine-readable benchmark reports."""

from .qops import DensityMatrix, nearest_physical
from .circuit import (
    Circuit,
    DeviceParams,
    Gate,
    apply_circuit,
    build_teleport_circuit,
    ideal_phi,
)
from .tomography import TomographyRecord, mle_reconstruct, pauli_set, simulate_readout
from .entanglement import (
    WitnessResult,
    biseparable_alpha,
    concurrence,
    three_tangle_mixed_upper,
    three_tangle_pure,
    witness_evaluate,
)
from .teleport_bench import run_benchmark, run_state

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DensityMatrix",
    "DeviceParams",
    "Gate",
    "TomographyRecord",
    "WitnessResult",
    "apply_circuit",
    "biseparable_alpha",
    "build_teleport_circuit",
    "concurrence",
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
