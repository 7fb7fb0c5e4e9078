"""Gate model, teleportation-circuit construction, and noisy evolution.

The three-qubit register is ordered A, B, C with qubit A most significant.
Two-qubit C-Phase gates exist only between the adjacent pairs AB and BC,
matching the modeled device. Noise is applied as post-gate Kraus channels
(amplitude damping plus pure dephasing) on every qubit for each gate's
duration; gate unitaries themselves are ideal.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from importlib import resources

import numpy as np

from .qops import (
    DensityMatrix,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    STRUCTURAL_TOL,
    require_normalized,
)

CPHASE_PAIRS = {"AB": (0, 1), "BC": (1, 2)}

# Correction operators attached to the four two-qubit measurement outcomes:
# the branch of the ideal output state labeled by outcome ij carries this
# operator applied to the input ket (including its sign convention).
TELEPORT_BRANCH_OPS = {
    "00": ID2,
    "01": -PAULI_X,
    "10": -PAULI_Z,
    "11": -1j * PAULI_Y,
}


@dataclass(frozen=True)
class Gate:
    """One gate application.

    ``duration`` of ``None`` means "resolve from DeviceParams when applied"
    (single-qubit gate time for rotations and Hadamards, the pair's C-Phase
    time for two-qubit gates). A duration of 0.0 marks a virtual gate that
    adds no decoherence.
    """

    kind: str
    qubits: tuple[int, ...]
    axis: tuple[float, float, float] | None = None
    angle: float | None = None
    pair: str | None = None
    duration: float | None = None

    @classmethod
    def rotation(cls, axis, angle: float, qubit: int, duration: float | None = None) -> "Gate":
        ax = tuple(float(a) for a in axis)
        if len(ax) != 3 or abs(math.sqrt(sum(a * a for a in ax)) - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"rotation axis must be a unit 3-vector, got {axis}")
        return cls(kind="rotation", qubits=(int(qubit),), axis=ax, angle=float(angle), duration=duration)

    @classmethod
    def cphase(cls, pair: str, duration: float | None = None) -> "Gate":
        if pair not in CPHASE_PAIRS:
            raise ValueError(f"C-Phase pair must be one of {sorted(CPHASE_PAIRS)}, got {pair!r}")
        return cls(kind="cphase", qubits=CPHASE_PAIRS[pair], pair=pair, duration=duration)

    @classmethod
    def hadamard(cls, qubit: int, duration: float | None = None) -> "Gate":
        return cls(kind="hadamard", qubits=(int(qubit),), duration=duration)

    @classmethod
    def cnot(cls, control: int, target: int, duration: float | None = None) -> "Gate":
        if control == target:
            raise ValueError("CNOT control and target must differ")
        return cls(kind="cnot", qubits=(int(control), int(target)), duration=duration)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed register size."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g.kind} touches qubit outside register of {self.num_qubits}")


@dataclass(frozen=True)
class DeviceParams:
    """Device timing and coherence parameters, normally read from config.

    Times are in seconds, couplings in Hz (coupling strength divided by
    2*pi). C-Phase durations default to the full avoided-crossing period
    1/(2*J) of their pair.
    """

    t1: tuple[float, float, float]
    t2_star: tuple[float, float, float]
    j_ab: float
    j_bc: float
    single_qubit_gate_time: float = 12e-9
    cphase_time_ab: float | None = None
    cphase_time_bc: float | None = None
    single_qubit_error: float = 0.0

    def __post_init__(self):
        if len(self.t1) != 3 or len(self.t2_star) != 3:
            raise ValueError("t1 and t2_star must list exactly three qubits (A, B, C)")
        # Times and couplings must be finite positive reals: a NaN or infinite
        # one makes a gate duration NaN or 0, which silently skips that gate's
        # decoherence. bool is an int subclass, so it is rejected by name.
        checked = [(f"{name}[{q}]", v) for name in ("t1", "t2_star") for q, v in enumerate(getattr(self, name))]
        checked += [(name, getattr(self, name)) for name in ("j_ab", "j_bc", "single_qubit_gate_time")]
        checked += [
            (name, v) for name in ("cphase_time_ab", "cphase_time_bc") if (v := getattr(self, name)) is not None
        ]
        for name, v in checked:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        t1 = tuple(float(x) for x in self.t1)
        t2 = tuple(float(x) for x in self.t2_star)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2_star", t2)
        for q in range(3):
            if t2[q] > 2.0 * t1[q] * (1.0 + 1e-12):
                raise ValueError(f"unphysical dephasing: T2*={t2[q]} exceeds 2*T1={2 * t1[q]} on qubit {q}")
        if isinstance(self.single_qubit_error, bool) or not 0.0 <= self.single_qubit_error < 1.0:
            raise ValueError("single_qubit_error must lie in [0, 1)")

    def cphase_time(self, pair: str) -> float:
        if pair == "AB":
            return self.cphase_time_ab if self.cphase_time_ab is not None else 1.0 / (2.0 * self.j_ab)
        if pair == "BC":
            return self.cphase_time_bc if self.cphase_time_bc is not None else 1.0 / (2.0 * self.j_bc)
        raise ValueError(f"unknown C-Phase pair {pair!r}")

    def scaled_coherence(self, factor: float) -> "DeviceParams":
        """Copy with all T1 and T2* multiplied by ``factor``."""
        return replace(
            self, t1=tuple(t * factor for t in self.t1), t2_star=tuple(t * factor for t in self.t2_star)
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "t1": list(self.t1), "t2_star": list(self.t2_star)}

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceParams":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown device field(s): {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ValueError(f"device config is missing required field(s): {sorted(missing)}")
        return cls(**d)

    @classmethod
    def reference(cls) -> "DeviceParams":
        """The bundled reference device (paper_device.json)."""
        text = resources.files("telebench").joinpath("data/paper_device.json").read_text()
        return cls.from_dict(json.loads(text)["device"])


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """2x2 rotation exp(-i * angle/2 * axis.sigma) about a unit axis."""
    ax = np.asarray(axis, dtype=float).reshape(-1)
    if ax.shape[0] != 3 or abs(float(np.linalg.norm(ax)) - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"rotation axis must be a unit 3-vector, got {axis}")
    generator = ax[0] * PAULI_X + ax[1] * PAULI_Y + ax[2] * PAULI_Z
    half = 0.5 * float(angle)
    return math.cos(half) * ID2 - 1j * math.sin(half) * generator


def cphase_ideal() -> np.ndarray:
    """Ideal two-qubit C-Phase gate diag(1, 1, 1, -1)."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def cphase_avoided_crossing(j_over_2pi: float, t: float) -> tuple[np.ndarray, float]:
    """C-Phase physics: resonant |11>-|20> oscillation at coupling J.

    The isolated two-level subspace {|11>, |20>} evolves under a transverse
    coupling of strength ``j_over_2pi`` (Hz), so starting from |11> the
    population oscillates into |20> as sin^2(2*pi*J*t) and returns with
    amplitude cos(2*pi*J*t). A full period t = 1/(2*J) leaves the
    computational subspace intact with a conditional phase of pi on |11>.

    Returns
    -------
    (numpy.ndarray, float)
        The effective operator on the computational subspace,
        diag(1, 1, 1, cos(2*pi*J*t)) (not unitary away from full periods),
        and the leakage probability sin^2(2*pi*J*t).
    """
    if j_over_2pi <= 0:
        raise ValueError("coupling strength must be positive")
    if t < 0:
        raise ValueError("interaction time must be non-negative")
    phase = 2.0 * math.pi * j_over_2pi * t
    amp11 = math.cos(phase)
    leakage = math.sin(phase) ** 2
    effective = np.diag([1.0, 1.0, 1.0, amp11]).astype(complex)
    return effective, leakage


def damping_channels(duration: float, device: DeviceParams, qubit: int) -> list[np.ndarray]:
    """Kraus set for amplitude damping plus pure dephasing of one device qubit.

    Amplitude damping uses gamma = 1 - exp(-duration/T1); the dephasing
    probability follows from the pure-dephasing rate
    1/Tphi = 1/T2* - 1/(2*T1), which ``DeviceParams`` keeps non-negative.
    The returned operators satisfy sum(K^dag K) = I to better than 1e-12.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    t1, t2_star = device.t1[qubit], device.t2_star[qubit]
    phi_rate = max(1.0 / t2_star - 1.0 / (2.0 * t1), 0.0)
    gamma = 1.0 - math.exp(-duration / t1)
    p = 0.5 * (1.0 - math.exp(-duration * phi_rate))
    amp = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    deph = [math.sqrt(1.0 - p) * ID2, math.sqrt(p) * PAULI_Z]
    return [d @ a for d in deph for a in amp]


def _depolarizing_kraus(p: float) -> list[np.ndarray]:
    return [
        math.sqrt(1.0 - 0.75 * p) * ID2,
        math.sqrt(0.25 * p) * PAULI_X,
        math.sqrt(0.25 * p) * PAULI_Y,
        math.sqrt(0.25 * p) * PAULI_Z,
    ]


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def gate_operator(gate: Gate) -> np.ndarray:
    """The 2x2 or 4x4 operator of a gate on ``gate.qubits``, first listed
    qubit most significant."""
    if gate.kind == "rotation":
        return rotation_unitary(gate.axis, gate.angle)
    if gate.kind == "hadamard":
        return HADAMARD
    if gate.kind == "cphase":
        return cphase_ideal()
    if gate.kind == "cnot":
        return _CNOT
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _on_ket_axes(op: np.ndarray, t: np.ndarray, qubits) -> np.ndarray:
    """Apply ``op`` to the ket axes ``qubits`` of a (2,)*2n tensor."""
    k = len(qubits)
    ket = np.tensordot(op.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(ket, list(range(k)), list(qubits))


def gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full-register unitary for a single gate."""
    d = 2**num_qubits
    eye = np.eye(d, dtype=complex).reshape((2,) * (2 * num_qubits))
    return _on_ket_axes(gate_operator(gate), eye, gate.qubits).reshape(d, d)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of all gate unitaries in time order."""
    u = np.eye(2**circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.num_qubits) @ u
    return u


def build_teleport_circuit(variant: str = "compiled_fig1b") -> Circuit:
    """Construct the teleportation circuit up to the measurement step.

    ``standard_fig1a`` uses the textbook form: Hadamard on B and CNOT B->C
    to share the entangled pair, then CNOT A->B and Hadamard on A for the
    measurement-basis change. Two trailing virtual z rotations (duration 0)
    put the output into the sign frame of the compiled circuit.

    ``compiled_fig1b`` uses only y rotations and the two native C-Phase
    gates; frame phases are absorbed into the rotation axes. Both variants
    produce the same unitary up to global phase, and on |psi>|00> they
    output the four-branch entangled state returned by :func:`ideal_phi`.
    """
    y = (0.0, 1.0, 0.0)
    z = (0.0, 0.0, 1.0)
    half = math.pi / 2.0
    if variant in ("compiled_fig1b", "compiled"):
        gates = (
            Gate.rotation(y, -half, qubit=1),
            Gate.rotation(y, -half, qubit=2),
            Gate.cphase("BC"),
            Gate.rotation(y, half, qubit=2),
            Gate.rotation(y, half, qubit=1),
            Gate.cphase("AB"),
            Gate.rotation(y, -half, qubit=1),
            Gate.rotation(y, -half, qubit=0),
        )
        return Circuit(num_qubits=3, gates=gates)
    if variant in ("standard_fig1a", "standard"):
        gates = (
            Gate.hadamard(1),
            Gate.cnot(1, 2),
            Gate.cnot(0, 1),
            Gate.hadamard(0),
            Gate.rotation(z, math.pi, qubit=0, duration=0.0),
            Gate.rotation(z, math.pi, qubit=1, duration=0.0),
        )
        return Circuit(num_qubits=3, gates=gates)
    raise ValueError(f"unknown circuit variant {variant!r}")


def ideal_phi(psi_a) -> np.ndarray:
    """Ideal three-qubit output for input ket ``psi_a`` on qubit A.

    Returns the equal superposition of the four outcome branches, each the
    branch's correction operator applied to the input:
    (1/2) * sum_ij |ij> (x) branch_op(ij)|psi>.
    """
    psi = require_normalized(psi_a)
    if psi.shape[0] != 2:
        raise ValueError("input must be a single-qubit ket")
    out = np.zeros(8, dtype=complex)
    for outcome, op in TELEPORT_BRANCH_OPS.items():
        ab = int(outcome, 2)
        out[2 * ab : 2 * ab + 2] += 0.5 * (op @ psi)
    return out


def _gate_duration(gate: Gate, device: DeviceParams) -> float:
    if gate.duration is not None:
        return gate.duration
    if gate.kind in ("rotation", "hadamard"):
        return device.single_qubit_gate_time
    if gate.kind == "cphase":
        return device.cphase_time(gate.pair)
    if gate.kind == "cnot":
        pair = {(0, 1): "AB", (1, 0): "AB", (1, 2): "BC", (2, 1): "BC"}.get(gate.qubits)
        if pair is None:
            raise ValueError(f"no native duration for CNOT on qubits {gate.qubits}")
        return device.cphase_time(pair)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _apply_kraus(arr: np.ndarray, ops: list[np.ndarray], qubits, num_qubits: int) -> np.ndarray:
    """sum_k K rho K^dag with each K acting on ``qubits`` of the (2,)*2n tensor."""
    k = len(qubits)
    bras = [num_qubits + q for q in qubits]
    t = arr.reshape((2,) * (2 * num_qubits))
    out = np.zeros_like(t)
    for op in ops:
        ket = _on_ket_axes(op, t, qubits)
        bra = np.tensordot(ket, op.reshape((2,) * (2 * k)).conj(), axes=(bras, list(range(k, 2 * k))))
        out += np.moveaxis(bra, list(range(-k, 0)), bras)
    return out.reshape(arr.shape)


def apply_circuit(circuit: Circuit, rho: DensityMatrix, device: DeviceParams | None = None) -> DensityMatrix:
    """Evolve a state through a circuit, with decoherence when given a device.

    Gates act as ideal unitary conjugations and channels as Kraus sums, each
    contracted on its own qubits' axes of the (2,)*2n state tensor. With a
    device, every gate is followed by amplitude-damping and pure-dephasing
    channels on all qubits for that gate's duration (idle qubits decohere
    too), plus an optional depolarizing channel on the target of
    single-qubit gates when the device's ``single_qubit_error`` is nonzero.
    Without one, the evolution is noiseless.
    """
    n = circuit.num_qubits
    if rho.dim != 2**n:
        raise ValueError(f"state dimension {rho.dim} does not match {n}-qubit circuit")
    arr = np.array(rho.matrix)
    for gate in circuit.gates:
        arr = _apply_kraus(arr, [gate_operator(gate)], gate.qubits, n)
        if device is None:
            continue
        duration = _gate_duration(gate, device)
        if duration > 0.0:
            for q in range(n):
                arr = _apply_kraus(arr, damping_channels(duration, device, q), (q,), n)
        if device.single_qubit_error > 0.0 and gate.kind in ("rotation", "hadamard"):
            arr = _apply_kraus(arr, _depolarizing_kraus(device.single_qubit_error), gate.qubits, n)
    return DensityMatrix(arr)
