"""Gate model, teleportation-circuit construction, and noisy evolution.

The register is the device's three qubits, ordered A, B, C with qubit A most
significant. A gate is a :class:`Rotation` of one qubit or a :class:`CPhase`
on one of the adjacent pairs AB and BC, the device's native gates. Each type
checks its fields once, on construction, and stores them; neither gate can
name a qubit or a pair the device does not have. An ordered input (a
rotation's axis, a device's T1 and T2*, a circuit's gates) must be a list or
a tuple, as a set has no order. Gate unitaries are ideal. On a device, a
gate's only error is amplitude damping plus pure dephasing of every qubit
for the gate's duration, which the device alone sets: its single-qubit gate
time for a rotation, the period 1/(2J) of the pair's coupling for a C-Phase.
On a given device the whole noisy circuit is therefore one linear map S on
the 64 entries of rho (:func:`circuit_superoperator`), the product of each
gate's Kronecker product of three 4x4 single-qubit maps. S is built once per
(circuit, device) pair, in under a millisecond, and kept read-only in a
cache of 32 maps; evolving a stack of states is one product with it. Its
build is the one place a gate becomes numbers: a rotation's 2x2 unitary
comes from :func:`rotation_unitary`, which reads the gate's checked floats,
and a C-Phase is a +-1 mask on S's entries. S's cache is the evolution's
only cache.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources

import numpy as np

from .qops import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    STRUCTURAL_TOL,
    is_real,
    require_integer,
    require_normalized,
    state_stack,
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
class Rotation:
    """A rotation of ``qubit`` (an integer, 0, 1 or 2 for A, B or C) by a
    finite ``angle`` about a real unit ``axis`` (a list or tuple of three),
    stored as floats. It lasts the device's single-qubit gate time."""

    axis: tuple[float, float, float]
    angle: float
    qubit: int

    def __post_init__(self):
        # int() would turn qubit 1.7 into 1 and True into 1.
        qubit = require_integer("gate qubit", self.qubit)
        if not 0 <= qubit < 3:
            raise ValueError(f"gate qubit must be 0, 1 or 2 (A, B or C), got {qubit}")
        object.__setattr__(self, "qubit", qubit)
        # Only a list or tuple has an order; a NaN norm compares false, so the test is negated.
        three = isinstance(self.axis, (list, tuple)) and len(self.axis) == 3 and all(map(is_real, self.axis))
        if not (three and abs(math.hypot(*self.axis) - 1.0) <= STRUCTURAL_TOL):
            raise ValueError(f"rotation axis must be a unit 3-vector, got {self.axis!r}")
        if not (is_real(self.angle) and math.isfinite(self.angle)):  # a NaN angle makes a NaN unitary
            raise ValueError(f"rotation angle must be a finite number, got {self.angle!r}")
        # A tuple keeps the gate, and so its circuit, hashable: S caches by circuit.
        object.__setattr__(self, "axis", tuple(map(float, self.axis)))
        object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class CPhase:
    """A C-Phase on an adjacent ``pair`` of device qubits, "AB" or "BC". It
    lasts the period 1/(2J) of that pair's coupling on the device."""

    pair: str

    def __post_init__(self):
        if not isinstance(self.pair, str) or self.pair not in CPHASE_PAIRS:
            raise ValueError(f"C-Phase pair must be one of {sorted(CPHASE_PAIRS)}, got {self.pair!r}")


# A native gate of either kind: ``isinstance(g, Gate)`` accepts both.
Gate = Rotation | CPhase


@dataclass(frozen=True)
class Circuit:
    """Ordered gates on the device's qubits A, B and C: a list or tuple, stored as a tuple."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not isinstance(self.gates, (list, tuple)):  # a set or a generator has no fixed order
            raise TypeError(f"a circuit's gates must be a list or tuple, got {type(self.gates).__name__}")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise TypeError(f"a circuit holds Gate values, got {type(g).__name__}")
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class DeviceParams:
    """Device timing and coherence parameters, normally read from config.

    Times are in seconds, couplings in Hz (coupling strength divided by
    2*pi); ``t1`` and ``t2_star`` are lists or tuples of qubits A, B and C.
    Each C-Phase lasts the full avoided-crossing period 1/(2*J) of its
    pair's coupling, the one time at which it is a C-Phase.
    """

    t1: tuple[float, float, float]
    t2_star: tuple[float, float, float]
    j_ab: float
    j_bc: float
    single_qubit_gate_time: float = 12e-9

    def __post_init__(self):
        for name in ("t1", "t2_star"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and len(value) == 3):  # a set has no qubit order
                raise ValueError(f"{name} must list exactly three qubits (A, B, C), got {value!r}")
        # Times and couplings must be finite positive reals: a NaN or infinite
        # one makes a gate duration NaN or 0, which silently skips that gate's
        # decoherence.
        checked = [(f"{name}[{q}]", v) for name in ("t1", "t2_star") for q, v in enumerate(getattr(self, name))]
        checked += [(name, getattr(self, name)) for name in ("j_ab", "j_bc", "single_qubit_gate_time")]
        for name, v in checked:
            if not (is_real(v) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        # Every number is stored as a Python float: a NumPy scalar would reach the
        # report's metadata, which JSON cannot serialize.
        for name, v in list(vars(self).items()):
            v = tuple(map(float, v)) if name in ("t1", "t2_star") else float(v)
            object.__setattr__(self, name, v)
        # Each C-Phase time 1/(2J) must be finite and positive too: 2J
        # overflows near J = 1e308, and 1/(2J) does for a subnormal J.
        for pair, name, j in (("AB", "j_ab", self.j_ab), ("BC", "j_bc", self.j_bc)):
            if not 0.0 < (t := self.cphase_time(pair)) < math.inf:
                raise ValueError(f"C-Phase time 1/(2*{name}) must be finite and positive, got {t!r} for {name}={j!r}")
        for q, (t1, t2) in enumerate(zip(self.t1, self.t2_star)):
            # 1/(2*T1) overflows for a T1 below about 2.8e-309, and the dephasing rate
            # 1/T2* - 1/(2*T1) would then be inf - inf = NaN. An infinite 1/T2* alone is full dephasing.
            if not (rate := 1.0 / (2.0 * t1)) < math.inf:
                raise ValueError(f"decay rate 1/(2*t1[{q}]) must be finite, got {rate!r} for t1[{q}]={t1!r}")
            if t2 > 2.0 * t1 * (1.0 + 1e-12):
                raise ValueError(f"unphysical dephasing: T2*={t2} exceeds 2*T1={2 * t1} on qubit {q}")

    def cphase_time(self, pair: str) -> float:
        """The C-Phase time 1/(2J) of pair "AB" or "BC"; any other pair raises ``KeyError``."""
        return 1.0 / (2.0 * {"AB": self.j_ab, "BC": self.j_bc}[pair])

    def scaled_coherence(self, factor: float) -> "DeviceParams":
        """Copy with all T1 and T2* multiplied by ``factor``."""
        return replace(
            self, t1=tuple(t * factor for t in self.t1), t2_star=tuple(t * factor for t in self.t2_star)
        )

    def to_dict(self) -> dict:
        """The fields in declaration order, with ``t1`` and ``t2_star`` as lists."""
        return {**vars(self), "t1": list(self.t1), "t2_star": list(self.t2_star)}

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceParams":
        if not isinstance(d, dict):
            raise ValueError(f"device fields must be given as a dict, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown device field(s): {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ValueError(f"device config is missing required field(s): {sorted(missing)}")
        return cls(**d)

    @classmethod
    @functools.lru_cache(maxsize=1)
    def reference(cls) -> "DeviceParams":
        """The bundled reference device (paper_device.json), read once per
        process: the value is frozen, so every caller shares it."""
        text = resources.files("telebench").joinpath("data/paper_device.json").read_text()
        return cls.from_dict(json.loads(text)["device"])


def rotation_unitary(gate: Rotation) -> np.ndarray:
    """The 2x2 unitary exp(-i * angle/2 * axis.sigma) of a checked :class:`Rotation`."""
    x, y, z = gate.axis
    half = 0.5 * gate.angle
    return math.cos(half) * ID2 - 1j * math.sin(half) * (x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


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
    # NaN compares false, so each test is negated rather than flipped.
    if not (is_real(j_over_2pi) and 0.0 < j_over_2pi < math.inf):
        raise ValueError(f"coupling strength must be a finite positive number, got {j_over_2pi!r}")
    if not (is_real(t) and 0.0 <= t < math.inf):
        raise ValueError(f"interaction time must be a finite number >= 0, got {t!r}")
    phase = 2.0 * math.pi * j_over_2pi * t
    amp11 = math.cos(phase)
    leakage = math.sin(phase) ** 2
    effective = np.diag([1.0, 1.0, 1.0, amp11]).astype(complex)
    return effective, leakage


def build_teleport_circuit() -> Circuit:
    """Construct the compiled teleportation circuit up to the measurement step.

    It uses only y rotations and the two native C-Phase gates; the frame
    phases of the textbook Hadamard and CNOT form are absorbed into the
    rotation axes. On |psi>|00> it outputs the four-branch entangled state
    returned by :func:`ideal_phi`.
    """
    y = (0.0, 1.0, 0.0)
    half = math.pi / 2.0
    gates = (
        Rotation(y, -half, qubit=1),
        Rotation(y, -half, qubit=2),
        CPhase("BC"),
        Rotation(y, half, qubit=2),
        Rotation(y, half, qubit=1),
        CPhase("AB"),
        Rotation(y, -half, qubit=1),
        Rotation(y, -half, qubit=0),
    )
    return Circuit(gates)


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


def _decay_maps(device: DeviceParams, duration: float) -> list[np.ndarray]:
    """Each qubit's 4x4 Liouville map of amplitude damping plus pure dephasing
    over ``duration`` on its (ket, bra) entries 00, 01, 10, 11: b00 += gamma*b11,
    b11 *= 1 - gamma, b01 and b10 *= s.

    gamma = 1 - exp(-duration/T1), p = (1 - exp(-duration/Tphi))/2 with the
    pure-dephasing rate 1/Tphi = 1/T2* - 1/(2*T1) >= 0, and
    s = sqrt(1 - gamma)*(1 - 2p).
    """
    maps = []
    for t1, t2_star in zip(device.t1, device.t2_star):
        gamma = 1.0 - math.exp(-duration / t1)
        p = 0.5 * (1.0 - math.exp(-duration * max(1.0 / t2_star - 1.0 / (2.0 * t1), 0.0)))
        s = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p)
        maps.append(
            np.array([[1.0, 0.0, 0.0, gamma], [0.0, s, 0.0, 0.0], [0.0, 0.0, s, 0.0], [0.0, 0.0, 0.0, 1.0 - gamma]])
        )
    return maps


# Qubit-factor order indexes the 64 entries of rho by (ket A, bra A, ket B,
# bra B, ket C, bra C), so a map on each qubit's (ket, bra) pair is a
# Kronecker product of three 4x4 maps. Entry k of this array is the
# qubit-factor index of row-major entry k of rho.
_TO_ROW_MAJOR = np.arange(64).reshape((2,) * 6).transpose(0, 2, 4, 1, 3, 5).ravel()
_FACTOR_BITS = np.indices((2,) * 6).reshape(6, 64)
_TO_ROW_MAJOR.setflags(write=False)
_FACTOR_BITS.setflags(write=False)


def _cphase_signs(pair: str) -> np.ndarray:
    """The C-Phase's conjugation as signs on the 64 entries in qubit-factor
    order: -1 where exactly one of the ket and the bra has both qubits of the pair in 1."""
    q0, q1 = CPHASE_PAIRS[pair]
    ket = _FACTOR_BITS[2 * q0] & _FACTOR_BITS[2 * q1]
    bra = _FACTOR_BITS[2 * q0 + 1] & _FACTOR_BITS[2 * q1 + 1]
    return 1.0 - 2.0 * (ket ^ bra)


@functools.lru_cache(maxsize=32)
def circuit_superoperator(circuit: Circuit, device: DeviceParams | None = None) -> np.ndarray:
    """The 64x64 map S of a circuit, with the device's decoherence, on row-major vec(rho).

    Each gate's map is the Kronecker product of the three qubits' 4x4
    Liouville maps in qubit-factor order: a rotation's U (x) conj(U) on its
    own qubit, followed by every qubit's damping and dephasing for the
    gate's duration; a C-Phase is a +-1 mask on the columns of the damping
    map. S is the product of the gate maps in circuit order, each applied
    one 4x4 factor at a time, permuted once to row-major. Without a device
    every damping map is the identity. Built once per distinct (circuit,
    device) pair, both frozen and hashable, and kept read-only in a cache of
    32 maps (64 KB each).
    """
    s = np.eye(64, dtype=complex)
    for gate in circuit.gates:
        if device is None:
            maps = [np.eye(4)] * 3
        elif isinstance(gate, Rotation):
            maps = _decay_maps(device, device.single_qubit_gate_time)
        else:
            maps = _decay_maps(device, device.cphase_time(gate.pair))
        if isinstance(gate, Rotation):
            u = rotation_unitary(gate)
            maps[gate.qubit] = maps[gate.qubit] @ (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4, 4)
        if isinstance(gate, CPhase):
            s = _cphase_signs(gate.pair)[:, None] * s
        # (A (x) B (x) C) @ s one 4x4 factor at a time: small products that
        # BLAS runs on one thread, where one dense 64x64 product takes two.
        s = (maps[0] @ s.reshape(4, -1)).reshape(4, 4, -1)
        s = (maps[1] @ s).reshape(16, 4, -1)
        s = (maps[2] @ s).reshape(64, 64)
    s = s[np.ix_(_TO_ROW_MAJOR, _TO_ROW_MAJOR)]
    s.setflags(write=False)
    return s


def apply_circuit(circuit: Circuit, rho, device: DeviceParams | None = None):
    """Evolve a state, or a stack of states, of qubits A, B and C through a
    circuit, with decoherence when given a device.

    ``rho`` is one 8x8 :class:`DensityMatrix` or a sequence of them; the
    result is of the same kind (a list for a sequence). The evolution is one
    product with the circuit's cached 64x64 map
    (:func:`circuit_superoperator`): every gate is an ideal unitary
    conjugation and, with a device, is followed by amplitude damping and
    pure dephasing of all qubits for that gate's duration (idle qubits
    decohere too), the model's only gate error. Without a device, the
    evolution is noiseless. The first call for a (circuit, device) pair
    builds the map, in under a millisecond; later calls reuse it. A sequence
    of B states is one product of (B, 64) rows with S^T that computes each
    member on its own, so every output equals the single-state evolution of
    its input bit for bit (a BLAS matrix product would not, as BLAS blocks
    by B).
    """
    m, single = state_stack(rho, 8)
    # einsum's own loops, not BLAS: OpenBLAS runs a 64x64 complex
    # matrix-vector product on two threads, and that call stalls for a
    # scheduler time slice (about 4 ms) whenever the other core is busy.
    out = np.einsum("bk,jk->bj", m.reshape(len(m), 64), circuit_superoperator(circuit, device)).reshape(len(m), 8, 8)
    return DensityMatrix(out[0]) if single else DensityMatrix.stack(out)
