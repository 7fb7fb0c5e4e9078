"""Gate model, teleportation-circuit construction, and noisy evolution.

The register is the device's three qubits, ordered A, B, C with qubit A most
significant. A gate is a :class:`Rotation` of one qubit or a :class:`CPhase`
on one of the adjacent pairs AB and BC, the device's native gates; each
checks its fields on construction, and neither can name a qubit or a pair
the device does not have. Gate unitaries are ideal. With a device, each gate
is followed by amplitude damping plus pure dephasing of every qubit for the
gate's duration, applied in closed form to that qubit's 2x2 (ket, bra)
blocks of the state tensor. One noise pass per gate gathers the stack of
states into qubit A's block layout, scales and shifts contiguous slabs of
rows, and gathers on to B's and C's layouts and back; the arithmetic per
entry is that of one block update per qubit, so results do not depend on the
layout.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
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


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; bool is an int subclass, so it is rejected by name."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _unit_axis(axis) -> tuple[float, float, float]:
    """``axis`` as a tuple of three floats, raising unless it is a real unit 3-vector."""
    try:
        ax = tuple(axis)
    except TypeError:
        ax = ()
    # A NaN norm compares false, so the tolerance test is negated rather than flipped.
    if len(ax) != 3 or not all(map(_is_real, ax)) or not abs(math.hypot(*ax) - 1.0) <= STRUCTURAL_TOL:
        raise ValueError(f"rotation axis must be a unit 3-vector, got {axis!r}")
    return tuple(float(a) for a in ax)


def _check_angle(angle) -> None:
    """A NaN or infinite rotation angle would make every entry of the unitary NaN."""
    if not (_is_real(angle) and math.isfinite(angle)):
        raise ValueError(f"rotation angle must be a finite number, got {angle!r}")


def _check_duration(d) -> None:
    """A negative or NaN gate duration would skip decoherence silently, and a bool would read as 1 s."""
    if d is not None and not (_is_real(d) and 0.0 <= d < math.inf):
        raise ValueError(f"gate duration must be None or a finite number >= 0, got {d!r}")


@dataclass(frozen=True)
class Rotation:
    """A rotation of ``qubit`` (an integer, 0, 1 or 2 for A, B or C) by a
    finite ``angle`` about a real unit ``axis``, stored as floats. A
    ``duration`` of ``None`` takes the device's single-qubit gate time when
    applied; 0.0 marks a virtual gate that adds no decoherence."""

    axis: tuple[float, float, float]
    angle: float
    qubit: int
    duration: float | None = None

    def __post_init__(self):
        _check_duration(self.duration)
        # int() would turn qubit 1.7 into 1 and True into 1.
        qubit = require_integer("gate qubit", self.qubit)
        if not 0 <= qubit < 3:
            raise ValueError(f"gate qubit must be 0, 1 or 2 (A, B or C), got {qubit}")
        object.__setattr__(self, "qubit", qubit)
        # A list axis would make the gate unhashable, and gate_operator caches by gate.
        object.__setattr__(self, "axis", _unit_axis(self.axis))
        _check_angle(self.angle)
        object.__setattr__(self, "angle", float(self.angle))

    @property
    def qubits(self) -> tuple[int]:
        return (self.qubit,)


@dataclass(frozen=True)
class CPhase:
    """A C-Phase on an adjacent ``pair`` of device qubits, "AB" or "BC". A
    ``duration`` of ``None`` takes the pair's C-Phase time when applied."""

    pair: str
    duration: float | None = None

    def __post_init__(self):
        _check_duration(self.duration)
        if not isinstance(self.pair, str) or self.pair not in CPHASE_PAIRS:
            raise ValueError(f"C-Phase pair must be one of {sorted(CPHASE_PAIRS)}, got {self.pair!r}")

    @property
    def qubits(self) -> tuple[int, int]:
        return CPHASE_PAIRS[self.pair]


# A native gate of either kind: ``isinstance(g, Gate)`` accepts both.
Gate = Rotation | CPhase


@dataclass(frozen=True)
class Circuit:
    """Ordered gates on the device's qubits A, B and C, stored as a tuple."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise TypeError(f"a circuit holds Gate values, got {type(g).__name__}")
        object.__setattr__(self, "gates", gates)


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
        for name in ("t1", "t2_star"):
            value = getattr(self, name)
            try:
                three = len(value) == 3
            except TypeError:  # a number or another unsized value
                three = False
            if not three:
                raise ValueError(f"{name} must list exactly three qubits (A, B, C), got {value!r}")
        # Times and couplings must be finite positive reals: a NaN or infinite
        # one makes a gate duration NaN or 0, which silently skips that gate's
        # decoherence.
        checked = [(f"{name}[{q}]", v) for name in ("t1", "t2_star") for q, v in enumerate(getattr(self, name))]
        checked += [(name, getattr(self, name)) for name in ("j_ab", "j_bc", "single_qubit_gate_time")]
        checked += [
            (name, v) for name in ("cphase_time_ab", "cphase_time_bc") if (v := getattr(self, name)) is not None
        ]
        for name, v in checked:
            if not (_is_real(v) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        t1 = tuple(float(x) for x in self.t1)
        t2 = tuple(float(x) for x in self.t2_star)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2_star", t2)
        for q in range(3):
            if t2[q] > 2.0 * t1[q] * (1.0 + 1e-12):
                raise ValueError(f"unphysical dephasing: T2*={t2[q]} exceeds 2*T1={2 * t1[q]} on qubit {q}")
        if not (_is_real(self.single_qubit_error) and 0.0 <= self.single_qubit_error < 1.0):
            raise ValueError(f"single_qubit_error must be a number in [0, 1), got {self.single_qubit_error!r}")

    def cphase_time(self, pair: str) -> float:
        """The C-Phase time of pair "AB" or "BC"; any other pair raises ``KeyError``."""
        time, j = {"AB": (self.cphase_time_ab, self.j_ab), "BC": (self.cphase_time_bc, self.j_bc)}[pair]
        return time if time is not None else 1.0 / (2.0 * j)

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
    def reference(cls) -> "DeviceParams":
        """The bundled reference device (paper_device.json)."""
        text = resources.files("telebench").joinpath("data/paper_device.json").read_text()
        return cls.from_dict(json.loads(text)["device"])


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """2x2 rotation exp(-i * angle/2 * axis.sigma) about a unit axis."""
    ax = _unit_axis(axis)
    _check_angle(angle)
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
    # NaN compares false, so each test is negated rather than flipped.
    if not (_is_real(j_over_2pi) and 0.0 < j_over_2pi < math.inf):
        raise ValueError(f"coupling strength must be a finite positive number, got {j_over_2pi!r}")
    if not (_is_real(t) and 0.0 <= t < math.inf):
        raise ValueError(f"interaction time must be a finite number >= 0, got {t!r}")
    phase = 2.0 * math.pi * j_over_2pi * t
    amp11 = math.cos(phase)
    leakage = math.sin(phase) ** 2
    effective = np.diag([1.0, 1.0, 1.0, amp11]).astype(complex)
    return effective, leakage


@functools.lru_cache(maxsize=64)
def gate_operator(gate: Gate) -> np.ndarray:
    """The 2x2 or 4x4 operator of a gate on ``gate.qubits``, first listed
    qubit most significant. Built once per distinct gate and read-only, so
    every caller can share it."""
    op = rotation_unitary(gate.axis, gate.angle) if isinstance(gate, Rotation) else cphase_ideal()
    op.setflags(write=False)
    return op


def _axes_first(axes, ndim: int) -> list[int]:
    """Axis order that puts ``axes`` first, in that order, and the rest after."""
    return [*axes, *(a for a in range(ndim) if a not in axes)]


@functools.lru_cache(maxsize=256)
def _axis_orders(axes: tuple[int, ...], ndim: int) -> tuple[list[int], list[int]]:
    """:func:`_axes_first` of ``axes`` and the order that undoes it."""
    order = _axes_first(axes, ndim)
    return order, sorted(range(ndim), key=order.__getitem__)


def _on_axes(op: np.ndarray, t: np.ndarray, axes) -> np.ndarray:
    """Apply ``op`` to ``axes`` of a tensor whose listed axes have length 2,
    first listed axis most significant. Other axes may have any length."""
    order, back = _axis_orders(tuple(axes), t.ndim)
    moved = t.transpose(order)
    out = op @ moved.reshape(len(op), -1)
    return out.reshape(moved.shape).transpose(back)


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


def _gate_duration(gate: Gate, device: DeviceParams) -> float:
    if gate.duration is not None:
        return gate.duration
    if isinstance(gate, Rotation):
        return device.single_qubit_gate_time
    return device.cphase_time(gate.pair)


def _conjugate(t: np.ndarray, op: np.ndarray, qubits) -> np.ndarray:
    """op rho op^dag with ``op`` acting on ``qubits`` of every state in a (B,) + (2,)*2n stack."""
    n = (t.ndim - 1) // 2
    return _on_axes(op.conj(), _on_axes(op, t, [1 + q for q in qubits]), [1 + n + q for q in qubits])


def _qubit_blocks(t: np.ndarray, q: int) -> np.ndarray:
    """View of a (B,) + (2,)*2n stack with qubit ``q``'s (ket, bra) axes first."""
    n = (t.ndim - 1) // 2
    return t.transpose(_axes_first((1 + q, 1 + n + q), t.ndim))


def _block_gathers(n: int) -> tuple[np.ndarray, ...]:
    """The n + 1 row gathers of the noise pass on an n-qubit register.

    Qubit q's block layout orders the 4**n matrix elements as four blocks of
    k = 4**(n-1) rows, by (ket q, bra q) = (0, 0), (1, 1), (0, 1), (1, 0),
    with the other indices row-major within a block. Gather 0 takes
    row-major order to qubit 0's layout, gather q takes qubit q-1's layout
    to qubit q's, and gather n takes qubit n-1's layout back to row-major.
    """
    elements = np.arange(4**n)
    position = elements  # row of each element in the current layout
    gathers = []
    for q in range(n):
        layout = elements.reshape((2,) * (2 * n)).transpose(_axes_first((q, n + q), 2 * n))
        layout = layout.reshape(4, -1)[[0, 3, 1, 2]].ravel()
        gathers.append(position[layout])
        position = np.empty_like(layout)  # the inverse permutation; argsort would page in its sort kernels
        position[layout] = elements
    gathers.append(position)
    for g in gathers:
        g.setflags(write=False)
    return tuple(gathers)


_BLOCK_GATHERS = _block_gathers(3)


def _decay_factors(device: DeviceParams, duration: float) -> list[tuple[float, float, float]]:
    """(gamma, 1 - gamma, s) per qubit for amplitude damping plus pure dephasing over ``duration``.

    gamma = 1 - exp(-duration/T1), p = (1 - exp(-duration/Tphi))/2 with the
    pure-dephasing rate 1/Tphi = 1/T2* - 1/(2*T1) >= 0, and
    s = sqrt(1 - gamma)*(1 - 2p) scales the off-diagonal blocks.
    """
    factors = []
    for t1, t2_star in zip(device.t1, device.t2_star):
        gamma = 1.0 - math.exp(-duration / t1)
        p = 0.5 * (1.0 - math.exp(-duration * max(1.0 / t2_star - 1.0 / (2.0 * t1), 0.0)))
        factors.append((gamma, 1.0 - gamma, math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p)))
    return factors


def _decohere(t: np.ndarray, factors) -> np.ndarray:
    """Damp and dephase every qubit of a (B,) + (2,)*6 stack, qubit A first.

    ``factors`` holds (gamma, 1 - gamma, s) per qubit. On qubit q's
    (ket q, bra q) blocks: b00 += gamma*b11, b11 *= 1 - gamma, b01 and b10
    *= s. Each qubit's update is three slab updates of the stack gathered
    into that qubit's block layout (:data:`_BLOCK_GATHERS`); gathers copy
    exactly, so every entry gets the same multiplies and adds as a block
    update on the tensor. Returns a new stack of the same shape.
    """
    y = t.reshape(len(t), -1).T.take(_BLOCK_GATHERS[0], axis=0)
    k = len(y) // 4
    for (gamma, keep, s), gather in zip(factors, _BLOCK_GATHERS[1:]):
        y[:k] += gamma * y[k : 2 * k]
        y[k : 2 * k] *= keep
        y[2 * k :] *= s  # b01 and b10; b00 is left unscaled, as scaling by 1.0 can flip a zero's sign
        y = y.take(gather, axis=0)
    return y.T.reshape(t.shape)


def _depolarize(t: np.ndarray, p: float, q: int) -> None:
    """Depolarizing channel (1 - p) rho + p Tr_q(rho) (x) I/2 on qubit ``q`` of
    every state in a (B,) + (2,)*2n stack, in place."""
    b = _qubit_blocks(t, q)
    mixed = 0.5 * p * (b[0, 0] + b[1, 1])
    t *= 1.0 - p
    b[0, 0] += mixed
    b[1, 1] += mixed


def apply_circuit(circuit: Circuit, rho, device: DeviceParams | None = None):
    """Evolve a state, or a stack of states, of qubits A, B and C through a
    circuit, with decoherence when given a device.

    ``rho`` is one 8x8 :class:`DensityMatrix` or a sequence of them; the
    result is of the same kind (a list for a sequence). A sequence is evolved
    as one (B,) + (2,)*6 stack, so every gate and channel is one update over
    all B states, and each output equals the single-state evolution of its
    input bit for bit. Gates act as ideal unitary conjugations contracted on
    their own qubits' axes. With a device, every gate is followed by
    amplitude damping and pure dephasing of all qubits for that gate's
    duration (idle qubits decohere too), plus an optional depolarizing
    channel on the qubit of each rotation when the device's
    ``single_qubit_error`` is nonzero; both channels update each qubit's 2x2
    (ket, bra) blocks in closed form. Damping and dephasing take one pass per
    gate over the stack gathered into each qubit's block layout in turn
    (:func:`_decohere`), with coefficients computed once per distinct gate
    duration. Without a device, the evolution is noiseless.
    """
    m, single = state_stack(rho)
    if m.shape[1] != 8:
        raise ValueError(f"state dimension {m.shape[1]} does not match the 3-qubit circuit")
    t = m.reshape((len(m),) + (2,) * 6)
    decay = {}  # gate duration -> per-qubit factors
    for gate in circuit.gates:
        t = _conjugate(t, gate_operator(gate), gate.qubits)
        if device is None:
            continue
        duration = _gate_duration(gate, device)
        if duration > 0.0:
            if duration not in decay:
                decay[duration] = _decay_factors(device, duration)
            t = _decohere(t, decay[duration])
        if device.single_qubit_error > 0.0 and isinstance(gate, Rotation):
            _depolarize(t, device.single_qubit_error, gate.qubit)
    out = DensityMatrix.stack(t.reshape(len(m), 8, 8))
    return out[0] if single else out
