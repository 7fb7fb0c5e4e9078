"""Dense complex linear algebra and quantum-state primitives.

Everything operates on small dense numpy arrays: a state is at most 8x8
(three qubits), the circuit map S is 64x64, the process-tomography inverse
16x16 and the tangle search's candidates a (restarts, 8, 2r) stack, so
clarity always wins over scalability.
Qubit A is the most significant tensor factor throughout: a three-qubit
basis index decomposes as ``4a + 2b + c``.

Functions that take states take one state or a stack of them: one
:class:`DensityMatrix` in gives one result out, and a sequence of B states
gives a list or a (B, ...) array, computed in one batched pass.
:func:`state_stack` turns either into one (B, d, d) array and is the one
place a stage checks that its states have its register's size.
:meth:`DensityMatrix.stack` validates a (B, d, d) stack member by member
with one batched ``eigvalsh``, and errors from a stack name the member.
:func:`nearest_physical` takes matrices instead, and makes them states.
"""

from __future__ import annotations

import numbers

import numpy as np

# Every state and every ket that becomes one is held to 1e-9 as a DensityMatrix;
# only target kets and the kets ideal_phi and three_tangle_pure take, to 1e-6.
STRUCTURAL_TOL = 1e-9
INPUT_TOL = 1e-6

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class DensityMatrix:
    """Validated density matrix of any dimension d >= 2.

    Construction asserts the three structural invariants (Hermiticity,
    unit trace, positive semidefiniteness) to ``STRUCTURAL_TOL``, so any
    value of this type can be consumed without re-checking. Whether its
    size fits a stage is checked by the stage, through :func:`state_stack`.

    Attributes
    ----------
    matrix : numpy.ndarray
        The (d, d) complex matrix, marked read-only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _require_physical(m[np.newaxis], single=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def stack(cls, matrices) -> list["DensityMatrix"]:
        """Validate a (B, d, d) stack as B density matrices.

        Every member is checked for the same invariants at the same
        tolerance as the constructor, with one batched ``eigvalsh``; an
        error names the first member that fails. The members are read-only
        views of one copy of the stack.
        """
        m = np.array(matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] < 1:
            raise ValueError(f"a density-matrix stack must have shape (B, d, d) with B >= 1, got {m.shape}")
        _require_physical(m, single=False)
        m.setflags(write=False)
        states = []
        for member in m:
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", member)
            states.append(state)
        return states

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_ket(cls, psi) -> "DensityMatrix":
        """Build |psi><psi| from a ket; the state's trace check holds the ket to |‖psi‖² − 1| ≤ 1e-9."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        return cls(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={len(self.matrix)})"


def stack_error(message: str, index: int, single: bool) -> ValueError:
    """``ValueError(message)``, naming member ``index`` unless one value was given."""
    return ValueError(message if single else f"member {index}: {message}")


def check_members(values: np.ndarray, is_bad, describe, single: bool) -> None:
    """Raise :func:`stack_error` with ``describe(value)`` for the first
    member value that ``is_bad``. A stack holds a handful of members, so a
    loop over Python floats is cheaper than numpy reductions."""
    for index, value in enumerate(values.tolist()):
        if is_bad(value):
            raise stack_error(describe(value), index, single)


def _require_physical(m: np.ndarray, single: bool) -> None:
    """Raise unless d >= 2 and every member of the (B, d, d) stack ``m`` is
    finite, Hermitian, of unit trace and positive semidefinite to ``STRUCTURAL_TOL``."""
    if m.shape[1] < 2:
        raise ValueError(f"dimension {m.shape[1]} is too small for a state")
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).all(axis=(1, 2))
        raise stack_error("density matrix contains non-finite entries", int(np.argmax(bad)), single)
    adjoint = m.conj().swapaxes(1, 2)
    herm_dev = np.abs(m - adjoint).reshape(len(m), -1).max(axis=1)
    trace_dev = np.abs(m.diagonal(0, 1, 2).sum(axis=1) - 1.0)
    min_eig = np.linalg.eigvalsh((m + adjoint) / 2.0)[:, 0]
    check_members(herm_dev, lambda v: v > STRUCTURAL_TOL, "matrix is not Hermitian (deviation {:.3e})".format, single)
    check_members(trace_dev, lambda v: v > STRUCTURAL_TOL, "trace differs from 1 by {:.3e}".format, single)
    check_members(min_eig, lambda v: v < -STRUCTURAL_TOL, "matrix has negative eigenvalue {:.3e}".format, single)


def state_stack(rho, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """The matrices of one :class:`DensityMatrix`, or of a non-empty sequence
    of them, as a complex (B, d, d) array, and whether one state was given.
    The array is read-only: for one state it is a view of its matrix.

    This is where a stage checks the size of its states: given ``dim``,
    every member must be ``dim`` x ``dim``; without it, every member must
    have the first member's size. Raises ``TypeError`` for anything but
    DensityMatrix values and ``ValueError`` for an empty sequence or a
    member of the wrong size, naming the member of a sequence.
    """
    single = isinstance(rho, DensityMatrix)
    states = [rho] if single else list(rho)
    if not states:
        raise ValueError("needs at least one state")
    for index, state in enumerate(states):
        if not isinstance(state, DensityMatrix):
            raise TypeError(f"expected DensityMatrix values, got {type(state).__name__}")
        if dim is None:
            dim = len(state.matrix)
        if len(state.matrix) != dim:
            raise stack_error(f"state dimension {len(state.matrix)} does not match {dim}", index, single)
    if single:
        return rho.matrix[np.newaxis], True
    m = np.array([state.matrix for state in states])
    m.setflags(write=False)
    return m, False


def require_normalized(psi) -> np.ndarray:
    """Return ``psi`` as a complex vector, raising unless its norm is 1 to ``INPUT_TOL``."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    # A NaN norm compares false, so the tolerance test is negated rather than flipped.
    if not abs(nrm - 1.0) <= INPUT_TOL:
        raise ValueError(f"ket is not normalized (norm {nrm:.9f})")
    return v


def is_real(value) -> bool:
    """Whether ``value`` is a real number; bool is an int subclass, so it is rejected by name."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_integer(name: str, value) -> int:
    """Return ``value`` as an int, raising unless it is an integer.

    numpy integers are accepted. Floats are rejected even when integral
    (``int`` would truncate 2.5 to 2), and so are booleans, which are ints
    to Python but would read as 1 or 0.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_count(name: str, value, minimum: int, maximum: int) -> int:
    """Return ``value`` as an int, raising unless it is an integer in [``minimum``, ``maximum``]
    (see :func:`require_integer`; numpy's sampler would truncate 2.5 shots to 2)."""
    value = require_integer(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    if value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return value


def computational_ket(index: int, dim: int) -> np.ndarray:
    """Basis ket |index> in a ``dim``-dimensional space."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def state_fidelity_pure(rho, target):
    """Fidelity <target|rho|target> of a state against a pure target ket.

    One :class:`DensityMatrix` and one ket give a float. A sequence of B
    states and a (B, d) array of kets give an array of B fidelities, from
    one batched ``matmul`` whose members equal the single-state values bit
    for bit. Each ket's norm must be 1 to ``INPUT_TOL``; a valid state and such
    a ket bound the value to within about 2e-6 of [0, 1], where it is clamped.
    """
    m, single = state_stack(rho)
    t = np.asarray(target, dtype=complex)
    t = t.reshape(1, -1) if single else t
    if t.shape != m.shape[:2]:
        raise ValueError(f"target shape {t.shape} does not match states {m.shape[:2]}")
    # Summed as squares rather than as <t|t>, so an infinite entry gives an
    # infinite norm instead of inf * 0 = NaN and a warning.
    norms = np.sqrt(np.sum(t.real**2 + t.imag**2, axis=1))
    bras, kets = t.conj()[:, np.newaxis, :], t[:, :, np.newaxis]
    check_members(norms, lambda v: not abs(v - 1.0) <= INPUT_TOL, "ket is not normalized (norm {:.9f})".format, single)
    f = (bras @ (m @ kets))[:, 0, 0].real
    clamped = [min(1.0, max(0.0, v)) for v in f.tolist()]
    return clamped[0] if single else np.array(clamped)


def _truncate_spectra(vals: np.ndarray) -> None:
    """Truncate each row of a (B, d) array of ascending eigenvalues in place. A uniform
    shift keeps the order, so the zeroed eigenvalues are always a prefix of the row.
    Each row with a negative eigenvalue is walked as Python floats, whose arithmetic is
    numpy's float64 arithmetic, and written back; the other rows are not touched."""
    d = vals.shape[1]
    for k, v in enumerate(vals.tolist()):
        if not v[0] < 0.0:
            continue
        for i in range(d - 1):
            if not v[i] < 0.0:
                break
            shift = v[i] / (d - 1 - i)
            for j in range(i + 1, d):
                v[j] += shift
            v[i] = 0.0
        vals[k] = v


def nearest_physical(h):
    """Closest positive-semidefinite unit-trace matrix in Frobenius norm.

    The input is hermitized and trace-rescaled, then projected in its
    eigenbasis by truncation: zero the most negative eigenvalue, spread its
    value uniformly over the eigenvalues not yet zeroed, and repeat until
    none are negative. This reproduces the exact Frobenius-norm projection
    onto the physical set and is idempotent on physical inputs. The trace
    must be at least 1e-9: rescaling by a negative one would flip the
    spectrum and return the farthest state instead of the nearest. Entries
    up to the float limit project without overflow.

    One (d, d) array gives a :class:`DensityMatrix`. A stack (a (B, d, d)
    array or a list of (d, d) arrays) gives a list, projected with one
    batched ``eigh``; each member's truncation runs on its own, and each
    result equals the single-matrix projection bit for bit. A non-finite
    entry raises, naming the member of a stack.
    """
    m = np.asarray(h, dtype=complex)
    single = m.ndim == 2
    if single:
        m = m[np.newaxis]
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # Dividing by the trace makes the projection invariant under positive scaling, so each member is
    # first scaled, exactly, by the power of two that brings its largest part into [0.5, 1): near 1e308
    # the sums below would overflow. The trace floor is checked on the trace before scaling.
    parts = np.ascontiguousarray(m).view(float)
    exponents = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]  # 0 for a non-finite part
    m = np.ldexp(parts, -exponents[:, np.newaxis, np.newaxis]).view(complex)
    # An infinite entry gives NaNs here, rejected just below; a trace beyond 1.8e308 is infinite, above the floor.
    with np.errstate(invalid="ignore", over="ignore"):
        m = (m + m.conj().swapaxes(1, 2)) / 2.0
        tr = m.trace(axis1=1, axis2=2).real
        unscaled = np.ldexp(tr, exponents)
    bad_trace = "matrix trace is too close to zero or negative to rescale, got {}".format
    check_members(unscaled, lambda v: not v >= 1e-9, bad_trace, single)  # negated: a NaN trace raises too
    check_members(~np.isfinite(m).all(axis=(1, 2)), bool, lambda _: "matrix contains non-finite entries", single)
    vals, vecs = np.linalg.eigh(m / tr[:, np.newaxis, np.newaxis])
    _truncate_spectra(vals)
    states = DensityMatrix.stack((vecs * vals[:, np.newaxis, :]) @ vecs.conj().swapaxes(1, 2))
    return states[0] if single else states
