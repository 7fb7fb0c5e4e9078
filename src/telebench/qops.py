"""Dense complex linear algebra and quantum-state primitives.

Everything operates on small dense numpy arrays; the largest matrix in the
package is 8x8 (three qubits) so clarity always wins over scalability.
Qubit A is the most significant tensor factor throughout: a three-qubit
basis index decomposes as ``4a + 2b + c``.
"""

from __future__ import annotations

import numpy as np

# Structural invariants (values we construct) are enforced at 1e-9;
# user-supplied inputs are validated at the looser 1e-6.
STRUCTURAL_TOL = 1e-9
INPUT_TOL = 1e-6

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

PAULI_1Q = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class DensityMatrix:
    """Validated n-qubit density matrix.

    Construction asserts the three structural invariants (Hermiticity,
    unit trace, positive semidefiniteness) to ``STRUCTURAL_TOL``, so any
    value of this type can be consumed without re-checking.

    Attributes
    ----------
    matrix : numpy.ndarray
        The (d, d) complex matrix, marked read-only.
    num_qubits : int or None
        Number of qubits n when d = 2**n; None for non-qubit dimensions
        (e.g. qutrit registers), which support only the generic operations.
    """

    __slots__ = ("matrix", "num_qubits")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2:
            raise ValueError(f"dimension {dim} is too small for a state")
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            n = None
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > STRUCTURAL_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        trace_dev = abs(np.trace(m) - 1.0)
        if trace_dev > STRUCTURAL_TOL:
            raise ValueError(f"trace differs from 1 by {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        if min_eig < -STRUCTURAL_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_ket(cls, psi) -> "DensityMatrix":
        """Build the pure-state density matrix |psi><psi| from a ket."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        require_normalized(v)
        return cls(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def require_normalized(psi, tol: float = INPUT_TOL) -> np.ndarray:
    """Return ``psi`` as a complex vector, raising unless its norm is 1."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"ket is not normalized (norm {nrm:.9f})")
    return v


def computational_ket(index: int, dim: int) -> np.ndarray:
    """Basis ket |index> in a ``dim``-dimensional space."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
    keep : iterable of int
        Qubit indices to retain (0 = qubit A, most significant). The kept
        qubits stay in their original relative order.

    Returns
    -------
    DensityMatrix
        Reduced state on the kept qubits; trace is preserved.
    """
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit; the full trace is a scalar")
    n = rho.num_qubits
    if n is None:
        raise ValueError("partial_trace requires a qubit register (power-of-two dimension)")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} qubits")
    arr = rho.matrix.reshape((2,) * (2 * n))
    remaining = n
    for q in sorted((set(range(n)) - set(kept)), reverse=True):
        arr = np.trace(arr, axis1=q, axis2=q + remaining)
        remaining -= 1
    d = 2 ** len(kept)
    return DensityMatrix(arr.reshape(d, d))


def pauli_operator(label: str) -> np.ndarray:
    """8x8 operator for a three-character Pauli string, qubit A leftmost."""
    if not isinstance(label, str) or len(label) != 3:
        raise ValueError(f"Pauli string must have exactly 3 characters, got {label!r}")
    op = np.array([[1.0 + 0.0j]])
    for ch in label:
        if ch not in PAULI_1Q:
            raise ValueError(f"invalid Pauli character {ch!r} in {label!r}")
        op = np.kron(op, PAULI_1Q[ch])
    return op


def expectation(rho: DensityMatrix, op) -> float:
    """Expectation value Tr(rho * op) of a Hermitian operator."""
    o = np.asarray(op, dtype=complex)
    if o.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {o.shape} does not match state {rho.matrix.shape}")
    if float(np.max(np.abs(o - o.conj().T))) > INPUT_TOL:
        raise ValueError("operator must be Hermitian")
    val = complex(np.trace(rho.matrix @ o))
    if abs(val.imag) >= STRUCTURAL_TOL:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def state_fidelity_pure(rho: DensityMatrix, target) -> float:
    """Fidelity <target|rho|target> of a state against a pure target ket.

    Clamped to [0, 1]; values outside [0, 1 + 1e-9] indicate a bug and raise.
    """
    t = require_normalized(target)
    if t.shape[0] != rho.dim:
        raise ValueError(f"target dimension {t.shape[0]} does not match state {rho.dim}")
    val = complex(t.conj() @ (rho.matrix @ t))
    f = float(val.real)
    if f < -STRUCTURAL_TOL or f > 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"fidelity {f} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, f))


def nearest_physical(h) -> DensityMatrix:
    """Closest positive-semidefinite unit-trace matrix in Frobenius norm.

    The input is hermitized and trace-rescaled, then projected in its
    eigenbasis by truncation: zero the most negative eigenvalue, spread its
    value uniformly over the eigenvalues not yet zeroed, and repeat until
    none are negative. This reproduces the exact Frobenius-norm projection
    onto the physical set and is idempotent on physical inputs.
    """
    m = np.asarray(getattr(h, "matrix", h), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = (m + m.conj().T) / 2.0
    tr = float(np.trace(m).real)
    if abs(tr) < 1e-9:
        raise ValueError("matrix trace is too close to zero to rescale")
    m = m / tr
    vals, vecs = np.linalg.eigh(m)
    vals = vals.copy()
    active = np.ones(vals.shape[0], dtype=bool)
    while True:
        negative = active & (vals < 0.0)
        if not negative.any():
            break
        masked = np.where(active, vals, np.inf)
        idx = int(np.argmin(masked))
        deficit = vals[idx]
        vals[idx] = 0.0
        active[idx] = False
        vals[active] += deficit / active.sum()
    out = (vecs * vals) @ vecs.conj().T
    return DensityMatrix(out)
