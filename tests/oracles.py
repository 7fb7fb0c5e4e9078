"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the package's own computational paths:
projections go through sorted simplex projection, tangles through the
Cayley hyperdeterminant, leakage through a 9x9 matrix exponential, process
matrices through direct Kraus-operator basis expansion, and gates, channels
and conditional states through dense full-register matrices.
"""

import numpy as np
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
CHI_BASIS = (
    np.eye(2, dtype=complex),
    SX,
    -1j * SY,
    SZ,
)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r).real)


def simplex_projection_psd(h):
    """Frobenius projection onto {PSD, trace 1} via sorted simplex projection.

    The eigenvalues are projected onto the probability simplex with the
    standard sort-and-threshold rule; eigenvectors are untouched.
    """
    m = np.asarray(h, dtype=complex)
    m = (m + m.conj().T) / 2.0
    m = m / np.trace(m).real
    vals, vecs = np.linalg.eigh(m)
    v = np.sort(vals)[::-1]
    css = np.cumsum(v) - 1.0
    ks = np.arange(1, len(v) + 1)
    valid = v - css / ks > 0
    rho_idx = int(np.max(np.nonzero(valid)[0]))
    theta = css[rho_idx] / (rho_idx + 1)
    w = np.clip(vals - theta, 0.0, None)
    return (vecs * w) @ vecs.conj().T


def hyperdet_tangle(psi):
    """Three-tangle of a pure state as 4|Hdet| of the amplitude tensor."""
    a = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1] + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    hdet = d1 - 2.0 * d2 + 4.0 * d3
    return float(4.0 * abs(hdet))


def qutrit_pair_leakage(j_over_2pi, t):
    """Brute-force |11> -> |20> leakage in the full two-qutrit space."""
    h = np.zeros((9, 9), dtype=complex)
    i11, i20 = 3 * 1 + 1, 3 * 2 + 0
    h[i11, i20] = h[i20, i11] = 2.0 * np.pi * j_over_2pi
    u = expm(-1j * h * t)
    return float(abs(u[i20, i11]) ** 2)


def chi_from_kraus(kraus_ops):
    """Process matrix of a channel from its Kraus operators.

    Expands each Kraus operator in the {I, X, -i*sigma_y, Z} basis
    (coefficients via trace inner products) and accumulates
    chi_mn = sum_k c_km conj(c_kn).
    """
    chi = np.zeros((4, 4), dtype=complex)
    for k in kraus_ops:
        c = np.array([np.trace(b.conj().T @ k) / 2.0 for b in CHI_BASIS])
        chi += np.outer(c, c.conj())
    return chi


def partial_trace_index_sum(rho, dims, keep):
    """Direct index-sum partial trace for small systems."""
    n = len(dims)
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    kept_dim = int(np.prod([dims[q] for q in keep]))
    out = np.zeros((kept_dim, kept_dim), dtype=complex)
    full = np.asarray(rho).reshape(tuple(dims) * 2)
    for ridx in np.ndindex(*[dims[q] for q in keep]):
        for cidx in np.ndindex(*[dims[q] for q in keep]):
            acc = 0.0 + 0.0j
            for tidx in np.ndindex(*[dims[q] for q in traced]):
                left = [0] * n
                right = [0] * n
                for pos, q in enumerate(keep):
                    left[q] = ridx[pos]
                    right[q] = cidx[pos]
                for pos, q in enumerate(traced):
                    left[q] = tidx[pos]
                    right[q] = tidx[pos]
                acc += full[tuple(left) + tuple(right)]
            r = int(np.ravel_multi_index(ridx, [dims[q] for q in keep])) if keep else 0
            c = int(np.ravel_multi_index(cidx, [dims[q] for q in keep])) if keep else 0
            out[r, c] = acc
    return out


def embed_1q(op, qubit, num_qubits):
    """Full-register matrix of a single-qubit operator by Kronecker products."""
    full = np.array([[1.0 + 0.0j]])
    for q in range(num_qubits):
        full = np.kron(full, op if q == qubit else np.eye(2))
    return full


def kron_gate_unitary(gate, num_qubits):
    """Full-register gate unitary built from Kronecker-embedded factors.

    Rotations come from the matrix exponential of the Pauli generator;
    C-Phase is I - 2 |11><11| and CNOT is |0><0| (x) I + |1><1| (x) X.
    """
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    if gate.kind == "rotation":
        generator = sum(a * p for a, p in zip(gate.axis, (SX, SY, SZ)))
        return embed_1q(expm(-0.5j * gate.angle * generator), gate.qubits[0], num_qubits)
    if gate.kind == "hadamard":
        return embed_1q((SX + SZ) / np.sqrt(2.0), gate.qubits[0], num_qubits)
    if gate.kind == "cphase":
        a, b = gate.qubits
        both_one = embed_1q(one, a, num_qubits) @ embed_1q(one, b, num_qubits)
        return np.eye(2**num_qubits, dtype=complex) - 2.0 * both_one
    if gate.kind == "cnot":
        control, target = gate.qubits
        return embed_1q(zero, control, num_qubits) + embed_1q(one, control, num_qubits) @ embed_1q(
            SX, target, num_qubits
        )
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def embed_operator(op, qubits, num_qubits):
    """Full-register matrix of ``op`` on ``qubits`` (first listed most
    significant), entry by entry from the basis-index bits."""
    d = 2**num_qubits
    full = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            rbits = [(r >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            cbits = [(c >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            if any(rbits[q] != cbits[q] for q in range(num_qubits) if q not in qubits):
                continue
            sub_r = int("".join(str(rbits[q]) for q in qubits), 2)
            sub_c = int("".join(str(cbits[q]) for q in qubits), 2)
            full[r, c] = op[sub_r, sub_c]
    return full


def dense_kraus(rho, kraus, qubits, num_qubits):
    """sum_k K rho K^dag with each K embedded densely on ``qubits``."""
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        full = embed_operator(k, qubits, num_qubits)
        out += full @ rho @ full.conj().T
    return out


def dense_conditional_state(rho, i, j):
    """Qubit-C state and probability after projecting A, B of a 3-qubit
    matrix onto |ij>: dense projector, then index-sum partial trace."""
    ab = np.zeros((4, 4))
    ab[2 * i + j, 2 * i + j] = 1.0
    projector = np.kron(ab, np.eye(2))
    projected = projector @ np.asarray(rho) @ projector
    probability = float(np.trace(projected).real)
    return partial_trace_index_sum(projected / probability, [2, 2, 2], [2]), probability
