"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the package's own computational paths:
projections go through sorted simplex projection, tangles through the
Cayley hyperdeterminant (scalar form) and through CKW monogamy, the convex
roof of a rank-2 state through a linear program over spinors
(``rank_two_roof``), leakage through a 9x9 matrix exponential, process
matrices through direct
Kraus-operator basis expansion and through least squares over any complete
input set (``lstsq_process_tomography``), and gates, channels and
conditional states through dense full-register matrices. The textbook
teleportation circuit (Hadamards and CNOTs) is a Kronecker-built unitary
(``textbook_teleport_unitary``), Pauli strings are Kronecker products
(``kron_pauli``), and the witness threshold is the largest one-qubit
reduced eigenvalue (``biseparable_alpha``). Noisy
evolution has a per-gate Kraus-list reference (``kraus_apply_circuit``)
and a per-qubit block-update reference (``block_apply_circuit``), built
on full-register gate unitaries and their own duration rule
(``gate_duration``); the exact conditional channel of a circuit map is
read off its columns (``transfer_matrices``). Report text has the
standard-library JSON encoder (``json_report_text``), and the stacked
benchmark pipeline a run of one state at a time (``per_state_benchmark``).
"""

import json
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

import telebench.teleport_bench as tb
from telebench.circuit import CPHASE_PAIRS, Rotation
from telebench.qops import DensityMatrix, state_stack

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)  # |0><0|
ONE = np.diag([0.0, 1.0]).astype(complex)  # |1><1|
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


def argmin_truncate_spectra(vals):
    """The masked-argmin form of ``qops._truncate_spectra``, in place: per
    row, zero the most negative eigenvalue not yet zeroed, spread its value
    over the rest of those, and repeat until none is negative. It makes no
    use of the rows being sorted."""
    for v in vals:
        active = np.ones(v.shape[0], dtype=bool)
        while True:
            negative = active & (v < 0.0)
            if not negative.any():
                break
            idx = int(np.argmin(np.where(active, v, np.inf)))
            deficit = v[idx]
            v[idx] = 0.0
            active[idx] = False
            v[active] += deficit / active.sum()


def hyperdet_tangle(psi):
    """Three-tangle of a pure state as 4|Hdet| of the amplitude tensor."""
    (hdet,) = hyperdeterminants(np.reshape(psi, (1, 8)))
    return float(4.0 * abs(hdet))


def hyperdeterminants(kets):
    """Cayley hyperdeterminant of each ket of an (n, 8) stack, as a length-n
    complex array; one ket gives a length-1 array."""
    a = np.moveaxis(np.asarray(kets, dtype=complex).reshape(-1, 2, 2, 2), 0, -1)
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
    return d1 - 2.0 * d2 + 4.0 * d3


def _fibonacci_sphere(n):
    """n nearly uniform unit vectors (n, 3) on the sphere, along a Fibonacci spiral."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = np.pi * (1.0 + math.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _roof_lp(m, points):
    """Least average tangle over decompositions of M M^dag whose elements are
    along M u_k, u_k the spinors of the unit vectors ``points``; returns the
    value and the weights. With u u^dag = (I + n.sigma)/2, the constraint
    sum w_k u_k u_k^dag = I reads sum w = 2, sum w n = 0, and the average is
    sum w_k 4|Hdet(M u_k)| / |M u_k|^2."""
    theta, phi = np.arccos(np.clip(points[:, 2], -1.0, 1.0)), np.arctan2(points[:, 1], points[:, 0])
    spinors = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    kets = (m @ spinors).T
    cost = 4.0 * np.abs(hyperdeterminants(kets)) / np.sum(np.abs(kets) ** 2, axis=1)
    a_eq = np.vstack([np.ones(len(points)), points.T])
    tolerances = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    result = linprog(cost, A_eq=a_eq, b_eq=[2.0, 0.0, 0.0, 0.0], bounds=(0.0, None), method="highs", options=tolerances)
    assert result.status == 0, result.message
    return result.fun, result.x


def _zero_tangle_points(m):
    """Bloch vectors of the spinors u with Hdet(M u) = 0, plus both poles.

    Hdet(M (1, z)) is a quartic in z, fitted exactly from five samples; a
    root z is the spinor (1, z). Near such a point the tangle rises like the
    distance to it, so no grid point scores close to it."""
    samples = np.array([0.0, 1.0, -1.0, 1j, -1j])
    h = hyperdeterminants((m @ np.stack([np.ones(5), samples])).T)
    z = np.roots(np.linalg.solve(np.vander(samples, 5), h))
    scale = 1.0 + np.abs(z) ** 2
    roots = np.stack([2.0 * z.real / scale, 2.0 * z.imag / scale, (2.0 - scale) / scale], axis=1)
    return np.concatenate([roots, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


_ROOF_POINTS = 4000
_ROOF_ROUNDS = 6


def rank_two_roof(rho):
    """Convex-roof three-tangle of a rank-2 three-qubit state as a linear program.

    Every decomposition of rho = M M^dag (M = V sqrt(Lambda), 8 x 2) has
    elements sqrt(w_k) M u_k with sum w_k u_k u_k^dag = I (Hughston-Jozsa-
    Wootters), and its average tangle is linear in w, so over a finite set of
    spinors the least average is an LP. It is solved with HiGHS on a
    _ROOF_POINTS-point Fibonacci sphere and the zero-tangle points, then
    _ROOF_ROUNDS times more on those zeros, the support and three rings of
    12 points around each support point, their radius a third of the last
    round's. Every feasible point is an exact decomposition, so the value is
    an upper bound that converges to the roof (Lohmayer, Osterloh, Siewert
    and Uhlmann, PRL 97, 260502 (2006)). Its accuracy and its cost (about
    70 ms a state) were measured at these two fixed sizes only.
    """
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    assert vals[-3] < 1e-12 < vals[-2], "expected a rank-2 state"
    m = vecs[:, -2:] * np.sqrt(vals[-2:])
    zeros = _zero_tangle_points(m)
    n = np.concatenate([zeros, _fibonacci_sphere(_ROOF_POINTS)])
    value, w = _roof_lp(m, n)
    turns = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    radii = np.array([1.0, 2.0, 3.0]) * math.sqrt(4.0 * math.pi / _ROOF_POINTS) / 3.0
    for _ in range(_ROOF_ROUNDS):
        support = n[w > 0.0]
        rings = [zeros, support]
        for centre in support:
            e1 = np.cross(centre, [1.0, 0.0, 0.0] if abs(centre[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(centre, e1)
            tangents = np.cos(turns)[:, np.newaxis] * e1 + np.sin(turns)[:, np.newaxis] * e2
            for radius in radii:
                rings.append(np.cos(radius) * centre + np.sin(radius) * tangents)
        n = np.concatenate(rings)
        value, w = _roof_lp(m, n)
        radii = radii / 3.0
    return value


def wootters_concurrence(rho):
    """Concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit density matrix.

    The l_i^2 are the eigenvalues of rho (YY rho^* YY). Its nonzero ones
    equal those of the Hermitian A^dag (YY rho^* YY) A with rho = A A^dag
    over the support of rho; staying on the support keeps the exactly-zero
    eigenvalues, whose square roots would amplify rounding to ~1e-8, out.
    """
    yy = np.kron(SY, SY)
    w, u = np.linalg.eigh(rho)
    keep = w > 1e-12
    a = u[:, keep] * np.sqrt(w[keep])
    tilde = yy @ np.conj(rho) @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ tilde @ a), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - np.sum(lam[1:])))


def monogamy_tangle(psi):
    """Three-tangle of a pure state as the CKW residual
    C^2_A(BC) - C^2_AB - C^2_AC, with C^2_A(BC) = 4 det(rho_A)."""
    rho = DensityMatrix.from_ket(psi).matrix
    c2_a_bc = 4.0 * np.linalg.det(partial_trace_index_sum(rho, [2, 2, 2], [0])).real
    c_ab = wootters_concurrence(partial_trace_index_sum(rho, [2, 2, 2], [0, 1]))
    c_ac = wootters_concurrence(partial_trace_index_sum(rho, [2, 2, 2], [0, 2]))
    return float(c2_a_bc - c_ab**2 - c_ac**2)


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


def lstsq_process_tomography(input_kets, output_states):
    """Process matrix from any tomographically complete set of input kets
    and their outputs (DensityMatrix values or arrays): least squares on
    rho_out = sum_mn chi_mn B_m rho_in B_n^dag, with the design built column
    by column, then the sorted simplex projection onto the physical set.
    Raises unless the design has full rank (the reference for
    ``process_tomography``)."""
    rho_ins = [np.outer(psi, np.conj(psi)) for psi in input_kets]
    design = np.vstack(
        [np.array([(bm @ rho @ bn.conj().T).reshape(-1) for bm in CHI_BASIS for bn in CHI_BASIS]).T for rho in rho_ins]
    )
    if np.linalg.matrix_rank(design, tol=1e-9) < 16:
        raise ValueError("singular design matrix: input states are not tomographically complete")
    rhs = np.concatenate([np.asarray(getattr(out, "matrix", out)).reshape(-1) for out in output_states])
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return simplex_projection_psd(solution.reshape(4, 4))


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

    Rotations come from the matrix exponential of the Pauli generator, and
    C-Phase is I - 2 |11><11|.
    """
    if isinstance(gate, Rotation):
        generator = sum(a * p for a, p in zip(gate.axis, (SX, SY, SZ)))
        return embed_1q(expm(-0.5j * gate.angle * generator), gate.qubit, num_qubits)
    a, b = CPHASE_PAIRS[gate.pair]
    both_one = embed_1q(ONE, a, num_qubits) @ embed_1q(ONE, b, num_qubits)
    return np.eye(2**num_qubits, dtype=complex) - 2.0 * both_one


def closed_form_gate_unitary(gate):
    """:func:`kron_gate_unitary` of a three-qubit gate with a rotation's 2x2
    written as cos(angle/2) I - i sin(angle/2) axis.sigma. The matrix
    exponential is off by up to about 1e-15; this form is exact to a few
    roundings."""
    if not isinstance(gate, Rotation):
        return kron_gate_unitary(gate, 3)
    generator = sum(a * p for a, p in zip(gate.axis, (SX, SY, SZ)))
    half = 0.5 * gate.angle
    return embed_1q(math.cos(half) * np.eye(2) - 1j * math.sin(half) * generator, gate.qubit, 3)


def textbook_teleport_unitary():
    """The textbook teleportation circuit on A, B, C (Fig. 1a): Hadamard on B,
    CNOT B->C, CNOT A->B, Hadamard on A, then z flips on A and B that put
    the output into the compiled circuit's sign frame. Each CNOT is
    |0><0| (x) I + |1><1| (x) X on its control and target."""
    h = (SX + SZ) / np.sqrt(2.0)

    def cnot(control, target):
        return embed_1q(ZERO, control, 3) + embed_1q(ONE, control, 3) @ embed_1q(SX, target, 3)

    steps = (embed_1q(h, 1, 3), cnot(1, 2), cnot(0, 1), embed_1q(h, 0, 3), embed_1q(SZ, 0, 3), embed_1q(SZ, 1, 3))
    u = np.eye(8, dtype=complex)
    for step in steps:
        u = step @ u
    return u


def kron_pauli(label):
    """The operator of a Pauli string such as "XIZ", qubit A leftmost, as a
    Kronecker product of 2x2 Paulis."""
    op = np.array([[1.0 + 0.0j]])
    for ch in label:
        op = np.kron(op, {"I": np.eye(2, dtype=complex), "X": SX, "Y": SY, "Z": SZ}[ch])
    return op


def biseparable_alpha(phi):
    """Maximal squared overlap of any biseparable state with the three-qubit
    ket ``phi``: the largest squared Schmidt coefficient over the three
    one-vs-two qubit cuts, i.e. the largest eigenvalue among the three
    single-qubit reduced states."""
    rho = np.outer(phi, np.conj(phi))
    return max(float(np.linalg.eigvalsh(partial_trace_index_sum(rho, [2, 2, 2], [q]))[-1]) for q in range(3))


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


def damping_channels(duration, device, qubit):
    """Kraus set for amplitude damping plus pure dephasing of one device qubit.

    Amplitude damping uses gamma = 1 - exp(-duration/T1); the dephasing
    probability follows from the pure-dephasing rate
    1/Tphi = 1/T2* - 1/(2*T1), which ``DeviceParams`` keeps non-negative.
    """
    t1, t2_star = device.t1[qubit], device.t2_star[qubit]
    phi_rate = max(1.0 / t2_star - 1.0 / (2.0 * t1), 0.0)
    gamma = 1.0 - math.exp(-duration / t1)
    p = 0.5 * (1.0 - math.exp(-duration * phi_rate))
    amp = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    deph = [math.sqrt(1.0 - p) * np.eye(2), math.sqrt(p) * SZ]
    return [d @ a for d in deph for a in amp]


def apply_kraus(arr, ops, qubits, num_qubits):
    """sum_k K rho K^dag with each K contracted on ``qubits`` of the (2,)*2n tensor."""
    k = len(qubits)
    bras = [num_qubits + q for q in qubits]
    t = arr.reshape((2,) * (2 * num_qubits))
    out = np.zeros_like(t)
    for op in ops:
        op_t = op.reshape((2,) * (2 * k))
        ket = np.tensordot(op_t, t, axes=(list(range(k, 2 * k)), list(qubits)))
        ket = np.moveaxis(ket, list(range(k)), list(qubits))
        bra = np.tensordot(ket, op_t.conj(), axes=(bras, list(range(k, 2 * k))))
        out += np.moveaxis(bra, list(range(-k, 0)), bras)
    return out.reshape(arr.shape)


def gate_duration(gate, device):
    """A gate's duration on the device: the single-qubit gate time for a
    rotation, the full avoided-crossing period 1/(2J) of its pair's
    coupling for a C-Phase."""
    if isinstance(gate, Rotation):
        return device.single_qubit_gate_time
    return 1.0 / (2.0 * (device.j_ab if gate.pair == "AB" else device.j_bc))


def kraus_apply_circuit(circuit, rho, device):
    """Noisy evolution as one Kraus list per gate and channel: the gate, then
    damping and dephasing on every qubit for the gate's duration."""
    arr = np.array(rho, dtype=complex)
    for gate in circuit.gates:
        arr = apply_kraus(arr, [kron_gate_unitary(gate, 3)], (0, 1, 2), 3)
        duration = gate_duration(gate, device)
        for q in range(3):
            arr = apply_kraus(arr, damping_channels(duration, device, q), (q,), 3)
    return arr


def qubit_blocks(t, q):
    """View of a (B,) + (2,)*2n stack with qubit ``q``'s (ket, bra) axes first."""
    n = (t.ndim - 1) // 2
    return np.moveaxis(t, (1 + q, 1 + n + q), (0, 1))


def decohere_qubit(t, duration, device, q):
    """Amplitude damping plus pure dephasing of qubit ``q`` for ``duration``, in place.

    ``t`` is a (B,) + (2,)*2n stack of states. gamma = 1 - exp(-duration/T1)
    and p = (1 - exp(-duration/Tphi))/2, with the pure-dephasing rate
    1/Tphi = 1/T2* - 1/(2*T1) >= 0. On the (ket q, bra q) blocks:
    b00 += gamma*b11, b11 *= 1 - gamma, b01 and b10 *= sqrt(1 - gamma)*(1 - 2p).
    """
    t1, t2_star = device.t1[q], device.t2_star[q]
    gamma = 1.0 - math.exp(-duration / t1)
    p = 0.5 * (1.0 - math.exp(-duration * max(1.0 / t2_star - 1.0 / (2.0 * t1), 0.0)))
    b = qubit_blocks(t, q)
    b[0, 0] += gamma * b[1, 1]
    b[1, 1] *= 1.0 - gamma
    b[0, 1] *= math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p)
    b[1, 0] *= math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p)


def block_apply_circuit(circuit, rho, device=None):
    """Noisy evolution of a state or a sequence of states as one block update
    per qubit per gate, on strided views of the (B,) + (2,)*6 stack: the
    gate's conjugation by :func:`closed_form_gate_unitary`, then
    ``decohere_qubit`` on every qubit in order. Returns the (B, 8, 8) array."""
    m, _ = state_stack(rho)
    for gate in circuit.gates:
        u = closed_form_gate_unitary(gate)
        m = u @ m @ u.conj().T
        if device is None:
            continue
        t = m.reshape((len(m),) + (2,) * 6)
        duration = gate_duration(gate, device)
        for q in range(3):
            decohere_qubit(t, duration, device, q)
    return m


def transfer_matrices(s):
    """The exact conditional channel of a three-qubit circuit map ``s`` (64x64,
    on row-major vec(rho)) for the input |psi>|00>: per outcome ij, the 4x4
    matrix T_ij taking row-major vec(rho_A) to the unnormalised qubit-C
    state of outcome ij. Column 2a + b is ``s`` applied to
    |a><b| (x) |00><00|, with the AB = ij block kept."""
    columns = []
    for a in range(2):
        for b in range(2):
            unit = np.zeros((8, 8), dtype=complex)
            unit[4 * a, 4 * b] = 1.0
            columns.append((s @ unit.reshape(-1)).reshape(8, 8))
    transfers = {}
    for i in range(2):
        for j in range(2):
            k = 4 * i + 2 * j
            transfers[f"{i}{j}"] = np.array([col[k : k + 2, k : k + 2].reshape(-1) for col in columns]).T
    return transfers


def round_sig(value, digits: int = 12):
    """Round floats to a fixed significant-digit budget, recursively."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_sig(v, digits) for v in value]
    return value


def json_report_text(report) -> str:
    """A report's text as ``json.dumps`` writes it after rounding every float
    to 12 significant digits (the reference for ``report_json_text``)."""
    return json.dumps(round_sig(report), sort_keys=True, indent=2) + "\n"


def per_state_entry(rho_out, label, shots, seed, restarts):
    """One input's state stage run on its own: readout of the evolved
    state, reconstruction, state fidelity and Pauli sets, plus witness and
    tangle bound for the entangled inputs (the reference for the stacked
    state stage). Returns the figures of merit and the reconstructed state."""
    index = tb.INPUT_LABELS.index(label)
    rho_m = tb.mle_reconstruct(tb.simulate_readout(rho_out, shots, tb._derived_seed(seed, 0, index)))
    phi = tb._IDEAL_KETS[label]
    entry = {
        "state_fidelity": tb.state_fidelity_pure(rho_m, phi),
        "pauli_set": tb._pack_pauli_set(tb.pauli_set(rho_m)),
        "pauli_set_ideal": tb._pack_pauli_set(tb._IDEAL_PAULI_SETS[label]),
    }
    if label in tb.ENTANGLED_INPUT_LABELS:
        entry["witness"] = tb.witness_evaluate(rho_m, phi, tb.WITNESS_ALPHA).to_dict()
        # A run's entangled inputs share one tangle stream, that of minus.
        tangle_seed = tb._derived_seed(seed, 1, tb.INPUT_LABELS.index("minus"))
        entry["three_tangle_upper"] = tb.three_tangle_mixed_upper(rho_m, restarts=restarts, seed=tangle_seed)
    return entry, rho_m


def per_state_benchmark(device, shots=0, seed=0, noise=False, restarts=200):
    """``run_benchmark`` one state at a time: each input is evolved, read
    out, reconstructed and projected onto each outcome on its own, then the
    four conditional states of an outcome go to the least-squares process
    tomography reference, scored by its own clamped Re Tr(chi . chi_ideal).
    An outcome's probability is the trace of its dense projection; one that
    vanishes for some input is skipped, with no conditional fidelity for any
    input."""
    states = {}
    conditionals = {outcome: [] for outcome in tb.OUTCOMES}
    for label in tb.INPUT_LABELS:
        rho_out = tb.apply_circuit(tb._CIRCUIT, tb._INPUT_STATES[label], device if noise else None)
        entry, rho_m = per_state_entry(rho_out, label, shots, seed, restarts)
        entry["outcomes"] = {}
        for outcome in tb.OUTCOMES:
            projector = np.kron(np.diag(np.eye(4)[int(outcome, 2)]), np.eye(2))
            probability = float(np.trace(projector @ rho_m.matrix @ projector).real)
            fidelity = None
            if probability >= tb.VANISHING_PROBABILITY:
                rho_c, _ = tb.conditional_output_state(rho_m, outcome)
                fidelity = tb.state_fidelity_pure(rho_c, tb.TELEPORT_BRANCH_OPS[outcome] @ tb.INPUT_KETS[label])
                conditionals[outcome].append(rho_c)
            entry["outcomes"][outcome] = {"probability": probability, "conditional_fidelity": fidelity}
        states[label] = entry

    processes, fps, fbars = {}, [], []
    for outcome in tb.OUTCOMES:
        probabilities = [states[label]["outcomes"][outcome]["probability"] for label in tb.INPUT_LABELS]
        if min(probabilities) < tb.VANISHING_PROBABILITY:
            for label in tb.INPUT_LABELS:
                states[label]["outcomes"][outcome]["conditional_fidelity"] = None
            processes[outcome] = {"skipped": True}
            continue
        if any(
            (p < tb.ANALYTIC_PROBABILITY_FLOOR) if shots == 0 else (p * shots < tb.SAMPLED_MIN_COUNTS)
            for p in probabilities
        ):
            processes[outcome] = {"skipped": True}
            continue
        chi = lstsq_process_tomography([tb.INPUT_KETS[label] for label in tb.INPUT_LABELS], conditionals[outcome])
        fp = min(1.0, max(0.0, float(np.trace(chi @ tb.ideal_chi(outcome)).real)))
        fbar = tb.average_output_fidelity(fp)
        processes[outcome] = {
            "skipped": False,
            "chi": tb._pack_matrix(chi),
            "process_fidelity": fp,
            "average_output_fidelity": fbar,
        }
        fps.append(fp)
        fbars.append(fbar)
    return {
        "schema": tb.SCHEMA_VERSION,
        "metadata": tb._metadata(device, shots, seed, noise, restarts),
        "states": states,
        "processes": processes,
        "averages": {
            "mean_state_fidelity": float(np.mean([states[label]["state_fidelity"] for label in tb.INPUT_LABELS])),
            "mean_process_fidelity": float(np.mean(fps)) if fps else None,
            "mean_average_output_fidelity": float(np.mean(fbars)) if fbars else None,
        },
        "paper_reference": tb.PAPER_REFERENCE,
    }
