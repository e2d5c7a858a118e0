"""Independent dense-matrix references for the bit-level simulator kernels.

Everything here is built from literal 2x2 matrices and Kronecker products,
reading only the documented (x, z, phase) encoding, so agreement with the
package's bitwise arithmetic is a genuine cross-check.
"""
import numpy as np

from framesim import Circuit, PauliString, _kernels

I2 = np.eye(2, dtype=complex)
LETTER = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j]).astype(complex)
GATE_1Q = {"H": H, "S": S, "SDG": S.conj().T,
           "X": LETTER["X"], "Y": LETTER["Y"], "Z": LETTER["Z"]}
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Kronecker-product matrix of a PauliString, straight from its bits."""
    m = np.array([[1.0 + 0j]])
    for j in reversed(range(p.num_qubits)):
        letter = BITS[(p.x_bits >> j) & 1, (p.z_bits >> j) & 1]
        m = np.kron(m, LETTER[letter])
    return (1j ** p.phase_exp) * m


def rotation_matrix(p: PauliString, theta: float) -> np.ndarray:
    """exp(-i theta P / 2) in closed form, valid because P**2 = I."""
    dim = 1 << p.num_qubits
    return np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * pauli_matrix(p)


def embed_1q(m: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for j in reversed(range(num_qubits)):
        full = np.kron(full, m if j == qubit else I2)
    return full


def gate_unitary(tag: str, qubits, num_qubits: int, angle=None) -> np.ndarray:
    if tag in GATE_1Q:
        return embed_1q(GATE_1Q[tag], qubits[0], num_qubits)
    if tag in ("RX", "RY", "RZ"):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        m = {"RX": np.array([[c, -1j * s], [-1j * s, c]]),
             "RY": np.array([[c, -s], [s, c]]),
             "RZ": np.diag([c - 1j * s, c + 1j * s])}[tag]
        return embed_1q(m, qubits[0], num_qubits)
    if tag == "CX":
        c, t = qubits
        return (embed_1q(P0, c, num_qubits)
                + embed_1q(P1, c, num_qubits) @ embed_1q(LETTER["X"], t, num_qubits))
    if tag == "CZ":
        c, t = qubits
        return (embed_1q(P0, c, num_qubits)
                + embed_1q(P1, c, num_qubits) @ embed_1q(LETTER["Z"], t, num_qubits))
    if tag == "SWAP":
        a, b = qubits
        dim = 1 << num_qubits
        m = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            ka, kb = (k >> a) & 1, (k >> b) & 1
            kk = k ^ (((ka ^ kb) << a) | ((ka ^ kb) << b))
            m[kk, k] = 1.0
        return m
    raise ValueError(f"no oracle for gate {tag!r}")


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Dense product of the gate stream (first gate applied first)."""
    u = np.eye(1 << circ.num_qubits, dtype=complex)
    for g in circ.gates:
        u = gate_unitary(g.tag, g.qubits, circ.num_qubits, g.angle) @ u
    return u


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integer bit vectors, by elimination on the lowest
    set bit (the package's ``gf2`` eliminates on the highest)."""
    rank, rows = 0, [v for v in vectors if v]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r for r in (r ^ pivot if r & low else r for r in rows) if r]
        rank += 1
    return rank


def frame_is_valid(frame) -> bool:
    """``PauliFrame.validate`` pair by pair: every phase even, every pair of
    eff_z rows and every pair of eff_x rows commuting, and eff_z[i]
    anticommuting with eff_x[j] exactly when i == j."""
    n = frame.num_qubits
    zs = [frame.eff_z(i) for i in range(n)]
    xs = [frame.eff_x(i) for i in range(n)]
    if any(p.phase_exp % 2 for p in zs + xs):
        return False
    return all(zs[i].anticommutes(zs[j]) == 0 and xs[i].anticommutes(xs[j]) == 0
               and zs[i].anticommutes(xs[j]) == (i == j)
               for i in range(n) for j in range(n))


def index_mapped(amplitudes, rows) -> np.ndarray:
    """P_A applied to the amplitudes, P_A|k> = |A k> for the GF(2) matrix
    with row masks ``rows``, (A k)_i = parity(rows[i] & k): the hybrid's
    register as the plain state it stands for."""
    k = np.arange(len(amplitudes), dtype=np.int64)
    image = np.zeros_like(k)
    for i, r in enumerate(rows):
        image |= (np.bitwise_count(k & np.int64(r)).astype(np.int64) & 1) << i
    out = np.zeros_like(amplitudes)
    out[image] = amplitudes
    return out


def up_to_omega(out, ref) -> np.ndarray:
    """ref times the power w**r, w = exp(i*pi/4), that brings its largest
    entry nearest to out's entry there.  out equals it within rounding only
    if out is ref times w**r for one integer r."""
    k = np.argmax(np.abs(ref))
    r = round(float(np.angle(out.flat[k] / ref.flat[k])) / (np.pi / 4))
    return ref * np.exp(1j * np.pi / 4 * r)


# ----------------------------------------------------------------------
# random generators shared by the test modules

CLIFFORD_1Q = ("H", "S", "SDG", "X", "Y", "Z")
CLIFFORD_2Q = ("CX", "CZ", "SWAP")


def random_pauli(rng, num_qubits, signed=False, nontrivial=False) -> PauliString:
    while True:
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        if not nontrivial or x | z:
            break
    phase = 2 * int(rng.integers(2)) if signed else 0
    return PauliString(num_qubits, x, z, phase)


def all_paulis(num_qubits):
    for x in range(1 << num_qubits):
        for z in range(1 << num_qubits):
            yield PauliString(num_qubits, x, z)


def append_random_clifford(circ: Circuit, rng) -> None:
    n = circ.num_qubits
    if n >= 2 and rng.random() < 0.4:
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        circ.append(CLIFFORD_2Q[rng.integers(len(CLIFFORD_2Q))], a, b)
    else:
        circ.append(CLIFFORD_1Q[rng.integers(len(CLIFFORD_1Q))], int(rng.integers(n)))


def random_clifford_circuit(rng, num_qubits, length) -> Circuit:
    circ = Circuit(num_qubits)
    for _ in range(length):
        append_random_clifford(circ, rng)
    return circ


def random_mixed_circuit(rng, num_qubits, length, p_rotation=0.25,
                         p_measure=0.05, p_prep=0.03) -> Circuit:
    """Cliffords, axis rotations and mid-circuit measurements/preps."""
    circ = Circuit(num_qubits)
    for _ in range(length):
        r = rng.random()
        if r < p_rotation:
            circ.append(("RX", "RY", "RZ")[rng.integers(3)], int(rng.integers(num_qubits)),
                        angle=float(rng.uniform(-np.pi, np.pi)))
        elif r < p_rotation + p_measure:
            circ.append("MEASZ", int(rng.integers(num_qubits)))
        elif r < p_rotation + p_measure + p_prep:
            circ.append("PREPZ", int(rng.integers(num_qubits)))
        else:
            append_random_clifford(circ, rng)
    return circ


def on_clone(clone, fn):
    """fn, run with the compiled loops switched to clone ``clone``."""
    def run(*args):
        before = _kernels._use_clone(clone)
        try:
            return fn(*args)
        finally:
            _kernels._use_clone(before)
    return run


def compiled_clones(fn) -> dict:
    """The compiled loop fn on every clone this CPU runs: ``compiled`` on
    the clone the library picked at load, ``compiled-<clone>`` on each
    other one.  Empty on the numpy tier."""
    if _kernels.kernel_tier() != "compiled-c":
        return {}
    picked = _kernels.simd_clone()
    return {("compiled" if clone == picked else f"compiled-{clone}"): on_clone(clone, fn)
            for clone in sorted(_kernels._CLONES, key=lambda c: c != picked)}


def blocked_qubits(limit: int = 22) -> int | None:
    """The smallest qubit count n whose 2**n amplitudes, 16 bytes each, hold
    more bytes than the L2 cache that the compiled gate loop read: the
    register size from which it blocks its runs of rotations.  None on the
    numpy tier, where the system reported no L2 size, or above ``limit``."""
    l2 = _kernels.l2_bytes()
    n = (l2 // 16).bit_length() if l2 else None
    return n if n is not None and n <= limit else None


def clifford_whole_array(amp, x, z, ca, cb, e0) -> None:
    """``_kernels.numpy_clifford`` as one whole-array expression: the
    bit-for-bit reference of its per-element arithmetic."""
    k = np.arange(amp.shape[0], dtype=np.int64)
    sg = 1.0 - 2.0 * (np.bitwise_count(k & np.int64(z)) & 1)
    amp[:] = ca * amp + cb * np.array([1, 1j, -1, -1j])[e0 & 3] * sg * amp[k ^ np.int64(x)]
