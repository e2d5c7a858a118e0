"""Dense 2**n-amplitude state vector with four update families.

Besides the usual per-gate kernels of a fullstate simulator, the state
supports *native* multi-qubit Pauli rotations R_P(theta) = exp(-i theta P/2).
A Pauli P permutes basis states in pairs {k, k XOR x_bits(P)} with a phase
that is a pure bit computation, so one rotation costs a single pass over
the amplitudes regardless of how many qubits P touches.  That flatness in
operator weight is the whole point of the hybrid backend built on top.

``StateVector`` holds no amplitude loop of its own.  Every update of the
form ca*I + cb*i**e*P with real ca and cb -- rotations by any angle (the
flush's quarter turns among them), Pauli application (and with it the
expectation and the prepare repair), the measurement collapse, and the
baseline's X, Y, RX, RY and RZ -- goes through the Clifford loop of
``_kernels``, which applies each power of i without a complex multiply.
H goes through its Hadamard loop, and CX, SWAP and ``swap_qubits``, as
well as Z, S, SDG and CZ, which change only the amplitudes whose qubits
are set, through its masked pair exchange.  A whole Clifford without a
Hadamard part (``apply_hadamard_free``, the rest of a flush) goes through
its affine and shear passes, which move whole tiles of amplitudes.  All of
them update the amplitudes in place.

Index convention: bit j of the amplitude index is the computational value
of qubit j (qubit 0 = least significant bit).
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import _kernels, gf2
from .circuit import ROTATION_AXIS
from .frame import HadamardFree
from .pauli import PauliString

# a measurement branch below this probability is an error, not a draw
_NORM_TOLERANCE = 1e-10
# largest imaginary part tolerated in the expectation of a Hermitian operator
_IMAG_TOLERANCE = 1e-9
# bytes of a cache line, the alignment of the amplitudes a state allocates
_LINE_BYTES = 64
# exp(i*pi/4) to the power 0..7, with the exact values where they exist
_SQ2 = 0.7071067811865476  # cos(pi/4)
_OMEGA = (1.0, complex(_SQ2, _SQ2), 1j, complex(-_SQ2, _SQ2),
          -1.0, complex(-_SQ2, -_SQ2), -1j, complex(_SQ2, -_SQ2))
# the baseline's X and Y, as arguments (x, z, e0) of ``_kernels.clifford``
# from the single-bit mask of their qubit, with ca = 0 and cb = 1
_CLIFFORD_1Q = {
    "X": lambda b: (b, 0, 0),
    "Y": lambda b: (b, b, 3),
}
# the gates that swap or phase a masked subset of the amplitudes, as
# arguments (mask, val, x, e) of ``_kernels.pair_exchange`` from the
# single-bit masks of their qubits: Z, S, SDG and CZ multiply the
# amplitudes whose qubits are all set by i**e
_EXCHANGE = {
    "Z": lambda b: (b, b, 0, 2),
    "S": lambda b: (b, b, 0, 1),
    "SDG": lambda b: (b, b, 0, 3),
    "CX": lambda c, t: (c | t, c, t, 0),
    "CZ": lambda a, b: (a | b, a | b, 0, 2),
    "SWAP": lambda a, b: (a | b, b, a | b, 0),
}


def _aligned_zeros(dim: int) -> np.ndarray:
    """dim complex128 zeros starting on a cache line.  numpy aligns a large
    array to 16 bytes only, and then every other 32-byte vector of the
    compiled loops straddles two cache lines."""
    raw = np.zeros(dim + _LINE_BYTES // 16, dtype=np.complex128)
    skip = (-raw.ctypes.data % _LINE_BYTES) // 16
    return raw[skip:skip + dim]


def _aligned_copy(amp: np.ndarray) -> np.ndarray:
    """A copy of the amplitudes amp, starting on a cache line."""
    out = _aligned_zeros(amp.shape[0])
    out[:] = amp
    return out


def tile_factors(rows, b: int) -> tuple[list[int], list[int], list[int]]:
    """Split the invertible GF(2) matrix A (row masks ``rows``) as A = L U G
    for tiles of 2**b amplitudes.  Returns the rows of G, the b columns of
    U - I and the n - b columns of L - I, as ``_kernels.shear`` takes them.

    An index k splits into its tile bits t (bits b and up) and position
    bits l (below b).  G maps tiles onto tiles: the tile of G k depends on
    t only.  U is the upper shear t ^= B l, and L the lower shear l ^= M t.
    rank B is the rank of the block of A from position bits to tile bits,
    the least it can be, and U = I when that block is 0.  This is a
    parabolic Bruhat decomposition of A:

    1. Choose M so that L A has an invertible position block: row by row, a
       position row of A whose low part depends on the rows already kept
       gets a tile row added whose low part does not.  One exists, because
       the columns of A below b are independent.
    2. B expresses the low part of each tile row of L A in the low parts of
       its position rows; G = U L A then has tile rows without low bits.
    """
    n = len(rows)
    lo = (1 << b) - 1
    a = list(rows)
    down = [0] * (n - b)
    kept = gf2.Echelon()
    for i in range(b):
        if not kept.reduce(a[i] & lo)[0]:
            j = next((j for j in range(b, n) if kept.reduce(a[j] & lo)[0]), None)
            if j is None:
                raise ValueError("matrix is singular")
            a[i] ^= a[j]
            down[j - b] |= 1 << i
        kept.add(a[i] & lo)
    low = gf2.Echelon()
    for i in range(b):
        if low.add(a[i] & lo, 1 << i)[0] == 0:
            raise ValueError("matrix is singular")
    up = [0] * b
    for j in range(b, n):
        bits = low.reduce(a[j] & lo)[1]
        while bits:
            lowbit = bits & -bits
            i = lowbit.bit_length() - 1
            a[j] ^= a[i]
            up[i] |= 1 << j
            bits ^= lowbit
    return a, up, down


def _shear(up, down, b: int, k: int) -> int:
    """The index L U k, for the columns of ``tile_factors``."""
    for i, col in enumerate(up):
        if k >> i & 1:
            k ^= col
    for j, col in enumerate(down):
        if k >> (b + j) & 1:
            k ^= col
    return k


def _pauli_update(amp: np.ndarray, p: PauliString, ca: float, cb: float, e: int) -> None:
    """amp <- ca*amp + cb * i**e * P*amp in place, in one pass of the Clifford loop.

    P|k> = i**(phase_exp + n_y) * (-1)**parity(k & z) * |k ^ x>, so
    (P*amp)[k] = i**(phase_exp - n_y) * (-1)**parity(k & z) * amp[k ^ x]:
    the partner's sign differs from k's by parity(x & z) = parity(n_y).
    ca and cb are real.
    """
    if 1 << p.num_qubits != amp.shape[0]:
        raise ValueError(f"operator on {p.num_qubits} qubits applied to "
                         f"{amp.shape[0].bit_length() - 1}-qubit state")
    e0 = (e + p.phase_exp - p.y_mask.bit_count()) & 3
    _kernels.clifford(amp, p.x_bits, p.z_bits, ca, cb, e0)


class StateVector:
    """Mutable register of 2**num_qubits complex double amplitudes."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes=None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            amp = _aligned_zeros(dim)
            amp[0] = 1.0
        else:
            amp = np.asarray(amplitudes).reshape(-1)
            if amp.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amp.size}")
            amp = _aligned_copy(amp)
        self.amplitudes = amp

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """|0...0>, the all-zeros computational state."""
        return cls(num_qubits)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def prefix(self, num_qubits: int) -> "StateVector":
        """The first 2**num_qubits amplitudes as a state of their own, which
        shares them: an update of it updates this state.  The hybrid's
        register runs its operations on it (``backends.HybridState``)."""
        if not 1 <= num_qubits <= self.num_qubits:
            raise ValueError(f"prefix of {num_qubits} qubits of a "
                             f"{self.num_qubits}-qubit state")
        out = StateVector.__new__(StateVector)
        out.num_qubits = num_qubits
        out.amplitudes = self.amplitudes[:1 << num_qubits]
        return out

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.amplitudes = _aligned_copy(self.amplitudes)
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    # ------------------------------------------------------------------
    # multi-qubit Pauli operations

    def apply_pauli(self, p: PauliString) -> None:
        """In-place permutation-plus-phase update |state> <- P|state>."""
        _pauli_update(self.amplitudes, p, 0.0, 1.0, 0)

    def apply_pauli_rotation(self, p: PauliString, theta: float) -> None:
        """Apply R_P(theta) = exp(-i theta P / 2) in one amplitude pass.

        P may carry a sign (R_{-P}(theta) = R_P(-theta)) but must be
        Hermitian.  The cost is one pass over the amplitudes whatever the
        weight of P.
        """
        if not p.is_hermitian:
            raise ValueError("rotation axis must be Hermitian (phase_exp 0 or 2)")
        half_angle = 0.5 * theta
        _pauli_update(self.amplitudes, p, math.cos(half_angle), math.sin(half_angle), 3)

    def apply_hadamard_free(self, form: HadamardFree) -> tuple[int, int]:
        """Apply the Clifford without a Hadamard part that ``form`` describes,
        |k> -> w**eighths * i**q(k) |A k ^ b> (w = exp(i*pi/4)), in place.

        ``tile_factors`` splits A into L U G for the tiles of the kernels,
        so this is at most two passes: ``_kernels.affine`` for G with the
        offset and the phase, and ``_kernels.shear`` for the shears U and L
        unless both are I.  The identity makes no pass.  Returns the number
        of affine passes and of shear passes.
        """
        n = self.num_qubits
        if len(form.rows) != n:
            raise ValueError(f"{len(form.rows)}-qubit Clifford applied to {n}-qubit state")
        if form.is_identity():
            return 0, 0
        b = _kernels.tile_bits(n)
        g, up, down = tile_factors(form.rows, b)
        # A k ^ c = L U (G k ^ U L c): the shears are their own inverses
        offset = _shear(up, [], b, _shear([], down, b, form.offset))
        _kernels.affine(self.amplitudes, gf2.columns(g, n), offset, form.diag, form.cross,
                        _OMEGA[form.eighths & 7])
        if not any(up) and not any(down):
            return 1, 0
        _kernels.shear(self.amplitudes, up, down)
        return 1, 1

    # ------------------------------------------------------------------
    # observables, measurement, preparation

    def expectation(self, p: PauliString) -> float:
        """Re <state|P|state> for Hermitian P (sign included)."""
        if not p.is_hermitian:
            raise ValueError("expectation requires a Hermitian operator")
        applied = _aligned_copy(self.amplitudes)
        _pauli_update(applied, p, 0.0, 1.0, 0)
        val = np.vdot(self.amplitudes, applied)
        if abs(val.imag) >= _IMAG_TOLERANCE:
            raise RuntimeError(f"non-real Pauli expectation {val}")
        return float(val.real)

    def measure(self, p: PauliString, rng) -> int:
        """Projectively measure Hermitian P; collapse and return +1 or -1."""
        if not p.is_hermitian:
            raise ValueError("measurement requires a Hermitian operator")
        rng = np.random.default_rng(rng)
        p_plus = min(max((1.0 + self.expectation(p)) / 2.0, 0.0), 1.0)
        outcome = 1 if rng.random() < p_plus else -1
        p_branch = p_plus if outcome == 1 else 1.0 - p_plus
        if p_branch < _NORM_TOLERANCE:
            raise RuntimeError("measurement drew a probability-zero branch")
        # (I + outcome*P)/2 projects; 1/sqrt(p_branch) renormalizes
        scale = 0.5 / math.sqrt(p_branch)
        _pauli_update(self.amplitudes, p, scale, outcome * scale, 0)
        return outcome

    def prepare(self, stab: PauliString, destab: PauliString, rng) -> None:
        """Project into the +1 eigenspace of ``stab``.

        Implemented as a measurement of ``stab``; a -1 outcome is repaired by
        applying the anticommuting ``destab``, which flips the eigenvalue.
        """
        if stab.anticommutes(destab) != 1:
            raise ValueError("stabilizer and destabilizer must anticommute")
        if self.measure(stab, rng) == -1:
            self.apply_pauli(destab)

    # ------------------------------------------------------------------
    # gate-by-gate kernels (baseline backend)

    def apply_gate(self, tag: str, qubits, angle: float | None = None) -> None:
        """Standard 1-/2-qubit unitary on the given qubit(s).

        Rotations follow R_A(theta) = exp(-i theta A / 2).
        """
        qubits = tuple(qubits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        if tag in _CLIFFORD_1Q:
            x, z, e0 = _CLIFFORD_1Q[tag](1 << qubits[0])
            _kernels.clifford(self.amplitudes, x, z, 0.0, 1.0, e0)
        elif tag in ROTATION_AXIS:
            if angle is None:
                raise ValueError(f"{tag} requires an angle")
            self.apply_pauli_rotation(
                PauliString.single(self.num_qubits, qubits[0], ROTATION_AXIS[tag]), angle)
        elif tag == "H":
            _kernels.apply_h(self.amplitudes, qubits[0])
        elif tag in _EXCHANGE:
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"{tag} needs distinct qubits, got {qubits}")
            _kernels.pair_exchange(self.amplitudes, *_EXCHANGE[tag](*[1 << q for q in qubits]))
        else:
            raise ValueError(f"unknown gate tag {tag!r}")

    def swap_qubits(self, a: int, b: int) -> None:
        """Exchange the roles of qubits a and b by index relabeling, in place."""
        if a != b:
            _kernels.pair_exchange(self.amplitudes, *_EXCHANGE["SWAP"](1 << a, 1 << b))

    # ------------------------------------------------------------------
    # readout and serialization

    def amplitude(self, k: int) -> complex:
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        return complex(self.amplitudes[k])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def top_amplitudes(self, m: int = 8) -> list[tuple[int, complex]]:
        """The m largest-magnitude amplitudes as (index, value), for debugging."""
        m = min(m, self.dim)
        order = np.argsort(np.abs(self.amplitudes))[::-1][:m]
        return [(int(k), complex(self.amplitudes[k])) for k in order]

    def write_binary(self, stream) -> None:
        """Little-endian dump: one 8-byte qubit count, then (re, im) doubles."""
        stream.write(struct.pack("<Q", self.num_qubits))
        stream.write(self.amplitudes.astype("<c16").tobytes())

    @classmethod
    def read_binary(cls, stream) -> "StateVector":
        (n,) = struct.unpack("<Q", stream.read(8))
        data = np.frombuffer(stream.read(16 * (1 << n)), dtype="<c16")
        return cls(int(n), data)
