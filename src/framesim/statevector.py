"""Dense 2**n-amplitude state vector with three update families.

Besides the usual per-gate kernels of a fullstate simulator, the state
supports *native* multi-qubit Pauli rotations R_P(theta) = exp(-i theta P/2).
A Pauli P permutes basis states in pairs {k, k XOR x_bits(P)} with a phase
that is a pure bit computation, so one rotation costs a single pass over
the amplitudes regardless of how many qubits P touches.  That flatness in
operator weight is the whole point of the hybrid backend built on top.

``StateVector`` holds no amplitude loop of its own.  Every update of the
form ca*I + cb*i**e*P with real ca and cb -- rotations by any angle and
by multiples of pi/2 (``apply_clifford_rotation``, which the flush uses),
Pauli application (and with it the expectation and the prepare repair),
the measurement collapse, and the baseline's X, Y, RX, RY and RZ -- and
every product of single-qubit Cliffords without a Hadamard part
(``apply_monomial``, the flush's folded run) goes through the Clifford
loop of ``_kernels``, which applies each power of i without a complex
multiply.  H goes through its Hadamard loop, and CX, SWAP and
``swap_qubits``, as well as Z, S, SDG and CZ, which change only the
amplitudes whose qubits are set, through its masked pair exchange.  All of
them update the amplitudes in place.

Index convention: bit j of the amplitude index is the computational value
of qubit j (qubit 0 = least significant bit).
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import _kernels
from .circuit import ROTATION_AXIS
from .pauli import PauliString

# a measurement branch below this probability is an error, not a draw
_NORM_TOLERANCE = 1e-10
# largest imaginary part tolerated in the expectation of a Hermitian operator
_IMAG_TOLERANCE = 1e-9
# bytes of a cache line, the alignment of the amplitudes a state allocates
_LINE_BYTES = 64
_SQ2 = 0.7071067811865476  # cos(pi/4)
_OMEGA = complex(_SQ2, _SQ2)  # exp(i*pi/4)
# R_P(k*pi/2) = cos(k*pi/4) - i*sin(k*pi/4)*P as ca + cb * i**e * P, by k
# mod 8; k = 0 and 4 are +I and -I
_QUARTER_TURNS = {1: (_SQ2, _SQ2, 3), 2: (0.0, 1.0, 3), 3: (-_SQ2, -_SQ2, 1),
                  5: (-_SQ2, -_SQ2, 3), 6: (0.0, 1.0, 1), 7: (_SQ2, _SQ2, 1)}
# the baseline's X and Y, as arguments (x, z, e0) of ``_kernels.clifford``
# from the single-bit mask of their qubit, with ca = 0, cb = 1 and m = 0
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
    _kernels.clifford(amp, p.x_bits, p.z_bits, ca, cb, e0, 0)


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

    def apply_clifford_rotation(self, p: PauliString, quarter_turns: int) -> None:
        """Apply R_P(quarter_turns * pi/2) exactly, in one amplitude pass.

        A turn by a multiple of pi/2 has coefficients that are 0, +-1 or
        +-1/sqrt(2) times a power of i, so it takes them from a table instead
        of computing a cosine and a sine.  P must be Hermitian, as in
        ``apply_pauli_rotation``; the result equals it up to rounding.
        """
        if not p.is_hermitian:
            raise ValueError("rotation axis must be Hermitian (phase_exp 0 or 2)")
        k = quarter_turns % 8
        if k in _QUARTER_TURNS:
            _pauli_update(self.amplitudes, p, *_QUARTER_TURNS[k])
        elif k == 4:
            self.amplitudes *= -1.0

    def apply_monomial(self, x: int, z: int, m: int, eighths: int) -> None:
        """amp[k] <- w**eighths * i**popcount(k & m) * (-1)**parity(k & z) * amp[k ^ x].

        w = exp(i*pi/4).  This monomial map (one nonzero entry per row and
        column) is the general product of single-qubit Cliffords without a
        Hadamard part: each qubit's part flips its bit or not, and
        multiplies by a power of i that depends on the bit.  It
        runs in one pass of the Clifford loop, with i**(eighths // 2) in
        its constant phase; an odd ``eighths`` adds one in-place multiply
        by w.
        """
        _kernels.clifford(self.amplitudes, x, z, 0.0, 1.0, eighths >> 1, m)
        if eighths & 1:
            self.amplitudes *= _OMEGA

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
            _kernels.clifford(self.amplitudes, x, z, 0.0, 1.0, e0, 0)
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
