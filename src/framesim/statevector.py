"""Dense 2**n-amplitude state vector with three update families.

Besides the usual per-gate kernels of a fullstate simulator, the state
supports *native* multi-qubit Pauli rotations R_P(theta) = exp(-i theta P/2).
A Pauli P permutes basis states in pairs {k, k XOR x_bits(P)} with a phase
that is a pure bit computation, so one rotation costs a single pass over
the amplitudes regardless of how many qubits P touches.  That flatness in
operator weight is the whole point of the hybrid backend built on top.

Index convention: bit j of the amplitude index is the computational value
of qubit j (qubit 0 = least significant bit).
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import _kernels
from .pauli import PauliString

# 2x2 kernels for the gate-by-gate (baseline) path
_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _rotation_1q(tag: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if tag == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if tag == "RY":
        return np.array([[c, -s], [s, c]])
    if tag == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(f"unknown rotation tag {tag!r}")


class StateVector:
    """Mutable register of 2**num_qubits complex double amplitudes."""

    __slots__ = ("num_qubits", "amplitudes", "norm_tolerance", "_k_all")

    def __init__(self, num_qubits: int, amplitudes=None, norm_tolerance: float = 1e-10):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            amp = np.zeros(dim, dtype=np.complex128)
            amp[0] = 1.0
        else:
            amp = np.array(amplitudes, dtype=np.complex128).reshape(-1)
            if amp.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amp.size}")
        self.amplitudes = amp
        self.norm_tolerance = norm_tolerance
        self._k_all = None  # lazy basis-index cache for the bitwise kernels

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
        out.amplitudes = self.amplitudes.copy()
        out.norm_tolerance = self.norm_tolerance
        out._k_all = self._k_all
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    # ------------------------------------------------------------------
    # bitwise Pauli kernels

    def _indices(self) -> np.ndarray:
        if self._k_all is None:
            self._k_all = np.arange(self.dim, dtype=np.int64)
        return self._k_all

    def _pauli_applied(self, p: PauliString) -> np.ndarray:
        """Return P|state> as a fresh amplitude array."""
        self._check_pauli(p)
        k = self._indices()
        scalar = 1j ** ((p.phase_exp + p.y_mask.bit_count()) % 4)
        if p.x_bits:
            src = k ^ np.int64(p.x_bits)
            out = self.amplitudes[src]
            par = np.bitwise_count(src & np.int64(p.z_bits)) & 1
        else:
            out = self.amplitudes.copy()
            par = np.bitwise_count(k & np.int64(p.z_bits)) & 1
        out *= scalar
        out[par.astype(bool)] *= -1.0
        return out

    def apply_pauli(self, p: PauliString) -> None:
        """In-place permutation-plus-phase update |state> <- P|state>."""
        self.amplitudes = self._pauli_applied(p)

    def apply_pauli_rotation(self, p: PauliString, theta: float) -> None:
        """Apply R_P(theta) = exp(-i theta P / 2) in one amplitude pass.

        Requires a plain positive operator (phase_exp 0); fold a -P axis
        into the angle as (+P, -theta) before calling.  The cost is one
        pass over the amplitudes whatever the weight of P.
        """
        self._check_pauli(p)
        if p.phase_exp != 0:
            raise ValueError("rotation axis must have phase_exp 0; fold signs into the angle")
        half_angle = 0.5 * theta
        if p.x_bits == 0:
            # diagonal: e^{-i theta/2} on even |m_Z & k| parity, e^{+i theta/2} on odd
            f_even = complex(math.cos(half_angle), -math.sin(half_angle))
            _kernels.rotation_diag(self.amplitudes, p.z_bits, f_even, f_even.conjugate())
            return
        c = math.cos(half_angle)
        n_y = p.y_mask.bit_count()
        # e^{i phi(k)} = i**n_y * (-1)^{parity(k & z)}; the parity differs
        # between pair members by the parity of n_y
        u = -1j * math.sin(half_angle) * 1j ** (n_y % 4)
        ey = -1.0 if n_y & 1 else 1.0
        pivot = (p.x_bits & -p.x_bits).bit_length() - 1
        _kernels.rotation_pairs(self.amplitudes, p.x_bits, p.z_bits, pivot, c, u * ey, u)

    # ------------------------------------------------------------------
    # observables, measurement, preparation

    def expectation(self, p: PauliString) -> float:
        """Re <state|P|state> for Hermitian P (sign included)."""
        if not p.is_hermitian:
            raise ValueError("expectation requires a Hermitian operator")
        val = np.vdot(self.amplitudes, self._pauli_applied(p))
        if abs(val.imag) >= max(self.norm_tolerance, 1e-9):
            raise RuntimeError(f"non-real Pauli expectation {val}")
        return float(val.real)

    def measure(self, p: PauliString, rng) -> int:
        """Projectively measure Hermitian P; collapse and return +1 or -1."""
        if not p.is_hermitian:
            raise ValueError("measurement requires a Hermitian operator")
        rng = np.random.default_rng(rng)
        applied = self._pauli_applied(p)
        exp = np.vdot(self.amplitudes, applied).real
        p_plus = min(max((1.0 + exp) / 2.0, 0.0), 1.0)
        outcome = 1 if rng.random() < p_plus else -1
        p_branch = p_plus if outcome == 1 else 1.0 - p_plus
        if p_branch < self.norm_tolerance:
            raise RuntimeError("measurement drew a probability-zero branch")
        self.amplitudes += outcome * applied
        self.amplitudes /= 2.0 * math.sqrt(p_branch)
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
        if tag in _FIXED_1Q:
            self._apply_1q(_FIXED_1Q[tag], qubits[0])
        elif tag in ("RX", "RY", "RZ"):
            if angle is None:
                raise ValueError(f"{tag} requires an angle")
            self._apply_1q(_rotation_1q(tag, angle), qubits[0])
        elif tag == "CX":
            self._apply_cx(qubits[0], qubits[1])
        elif tag == "CZ":
            self._apply_cz(qubits[0], qubits[1])
        elif tag == "SWAP":
            self.swap_qubits(qubits[0], qubits[1])
        else:
            raise ValueError(f"unknown gate tag {tag!r}")

    def _apply_1q(self, m: np.ndarray, q: int) -> None:
        view = self.amplitudes.reshape(-1, 2, 1 << q)
        v0 = view[:, 0, :].copy()
        v1 = view[:, 1, :]
        view[:, 0, :] = m[0, 0] * v0 + m[0, 1] * v1
        view[:, 1, :] = m[1, 0] * v0 + m[1, 1] * v1

    def _sel(self, assignments: dict[int, int]):
        idx = [slice(None)] * self.num_qubits
        for q, v in assignments.items():
            idx[self.num_qubits - 1 - q] = v
        return tuple(idx)

    def _apply_cx(self, control: int, target: int) -> None:
        view = self.amplitudes.reshape([2] * self.num_qubits)
        lo = self._sel({control: 1, target: 0})
        hi = self._sel({control: 1, target: 1})
        view[lo], view[hi] = view[hi].copy(), view[lo].copy()

    def _apply_cz(self, control: int, target: int) -> None:
        view = self.amplitudes.reshape([2] * self.num_qubits)
        view[self._sel({control: 1, target: 1})] *= -1.0

    def swap_qubits(self, a: int, b: int) -> None:
        """Exchange the roles of qubits a and b by index relabeling."""
        if a == b:
            return
        view = self.amplitudes.reshape([2] * self.num_qubits)
        lo = self._sel({a: 0, b: 1})
        hi = self._sel({a: 1, b: 0})
        view[lo], view[hi] = view[hi].copy(), view[lo].copy()

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

    # ------------------------------------------------------------------

    def _check_pauli(self, p: PauliString) -> None:
        if p.num_qubits != self.num_qubits:
            raise ValueError(f"operator on {p.num_qubits} qubits applied to "
                             f"{self.num_qubits}-qubit state")
