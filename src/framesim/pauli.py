"""Signed multi-qubit Pauli operators stored as (x, z) bitmasks.

An n-qubit Pauli operator is encoded by two n-bit integers ``x_bits`` and
``z_bits`` plus a phase exponent.  Qubit j corresponds to bit j (qubit 0 is
the least significant bit), and the pair (x_j, z_j) selects the letter:

    (0, 0) -> I      (1, 0) -> X      (1, 1) -> Y      (0, 1) -> Z

The full operator is ``i**phase_exp`` times the tensor product of the
letters, with Y stored letter-exactly (no hidden i factors).  Hermitian
operators therefore have an even phase exponent: ``i**0 = +1`` for a plain
string, ``i**2 = -1`` for its negative.

Dense text labels read left to right from qubit n-1 down to qubit 0, so
"ZIX" means Z on qubit 2 and X on qubit 0 -- the same ordering as the bits
of an integer written in binary.  Sparse labels list only the non-identity
letters with explicit qubit indices, e.g. "X0 Y3 Z5".

Python integers are arbitrary precision, so the same code path covers any
qubit count; up to 64 qubits everything stays within one machine word.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_SPARSE_TOKEN = re.compile(r"([IXYZ])(\d+)$")


@dataclass(frozen=True, slots=True)
class PauliString:
    """A signed Pauli operator on ``num_qubits`` qubits.

    Immutable; all operations return new instances, so values can be shared
    freely between threads or stored as dictionary keys.
    """

    num_qubits: int
    x_bits: int = 0
    z_bits: int = 0
    phase_exp: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        # normalize only when needed: construction sits on the hybrid
        # backend's per-gate path
        if (self.x_bits | self.z_bits) >> self.num_qubits or not 0 <= self.phase_exp <= 3:
            mask = (1 << self.num_qubits) - 1
            object.__setattr__(self, "x_bits", self.x_bits & mask)
            object.__setattr__(self, "z_bits", self.z_bits & mask)
            object.__setattr__(self, "phase_exp", self.phase_exp & 3)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, letter: str,
               phase_exp: int = 0) -> "PauliString":
        """One non-identity letter on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
        try:
            x, z = _LETTER_BITS[letter]
        except KeyError:
            raise ValueError(f"unknown Pauli letter {letter!r}") from None
        return cls(num_qubits, x << qubit, z << qubit, phase_exp)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a dense label such as "XIZY", "-YY" or "+iXZ"."""
        text = label.strip().replace("−", "-")
        m = re.match(r"([+-]?i?)", text)
        prefix = m.group(1)
        letters = text[m.end():]
        if prefix not in _PREFIX_PHASE or not letters:
            raise ValueError(f"malformed Pauli label {label!r}")
        x = z = 0
        for ch in letters:
            if ch not in _LETTER_BITS:
                raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
            xb, zb = _LETTER_BITS[ch]
            x = (x << 1) | xb
            z = (z << 1) | zb
        return cls(len(letters), x, z, _PREFIX_PHASE[prefix])

    @classmethod
    def from_sparse(cls, text: str, num_qubits: int) -> "PauliString":
        """Parse a sparse label such as "X0 Y3 Z5" on a fixed qubit count."""
        x = z = 0
        seen = set()
        for token in text.split():
            m = _SPARSE_TOKEN.match(token)
            if m is None:
                raise ValueError(f"malformed sparse Pauli token {token!r}")
            letter, qubit = m.group(1), int(m.group(2))
            if qubit >= num_qubits:
                raise ValueError(f"qubit index {qubit} >= num_qubits {num_qubits}")
            if qubit in seen:
                raise ValueError(f"duplicate qubit index {qubit} in sparse Pauli")
            seen.add(qubit)
            xb, zb = _LETTER_BITS[letter]
            x |= xb << qubit
            z |= zb << qubit
        return cls(num_qubits, x, z)

    # ------------------------------------------------------------------
    # derived views

    @property
    def x_mask(self) -> int:
        """Bitmask of qubits carrying an X letter."""
        return self.x_bits & ~self.z_bits

    @property
    def y_mask(self) -> int:
        """Bitmask of qubits carrying a Y letter."""
        return self.x_bits & self.z_bits

    @property
    def z_mask(self) -> int:
        """Bitmask of qubits carrying a Z letter."""
        return self.z_bits & ~self.x_bits

    def masks(self) -> tuple[int, int, int]:
        return self.x_mask, self.y_mask, self.z_mask

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for Hermitian operators."""
        if not self.is_hermitian:
            raise ValueError("sign is only defined for Hermitian operators")
        return 1 if self.phase_exp == 0 else -1

    def letter_at(self, qubit: int) -> str:
        return _BITS_LETTER[(self.x_bits >> qubit) & 1, (self.z_bits >> qubit) & 1]

    @property
    def support(self) -> tuple[int, ...]:
        """Qubit indices with a non-identity letter, ascending."""
        bits = self.x_bits | self.z_bits
        return tuple(j for j in range(self.num_qubits) if (bits >> j) & 1)

    # ------------------------------------------------------------------
    # algebra

    def anticommutes(self, other: "PauliString") -> int:
        """1 if the two operators anticommute, 0 if they commute."""
        self._check_size(other)
        return _anti((self.x_bits, self.z_bits), (other.x_bits, other.z_bits))

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Exact group product, tracking the i**e phase per qubit (see ``_mul``)."""
        if not isinstance(other, PauliString):
            return NotImplemented
        self._check_size(other)
        return PauliString(self.num_qubits,
                           *_mul((self.x_bits, self.z_bits, self.phase_exp),
                                 (other.x_bits, other.z_bits, other.phase_exp)))

    def with_phase_shift(self, delta: int) -> "PauliString":
        """Same letters multiplied by an extra i**delta."""
        return PauliString(self.num_qubits, self.x_bits, self.z_bits,
                           self.phase_exp + delta)

    def unsigned(self) -> "PauliString":
        """The same letters with phase exponent 0."""
        return PauliString(self.num_qubits, self.x_bits, self.z_bits, 0)

    def swapped_qubits(self, a: int, b: int) -> "PauliString":
        """Relabel qubits a and b (conjugation by a SWAP)."""
        return PauliString(self.num_qubits,
                           _swap_bits(self.x_bits, a, b),
                           _swap_bits(self.z_bits, a, b),
                           self.phase_exp)

    # ------------------------------------------------------------------
    # action on computational basis states

    def flip_target(self, k: int) -> int:
        """Index of the basis state that P maps |k> onto.

        An involution: applying it twice returns k.
        """
        self._check_index(k)
        return k ^ self.x_bits

    def phase_exp_at(self, k: int) -> int:
        """Exponent e with P|k> = i**e |flip_target(k)>.

        The Y letters contribute a global i each; the Z component flips the
        sign on every set bit of k it overlaps (bitwise AND, not XOR).
        """
        self._check_index(k)
        return (self.phase_exp + self.y_mask.bit_count()
                + 2 * (self.z_bits & k).bit_count()) & 3

    # ------------------------------------------------------------------
    # formatting

    def to_label(self, signed: bool = True) -> str:
        letters = "".join(self.letter_at(j) for j in reversed(range(self.num_qubits)))
        return (_PHASE_PREFIX[self.phase_exp] if signed else "") + letters

    def __str__(self) -> str:
        return self.to_label()

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"

    # ------------------------------------------------------------------

    def _check_size(self, other: "PauliString") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(f"qubit count mismatch: {self.num_qubits} vs {other.num_qubits}")

    def _check_index(self, k: int) -> None:
        if not 0 <= k < (1 << self.num_qubits):
            raise ValueError(f"basis index {k} out of range for {self.num_qubits} qubits")


def _mul(a, b):
    """Exact product of two (x_bits, z_bits, phase_exp) triples.

    Per qubit the letter form relates to the ordered form through
    Y = i * X * Z, and moving Z past X costs a sign; summing those
    contributions over all qubits gives the phase of the product.  The
    Pauli frame multiplies its rows as plain triples through this function.
    """
    ax, az, ap = a
    bx, bz, bp = b
    x = ax ^ bx
    z = az ^ bz
    phase = (ap + bp + (ax & az).bit_count() + (bx & bz).bit_count()
             - (x & z).bit_count() + 2 * (az & bx).bit_count()) & 3
    return (x, z, phase)


def _anti(a, b) -> int:
    """1 if the (x_bits, z_bits, ...) tuples a and b anticommute, else 0:
    the parity of their symplectic product."""
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() & 1


def _swap_bits(value: int, a: int, b: int) -> int:
    if ((value >> a) ^ (value >> b)) & 1:
        value ^= (1 << a) | (1 << b)
    return value
