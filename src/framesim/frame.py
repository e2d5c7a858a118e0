"""Pauli frame tracking of Clifford circuits in the backward interpretation.

A frame stores, for every qubit j, the pair (eff_z[j], eff_x[j]) obtained by
conjugating the initial stabilizer Z_j and destabilizer X_j *backwards*
through the Clifford circuit accumulated so far: eff_z[j] = U^dag Z_j U and
likewise for X.  Appending a gate g therefore rewrites the affected rows as
products of existing rows (the frame expansion of g^dag sigma g) instead of
conjugating every entry, which touches at most two entries per gate.

Used this way the frame is a lookup table: a single-qubit rotation axis A_i
arriving after the Clifford prefix U acts on the tracked state as the
multi-qubit axis U^dag A_i U = lookup(A_i), so Clifford gates never have to
touch the 2**n amplitudes at all.

``invert_to_rotations`` synthesizes the accumulated Clifford back into O(n)
Pauli rotations plus qubit relabelings.  Every rotation it emits comes from
one rule: a pi/2 turn about i*B*A conjugates an entry A onto any
anticommuting B, and a pi turn negates a single letter.  Its product fixes
the global phase of a flush.

``split_clifford`` is how the hybrid backend flushes the frame into the
state vector when raw amplitudes are needed: the Clifford as h quarter
turns, h being the size of its Hadamard layer, followed by one
Hadamard-free Clifford (``HadamardFree``), which maps each basis state to
one basis state times a power of exp(i*pi/4).

Rows are held as plain (x_bits, z_bits, phase_exp) integer triples rather
than PauliString objects: the frame update runs once per circuit gate and
object construction would dominate it.  For the hybrid backend's compiled
gate loop the same rows are packed into machine words (``packed``), for up
to 64 qubits, and read back once the loop is done (``from_packed``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf2
from .pauli import PauliString, _mul, _swap_bits

_QUARTER = math.pi / 2  # R_Q(pi/2) = exp(-i pi/4 Q), a symplectic transvection


def _anti(a, b) -> int:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


def _neg(a):
    return (a[0], a[1], (a[2] + 2) & 3)


@dataclass(frozen=True, slots=True)
class RotationStep:
    """One element of a frame synthesis sequence.

    kind "pauli_rotation": R_axis(angle) with angle a multiple of pi/2 in the
    exp(-i theta P / 2) convention.  kind "qubit_swap": relabel two qubits.
    """

    kind: str
    axis: PauliString | None = None
    angle: float = 0.0
    qubits: tuple[int, int] | None = None

    @property
    def quarter_turns(self) -> int:
        """The rotation angle in quarter turns: 1, -1 or 2."""
        return _quarter_turns(self.angle)

    @classmethod
    def rotation(cls, axis: PauliString, angle: float) -> "RotationStep":
        return cls("pauli_rotation", axis=axis, angle=angle)

    @classmethod
    def swap(cls, a: int, b: int) -> "RotationStep":
        return cls("qubit_swap", qubits=(a, b))


class PauliFrame:
    """n rows of (eff_z, eff_x) signed Pauli pairs; mutable, single-owner."""

    __slots__ = ("num_qubits", "_z", "_x")

    def __init__(self, num_qubits: int, rows=None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        if rows is None:
            self._z = [(0, 1 << j, 0) for j in range(num_qubits)]
            self._x = [(1 << j, 0, 0) for j in range(num_qubits)]
        else:
            if len(rows) != num_qubits:
                raise ValueError("need one (eff_z, eff_x) row per qubit")
            for z, x in rows:
                if z.num_qubits != num_qubits or x.num_qubits != num_qubits:
                    raise ValueError("row operator qubit count mismatch")
            self._z = [(z.x_bits, z.z_bits, z.phase_exp) for z, _ in rows]
            self._x = [(x.x_bits, x.z_bits, x.phase_exp) for _, x in rows]

    @classmethod
    def origin(cls, num_qubits: int) -> "PauliFrame":
        """The identity-circuit frame: row j = (Z_j, X_j)."""
        return cls(num_qubits)

    def copy(self) -> "PauliFrame":
        out = PauliFrame.__new__(PauliFrame)
        out.num_qubits = self.num_qubits
        out._z = list(self._z)
        out._x = list(self._x)
        return out

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows as bit-packed words: the x bits and z bits (uint64) and the
        phase exponent (uint8) of eff_z[0..n-1], then of eff_x[0..n-1].

        This is the frame of ``_kernels.run_gates``; it holds at most 64
        qubits, and a larger frame raises ValueError.
        """
        if self.num_qubits > 64:
            raise ValueError(f"a packed frame holds at most 64 qubits, not {self.num_qubits}")
        rows = self._z + self._x
        return (np.array([r[0] for r in rows], dtype=np.uint64),
                np.array([r[1] for r in rows], dtype=np.uint64),
                np.array([r[2] for r in rows], dtype=np.uint8))

    @classmethod
    def from_packed(cls, xs, zs, ps) -> "PauliFrame":
        """The frame whose ``packed`` words are xs, zs and ps."""
        n = len(xs) // 2
        rows = list(zip(xs.tolist(), zs.tolist(), ps.tolist()))
        out = cls.__new__(cls)
        out.num_qubits = n
        out._z, out._x = rows[:n], rows[n:]
        return out

    @staticmethod
    def packed_pair(xs, zs, ps, q: int) -> tuple[PauliString, PauliString]:
        """(eff_z[q], eff_x[q]) read from the ``packed`` words xs, zs and ps."""
        n = len(xs) // 2
        return tuple(PauliString(n, int(xs[i]), int(zs[i]), int(ps[i])) for i in (q, n + q))

    def eff_z(self, i: int) -> PauliString:
        return PauliString(self.num_qubits, *self._z[i])

    def eff_x(self, i: int) -> PauliString:
        return PauliString(self.num_qubits, *self._x[i])

    def rows(self) -> list[tuple[PauliString, PauliString]]:
        return [(self.eff_z(i), self.eff_x(i)) for i in range(self.num_qubits)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliFrame):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self._z == other._z and self._x == other._x)

    def is_origin(self) -> bool:
        return self == PauliFrame.origin(self.num_qubits)

    def validate(self) -> bool:
        """Check the symplectic pairing and sign conventions of every row."""
        n = self.num_qubits
        if any(e[2] % 2 for e in self._z + self._x):
            return False
        for i in range(n):
            for j in range(n):
                if _anti(self._z[i], self._z[j]) or _anti(self._x[i], self._x[j]):
                    return False
                if _anti(self._z[i], self._x[j]) != (1 if i == j else 0):
                    return False
        return True

    # ------------------------------------------------------------------
    # backward gate updates

    def apply_gate(self, tag: str, qubits) -> None:
        """Append Clifford gate g: affected rows become the frame expansion
        of g^dag sigma g, a product of at most two current entries."""
        z, x = self._z, self._x
        n = self.num_qubits
        if tag == "CX":
            c, t = qubits
            if c == t or not (0 <= c < n and 0 <= t < n):
                raise ValueError(f"{tag} needs two distinct qubits below {n}, got {qubits}")
            z[t] = _mul(z[c], z[t])
            x[c] = _mul(x[c], x[t])
            return
        if tag in ("H", "S", "SDG", "X", "Y", "Z"):
            (i,) = qubits
            if not 0 <= i < n:
                raise ValueError(f"qubit {i} out of range")
            if tag == "H":
                z[i], x[i] = x[i], z[i]
            elif tag == "S":
                # S^dag X S = -Y, and -Y maps to +i * eff_z * eff_x
                xi, zi, p = _mul(z[i], x[i])
                x[i] = (xi, zi, (p + 1) & 3)
            elif tag == "SDG":
                xi, zi, p = _mul(z[i], x[i])
                x[i] = (xi, zi, (p - 1) & 3)
            elif tag == "X":
                z[i] = _neg(z[i])
            elif tag == "Y":
                z[i] = _neg(z[i])
                x[i] = _neg(x[i])
            else:
                x[i] = _neg(x[i])
            return
        c, t = qubits
        if c == t or not (0 <= c < n and 0 <= t < n):
            raise ValueError(f"{tag} needs two distinct qubits below {n}, got {qubits}")
        if tag == "CZ":
            x[c] = _mul(x[c], z[t])
            x[t] = _mul(z[c], x[t])
        elif tag == "SWAP":
            z[c], z[t] = z[t], z[c]
            x[c], x[t] = x[t], x[c]
        else:
            raise ValueError(f"{tag!r} is not a Clifford gate tag")

    # ------------------------------------------------------------------
    # lookup

    def lookup(self, p: PauliString) -> PauliString:
        """Map P to U^dag P U, expanded as a signed product of frame entries.

        Letters of P select the images of their origin symbols: an X letter
        on qubit j contributes eff_x[j], a Z letter eff_z[j], and a Y letter
        the image of Y_j = i X_j Z_j.  The images of letters on distinct
        qubits commute, so the multiplication order is immaterial.
        """
        if p.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        if not p.is_hermitian:
            raise ValueError("lookup requires a Hermitian operator")
        acc = (0, 0, p.phase_exp)
        px, pz = p.x_bits, p.z_bits
        support = px | pz
        while support:
            low = support & -support
            j = low.bit_length() - 1
            if not pz & low:
                img = self._x[j]
            elif not px & low:
                img = self._z[j]
            else:
                ix, iz, ip = _mul(self._x[j], self._z[j])
                img = (ix, iz, (ip + 1) & 3)
            acc = _mul(acc, img)
            support ^= low
        return PauliString(self.num_qubits, *acc)

    # ------------------------------------------------------------------
    # entry-wise conjugation (used by the synthesis algorithm)

    def conjugate_rotation(self, axis: PauliString, angle: float) -> None:
        """Conjugate every entry by R_axis(angle), angle in {+-pi/2, pi}.

        Entries commuting with the axis are untouched; anticommuting ones
        become -i*Q*E (+pi/2), +i*Q*E (-pi/2) or -E (pi).
        """
        q = (axis.x_bits, axis.z_bits, axis.phase_exp)
        turns = _quarter_turns(angle)
        _conjugate(self._z, q, turns)
        _conjugate(self._x, q, turns)

    def conjugate_swap(self, a: int, b: int) -> None:
        """Conjugate every entry by SWAP(a, b), i.e. relabel the two qubits."""
        self._z = [(_swap_bits(ex, a, b), _swap_bits(ez, a, b), ep)
                   for ex, ez, ep in self._z]
        self._x = [(_swap_bits(ex, a, b), _swap_bits(ez, a, b), ep)
                   for ex, ez, ep in self._x]

    def apply_step(self, step: RotationStep) -> None:
        if step.kind == "pauli_rotation":
            self.conjugate_rotation(step.axis, step.angle)
        elif step.kind == "qubit_swap":
            self.conjugate_swap(*step.qubits)
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")

    # ------------------------------------------------------------------

    def dump(self) -> str:
        """One row per line: ``effZ=<signed dense>  effX=<signed dense>``."""
        return "\n".join(
            f"effZ={z.to_label()}  effX={x.to_label()}"
            for z, x in self.rows()
        )

    def __repr__(self) -> str:
        return f"PauliFrame({self.num_qubits} qubits)\n{self.dump()}"


def _conjugate(rows: list, q, turns: int) -> None:
    """Conjugate the triples in ``rows`` by R_q(turns * pi/2), in place."""
    shift = -turns & 3
    qx, qz, _ = q
    for i, e in enumerate(rows):
        if ((e[0] & qz) ^ (e[1] & qx)).bit_count() & 1:  # _anti(e, q), inlined
            if shift == 2:
                rows[i] = _neg(e)
            else:
                ex, ez, ep = _mul(q, e)
                rows[i] = (ex, ez, (ep + shift) & 3)


def _quarter_turns(angle: float) -> int:
    """The angle in quarter turns: 1, -1 or 2 for pi/2, -pi/2 or pi."""
    for target, turns in ((_QUARTER, 1), (-_QUARTER, -1), (math.pi, 2)):
        if math.isclose(angle, target, rel_tol=0.0, abs_tol=1e-12):
            return turns
    raise ValueError(f"frame conjugation needs angle in {{+-pi/2, pi}}, got {angle}")


def invert_to_rotations(frame: PauliFrame) -> list[RotationStep]:
    """Synthesize steps whose conjugation images map ``frame`` to the origin.

    Every rotation comes from one rule, ``send(a, b)``, which conjugates a
    frame entry a onto a signed Pauli b (Aaronson & Gottesman, PRA 70,
    052328 (2004)).  If a and b anticommute, the pi/2 transvection about
    Q = i*b*a maps a to -i*Q*a = b and fixes every entry commuting with Q.
    If they commute, a = -b is a single letter, and a pi turn about the dual
    letter (X for Z, Z for X) negates it.  If a == b, nothing is emitted.

    The qubits are reduced one at a time, each on a pivot row whose entries
    become a single-qubit pair on it.  The next qubit is one whose home row
    (row q for qubit q) has an X or Y letter at q in its eff_z, else the
    lowest one left.  The pivot is a row whose eff_z has an X or Y letter
    at q, the home row if it has one; that eff_z is sent straight to +Z_q.
    Only if no row has one is the pivot a row whose eff_z has a Z letter at
    q (again the home row first), sent to X_q if it is not a single letter.
    A multi-qubit eff_x is then sent straight to +X_q when X_q anticommutes
    with both entries, and otherwise to the third letter at q.

    A cleanup then turns each eff_z to +Z_q and each eff_x to +X_q.  It
    first emits the turns that still need a Hadamard part (an eff_z with an
    X or Y letter), then the rest, which are all Z-axis quarter turns or
    half turns: single-qubit Cliffords without a Hadamard part.  Qubit
    swaps finally sort the pairs into
    their home rows; preferring the home row as pivot keeps them few.
    Applying the steps in order reproduces the origin frame exactly, signs
    included.

    Because the entries are the *backward* images U^dag sigma U, a sequence
    V whose conjugation restores every origin symbol satisfies V U^dag = I
    up to phase: the steps in order implement the tracked Clifford U itself,
    and the reversed sequence with negated angles implements U^dag.

    Emits at most 2n multi-qubit rotations, 2n single-qubit rotations and
    n-1 swaps.  Does not modify the input frame.
    """
    if frame.is_origin():
        return []
    if not frame.validate():
        raise ValueError("cannot invert an invalid frame")
    n = frame.num_qubits
    f = frame.copy()
    steps: list[RotationStep] = []

    def emit(step: RotationStep) -> None:
        steps.append(step)
        f.apply_step(step)

    def send(a, b) -> None:
        if a == b:
            return
        if _anti(a, b):
            x, z, p = _mul(b, a)
            emit(RotationStep.rotation(PauliString(n, x, z, p + 1), _QUARTER))
        else:
            emit(RotationStep.rotation(PauliString(n, b[1], b[0]), math.pi))

    def pivot(q: int, wanted):
        """Row q if wanted(its eff_z), else the first row i with wanted(eff_z[i])."""
        if wanted(f._z[q]):
            return q
        return next((i for i, e in enumerate(f._z) if wanted(e)), None)

    left = list(range(n))
    while left:
        q = next((q for q in left if f._z[q][0] >> q & 1), left[0])
        left.remove(q)
        bit = 1 << q
        row = pivot(q, lambda e: e[0] & bit)  # an X or Y letter at q
        if row is not None:
            send(f._z[row], (0, bit, 0))
        else:
            row = pivot(q, lambda e: (e[0] | e[1]) & bit)
            if row is None:
                raise RuntimeError(f"no eff_z row carries qubit {q}; a valid frame always has one")
            x, z, _ = f._z[row]
            if x | z != bit:
                send(f._z[row], (bit, 0, 0))
        x, z, _ = f._x[row]
        if x | z != bit:
            straight = (bit, 0, 0)
            if _anti(straight, f._z[row]) and _anti(straight, f._x[row]):
                send(f._x[row], straight)
            else:
                zx, zz, _ = f._z[row]
                send(f._x[row], ((zx ^ x) & bit, (zz ^ z) & bit, 0))

    # every row is now a single-qubit anticommuting pair; first the turns
    # with a Hadamard part, then the Z-axis and half turns
    for i in range(n):
        if f._z[i][0]:
            send(f._z[i], (0, f._z[i][0], 0))
    for i in range(n):
        bit = f._z[i][1]
        send(f._z[i], (0, bit, 0))
        send(f._x[i], (bit, 0, 0))

    # sort the (+Z_q, +X_q) pairs into their home rows by relabeling
    for i in range(n):
        q = (f._z[i][0] | f._z[i][1]).bit_length() - 1
        if q != i:
            emit(RotationStep.swap(i, q))

    if not f.is_origin():
        raise RuntimeError("frame synthesis did not terminate on the origin frame")
    return steps


# ----------------------------------------------------------------------
# the flush's canonical form: h quarter turns and one Hadamard-free part


class HadamardFree(NamedTuple):
    """The Clifford |k> -> w**eighths * i**q(k) |A k ^ offset>, w = exp(i*pi/4).

    ``rows`` holds the row masks of the invertible GF(2) matrix A, (A k)_i =
    parity(rows[i] & k), as in ``gf2``.  The phase is quadratic:
    q(k) = sum over the set bits i of k of diag[i] + popcount(cross[i] & k),
    mod 4.  So diag[i] (0..3) is q at the unit vector e_i, and the masks
    ``cross`` are symmetric (bit j of cross[i] is bit i of cross[j], and bit
    i of cross[i] is clear): each pair of set bits they link adds 2.
    Every Clifford without a Hadamard part (X, CX, SWAP, S, CZ) has this
    form, and only those have it.
    """

    rows: tuple[int, ...]
    offset: int
    diag: tuple[int, ...]
    cross: tuple[int, ...]
    eighths: int = 0

    @classmethod
    def identity(cls, n: int) -> "HadamardFree":
        """The identity on n qubits."""
        return cls(tuple(1 << i for i in range(n)), 0, (0,) * n, (0,) * n)

    def after(self, rows) -> "HadamardFree":
        """F P_A, for this Clifford F and the index map P_A|k> = |A k> of the
        invertible GF(2) matrix A with row masks ``rows``:
        |k> -> w**eighths * i**q(A k) |R A k ^ offset>, R being F's matrix.

        q(A k) is quadratic in k again.  q(u ^ v) = q(u) + q(v) + 2 u.Gamma v
        mod 4, Gamma being the symmetric matrix with the parities of diag on
        its diagonal and cross off it; so q(A k) has diag q(A e_i) and, off
        the diagonal, the cross masks of A^T Gamma A.
        """
        n = len(rows)
        cols = gf2.columns(rows, n)  # A e_i, and the rows of A^T
        gamma = [c | (d & 1) << i for i, (d, c) in enumerate(zip(self.diag, self.cross))]
        quad = gf2.product(cols, gf2.product(gamma, rows))
        return self._replace(rows=tuple(gf2.product(self.rows, rows)),
                             diag=tuple(self.phase(c) for c in cols),
                             cross=tuple(q & ~(1 << i) for i, q in enumerate(quad)))

    def image(self, k: int) -> int:
        """A k ^ offset, the basis state that |k> is mapped to."""
        return gf2.apply(self.rows, k) ^ self.offset

    def phase(self, k: int) -> int:
        """q(k) mod 4."""
        q = 0
        bits = k
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            q += self.diag[i] + (self.cross[i] & k).bit_count()
            bits ^= low
        return q & 3

    def is_identity(self) -> bool:
        """True if this maps every |k> to itself."""
        return (self.offset == 0 and self.eighths & 7 == 0
                and all(r == 1 << i for i, r in enumerate(self.rows))
                and not any(self.diag) and not any(self.cross))


def _exp_at(p, k: int) -> int:
    """e with P|k> = i**e |k ^ x> for the triple P = (x, z, phase_exp)."""
    x, z, ph = p
    return (ph + (x & z).bit_count() + 2 * (z & k).bit_count()) & 3


def _sum_eighths(a: int, b: int) -> int | None:
    """The phase of w**a + w**b in eighths of a turn, or None if it is 0; a
    and b differ by a multiple of 2, as two amplitudes of one stabilizer
    state (or of its sum with a Pauli image of it) do."""
    d = (b - a) & 7
    if d & 1:
        raise RuntimeError("amplitudes of a stabilizer state differ by an odd power of w")
    return None if d == 4 else (a + (0, 1, 0, -1)[d >> 1]) & 7


class _Tracker:
    """The state V|0> for a product V of quarter and half turns and qubit
    swaps, as its n stabilizer generators plus the phase, in eighths of a
    turn, of one nonzero amplitude.  All nonzero amplitudes of a stabilizer
    state have the same magnitude, so these fix the state exactly, global
    phase included (Aaronson & Gottesman, PRA 70, 052328 (2004))."""

    __slots__ = ("stabs", "index", "eighths")

    def __init__(self, n: int):
        self.stabs = [(0, 1 << j, 0) for j in range(n)]
        self.index = 0
        self.eighths = 0

    def eighths_at(self, k: int) -> int | None:
        """The phase of the amplitude at k, or None if it is 0.  The
        generators whose x parts sum to k ^ index form a stabilizer S with
        S|index> proportional to |k>, so <k|psi> = <k|S|index> <index|psi>."""
        target = k ^ self.index
        if target:
            span = gf2.Echelon()
            for i, s in enumerate(self.stabs):
                if s[0]:
                    span.add(s[0], 1 << i)
            rest, pick = span.reduce(target)
            if rest:
                return None
        else:
            pick = 0
        s = (0, 0, 0)
        while pick:
            low = pick & -pick
            s = _mul(s, self.stabs[low.bit_length() - 1])
            pick ^= low
        return (self.eighths + 2 * _exp_at(s, self.index)) & 7

    def apply(self, step: RotationStep) -> None:
        if step.kind == "qubit_swap":
            a, b = step.qubits
            self.index = _swap_bits(self.index, a, b)
            self.stabs = [(_swap_bits(x, a, b), _swap_bits(z, a, b), p)
                          for x, z, p in self.stabs]
            return
        axis = step.axis
        p = (axis.x_bits, axis.z_bits, axis.phase_exp)
        turns = step.quarter_turns
        a, x = self.index, axis.x_bits
        if turns == 2:
            # R_P(pi) = -i P
            self.index = a ^ x
            self.eighths = (self.eighths + 2 * _exp_at(p, a) - 2) & 7
        else:
            # R_P(s pi/2) = (I - i s P)/sqrt(2); -i s = w**(-2 s)
            partner = self.eighths_at(a ^ x)
            if partner is not None:
                here = _sum_eighths(self.eighths, partner + 2 * _exp_at(p, a ^ x) - 2 * turns)
                if here is None:
                    here = _sum_eighths(partner, self.eighths + 2 * _exp_at(p, a) - 2 * turns)
                    self.index = a ^ x
                self.eighths = here
        _conjugate(self.stabs, p, turns)


def split_clifford(frame: PauliFrame, reference: list[RotationStep]
                   ) -> tuple[list[RotationStep], HadamardFree]:
    """The tracked Clifford U as h quarter turns followed by one Clifford
    without a Hadamard part: U = F * T_h ... T_1, global phase included.

    ``reference`` is ``invert_to_rotations(frame)``, whose product is U with
    the global phase that a flush keeps; the result matches it exactly.

    Each turn T = R_Q(pi/2) lowers the GF(2) rank of the x parts of the
    eff_z rows by one, so h is that rank (the size of U's Hadamard layer in
    the canonical form F1 H P F2 of Bravyi & Maslov, arXiv:2003.09412).
    Q = X**v Z**z takes for v the x part of an eff_z row, with top bit t,
    and for z a solution of parity(z & x_i) = x_i[t] ^ parity(v & z_i) over
    the rows (x_i, z_i): then exactly the rows with bit t set anticommute
    with Q, and conjugation adds v to their x parts, which clears bit t in
    all of them.  Once every eff_z row is Z-type, F maps basis states to
    basis states, and F, as ``HadamardFree``, is read off the rows:

    - eff_z[j] = F^dag Z_j F = (-1)**b_j Z**a_j: row j of A is a_j, and
      b_j is bit j of the offset.
    - eff_x[j] = F^dag X_j F maps |k> to phi(k)/phi(k ^ d_j) |k ^ d_j>, for
      F|k> = phi(k)|A k ^ b> and d_j = A^-1 e_j.  Its phase at k is
      i**(s_j + 2 parity(w_j & k)), w_j being its z part and s_j its phase
      exponent plus its count of Y letters.  So Gamma A^-1 = W, W having
      the columns w_j, for the symmetric matrix Gamma with the parities of
      diag on its diagonal and cross off it; and q(d_j) = -s_j fixes the
      high bits of diag.

    The constant phase comes from two ``_Tracker`` runs from |0>: one over
    ``reference``, one over the turns, after which F adds i**q(k).  The
    two states agree up to the phase, which is read at one index.
    """
    n = frame.num_qubits
    f = frame.copy()
    turns: list[RotationStep] = []
    while True:
        v = next((e[0] for e in f._z if e[0]), 0)
        if not v:
            break
        top = 1 << (v.bit_length() - 1)
        z = gf2.solve((x, (x & top != 0) ^ gf2.parity(v & zb)) for x, zb, _ in f._z)
        turn = RotationStep.rotation(PauliString(n, v, z), _QUARTER)
        turns.append(turn)
        f.apply_step(turn)

    rows = tuple(z for _, z, _ in f._z)
    offset = sum((p >> 1) << j for j, (_, _, p) in enumerate(f._z))
    gamma = [0] * n  # row i of Gamma = W A
    for j, (_, w, _) in enumerate(f._x):
        while w:
            low = w & -w
            gamma[low.bit_length() - 1] ^= rows[j]
            w ^= low
    low = HadamardFree(rows, offset, tuple(g >> i & 1 for i, g in enumerate(gamma)),
                       tuple(g & ~(1 << i) for i, g in enumerate(gamma)))
    high = 0  # the rows of A whose sum is the mask of the high bits of diag
    for j, (d, w, s) in enumerate(f._x):
        miss = (-(s + (d & w).bit_count()) - low.phase(d)) & 3
        if miss & 1:
            raise RuntimeError("the frame's eff_x rows fit no quadratic phase")
        if miss:
            high ^= rows[j]
    rest = low._replace(diag=tuple(d + 2 * (high >> i & 1) for i, d in enumerate(low.diag)))

    ref = _Tracker(n)
    for step in reference:
        ref.apply(step)
    ours = _Tracker(n)
    for step in turns:
        ours.apply(step)
    at = ref.eighths_at(rest.image(ours.index))
    if at is None:
        raise RuntimeError("the flush's factors and the reference steps build different states")
    return turns, rest._replace(eighths=(at - ours.eighths - 2 * rest.phase(ours.index)) & 7)
