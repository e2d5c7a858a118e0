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
anticommuting B, and a pi turn negates a single letter.

``split_clifford`` is how the hybrid backend flushes the frame into the
state vector when raw amplitudes are needed (in C, on the same words, when
the compiled kernels load): the Clifford as h quarter turns, h being the
size of its Hadamard layer, followed by one Hadamard-free Clifford
(``HadamardFree``), which maps each basis state to one basis state times a
power of i.  The frame leaves the global phase open, and the split fixes
it: the Hadamard-free part has no constant factor.

The 2n rows are held as machine words rather than PauliString objects, for
up to 64 qubits: ``xs`` and ``zs`` hold the x and z bits of eff_z[0..n-1]
and then of eff_x[0..n-1] (``array`` of typecode 'Q'), and ``ps`` their
phase exponents (typecode 'B').  The hybrid backend's compiled gate loop
(``_kernels.run_gates``) updates these arrays in place; the Python methods
read and write them as (x_bits, z_bits, phase_exp) integer triples, since
the frame update runs once per circuit gate and object construction would
dominate it.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from . import gf2
from .pauli import PauliString, _anti, _mul, _swap_bits

_QUARTER = math.pi / 2  # R_Q(pi/2) = exp(-i pi/4 Q), a symplectic transvection


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
    """n rows of (eff_z, eff_x) signed Pauli pairs; mutable, single-owner.

    Holds at most 64 qubits, one word per row mask; a larger frame raises
    ValueError.
    """

    __slots__ = ("num_qubits", "xs", "zs", "ps")

    def __init__(self, num_qubits: int, rows=None):
        if not 1 <= num_qubits <= 64:
            raise ValueError(f"a frame holds 1 to 64 qubits, not {num_qubits}")
        self.num_qubits = n = num_qubits
        if rows is None:
            units = [1 << j for j in range(n)]
            self.xs, self.zs = array("Q", [0] * n + units), array("Q", units + [0] * n)
            self.ps = array("B", bytes(2 * n))
            return
        if len(rows) != n:
            raise ValueError("need one (eff_z, eff_x) row per qubit")
        if any(e.num_qubits != n for row in rows for e in row):
            raise ValueError("row operator qubit count mismatch")
        entries = [z for z, _ in rows] + [x for _, x in rows]
        self.xs = array("Q", [e.x_bits for e in entries])
        self.zs = array("Q", [e.z_bits for e in entries])
        self.ps = array("B", [e.phase_exp for e in entries])

    @classmethod
    def origin(cls, num_qubits: int) -> "PauliFrame":
        """The identity-circuit frame: row j = (Z_j, X_j)."""
        return cls(num_qubits)

    def copy(self) -> "PauliFrame":
        out = PauliFrame.__new__(PauliFrame)
        out.num_qubits = self.num_qubits
        out.xs, out.zs, out.ps = self.xs[:], self.zs[:], self.ps[:]
        return out

    def _row(self, i: int) -> tuple[int, int, int]:
        """Word row i as a triple: eff_z[i] for i < n, eff_x[i - n] above."""
        return self.xs[i], self.zs[i], self.ps[i]

    def _put(self, i: int, row) -> None:
        self.xs[i], self.zs[i], self.ps[i] = row

    def eff_z(self, i: int) -> PauliString:
        if not 0 <= i < self.num_qubits:
            raise IndexError(f"qubit {i} out of range")
        return PauliString(self.num_qubits, *self._row(i))

    def eff_x(self, i: int) -> PauliString:
        if not 0 <= i < self.num_qubits:
            raise IndexError(f"qubit {i} out of range")
        return PauliString(self.num_qubits, *self._row(self.num_qubits + i))

    def rows(self) -> list[tuple[PauliString, PauliString]]:
        return [(self.eff_z(i), self.eff_x(i)) for i in range(self.num_qubits)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliFrame):
            return NotImplemented
        return self.xs == other.xs and self.zs == other.zs and self.ps == other.ps

    def is_origin(self) -> bool:
        return self == PauliFrame.origin(self.num_qubits)

    def validate(self) -> bool:
        """Check the symplectic pairing and sign conventions of every row:
        each phase exponent is 0 or 2 and each mask below 2**n, and of the 2n rows,
        eff_z[i] anticommutes with eff_x[i] alone, and eff_x[i] with eff_z[i]
        alone.  Checks every pair of rows with ``_anti``, as the compiled
        flush's ``valid_frame`` does.
        """
        n = self.num_qubits
        if any(p & ~2 for p in self.ps) or any((x | z) >> n for x, z in zip(self.xs, self.zs)):
            return False
        rows = list(zip(self.xs, self.zs))
        return all(_anti(rows[i], rows[j]) == (i - j == n)
                   for i in range(1, 2 * n) for j in range(i))

    # ------------------------------------------------------------------
    # backward gate updates

    def apply_gate(self, tag: str, qubits) -> None:
        """Append Clifford gate g: affected rows become the frame expansion
        of g^dag sigma g, a product of at most two current entries."""
        row, put = self._row, self._put
        n = self.num_qubits
        if tag == "CX":
            c, t = qubits
            if c == t or not (0 <= c < n and 0 <= t < n):
                raise ValueError(f"{tag} needs two distinct qubits below {n}, got {qubits}")
            put(t, _mul(row(c), row(t)))
            put(n + c, _mul(row(n + c), row(n + t)))
            return
        if tag in ("H", "S", "SDG", "X", "Y", "Z"):
            (i,) = qubits
            if not 0 <= i < n:
                raise ValueError(f"qubit {i} out of range")
            if tag == "H":
                z = row(i)
                put(i, row(n + i))
                put(n + i, z)
            elif tag in ("S", "SDG"):
                # S^dag X S = -Y, and -Y maps to +i * eff_z * eff_x
                xi, zi, p = _mul(row(i), row(n + i))
                put(n + i, (xi, zi, (p + (1 if tag == "S" else -1)) & 3))
            else:  # X negates eff_z, Z negates eff_x, and Y both
                if tag != "Z":
                    self.ps[i] ^= 2
                if tag != "X":
                    self.ps[n + i] ^= 2
            return
        c, t = qubits
        if c == t or not (0 <= c < n and 0 <= t < n):
            raise ValueError(f"{tag} needs two distinct qubits below {n}, got {qubits}")
        if tag == "CZ":
            put(n + c, _mul(row(n + c), row(t)))
            put(n + t, _mul(row(c), row(n + t)))
        elif tag == "SWAP":
            for a, b in ((c, t), (n + c, n + t)):
                ra = row(a)
                put(a, row(b))
                put(b, ra)
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
        n = self.num_qubits
        acc = (0, 0, p.phase_exp)
        px, pz = p.x_bits, p.z_bits
        support = px | pz
        while support:
            low = support & -support
            j = low.bit_length() - 1
            if not pz & low:
                img = self._row(n + j)
            elif not px & low:
                img = self._row(j)
            else:
                ix, iz, ip = _mul(self._row(n + j), self._row(j))
                img = (ix, iz, (ip + 1) & 3)
            acc = _mul(acc, img)
            support ^= low
        return PauliString(n, *acc)

    # ------------------------------------------------------------------
    # entry-wise conjugation (used by the synthesis algorithm)

    def conjugate_rotation(self, axis: PauliString, angle: float) -> None:
        """Conjugate every entry by R_axis(angle), angle in {+-pi/2, pi}.

        Entries commuting with the axis are untouched; anticommuting ones
        become -i*Q*E (+pi/2), +i*Q*E (-pi/2) or -E (pi).
        """
        q = axis.x_bits, axis.z_bits, axis.phase_exp
        shift = -_quarter_turns(angle) & 3
        ps = self.ps
        for i, (ex, ez) in enumerate(zip(self.xs, self.zs)):
            if _anti((ex, ez), q):
                if shift == 2:
                    ps[i] ^= 2
                else:
                    ex, ez, ep = _mul(q, (ex, ez, ps[i]))
                    self._put(i, (ex, ez, (ep + shift) & 3))

    def conjugate_swap(self, a: int, b: int) -> None:
        """Conjugate every entry by SWAP(a, b), i.e. relabel the two qubits."""
        for words in (self.xs, self.zs):
            for i, w in enumerate(words):
                words[i] = _swap_bits(w, a, b)

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
        """Row q if wanted(the masks of its eff_z), else the first row i with
        wanted(the masks of eff_z[i])."""
        if wanted(f.xs[q], f.zs[q]):
            return q
        return next((i for i in range(n) if wanted(f.xs[i], f.zs[i])), None)

    left = list(range(n))
    while left:
        q = next((q for q in left if f.xs[q] >> q & 1), left[0])
        left.remove(q)
        bit = 1 << q
        row = pivot(q, lambda x, z: x & bit)  # an X or Y letter at q
        if row is not None:
            send(f._row(row), (0, bit, 0))
        else:
            row = pivot(q, lambda x, z: (x | z) & bit)
            if row is None:
                raise RuntimeError(f"no eff_z row carries qubit {q}; a valid frame always has one")
            if f.xs[row] | f.zs[row] != bit:
                send(f._row(row), (bit, 0, 0))
        x, z, _ = ex = f._row(n + row)
        if x | z != bit:
            straight = (bit, 0, 0)
            if _anti(straight, f._row(row)) and _anti(straight, ex):
                send(ex, straight)
            else:
                send(ex, ((f.xs[row] ^ x) & bit, (f.zs[row] ^ z) & bit, 0))

    # every row is now a single-qubit anticommuting pair; first the turns
    # with a Hadamard part, then the Z-axis and half turns
    for i in range(n):
        if f.xs[i]:
            send(f._row(i), (0, f.xs[i], 0))
    for i in range(n):
        bit = f.zs[i]
        send(f._row(i), (0, bit, 0))
        send(f._row(n + i), (bit, 0, 0))

    # sort the (+Z_q, +X_q) pairs into their home rows by relabeling
    for i in range(n):
        q = (f.xs[i] | f.zs[i]).bit_length() - 1
        if q != i:
            emit(RotationStep.swap(i, q))

    if not f.is_origin():
        raise RuntimeError("frame synthesis did not terminate on the origin frame")
    return steps


# ----------------------------------------------------------------------
# the flush's canonical form: h quarter turns and one Hadamard-free part


class HadamardFree(NamedTuple):
    """The Clifford |k> -> i**q(k) |A k ^ offset>, with no constant factor.

    ``rows`` holds the row masks of the invertible GF(2) matrix A, (A k)_i =
    parity(rows[i] & k), as in ``gf2``.  The phase is quadratic:
    q(k) = sum over the set bits i of k of diag[i] + popcount(cross[i] & k),
    mod 4.  So diag[i] (0..3) is q at the unit vector e_i, and the masks
    ``cross`` are symmetric (bit j of cross[i] is bit i of cross[j], and bit
    i of cross[i] is clear): each pair of set bits they link adds 2.
    Every Clifford without a Hadamard part (X, CX, SWAP, S, CZ) has this
    form up to a global phase, and only those have it.
    """

    rows: tuple[int, ...]
    offset: int
    diag: tuple[int, ...]
    cross: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "HadamardFree":
        """The identity on n qubits."""
        return cls(tuple(1 << i for i in range(n)), 0, (0,) * n, (0,) * n)

    def after(self, rows) -> "HadamardFree":
        """F P_A, for this Clifford F and the index map P_A|k> = |A k> of the
        invertible GF(2) matrix A with row masks ``rows``:
        |k> -> i**q(A k) |R A k ^ offset>, R being F's matrix.

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
        return (self.offset == 0
                and all(r == 1 << i for i, r in enumerate(self.rows))
                and not any(self.diag) and not any(self.cross))


def split_clifford(frame: PauliFrame) -> tuple[list[RotationStep], HadamardFree]:
    """The tracked Clifford U as h quarter turns followed by one Clifford
    without a Hadamard part: U = F * T_h ... T_1.

    This is the flush's split on the numpy tier, and the reference of the
    compiled one inside ``_kernels.flush``, which makes the same turns and
    returns this rest composed with the index map (``HadamardFree.after``)
    word for word.

    The frame fixes U only up to a global phase; this is the phase the
    split gives it: the turns T = R_Q(pi/2) carry their own, and F has no
    constant factor (F|k> = i**q(k) |A k ^ b>, and q(0) = 0).  The steps of
    ``invert_to_rotations`` multiply to the same U times w**r for one
    integer r, w = exp(i*pi/4).  Raises ValueError, before any other work,
    if the frame is not valid.

    Each turn lowers the GF(2) rank of the x parts of the eff_z rows by one,
    so h is that rank (the size of U's Hadamard layer in the canonical form
    F1 H P F2 of Bravyi & Maslov, arXiv:2003.09412).  Q = X**v Z**z takes
    for v the x part of an eff_z row, with top bit t, and for z a solution
    of parity(z & x_i) = x_i[t] ^ parity(v & z_i) over the rows (x_i, z_i):
    then exactly the rows with bit t set anticommute with Q, and
    conjugation adds v to their x parts, which clears bit t in all of them.
    Once every eff_z row is Z-type, F maps basis states to basis states,
    and F, as ``HadamardFree``, is read off the rows:

    - eff_z[j] = F^dag Z_j F = (-1)**b_j Z**a_j: row j of A is a_j, and
      b_j is bit j of the offset.
    - eff_x[j] = F^dag X_j F maps |k> to phi(k)/phi(k ^ d_j) |k ^ d_j>, for
      F|k> = phi(k)|A k ^ b> and d_j = A^-1 e_j.  Its phase at k is
      i**(s_j + 2 parity(w_j & k)), w_j being its z part and s_j its phase
      exponent plus its count of Y letters.  So Gamma A^-1 = W, W having
      the columns w_j, for the symmetric matrix Gamma with the parities of
      diag on its diagonal and cross off it; and q(d_j) = -s_j fixes the
      high bits of diag.
    """
    if not frame.validate():
        raise ValueError("cannot split an invalid frame")
    n = frame.num_qubits
    f = frame.copy()
    turns: list[RotationStep] = []
    while True:
        v = next((x for x in f.xs[:n] if x), 0)
        if not v:
            break
        top = 1 << (v.bit_length() - 1)
        z = gf2.solve((x, (x & top != 0) ^ gf2.parity(v & zb))
                      for x, zb in zip(f.xs[:n], f.zs[:n]))
        turn = RotationStep.rotation(PauliString(n, v, z), _QUARTER)
        turns.append(turn)
        f.apply_step(turn)

    rows = tuple(f.zs[:n])
    offset = sum((p >> 1) << j for j, p in enumerate(f.ps[:n]))
    gamma = [0] * n  # row i of Gamma = W A
    for j, w in enumerate(f.zs[n:]):
        while w:
            low = w & -w
            gamma[low.bit_length() - 1] ^= rows[j]
            w ^= low
    low = HadamardFree(rows, offset, tuple(g >> i & 1 for i, g in enumerate(gamma)),
                       tuple(g & ~(1 << i) for i, g in enumerate(gamma)))
    high = 0  # the rows of A whose sum is the mask of the high bits of diag
    for j, (d, w, s) in enumerate(zip(f.xs[n:], f.zs[n:], f.ps[n:])):
        miss = (-(s + (d & w).bit_count()) - low.phase(d)) & 3
        if miss & 1:
            raise RuntimeError("the frame's eff_x rows fit no quadratic phase")
        if miss:
            high ^= rows[j]
    return turns, low._replace(diag=tuple(d + 2 * (high >> i & 1)
                                          for i, d in enumerate(low.diag)))
