"""Linear algebra over GF(2) on integer bitmasks, for the flush's synthesis.

A vector is an int whose bit j is its j-th coordinate.  A matrix M is a
list of row masks, acting as (M k)_i = parity(rows[i] & k); ``columns``
turns it into the images of the unit vectors, which the kernels take.
"""
from __future__ import annotations


def parity(v: int) -> int:
    return v.bit_count() & 1


def product(rows, other) -> list[int]:
    """The row masks of M N, for M and N with row masks ``rows`` and ``other``:
    row i is the XOR of the rows of N that row i of M selects."""
    out = []
    for r in rows:
        acc = 0
        while r:
            low = r & -r
            acc ^= other[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def columns(rows, n: int) -> list[int]:
    """The n columns of the matrix with row masks ``rows``: column c is M e_c."""
    cols = [0] * n
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


class Echelon:
    """A basis of a span in echelon form: no two basis vectors share their
    highest bit.  Each basis vector carries a tag, the XOR of the tags of
    the vectors it was reduced from, so a reduction also says which
    inserted vectors a member of the span sums."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, tuple[int, int]] = {}  # highest bit -> (vector, tag)

    def reduce(self, v: int, tag: int = 0) -> tuple[int, int]:
        """v minus the basis vectors its highest bits select, and tag with
        their tags: (0, t) if v is in the span, as the sum the tag t names."""
        pivots = self.pivots
        while v:
            hit = pivots.get(v.bit_length() - 1)
            if hit is None:
                break
            v ^= hit[0]
            tag ^= hit[1]
        return v, tag

    def add(self, v: int, tag: int = 0) -> tuple[int, int]:
        """Insert v with its tag; returns the reduction of v before the
        insertion, which is (0, t) if v was in the span already."""
        v, tag = self.reduce(v, tag)
        if v:
            self.pivots[v.bit_length() - 1] = (v, tag)
        return v, tag


def solve(equations) -> int:
    """A mask z with parity(z & a) == c for every (a, c) in ``equations``;
    free coordinates are 0.  Raises ValueError if there is none."""
    basis = Echelon()
    for a, c in equations:
        v, t = basis.add(a, c)
        if not v and t:
            raise ValueError("inconsistent GF(2) system")
    z = 0
    for top in sorted(basis.pivots):
        v, c = basis.pivots[top]
        if parity(z & v) != c:
            z |= 1 << top
    return z
