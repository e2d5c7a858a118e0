"""Pauli-sum Hamiltonians: text ingestion, seeded random generation, stats.

The interchange text format is one term per line, ``<coeff> <pauli>``, with
``#`` comments and blank lines ignored.  The Pauli accepts the dense form
("ZZIX", first letter = highest qubit) or the sparse form ("X0 Y3 Z5"); the
sparse form needs an explicit ``qubits: <n>`` header line, which is also
allowed (and emitted) for dense files.  Coefficients may use the Unicode
minus sign, as produced by some exporters.
"""
from __future__ import annotations

import io
import re
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .pauli import PauliString

_DENSE = re.compile(r"[IXYZ]+$")
_SPARSE = re.compile(r"[IXYZ]\d+(\s+[IXYZ]\d+)*$")


class HamiltonianParseError(ValueError):
    """Malformed Hamiltonian text; message carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DuplicateTermError(ValueError):
    """A Hamiltonian lists one Pauli twice; ``index`` is the later term's position."""

    def __init__(self, index: int, label: str):
        super().__init__(f"duplicate term {label} at index {index}")
        self.index = index


@dataclass(frozen=True, slots=True)
class HamTerm:
    """One summand c * P with a real coefficient and a sign-free Pauli."""

    coeff: float
    pauli: PauliString

    def __post_init__(self):
        if not isfinite(self.coeff):
            raise ValueError("coefficient must be finite")
        if self.pauli.phase_exp != 0:
            raise ValueError("term Paulis carry no phase; fold signs into the coefficient")


class Hamiltonian:
    """Ordered list of unique HamTerms; the order fixes the Trotter order."""

    __slots__ = ("num_qubits", "terms", "name")

    def __init__(self, num_qubits: int, terms=(), name: str = ""):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        terms = tuple(terms)
        seen = set()
        for index, t in enumerate(terms):
            if t.pauli.num_qubits != num_qubits:
                raise ValueError("term qubit count mismatch")
            key = (t.pauli.x_bits, t.pauli.z_bits)
            if key in seen:
                raise DuplicateTermError(index, t.pauli.to_label(signed=False))
            seen.add(key)
        self.num_qubits = num_qubits
        self.terms = terms
        self.name = name

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return (self.num_qubits == other.num_qubits and self.terms == other.terms)

    def locality_stats(self) -> tuple[float, float, int]:
        """(mean, population std, max) of the term Pauli weights."""
        if not self.terms:
            raise ValueError("locality statistics need at least one term")
        weights = np.array([t.pauli.weight for t in self.terms], dtype=float)
        return float(weights.mean()), float(weights.std()), int(weights.max())

    def one_norm(self) -> float:
        return float(sum(abs(t.coeff) for t in self.terms))

    def dump_text(self) -> str:
        lines = [f"qubits: {self.num_qubits}"]
        lines += [f"{t.coeff!r} {t.pauli.to_label(signed=False)}" for t in self.terms]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"Hamiltonian(name={self.name!r}, num_qubits={self.num_qubits}, "
                f"terms={len(self.terms)})")


def parse_hamiltonian(source, name: str = "") -> Hamiltonian:
    """Read the text format from a string or text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    num_qubits = None
    terms: list[HamTerm] = []
    written: list[tuple[int, str]] = []  # the line and Pauli text of each term
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("qubits:"):
            if num_qubits is not None or terms:
                raise HamiltonianParseError(lineno, "qubits header must come first, once")
            try:
                num_qubits = int(line.split(":", 1)[1])
            except ValueError:
                raise HamiltonianParseError(lineno, f"bad qubit count in {line!r}") from None
            if num_qubits < 1:
                raise HamiltonianParseError(lineno, "qubit count must be >= 1")
            continue
        fields = line.replace("−", "-").split(None, 1)
        if len(fields) != 2:
            raise HamiltonianParseError(lineno, f"expected '<coeff> <pauli>', got {line!r}")
        coeff_text, pauli_text = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianParseError(lineno, f"bad coefficient {coeff_text!r}") from None
        pauli_text = pauli_text.strip()
        try:
            if _DENSE.match(pauli_text) and " " not in pauli_text:
                pauli = PauliString.from_label(pauli_text)
                if num_qubits is not None and pauli.num_qubits != num_qubits:
                    raise ValueError(f"dense term has {pauli.num_qubits} letters, "
                                     f"expected {num_qubits}")
            elif _SPARSE.match(pauli_text):
                if num_qubits is None:
                    raise ValueError("sparse terms need a 'qubits: <n>' header")
                pauli = PauliString.from_sparse(pauli_text, num_qubits)
            else:
                raise ValueError(f"unrecognized Pauli {pauli_text!r}")
        except ValueError as exc:
            raise HamiltonianParseError(lineno, str(exc)) from None
        if num_qubits is None:
            num_qubits = pauli.num_qubits
        terms.append(HamTerm(coeff, pauli))
        written.append((lineno, pauli_text))
    if num_qubits is None:
        raise HamiltonianParseError(0, "empty input: no qubit count and no terms")
    try:
        return Hamiltonian(num_qubits, terms, name=name)
    except DuplicateTermError as exc:
        lineno, pauli_text = written[exc.index]
        raise HamiltonianParseError(lineno, f"duplicate term {pauli_text!r}") from None


def candidate_count(num_qubits: int, locality: int) -> int:
    """Number of distinct weight-k Pauli strings: C(n, k) * 3**k."""
    return comb(num_qubits, locality) * 3 ** locality


def sample_term(rng: np.random.Generator, num_qubits: int, locality: int) -> PauliString:
    """One uniform weight-k Pauli: uniform support set, uniform letters."""
    support = rng.choice(num_qubits, size=locality, replace=False)
    letters = rng.integers(0, 3, size=locality)  # 0 -> X, 1 -> Y, 2 -> Z
    x = z = 0
    for q, c in zip(support, letters):
        if c != 2:
            x |= 1 << int(q)
        if c != 0:
            z |= 1 << int(q)
    return PauliString(num_qubits, x, z)


def random_hamiltonian(num_qubits: int, locality: int, n_terms: int,
                       seed, name: str | None = None) -> Hamiltonian:
    """Seeded random Hamiltonian with ``n_terms`` distinct exact-weight terms.

    Terms are drawn uniformly from the candidate set with rejection on
    duplicates; coefficients are uniform on (-1, 1) and then scaled so the
    one-norm is exactly 1.  Fully determined by the seed.
    """
    if not 1 <= locality <= num_qubits:
        raise ValueError(f"locality must be in [1, {num_qubits}], got {locality}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    limit = candidate_count(num_qubits, locality)
    if n_terms > limit:
        raise ValueError(f"{n_terms} terms requested but only {limit} distinct "
                         f"weight-{locality} Paulis exist on {num_qubits} qubits")
    rng = np.random.default_rng(seed)
    paulis: list[PauliString] = []
    seen: set[tuple[int, int]] = set()
    while len(paulis) < n_terms:
        p = sample_term(rng, num_qubits, locality)
        key = (p.x_bits, p.z_bits)
        if key not in seen:
            seen.add(key)
            paulis.append(p)
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
    coeffs /= np.sum(np.abs(coeffs))
    if name is None:
        name = f"random_n{num_qubits}_k{locality}_t{n_terms}_s{seed}"
    return Hamiltonian(num_qubits,
                       [HamTerm(float(c), p) for c, p in zip(coeffs, paulis)],
                       name=name)
