"""Shared 1-/2-qubit gate IR, Pauli-exponential compilation, Trotterization.

Both backends consume the same gate stream.  A gate list is ordered in time:
the first list element is applied first.  The Clifford subset is exactly
{H, S, SDG, X, Y, Z, CX, CZ, SWAP}; RX/RY/RZ carry an angle in the
R_A(theta) = exp(-i theta A / 2) convention, and PREPZ/MEASZ are the
computational-basis preparation and measurement.

Besides its ``Gate`` records, a circuit keeps the gate stream in a lowered
form, built as the gates are appended: per gate a code (its index in
``TAGS``), two qubits (the second 0 for one-qubit gates) and an angle (0.0
when it has none), in two flat arrays.  The hybrid backend's compiled gate
loop reads that form without touching a Python object per gate.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from .pauli import PauliString
from .hamiltonian import Hamiltonian

CLIFFORD_TAGS = frozenset({"H", "S", "SDG", "X", "Y", "Z", "CX", "CZ", "SWAP"})
# each rotation tag with the single-qubit Pauli it rotates about
ROTATION_AXIS = {"RX": "X", "RY": "Y", "RZ": "Z"}
ROTATION_TAGS = frozenset(ROTATION_AXIS)
# the gate code of each tag is its index here; _kernels.c lists the same order
TAGS = ("H", "S", "SDG", "X", "Y", "Z", "CX", "CZ", "SWAP", "RX", "RY", "RZ",
        "MEASZ", "PREPZ")
_CODE = {tag: code for code, tag in enumerate(TAGS)}
_ARITY = {
    "H": 1, "S": 1, "SDG": 1, "X": 1, "Y": 1, "Z": 1,
    "CX": 2, "CZ": 2, "SWAP": 2,
    "RX": 1, "RY": 1, "RZ": 1,
    "PREPZ": 1, "MEASZ": 1,
}


@dataclass(frozen=True, slots=True)
class Gate:
    tag: str
    qubits: tuple[int, ...]
    angle: float | None = None


class Circuit:
    """An ordered gate list on a fixed qubit count, plus free-form metadata.

    Gates are added only through ``append`` and ``extend``, which keep the
    ``Gate`` records, the lowered arrays (see ``lowered``) and the Clifford
    and rotation tallies in step; ``gates`` is a read-only copy, and
    iterating over the circuit walks the gates without one.
    """

    __slots__ = ("num_qubits", "_gates", "_ops", "_angles", "_cliffords", "_rotations",
                 "metadata")

    def __init__(self, num_qubits: int, gates=None, metadata=None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self._gates: list[Gate] = []
        self._ops = array("i")  # code, q0, q1 per gate
        self._angles = array("d")
        self._cliffords = self._rotations = 0
        self.metadata: dict = dict(metadata) if metadata else {}
        for g in gates or ():
            self.append(g.tag, *g.qubits, angle=g.angle)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self._gates)

    def lowered(self) -> tuple[array, array]:
        """The gate stream as flat arrays: ``ops`` holds the code (index in
        ``TAGS``) and two qubits of each gate, int32, and ``angles`` its angle,
        float64.  The arrays are the circuit's own; do not modify them."""
        return self._ops, self._angles

    def append(self, tag: str, *qubits: int, angle: float | None = None) -> None:
        if tag not in _ARITY:
            raise ValueError(f"unknown gate tag {tag!r}")
        if len(qubits) != _ARITY[tag]:
            raise ValueError(f"{tag} takes {_ARITY[tag]} qubit(s), got {len(qubits)}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{tag} needs distinct qubits, got {qubits}")
        if tag in ROTATION_TAGS:
            if angle is None or not _finite(angle):
                raise ValueError(f"{tag} requires a finite angle")
        elif angle is not None:
            raise ValueError(f"{tag} does not take an angle")
        self._cliffords += tag in CLIFFORD_TAGS
        self._rotations += tag in ROTATION_TAGS
        self._gates.append(Gate(tag, tuple(qubits), angle))
        self._ops.extend((_CODE[tag], qubits[0], qubits[-1] if len(qubits) > 1 else 0))
        self._angles.append(0.0 if angle is None else angle)

    def extend(self, other: "Circuit") -> None:
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        self._gates.extend(other._gates)
        self._ops.extend(other._ops)
        self._angles.extend(other._angles)
        self._cliffords += other._cliffords
        self._rotations += other._rotations

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self):
        """The gates in order, without the copy that ``gates`` makes."""
        return iter(self._gates)

    def clifford_count(self) -> int:
        return self._cliffords

    def rotation_count(self) -> int:
        return self._rotations

    def dump_text(self) -> str:
        """One gate per line: ``TAG q[,q2][,angle]``."""
        lines = []
        for g in self._gates:
            parts = [str(q) for q in g.qubits]
            if g.angle is not None:
                parts.append(repr(g.angle))
            lines.append(f"{g.tag} " + ",".join(parts))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Circuit(num_qubits={self.num_qubits}, gates={len(self._gates)}, "
                f"cliffords={self.clifford_count()}, rotations={self.rotation_count()})")


def _finite(x: float) -> bool:
    return x == x and abs(x) != float("inf")


def compile_pauli_rotation(term: PauliString, angle: float) -> Circuit:
    """CNOT-staircase decomposition of exp(-i angle/2 * term).

    Basis changes map each X support to Z with H and each Y support to Z
    with (SDG, H); a descending CNOT chain folds the joint parity onto the
    lowest-index support qubit, where a single RZ applies the angle; the
    chain and basis changes are then mirrored.  Weight-k terms use exactly
    2(k-1) CX gates.  A weight-0 term is a pure global phase, recorded in
    the fragment metadata instead of emitting gates.
    """
    if term.phase_exp != 0:
        raise ValueError("fold the sign of the term into the angle first")
    circ = Circuit(term.num_qubits)
    support = term.support
    if not support:
        circ.metadata["global_phase"] = -angle / 2.0
        return circ
    for q in support:
        letter = term.letter_at(q)
        if letter == "X":
            circ.append("H", q)
        elif letter == "Y":
            circ.append("SDG", q)
            circ.append("H", q)
    for i in range(len(support) - 1, 0, -1):
        circ.append("CX", support[i], support[i - 1])
    circ.append("RZ", support[0], angle=angle)
    for i in range(1, len(support)):
        circ.append("CX", support[i], support[i - 1])
    for q in support:
        letter = term.letter_at(q)
        if letter == "X":
            circ.append("H", q)
        elif letter == "Y":
            circ.append("H", q)
            circ.append("S", q)
    return circ


def trotterize(hamiltonian: Hamiltonian, time: float = 1.0, steps: int = 1) -> Circuit:
    """First-order product-formula circuit for exp(-i H t).

    Each of the ``steps`` repetitions walks the terms in their stored order
    and emits exp(-i c_j P_j t / steps), i.e. a staircase with angle
    2 c_j t / steps.  Term order is part of the contract: both backends see
    the identical gate stream.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    circ = Circuit(hamiltonian.num_qubits,
                   metadata={"hamiltonian": hamiltonian.name,
                             "evolution_time": time,
                             "trotter_steps": steps})
    global_phase = 0.0
    for _ in range(steps):
        for term in hamiltonian.terms:
            frag = compile_pauli_rotation(term.pauli, 2.0 * term.coeff * time / steps)
            circ.extend(frag)
            global_phase += frag.metadata.get("global_phase", 0.0)
    if global_phase:
        circ.metadata["global_phase"] = global_phase
    return circ
