"""Seeded input generators for the three benchmark workloads.

Each workload is a frozen spec; ``build(spec, seed, index)`` returns the
circuit of one repetition.  Repetition ``index`` of a run with ``seed`` always
gets the same circuit, and consecutive repetitions get different circuits,
so a run's median averages over several inputs instead of hinging on one.
The inputs are built only through framesim's public API.

Category counts are fixed per circuit (not drawn), so the work per
repetition varies across seeds only through which qubits, letters and
angles are drawn.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

import framesim

# the mix inside each Clifford block of clifford_rot: two of each tag
CLIFFORD_BLOCK = ("H", "H", "S", "S", "CX", "CX", "CZ", "CZ", "SWAP", "SWAP")
# one-qubit and two-qubit Cliffords drawn by the shots circuit
SHOT_CLIFFORDS = ("H", "S", "SDG", "X", "Y", "Z", "CX", "CZ", "SWAP")
ROTATIONS = ("RX", "RY", "RZ")


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    kind "trotter": one first-order Trotter step of a random Hamiltonian
    with ``terms`` weight-``locality`` terms; amplitudes are read at the end.
    kind "clifford_rot": ``rotations`` axis rotations, each preceded by one
    shuffled CLIFFORD_BLOCK; amplitudes are read at the end.
    kind "shots": a ``gates``-gate circuit with ``measurements`` MEASZ,
    ``preparations`` PREPZ and ``rotations`` RX/RY/RZ, the rest Clifford, run
    for ``shots`` shots; only the measurement records are read.
    """

    name: str
    kind: str
    num_qubits: int
    locality: int = 0
    terms: int = 0
    rotations: int = 0
    gates: int = 0
    measurements: int = 0
    preparations: int = 0
    shots: int = 1

    @property
    def needs_amplitudes(self) -> bool:
        return self.kind != "shots"

    def to_json(self) -> dict:
        return asdict(self)


# Term, rotation and shot counts are cut from 100 terms, 40 rotations and
# 2000 shots so that a repetition fits several times into one run; qubit
# counts, locality and the gate mix are kept.
WORKLOADS = {
    w.name: w for w in (
        Workload("trotter_n18_k18", "trotter", 18, locality=18, terms=25),
        Workload("clifford_rot_n20", "clifford_rot", 20, rotations=10),
        Workload("shots_n8", "shots", 8, gates=200, rotations=50,
                 measurements=16, preparations=8, shots=250),
    )
}


def build_hamiltonian(w: Workload, seed: int, index: int):
    """The Hamiltonian of a trotter repetition, or None for other kinds."""
    if w.kind != "trotter":
        return None
    return framesim.random_hamiltonian(w.num_qubits, w.locality, w.terms,
                                       [seed, index],
                                       name=f"{w.name}_s{seed}_i{index}")


def build_circuit(w: Workload, seed: int, index: int, hamiltonian=None):
    """The circuit of repetition ``index``; trotter needs its Hamiltonian."""
    if w.kind == "trotter":
        return framesim.trotterize(hamiltonian)
    rng = np.random.default_rng([seed, index])
    if w.kind == "clifford_rot":
        return _clifford_rot(w, rng)
    if w.kind == "shots":
        return _shots(w, rng)
    raise ValueError(f"unknown workload kind {w.kind!r}")


def build(w: Workload, seed: int, index: int):
    return build_circuit(w, seed, index, build_hamiltonian(w, seed, index))


def _append_random(circ, tag: str, rng) -> None:
    n = circ.num_qubits
    if tag in ("CX", "CZ", "SWAP"):
        a, b = rng.choice(n, size=2, replace=False)
        circ.append(tag, int(a), int(b))
    elif tag in ROTATIONS:
        circ.append(tag, int(rng.integers(n)),
                    angle=float(rng.uniform(-math.pi, math.pi)))
    else:
        circ.append(tag, int(rng.integers(n)))


def _clifford_rot(w: Workload, rng):
    circ = framesim.Circuit(w.num_qubits)
    for _ in range(w.rotations):
        for tag in rng.permutation(CLIFFORD_BLOCK):
            _append_random(circ, str(tag), rng)
        _append_random(circ, ROTATIONS[int(rng.integers(3))], rng)
    return circ


def _shots(w: Workload, rng):
    cliffords = w.gates - w.rotations - w.measurements - w.preparations
    if cliffords < 0:
        raise ValueError("gate categories exceed the gate count")
    tags = ([str(t) for t in rng.choice(SHOT_CLIFFORDS, size=cliffords)]
            + [str(t) for t in rng.choice(ROTATIONS, size=w.rotations)]
            + ["MEASZ"] * w.measurements + ["PREPZ"] * w.preparations)
    circ = framesim.Circuit(w.num_qubits)
    for i in rng.permutation(len(tags)):
        _append_random(circ, tags[i], rng)
    return circ


def shot_rng(seed: int, index: int, shot: int) -> np.random.Generator:
    """The outcome generator of one shot; both backends get an equal copy."""
    return np.random.default_rng([seed, index, shot])
