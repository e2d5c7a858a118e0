"""Gate IR validation, staircase compilation, Trotterization."""
import math
import tracemalloc

import numpy as np
import pytest

from framesim import (Circuit, HamTerm, Hamiltonian, PauliString,
                      compile_pauli_rotation, trotterize)
from framesim.circuit import CLIFFORD_TAGS, ROTATION_TAGS
from oracles import circuit_unitary, random_mixed_circuit, rotation_matrix


def test_append_validation():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.append("T", 0)
    with pytest.raises(ValueError):
        c.append("H", 0, 1)
    with pytest.raises(ValueError):
        c.append("CX", 0, 0)
    with pytest.raises(ValueError):
        c.append("CX", 0, 2)
    with pytest.raises(ValueError):
        c.append("RZ", 0)
    with pytest.raises(ValueError):
        c.append("RZ", 0, angle=float("nan"))
    with pytest.raises(ValueError):
        c.append("H", 0, angle=0.5)



@pytest.mark.parametrize("tag, qubits, angle", [
    ("H", (1.0,), None), ("RX", (np.float64(2.0),), 0.5), ("CX", (0, np.float64(2.0)), None),
    ("RZ", (0,), 1j)])
def test_a_refused_append_leaves_the_circuit_as_it_was(tag, qubits, angle):
    # a qubit that is no integer, or an angle that is no real number, is
    # refused before the gate record, the lowered arrays or a tally change
    c = Circuit(3)
    c.append("CX", 0, 1)
    c.append("RY", 2, angle=0.25)
    before = (len(c), c.gates, tuple(map(list, c.lowered())), c.clifford_count(),
              c.rotation_count())
    with pytest.raises(TypeError):
        c.append(tag, *qubits, angle=angle)
    assert (len(c), c.gates, tuple(map(list, c.lowered())), c.clifford_count(),
            c.rotation_count()) == before
    c.append("CZ", np.int64(2), np.int32(0))  # numpy integers are stored as int
    assert c.gates[-1].qubits == (2, 0) and all(type(q) is int for q in c.gates[-1].qubits)
    assert list(c.lowered()[0][-3:]) == [7, 2, 0] and len(c.lowered()[1]) == len(c) == 3

def test_counts():
    c = Circuit(3)
    assert (c.clifford_count(), c.rotation_count()) == (0, 0)
    c.append("H", 0)
    c.append("CX", 0, 1)
    c.append("RZ", 2, angle=0.1)
    c.append("MEASZ", 2)
    assert c.clifford_count() == 2
    assert c.rotation_count() == 1
    assert len(c) == 4


def test_counts_kept_at_append_time_equal_a_recount():
    # a circuit built by append, by extend (of itself too) and from gates=
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        parts = [random_mixed_circuit(rng, n, int(rng.integers(0, 40))) for _ in range(3)]
        joined = Circuit(n)
        for part in parts:
            joined.extend(part)
        joined.extend(joined)
        joined.append("MEASZ", n - 1)
        joined.append("RY", 0, angle=-0.0)
        joined.append("PREPZ", 0)
        rebuilt = Circuit(n, gates=joined.gates)
        for c in (*parts, joined, rebuilt):
            assert c.clifford_count() == sum(g.tag in CLIFFORD_TAGS for g in c.gates)
            assert c.rotation_count() == sum(g.tag in ROTATION_TAGS for g in c.gates)
        assert rebuilt.lowered() == joined.lowered()
        assert rebuilt.gates == joined.gates == tuple(joined[i] for i in range(len(joined)))
        assert all((g.angle is None) == (g.tag not in ROTATION_TAGS) for g in rebuilt)
        assert [rebuilt[i].tag for i in (-3, -2, -1)] == ["MEASZ", "RY", "PREPZ"]
        assert math.copysign(1.0, rebuilt[-2].angle) == -1.0


def test_a_circuit_stores_each_gate_once():
    # the lowered row is the only store: 12 bytes of codes and qubits and
    # 8 of angle per gate, where a Gate record next to them took about 140.
    # The first build fills the interpreter's tuple free lists, which the
    # traced build then reuses instead of counting them against the circuit
    rng = np.random.default_rng(6)
    gates = list(zip(rng.choice(["H", "CX", "RZ", "MEASZ"], size=10_000).tolist(),
                     rng.integers(0, 7, size=10_000).tolist()))

    def build():
        c = Circuit(8)
        for tag, q in gates:
            if tag == "CX":
                c.append("CX", q, q + 1)
            else:
                c.append(tag, q, angle=0.5 if tag == "RZ" else None)
        return c

    build()
    tracemalloc.start()
    c = build()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(c) == 10_000 and held <= 32 * len(c), held


def test_dump_text():
    c = Circuit(2)
    c.append("H", 0)
    c.append("CX", 1, 0)
    c.append("RZ", 1, angle=0.25)
    assert c.dump_text().splitlines() == ["H 0", "CX 1,0", "RZ 1,0.25"]


def test_staircase_weight_one():
    frag = compile_pauli_rotation(PauliString.single(1, 0, "Z"), 0.7)
    assert [g.tag for g in frag.gates] == ["RZ"]
    assert frag.gates[0].angle == 0.7


def test_staircase_xyzx_structure():
    term = PauliString.from_label("XYZX")
    frag = compile_pauli_rotation(term, 0.3)
    assert sum(1 for g in frag.gates if g.tag == "CX") == 6
    u = circuit_unitary(frag)
    assert np.max(np.abs(u - rotation_matrix(term, 0.3))) < 1e-12


def test_staircase_weight_zero_records_phase():
    frag = compile_pauli_rotation(PauliString.identity(3), 0.8)
    assert len(frag) == 0
    assert frag.metadata["global_phase"] == pytest.approx(-0.4)


def test_staircase_rejects_signed_terms():
    with pytest.raises(ValueError):
        compile_pauli_rotation(PauliString.from_label("-ZZ"), 0.1)


def test_staircase_matches_closed_form_random():
    rng = np.random.default_rng(30)
    for _ in range(40):
        n = 5
        k = int(rng.integers(1, 6))
        support = sorted(int(q) for q in rng.choice(n, k, replace=False))
        x = z = 0
        for q in support:
            c = int(rng.integers(3))
            if c != 2:
                x |= 1 << q
            if c != 0:
                z |= 1 << q
        term = PauliString(n, x, z)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        frag = compile_pauli_rotation(term, theta)
        assert sum(1 for g in frag.gates if g.tag == "CX") == 2 * (k - 1)
        err = np.max(np.abs(circuit_unitary(frag) - rotation_matrix(term, theta)))
        assert err < 1e-12


def test_staircase_uncomputation_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(10):
        term = PauliString(4, int(rng.integers(1, 16)), int(rng.integers(16)))
        theta = float(rng.uniform(-np.pi, np.pi))
        fwd = compile_pauli_rotation(term, theta)
        bwd = compile_pauli_rotation(term, -theta)
        u = circuit_unitary(bwd) @ circuit_unitary(fwd)
        assert np.max(np.abs(u - np.eye(16))) < 1e-12


def _ham(num_qubits, entries, name="h"):
    return Hamiltonian(num_qubits,
                       [HamTerm(c, PauliString.from_label(lbl)) for c, lbl in entries],
                       name=name)


def test_trotterize_single_term():
    h = _ham(1, [(0.35, "Z")])
    circ = trotterize(h, time=1.0, steps=1)
    assert [g.tag for g in circ.gates] == ["RZ"]
    assert circ.gates[0].angle == pytest.approx(0.7)


def test_trotterize_step_scaling():
    h = _ham(3, [(0.5, "ZZI"), (-0.25, "IXX"), (0.1, "YIY")])
    one = trotterize(h, steps=1)
    two = trotterize(h, steps=2)
    assert len(two) == 2 * len(one)
    assert two.metadata["trotter_steps"] == 2


def test_trotterize_product_formula_oracle():
    h = _ham(3, [(0.5, "ZZI"), (-0.25, "IXX"), (0.1, "YIY")])
    t = 0.9
    circ = trotterize(h, time=t, steps=1)
    ref = np.eye(8, dtype=complex)
    for term in h.terms:  # first-order product in term order, not exp(-iHt)
        ref = rotation_matrix(term.pauli, 2 * term.coeff * t) @ ref
    assert np.max(np.abs(circuit_unitary(circ) - ref)) < 1e-12


def test_trotterize_preserves_term_order():
    h = _ham(2, [(0.3, "ZI"), (0.2, "IZ")])
    circ = trotterize(h)
    rz_qubits = [g.qubits[0] for g in circ.gates if g.tag == "RZ"]
    assert rz_qubits == [1, 0]


def test_trotterize_empty_hamiltonian():
    circ = trotterize(Hamiltonian(2, [], name="empty"))
    assert len(circ) == 0


def test_trotterize_structural_counts():
    from framesim import random_hamiltonian
    h = random_hamiltonian(10, 8, 100, seed=0)
    circ = trotterize(h)
    assert circ.rotation_count() == 100
    cx = sum(1 for g in circ.gates if g.tag == "CX")
    assert cx == 100 * 2 * (8 - 1)
