"""The hybrid backend's compiled gate loop against its Python reference, and
the two forms it reads: a circuit's lowered arrays and the packed frame."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import (Circuit, PauliFrame, _kernels, random_hamiltonian, run_hybrid,
                      trotterize)
from framesim.circuit import TAGS
from oracles import random_clifford_circuit

ARITY = {tag: 2 if tag in ("CX", "CZ", "SWAP") else 1 for tag in TAGS}
MAX_QUBITS = 10

compiled_only = pytest.mark.skipif(_kernels.run_gates is None,
                                   reason="compiled kernels not loaded")


@st.composite
def mixed_circuits(draw):
    """(n, gates, seed): every gate tag, on qubits 0, 1 and n - 1 more often
    than on the others, with measurements and preparations in between."""
    n = draw(st.integers(1, MAX_QUBITS))
    favoured = list(dict.fromkeys([0, min(1, n - 1), n - 1, *range(n)]))
    gates = []
    for _ in range(draw(st.integers(0, 60))):
        tag = draw(st.sampled_from([t for t in TAGS if ARITY[t] <= n]))
        a = draw(st.sampled_from(favoured))
        qubits = (a,) if ARITY[tag] == 1 else (
            a, draw(st.sampled_from([q for q in favoured if q != a])))
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if tag[0] == "R" else None
        gates.append((tag, qubits, angle))
    return n, gates, draw(st.integers(0, 2**32 - 1))


def build(n, gates) -> Circuit:
    circ = Circuit(n)
    for tag, qubits, angle in gates:
        circ.append(tag, *qubits, angle=angle)
    return circ


@compiled_only
@settings(max_examples=150, deadline=None)
@given(mixed_circuits())
@example((10, [("H", (9,), None), ("CX", (9, 0), None), ("SDG", (1,), None),
               ("CZ", (1, 9), None), ("RY", (0,), 0.7), ("SWAP", (0, 9), None),
               ("Y", (0,), None), ("RX", (9,), -2.2), ("MEASZ", (9,), None),
               ("S", (9,), None), ("X", (1,), None), ("Z", (0,), None),
               ("PREPZ", (0,), None), ("RZ", (1,), 1.1), ("MEASZ", (0,), None)], 5))
@example((1, [("H", (0,), None), ("RZ", (0,), 0.4), ("PREPZ", (0,), None),
              ("RX", (0,), 2.0), ("MEASZ", (0,), None)], 6))
def test_compiled_gate_loop_matches_the_python_loop(case):
    # identical records and frame rows, and the same amplitudes, global
    # phase included
    n, gates, seed = case
    circ = build(n, gates)
    hs, report = run_hybrid(circ, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "run_gates", None)
        ref, ref_report = run_hybrid(circ, seed)
    assert report.measurements == ref_report.measurements
    assert hs.frame == ref.frame
    assert np.max(np.abs(hs.phi.amplitudes - ref.phi.amplitudes)) < 1e-12


def lowered_from_gates(circ: Circuit):
    ops, angles = [], []
    for g in circ.gates:
        ops += [TAGS.index(g.tag), g.qubits[0], g.qubits[-1] if len(g.qubits) > 1 else 0]
        angles.append(0.0 if g.angle is None else g.angle)
    return ops, angles


def assert_lowered(circ: Circuit) -> None:
    ops, angles = circ.lowered()
    assert (list(ops), list(angles)) == lowered_from_gates(circ)
    assert len(angles) == len(circ)


def test_lowered_arrays_follow_the_gates():
    rng = np.random.default_rng(70)
    circ = random_clifford_circuit(rng, 4, 30)
    circ.append("RY", 3, angle=-0.25)
    circ.append("MEASZ", 0)
    circ.append("PREPZ", 2)
    assert_lowered(circ)
    longer = Circuit(4)
    longer.append("SWAP", 3, 1)
    longer.extend(circ)
    longer.extend(Circuit(4))
    longer.append("RX", 1, angle=2)
    assert_lowered(longer)
    copied = Circuit(4, gates=longer.gates)
    assert_lowered(copied)
    assert copied.gates == longer.gates
    assert_lowered(trotterize(random_hamiltonian(5, 3, 6, seed=70)))


def test_gates_is_a_read_only_view():
    circ = Circuit(2)
    circ.append("H", 0)
    with pytest.raises(AttributeError):
        circ.gates.append(circ.gates[0])
    assert len(circ) == len(circ.lowered()[1]) == 1


def test_packed_frame_round_trips_and_holds_at_most_64_qubits():
    rng = np.random.default_rng(71)
    for n in (1, 7, 64):
        frame = PauliFrame.origin(n)
        for g in random_clifford_circuit(rng, n, 5 * n).gates:
            frame.apply_gate(g.tag, g.qubits)
        xs, zs, ps = frame.packed()
        assert xs.dtype == zs.dtype == np.uint64 and ps.dtype == np.uint8
        assert PauliFrame.from_packed(xs, zs, ps) == frame
        for q in (0, n - 1):
            assert PauliFrame.packed_pair(xs, zs, ps, q) == (frame.eff_z(q), frame.eff_x(q))
    with pytest.raises(ValueError, match="64 qubits"):
        PauliFrame.origin(65).packed()


@compiled_only
def test_gate_loop_stops_at_each_measurement_and_preparation():
    circ = Circuit(3)
    for tag, qubits in (("H", (0,)), ("MEASZ", (1,)), ("CX", (0, 2)), ("PREPZ", (2,)),
                        ("S", (1,))):
        circ.append(tag, *qubits)
    frame = PauliFrame.origin(3)
    words = frame.packed()
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    ops, angles = circ.lowered()
    stops = []
    i = 0
    while i < len(circ):
        i, spent = _kernels.run_gates(amp, *words, ops, angles, i)
        assert spent == 0.0  # no rotation ran
        stops.append(i)
        i += 1
    assert stops == [1, 3, 5]
    for g in circ.gates:
        if g.tag not in ("MEASZ", "PREPZ"):
            frame.apply_gate(g.tag, g.qubits)
    assert PauliFrame.from_packed(*words) == frame
    with pytest.raises(ValueError, match="2-qubit state"):
        _kernels.run_gates(amp[:4], *words, ops, angles, 0)
    with pytest.raises(ValueError, match="out of range"):
        _kernels.run_gates(amp, *words, ops, angles, len(circ) + 1)
