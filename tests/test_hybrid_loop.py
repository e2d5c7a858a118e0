"""The hybrid backend's compiled gate loop against its Python reference, and
the two forms it reads: a circuit's lowered arrays and the packed frame."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import (Circuit, PauliFrame, StateVector, _kernels, backends,
                      random_hamiltonian, run_hybrid, trotterize)
from framesim.circuit import TAGS
from oracles import gf2_rank, index_mapped, random_clifford_circuit

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
    # phase included: the compiled loop's register P_A|phi> is the state
    # that the dense Python loop holds as phi
    n, gates, seed = case
    circ = build(n, gates)
    hs, report = run_hybrid(circ, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "run_gates", None)
        ref, ref_report = run_hybrid(circ, seed)
    assert report.measurements == ref_report.measurements
    assert hs.frame == ref.frame
    assert (ref.active, ref.index_map.tolist()) == (n, [1 << i for i in range(n)])
    dense = index_mapped(hs.phi.amplitudes, hs.index_map)
    assert np.max(np.abs(dense - ref.phi.amplitudes)) < 1e-12


@st.composite
def register_cases(draw):
    """mixed_circuits, half of them without MEASZ and PREPZ."""
    n, gates, seed = draw(mixed_circuits())
    if draw(st.booleans()):
        gates = [g for g in gates if g[0] not in ("MEASZ", "PREPZ")]
    return n, gates, seed


def python_loop_axes(circ: Circuit, seed):
    """The dense Python loop's run of circ, and the x masks of the rotation
    axes it applied."""
    axes = []
    rotate = StateVector.apply_pauli_rotation

    def recorded(state, p, theta):
        axes.append(p.x_bits)
        rotate(state, p, theta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "run_gates", None)
        mp.setattr(StateVector, "apply_pauli_rotation", recorded)
        ref, _ = run_hybrid(circ, seed)
    return ref, axes


@compiled_only
@settings(max_examples=100, deadline=None)
@given(register_cases())
@example((4, [("RZ", (0,), 0.3), ("CX", (0, 1), None), ("RZ", (1,), -1.2),
              ("CZ", (1, 3), None), ("S", (2,), None), ("RZ", (2,), 2.5)], 1))  # diagonal only
@example((1, [("RZ", (0,), 0.4), ("H", (0,), None), ("RZ", (0,), 1.9),
              ("S", (0,), None), ("RX", (0,), -0.6)], 2))  # one qubit
@example((8, [("RX", (0,), 0.5), ("CX", (3, 5), None), ("CX", (3, 7), None),
              ("RX", (3,), 1.3), ("RY", (6,), -0.8)], 3))  # pivot 3 above d = 1: two CX, a SWAP
@example((5, [("RX", (0,), 0.9), ("MEASZ", (3,), None), ("X", (2,), None),
              ("PREPZ", (2,), None), ("MEASZ", (4,), None), ("RY", (1,), 0.2)], 4))  # inactive qubits
@example((3, [("CX", (0, 2), None), ("RX", (0,), 0.7), ("H", (1,), None),
              ("CX", (1, 2), None), ("RZ", (2,), 1.1), ("CX", (1, 2), None),
              ("H", (1,), None), ("CX", (0, 2), None)], 5))  # origin frame, A != I
def test_register_holds_the_state_in_its_active_prefix(case):
    # after the compiled loop phi is exactly 0 beyond 2**active; without
    # MEASZ and PREPZ, active is the GF(2) rank of the x parts of the axes
    # the dense loop applied; and the flushes agree, global phase included.
    # A frame at the origin is flushed as P_A alone, with no synthesis.
    n, gates, seed = case
    circ = build(n, gates)
    hs, _ = run_hybrid(circ, seed)
    ref, axes = python_loop_axes(circ, seed)
    assert 0 <= hs.active <= n and not hs.phi.amplitudes[1 << hs.active:].any()
    if not any(g[0] in ("MEASZ", "PREPZ") for g in gates):
        assert hs.active == gf2_rank(axes)
    active, at_origin = hs.active, hs.frame.is_origin()
    with pytest.MonkeyPatch.context() as mp:
        if at_origin:
            for name in ("invert_to_rotations", "split_clifford"):
                mp.setattr(backends, name, lambda *args: pytest.fail("synthesis ran"))
        hs.flush_to_origin()
    ref.flush_to_origin()
    assert hs.flush_passes[0]["active"] == active
    assert (hs.active, hs.index_map.tolist()) == (n, [1 << i for i in range(n)])
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
    index_map = np.array([1, 2, 4], dtype=np.uint64)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    ops, angles = circ.lowered()
    stops = []
    i = 0
    while i < len(circ):
        i, spent, active = _kernels.run_gates(amp, *words, index_map, 0, ops, angles, i)
        assert spent == 0.0 and active == 0  # no rotation ran
        stops.append(i)
        i += 1
    assert stops == [1, 3, 5]
    for g in circ.gates:
        if g.tag not in ("MEASZ", "PREPZ"):
            frame.apply_gate(g.tag, g.qubits)
    assert PauliFrame.from_packed(*words) == frame
    with pytest.raises(ValueError, match="2-qubit state"):
        _kernels.run_gates(amp[:4], *words, index_map, 0, ops, angles, 0)
    with pytest.raises(ValueError, match="out of range"):
        _kernels.run_gates(amp, *words, index_map, 0, ops, angles, len(circ) + 1)
    with pytest.raises(ValueError, match="out of range"):
        _kernels.run_gates(amp, *words, index_map, 4, ops, angles, 0)
    with pytest.raises(ValueError, match="invertible"):
        _kernels.run_gates(amp, *words, np.array([1, 2, 2], dtype=np.uint64), 0, ops,
                           angles, 0)
