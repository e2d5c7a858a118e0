"""The hybrid backend's compiled gate loop against its Python reference, and
the two forms it reads: a circuit's lowered arrays and the frame's words."""
import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import (Circuit, HybridState, PauliFrame, PauliString, StateVector, _kernels,
                      random_hamiltonian, run_hybrid, trotterize)
from framesim.circuit import TAGS
from framesim.frame import HadamardFree, split_clifford
from oracles import blocked_qubits, gf2_rank, index_mapped, random_clifford_circuit

ARITY = {tag: 2 if tag in ("CX", "CZ", "SWAP") else 1 for tag in TAGS}
MAX_QUBITS = 10

compiled_only = pytest.mark.skipif(_kernels.run_gates is None,
                                   reason="compiled kernels not loaded")
# the register size from which the compiled loop blocks runs of rotations
BLOCKED_N = blocked_qubits()


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


@compiled_only
def test_prepare_activates_a_qubit_only_to_repair():
    # PREPZ on |0> draws +1 and needs no repair, so the register stays
    # empty; after an X it draws -1, and X_q's image activates one qubit
    for gates, active in (([("PREPZ", (1,), None)], 0),
                          ([("X", (1,), None), ("PREPZ", (1,), None)], 1)):
        hs, _ = run_hybrid(build(3, gates), 0)
        assert hs.active == active
        hs.flush_to_origin()
        assert abs(hs.phi.amplitudes[0]) == pytest.approx(1)


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
    # Every flush is one C flush, which makes h quarter turns, none at the
    # origin frame; a second flush, at A = I, makes no pass.
    n, gates, seed = case
    circ = build(n, gates)
    hs, _ = run_hybrid(circ, seed)
    ref, axes = python_loop_axes(circ, seed)
    assert 0 <= hs.active <= n and not hs.phi.amplitudes[1 << hs.active:].any()
    if not any(g[0] in ("MEASZ", "PREPZ") for g in gates):
        assert hs.active == gf2_rank(axes)
    active, at_origin = hs.active, hs.frame.is_origin()
    h = gf2_rank(hs.frame.eff_z(i).x_bits for i in range(n))
    assert h == 0 or not at_origin
    compiled, flushes = _kernels.flush, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "flush", lambda *args: flushes.append(1) or compiled(*args))
        hs.flush_to_origin()
        flushed = hs.phi.amplitudes.copy()
        hs.flush_to_origin()
    ref.flush_to_origin()
    assert len(flushes) == 2
    first, second = hs.flush_passes
    assert first["active"] == active
    assert first["quarter_turns"] == ref.flush_passes[0]["quarter_turns"] == h
    assert second == dict(quarter_turns=0, affine=0, shears=0, scatter=0, active=n,
                          register=n)
    assert np.array_equal(hs.phi.amplitudes, flushed)
    assert (hs.active, hs.index_map.tolist()) == (n, [1 << i for i in range(n)])
    assert np.max(np.abs(hs.phi.amplitudes - ref.phi.amplitudes)) < 1e-12


def clifford_rotation_circuit(rng, n, rotations) -> Circuit:
    """Random Clifford gates around RX, RY and RZ gates, with a MEASZ and a
    PREPZ after two thirds of the rotations."""
    circ = Circuit(n)
    for r in range(rotations):
        circ.extend(random_clifford_circuit(rng, n, 6))
        circ.append(("RX", "RY", "RZ")[r % 3], int(rng.integers(n)),
                    angle=float(rng.uniform(-3, 3)))
        if r == 2 * rotations // 3:
            circ.append("MEASZ", int(rng.integers(n)))
            circ.append("PREPZ", int(rng.integers(n)))
    return circ


def compiled_and_python_runs(circ: Circuit, seed):
    hs, report = run_hybrid(circ, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "run_gates", None)
        ref, ref_report = run_hybrid(circ, seed)
    assert report.measurements == ref_report.measurements
    assert hs.frame == ref.frame
    assert np.max(np.abs(index_mapped(hs.phi.amplitudes, hs.index_map)
                         - ref.phi.amplitudes)) < 1e-12
    return hs, ref


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no register here")
@pytest.mark.parametrize("kind", ["trotter", "clifford_rotation"])
def test_blocked_runs_on_a_register_above_the_l2_cache(kind):
    # once the register holds more bytes than the L2 cache, the compiled
    # loop blocks runs of rotations, and its records, frame and amplitudes
    # are still those of the Python loop, one pass per rotation
    n = BLOCKED_N
    rng = np.random.default_rng(90)
    circ = (trotterize(random_hamiltonian(n, n, n + 10, seed=90)) if kind == "trotter"
            else clifford_rotation_circuit(rng, n, 2 * n + 6))
    hs, ref = compiled_and_python_runs(circ, 7)
    assert hs.active == n
    assert hs.passes["rotation_blocked_runs"] > 0
    assert hs.passes["rotation_passes"] < ref.passes["rotation_passes"] == circ.rotation_count()


@compiled_only
def test_a_register_within_the_l2_cache_makes_one_pass_per_rotation():
    # below the blocked size no run is blocked: one pass per rotation, over
    # 2**max(d, 1) amplitudes, d the rank of the x parts so far; the
    # Python loop's passes are over the whole state
    n = (BLOCKED_N or 18) - 1
    circ = trotterize(random_hamiltonian(n, n, n + 6, seed=91))
    hs, ref = compiled_and_python_runs(circ, 7)
    _, axes = python_loop_axes(circ, 7)
    rotations = len(axes)
    sizes = [1 << max(gf2_rank(axes[:i + 1]), 1) for i in range(rotations)]
    assert hs.passes == dict(rotation_passes=rotations, rotation_blocked_runs=0,
                             rotation_pass_equivalents=sum(sizes) / (1 << n),
                             turn_passes=0, turn_pass_equivalents=0, turn_blocked_runs=0)
    assert ref.passes["rotation_passes"] == ref.passes["rotation_pass_equivalents"] == rotations
    assert ref.passes["rotation_blocked_runs"] == 0


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


def test_frame_words_hold_its_rows_and_at_most_64_qubits():
    rng = np.random.default_rng(71)
    for n in (1, 7, 64):
        frame = PauliFrame.origin(n)
        for g in random_clifford_circuit(rng, n, 5 * n).gates:
            frame.apply_gate(g.tag, g.qubits)
        assert frame.validate()
        assert [w.typecode for w in (frame.xs, frame.zs, frame.ps)] == ["Q", "Q", "B"]
        for q in range(n):
            for row, e in ((q, frame.eff_z(q)), (n + q, frame.eff_x(q))):
                assert (frame.xs[row], frame.zs[row], frame.ps[row]) == (
                    e.x_bits, e.z_bits, e.phase_exp)
        # the eff_x rows follow the eff_z rows in the same words, so a qubit
        # out of range must not read a row of the other kind
        for read in (frame.eff_z, frame.eff_x):
            for q in (-1, n):
                with pytest.raises(IndexError):
                    read(q)
    with pytest.raises(ValueError, match="64 qubits"):
        PauliFrame.origin(65)


@compiled_only
def test_gate_loop_stops_at_each_measurement_and_preparation():
    circ = Circuit(3)
    for tag, qubits in (("H", (0,)), ("MEASZ", (1,)), ("CX", (0, 2)), ("PREPZ", (2,)),
                        ("S", (1,))):
        circ.append(tag, *qubits)
    frame = PauliFrame.origin(3)
    words = frame.xs, frame.zs, frame.ps
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
    expected = PauliFrame.origin(3)
    for g in circ.gates:
        if g.tag not in ("MEASZ", "PREPZ"):
            expected.apply_gate(g.tag, g.qubits)
    assert frame == expected
    with pytest.raises(ValueError, match="2-qubit state"):
        _kernels.run_gates(amp[:4], *words, index_map, 0, ops, angles, 0)
    with pytest.raises(ValueError, match="out of range"):
        _kernels.run_gates(amp, *words, index_map, 0, ops, angles, len(circ) + 1)
    with pytest.raises(ValueError, match="out of range"):
        _kernels.run_gates(amp, *words, index_map, 4, ops, angles, 0)
    # int64 codes would be read as pairs of int32 ones, and float32 angles
    # as halves of doubles
    for wrong in ((array("q", ops), angles), (ops, array("f", angles)),
                  (np.array(ops, dtype=np.int32), angles)):
        with pytest.raises(ValueError, match="do not match"):
            _kernels.run_gates(amp, *words, index_map, 0, *wrong, 0)
    with pytest.raises(ValueError, match="invertible"):
        _kernels.run_gates(amp, *words, np.array([1, 2, 2], dtype=np.uint64), 0, ops,
                           angles, 0)


@compiled_only
def test_gate_loop_rejects_frame_words_of_another_type_or_length():
    circ = Circuit(2)
    circ.append("H", 0)
    circ.append("CX", 0, 1)
    circ.append("RX", 1, angle=0.3)
    ops, angles = circ.lowered()
    frame = PauliFrame.origin(2)
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    index_map = np.array([1, 2], dtype=np.uint64)
    good = {"xs": frame.xs, "zs": frame.zs, "ps": frame.ps}
    # a narrower word, a signed one of the same width, numpy arrays, and
    # one row too many or too few
    bad = [("xs", array("I", frame.xs)), ("zs", array("q", frame.zs)),
           ("ps", array("b", frame.ps)), ("xs", np.array(frame.xs, dtype=np.uint64)),
           ("ps", np.array(frame.ps, dtype=np.uint8)), ("xs", frame.xs + array("Q", [0])),
           ("zs", frame.zs[:-1]), ("ps", frame.ps + array("B", [0, 0]))]
    for name, words in bad:
        with pytest.raises(ValueError):
            _kernels.run_gates(amp, **{**good, name: words}, index_map=index_map,
                               active=0, ops=ops, angles=angles, start=0)
        with pytest.raises(ValueError):
            _kernels.flush(amp, **{**good, name: words}, index_map=index_map, active=0)
        assert frame == PauliFrame.origin(2)
        assert amp[0] == 1.0 and not amp[1:].any()
        assert index_map.tolist() == [1, 2]
    assert _kernels.run_gates(amp, **good, index_map=index_map, active=0, ops=ops,
                              angles=angles, start=0)[0] == 3
    assert frame != PauliFrame.origin(2) and amp[1:].any()


def random_frame(rng, n, length) -> PauliFrame:
    frame = PauliFrame.origin(n)
    for g in random_clifford_circuit(rng, n, length).gates:
        frame.apply_gate(g.tag, g.qubits)
    return frame


def random_invertible(rng, n) -> np.ndarray:
    while True:
        rows = [int(r) for r in rng.integers(0, 1 << n, size=n)]
        if gf2_rank(rows) == n:
            return np.array(rows, dtype=np.uint64)


def basis_map(rows, n) -> list[int]:
    """A k for every k < 2**n, A the GF(2) matrix with row masks ``rows``."""
    return [sum(((r & k).bit_count() & 1) << i for i, r in enumerate(rows))
            for k in range(1 << n)]


@compiled_only
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_register_map_conjugates_by_the_index_map(n, seed, data):
    # for a random invertible A, active count d and Hermitian P: the result
    # acts on every |k>, k < 2**d', as P_A'^dag P P_A', A' being the map
    # after the call; d' = d + 1 exactly when A^-1 x has a bit at or above
    # d, and then A' agrees with A on every k < 2**d; without activation
    # that case returns None and leaves A as it was
    rng = np.random.default_rng(seed)
    d = data.draw(st.integers(0, n))
    a = random_invertible(rng, n)
    x, z = (int(v) for v in rng.integers(0, 1 << n, size=2))
    p = PauliString(n, x, z, int(rng.choice([0, 2])))
    before = basis_map(a.tolist(), n)
    grows = before.index(x) >> d != 0  # A^-1 x has a bit at or above d
    kept = a.copy()
    plain = _kernels.register_map(kept, d, x, z, p.phase_exp, False)
    assert kept.tolist() == a.tolist()
    moved = a.copy()
    got = _kernels.register_map(moved, d, x, z, p.phase_exp, True)
    assert (plain is None) == grows and plain in (None, got)
    x2, z2, phase, d2 = got
    assert d2 == d + grows and max(x2, z2) < 1 << d2
    after = basis_map(moved.tolist(), n)
    assert after[:1 << d] == before[:1 << d] and (grows or after == before)
    inverse = {m: k for k, m in enumerate(after)}
    mapped = PauliString(n, x2, z2, phase)
    for k in range(1 << d2):
        image = after[k]
        assert mapped.flip_target(k) == inverse[p.flip_target(image)]
        assert mapped.phase_exp_at(k) == p.phase_exp_at(image)
    singular = a.copy()
    singular[0] = 0
    with pytest.raises(ValueError, match="not an invertible matrix"):
        _kernels.register_map(singular, d, x, z, p.phase_exp, True)


@compiled_only
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), length=st.integers(0, 120),
       seed=st.integers(0, 2**32 - 1))
@example(n=10, length=0, seed=1)  # the origin frame: P_A alone
def test_compiled_flush_is_the_python_split_flush_bit_for_bit(n, length, seed):
    # for every active count d, a register of random amplitudes below 2**d
    # and a random invertible index map: the same amplitudes, pass record,
    # index map and frame after the flush as with the split in Python; at
    # the origin frame, those of the form of P_A alone, A's rows with no
    # offset and no phase.  The C flush returns as many turns as
    # split_clifford makes and its rest composed with the index map the
    # turns leave, word for word, and leaves the frame words as they were
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, n, length)
    words = frame.copy()
    turns, rest = split_clifford(frame)
    assert all(t.axis.phase_exp == 0 and t.quarter_turns == 1 for t in turns)
    h = gf2_rank(frame.eff_z(i).x_bits for i in range(n))
    assert len(turns) == h
    for d in range(n + 1):
        amp = np.zeros(1 << n, dtype=complex)
        amp[:1 << d] = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
        index_map = random_invertible(rng, n)
        states = [HybridState(frame.copy(), StateVector(n, amp), index_map=index_map.copy(),
                              active=d) for _ in range(2)]
        states[0].flush_to_origin()
        a_rows = index_map.copy()
        got, active, fields, _ = _kernels.flush(amp.copy(), frame.xs, frame.zs, frame.ps,
                                                a_rows, d)
        assert got == h and max(active, 1) == states[0].flush_passes[0]["register"]
        assert fields == tuple(rest.after(a_rows.tolist()))
        assert frame == words
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "flush", None)
            states[1].flush_to_origin()
        compiled, python = states
        assert np.array_equal(compiled.phi.amplitudes, python.phi.amplitudes)
        if frame.is_origin():
            alone = StateVector(n, amp)
            alone.apply_hadamard_free(
                HadamardFree(tuple(index_map.tolist()), 0, (0,) * n, (0,) * n), max(d, 1))
            assert np.array_equal(python.phi.amplitudes, alone.amplitudes)
        assert compiled.flush_passes == python.flush_passes
        assert compiled.passes == python.passes  # no register here outgrows the L2 cache
        assert compiled.flush_passes[0]["quarter_turns"] == h
        assert compiled.frame.is_origin() and python.frame.is_origin()
        assert compiled.index_map.tolist() == python.index_map.tolist()
        assert compiled.timing["flush_turns_s"] <= compiled.timing["flush_s"]


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no register here")
def test_flush_blocks_its_turns_on_a_register_above_the_l2_cache():
    # the C flush's quarter turns on a register of more bytes than the L2
    # cache run in blocked runs, with the amplitudes of the Python split's
    # turns, one pass each, bit for bit
    n = BLOCKED_N
    rng = np.random.default_rng(92)
    frame = PauliFrame.origin(n)
    for q in range(n):
        frame.apply_gate("H", (q,))
    for g in random_clifford_circuit(rng, n, 4 * n).gates:
        frame.apply_gate(g.tag, g.qubits)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    states = [HybridState(frame.copy(), StateVector(n, amp.copy())) for _ in range(2)]
    states[0].flush_to_origin()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "flush", None)
        states[1].flush_to_origin()
    compiled, python = states
    assert np.array_equal(compiled.phi.amplitudes, python.phi.amplitudes)
    turns = compiled.flush_passes[0]["quarter_turns"]
    assert python.passes["turn_passes"] == python.passes["turn_pass_equivalents"] == turns
    assert compiled.passes["turn_blocked_runs"] > 0
    assert compiled.passes["turn_passes"] == compiled.passes["turn_pass_equivalents"] < turns


@compiled_only
def test_compiled_split_errors_are_those_of_split_clifford():
    # the codes that no valid frame gives raise what gf2.solve and
    # split_clifford raise, not an assertion
    form = np.zeros(4, dtype=np.uint64)
    with pytest.raises(RuntimeError, match="fit no quadratic phase"):
        _kernels._split_result(-4, form, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        _kernels._split_result(-3, form, 1)
    # an invalid frame (eff_z and eff_x both Z) raises split_clifford's
    # ValueError before the flush writes anything
    amp = np.array([0.6, 0.8j])
    index_map = np.array([1], dtype=np.uint64)
    with pytest.raises(ValueError, match="invalid frame"):
        _kernels.flush(amp, array("Q", [0, 0]), array("Q", [1, 1]), array("B", [0, 0]),
                       index_map, 1)
    assert amp.tolist() == [0.6, 0.8j] and index_map.tolist() == [1]
