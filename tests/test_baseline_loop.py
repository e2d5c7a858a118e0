"""The baseline's compiled gate loop against its Python reference, unblocked
and in blocked runs, on every compiled clone: the same records, and the
same amplitudes, bit for bit when no one-qubit gates fused and within
1e-12 when some did (a fused run rounds once where its gates rounded one
by one).  A CX or CZ that a 2x2 pass absorbs keeps the amplitudes bit for
bit."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import Circuit, StateVector, _kernels, random_hamiltonian, run_baseline, trotterize
from oracles import blocked_qubits, compiled_clones, random_mixed_circuit

# the state size from which the compiled loop blocks its passes in runs
BLOCKED_N = blocked_qubits()


def both_loops(circ: Circuit, seed):
    """run_baseline's reports and states, compiled loop first, then the
    Python loop, on the clone in use."""
    state, report = run_baseline(circ, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "baseline_gates", None)
        ref, ref_report = run_baseline(circ, seed)
    return state, report, ref, ref_report


def assert_same_runs(circ: Circuit, seed) -> list[dict]:
    """On every clone, the compiled loop's records are the Python loop's,
    and its amplitudes too: bit for bit if no one-qubit gate fused, even
    if two-qubit gates were absorbed, else within 1e-12.  Returns the
    compiled loop's pass counts."""
    runs = compiled_clones(both_loops)
    assert runs, "no compiled clone"
    counts = []
    for name, run in runs.items():
        state, report, ref, ref_report = run(circ, seed)
        assert report.measurements == ref_report.measurements, name
        if report.passes["gate_fused"]:
            assert np.max(np.abs(state.amplitudes - ref.amplitudes)) < 1e-12, name
        else:
            assert np.array_equal(state.amplitudes, ref.amplitudes), name
        gates = circ.clifford_count() + circ.rotation_count()
        assert ref_report.passes == dict(gate_passes=gates, gate_pass_equivalents=gates,
                                         gate_blocked_runs=0, gate_fused=0,
                                         gate_absorbed=0), name
        counts.append(report.passes)
    return counts


def mixed(n: int, length: int, seed: int, prefix=()) -> Circuit:
    """``prefix`` (tag and qubits of each gate), then a random circuit of
    every gate tag with measurements and preparations in between."""
    circ = Circuit(n)
    for tag, *qubits in prefix:
        circ.append(tag, *qubits)
    circ.extend(random_mixed_circuit(np.random.default_rng(seed), n, length,
                                     p_measure=0.06, p_prep=0.06))
    return circ


def dense_layer(n: int) -> list[tuple]:
    """H then S on every qubit, and a CX chain: every amplitude nonzero, and
    the pairs that a gate mixes unlike each other."""
    return ([("H", q) for q in range(n)] + [("S", q) for q in range(0, n, 3)]
            + [("CX", q, q + 1) for q in range(n - 1)] + [("H", q) for q in range(0, n, 2)])


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 10), length=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
@example(n=10, length=40, seed=3)
@example(n=1, length=30, seed=4)
def test_compiled_baseline_loop_is_the_python_loop(n, length, seed):
    # every gate tag, MEASZ and PREPZ included, on states inside the L2
    # cache: nothing blocked, and each gate makes one pass unless it fused
    # or was absorbed
    circ = mixed(n, length, seed)
    gates = circ.clifford_count() + circ.rotation_count()
    for counts in assert_same_runs(circ, seed):
        assert counts["gate_passes"] + counts["gate_fused"] + counts["gate_absorbed"] == gates
        assert counts["gate_pass_equivalents"] == counts["gate_passes"]
        assert counts["gate_blocked_runs"] == 0


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no state here")
@pytest.mark.parametrize("kind", ["mixed", "high qubits", "trotter"])
def test_blocked_baseline_runs_match_the_python_loop(kind):
    # above the L2 size the compiled loop applies its passes in blocked
    # runs over cosets of their partner tile masks, with the amplitudes of
    # one pass each; the Trotter circuit's basis changes fuse.  "high qubits" opens a run, after a MEASZ, with
    # SWAP(10, 9) then H(9) on a dense state: in the cosets of the span
    # that the SWAP's tile mask 0b11 enters first, the Hadamard's lower
    # tile is not always the one the walk reaches first
    n = BLOCKED_N
    if kind == "trotter":
        circ = trotterize(random_hamiltonian(n, n, 6, seed=5))
    else:
        prefix = dense_layer(n) + [("MEASZ", 0), ("SWAP", 10, 9), ("H", 9), ("CX", 12, 8), ("H", n - 1),
                                   ("CZ", 9, 11), ("S", 13), ("Y", 14), ("SWAP", 8, 12),
                                   ("CX", 15, 9)] if kind == "high qubits" else []
        circ = mixed(n, 150, 6, prefix)
    gates = circ.clifford_count() + circ.rotation_count()
    for counts in assert_same_runs(circ, 7):
        assert 0 < counts["gate_blocked_runs"] <= counts["gate_passes"] < gates
        assert counts["gate_pass_equivalents"] == counts["gate_passes"]


def dense_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amp / np.linalg.norm(amp))


def compiled_pass(state: StateVector, circ: Circuit):
    """The compiled loop's gates of circ, up to its first MEASZ or PREPZ, on
    state; returns the pass counts."""
    counts = _kernels.pass_counts()
    ops, angles = circ.lowered()
    _kernels.baseline_gates(state.amplitudes, ops, angles, 0, counts)
    return counts


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("gates", ["H H", "S SDG", "H S SDG H", "Y Y", "SDG H X X H S"])
def test_gates_that_cancel_make_no_pass(gates):
    # adjacent inverse pairs cancel on their codes, and what they leave
    # behind cancels in turn: the state is left as it was, bit for bit
    circ = Circuit(3)
    for tag in gates.split():
        circ.append(tag, 1)
    state = dense_state(3, 1)
    before = state.amplitudes.copy()
    assert compiled_pass(state, circ).tolist() == [0, 0, 0, len(circ), 0]
    assert np.array_equal(state.amplitudes, before)


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
def test_unfused_gates_keep_the_stream_order_bit_for_bit():
    # no gate fuses here, but the CX releases qubit 1 before qubit 0: the
    # H on qubit 0 still goes first, as the passes that round must keep
    # their order to give the amplitudes of one pass per gate in order
    circ = Circuit(4)
    for tag, *qubits in (("H", 0), ("RY", 1), ("S", 3), ("CX", 1, 2), ("RX", 2),
                         ("CZ", 3, 0), ("H", 1), ("CX", 0, 1), ("RZ", 3), ("SWAP", 2, 3)):
        circ.append(tag, *qubits, angle=0.3 + qubits[0] if tag[0] == "R" else None)

    def both():
        state, ref = dense_state(4, 2), dense_state(4, 2)
        assert compiled_pass(state, circ)[3] == 0
        for g in circ:
            ref.apply_gate(g.tag, g.qubits, g.angle)
        return state, ref

    for name, run in compiled_clones(both).items():
        state, ref = run()
        assert np.array_equal(state.amplitudes, ref.amplitudes), name


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("tag", ["MEASZ", "PREPZ"])
def test_a_measurement_or_preparation_sees_the_gates_held_before_it(tag):
    # X Z on qubit 1 fuses into one 2x2 pass, held until the MEASZ or PREPZ
    # on that qubit returns to Python: it must be applied first, so the
    # MEASZ reads 1 and the PREPZ repairs to 0 on every draw; the H S on
    # qubit 0 is applied there too, and its MEASZ draws as the Python loop
    circ = Circuit(2)
    for g, q in (("H", 0), ("S", 0), ("X", 1), ("Z", 1), (tag, 1), ("MEASZ", 1), ("MEASZ", 0)):
        circ.append(g, q)
    for seed in range(6):
        for counts in assert_same_runs(circ, seed):
            assert counts["gate_fused"] == 2 and counts["gate_passes"] == 2
        state, report = run_baseline(circ, seed)
        assert report.measurements[-2] == (1 if tag == "MEASZ" else 0)


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
def test_a_long_run_of_one_qubit_gates_fuses_in_pieces():
    # 40 gates on one qubit with no inverse pair among them: the loop holds
    # a bounded number of gates per qubit, so the run makes a few 2x2 passes
    circ = Circuit(3)
    circ.append("H", 0)
    circ.append("CX", 0, 2)
    for i in range(20):
        circ.append("H", 1)
        circ.append("RZ", 1, angle=0.1 + i)
    for counts in assert_same_runs(circ, 0):
        assert 1 < counts["gate_passes"] - 2 < 40
        assert counts["gate_passes"] + counts["gate_fused"] == 42


def gates_on_dense_state(circ: Circuit, seed: int = 4) -> dict:
    """On every clone: the compiled loop's pass counts on circ, from a dense
    state, and whether its amplitudes are the Python loop's, bit for bit."""
    def both():
        state, ref = dense_state(circ.num_qubits, seed), dense_state(circ.num_qubits, seed)
        counts = compiled_pass(state, circ)
        for g in circ:
            ref.apply_gate(g.tag, g.qubits, g.angle)
        return counts.tolist(), np.array_equal(state.amplitudes, ref.amplitudes)

    return {name: run() for name, run in compiled_clones(both).items()}


# (control, target) of a CX or CZ after a run on the target: the control
# at bit 0, inside the tile below and above the target, and on a tile bit
# (8 and up); the target at bit 0, at bit 1 (pairs of single vectors),
# inside the tile and on a tile bit
CONTROLS = [(1, 0), (3, 0), (9, 0), (0, 1), (2, 1), (9, 1), (0, 4), (2, 4), (1, 4), (6, 4),
            (9, 4), (0, 9), (1, 9), (3, 9), (8, 9)]


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("tag", ["CX", "CZ"])
@pytest.mark.parametrize("control, target", CONTROLS)
@pytest.mark.parametrize("blocked", [False, True])
def test_a_cx_or_cz_joins_the_2x2_pass_on_its_target(tag, control, target, blocked):
    # the H's 2x2 pass applies the gate too: the matrix is H where the
    # control is clear and X H or Z H where it is set, with the amplitudes
    # of the two passes, bit for bit.  Blocked, a SWAP before it and a CZ
    # after it on two other qubits put the pass inside a blocked run
    if blocked and BLOCKED_N is None:
        pytest.skip("the compiled loop blocks no state here")
    n = BLOCKED_N if blocked else 10
    a, b = sorted({5, 7, 11, 12} - {control, target})[:2]
    circ = Circuit(n)
    gates = [("H", target), (tag, control, target)]
    if blocked:
        gates = [("SWAP", a, b)] + gates + [("CZ", a, b)]
    for g in gates:
        circ.append(*g)
    for name, (counts, same) in gates_on_dense_state(circ).items():
        assert same, name
        assert counts[0] == 1 and counts[2] == blocked and counts[3:] == [0, 1], name


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("tag", ["CX", "CZ"])
@pytest.mark.parametrize("lone", ["RZ", "S", "X"])
def test_a_lone_gate_that_makes_no_2x2_pass_is_not_absorbed(tag, lone):
    # a lone RZ, S or X makes its own pass (the Clifford loop or the pair
    # exchange), and the gate after it makes its own too
    circ = Circuit(6)
    circ.append(lone, 4, angle=0.7 if lone == "RZ" else None)
    circ.append(tag, 1, 4)
    for name, (counts, same) in gates_on_dense_state(circ).items():
        assert same, name
        assert counts[0] == 2 and counts[3:] == [0, 0], name


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("tag", ["CX", "CZ"])
@pytest.mark.parametrize("order", ["control first", "target first"])
def test_a_control_that_holds_a_run_is_settled_first(tag, order):
    # both qubits hold a lone H: the control's pass comes first, then the
    # target's absorbs the gate.  Taken in first, the target's H is settled
    # before the control's (the passes that round keep their order), and a
    # CX makes its own pass, while a CZ joins the qubit settled last
    circ = Circuit(5)
    for q in ((2, 3) if order == "control first" else (3, 2)):
        circ.append("H", q)
    circ.append(tag, 2, 3)
    absorbed = 1 if tag == "CZ" or order == "control first" else 0
    for name, (counts, same) in gates_on_dense_state(circ).items():
        assert same, name
        assert counts[3:] == [0, absorbed] and counts[0] == 3 - absorbed, name


@pytest.mark.skipif(_kernels.baseline_gates is None, reason="compiled kernels not loaded")
@pytest.mark.parametrize("tag", ["CX", "CZ"])
@pytest.mark.parametrize("control, target", CONTROLS)
@pytest.mark.parametrize("blocked", [False, True])
def test_a_fused_run_absorbs_a_gate_bit_for_bit(tag, control, target, blocked):
    # a complex product, S H RZ, on the target absorbs the gate: the same
    # amplitudes as the product's pass and the gate's pass made apart, in
    # two calls, the first of which settles the run when it returns
    if blocked and BLOCKED_N is None:
        pytest.skip("the compiled loop blocks no state here")
    n = BLOCKED_N if blocked else 10
    a, b = sorted({5, 7, 11, 12} - {control, target})[:2]
    first, second = Circuit(n), Circuit(n)
    for g in [("SWAP", a, b)] * blocked + [("S", target), ("H", target), ("RZ", target)]:
        first.append(*g, angle=0.7 if g[0] == "RZ" else None)
    second.append(tag, control, target)
    whole = Circuit(n)
    whole.extend(first)
    whole.extend(second)

    def both():
        state, ref = dense_state(n, 5), dense_state(n, 5)
        counts = compiled_pass(state, whole)
        compiled_pass(ref, first)
        compiled_pass(ref, second)
        return counts.tolist(), np.array_equal(state.amplitudes, ref.amplitudes)

    for name, run in compiled_clones(both).items():
        counts, same = run()
        assert same, name
        assert counts[3:] == [2, 1] and counts[2] == blocked, name
