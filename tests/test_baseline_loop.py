"""The baseline's compiled gate loop against its Python reference: the same
records and the same amplitudes, bit for bit, unblocked and in blocked
runs, on every compiled clone."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import Circuit, _kernels, random_hamiltonian, run_baseline, trotterize
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
    """On every clone, the compiled loop's records and amplitudes are the
    Python loop's, bit for bit; returns the compiled loop's pass counts."""
    runs = compiled_clones(both_loops)
    assert runs, "no compiled clone"
    counts = []
    for name, run in runs.items():
        state, report, ref, ref_report = run(circ, seed)
        assert report.measurements == ref_report.measurements, name
        assert np.array_equal(state.amplitudes, ref.amplitudes), name
        gates = circ.clifford_count() + circ.rotation_count()
        assert ref_report.passes == dict(gate_passes=gates, gate_pass_equivalents=gates,
                                         gate_blocked_runs=0), name
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
def test_compiled_baseline_loop_is_the_python_loop_bit_for_bit(n, length, seed):
    # every gate tag, MEASZ and PREPZ included, on states inside the L2
    # cache: one pass per gate, nothing blocked
    circ = mixed(n, length, seed)
    gates = circ.clifford_count() + circ.rotation_count()
    for counts in assert_same_runs(circ, seed):
        assert counts == dict(gate_passes=gates, gate_pass_equivalents=gates,
                              gate_blocked_runs=0)


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no state here")
@pytest.mark.parametrize("kind", ["mixed", "high qubits", "trotter"])
def test_blocked_baseline_runs_are_one_pass_per_gate_bit_for_bit(kind):
    # above the L2 size the compiled loop applies its gates in blocked runs
    # over cosets of their partner tile masks, with the amplitudes of one
    # pass per gate.  "high qubits" opens a run, after a MEASZ, with
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
