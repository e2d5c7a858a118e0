"""Baseline and hybrid backends: dispatch, equivalence, flush, reports."""
import numpy as np
import pytest

from framesim import (Circuit, PauliString, StateVector, _kernels, run_baseline,
                      run_hybrid)
from oracles import circuit_unitary, random_mixed_circuit


def bell_circuit():
    c = Circuit(2)
    c.append("H", 0)
    c.append("CX", 0, 1)
    return c


def test_baseline_bell():
    state, report = run_baseline(bell_circuit())
    assert np.allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert report.backend == "baseline"
    assert report.gates_total == report.gates_clifford == 2


def test_baseline_empty():
    state, _ = run_baseline(Circuit(3))
    assert np.array_equal(state.amplitudes, StateVector.zero(3).amplitudes)


def test_baseline_matches_dense_oracle():
    rng = np.random.default_rng(50)
    for _ in range(12):
        n = int(rng.integers(1, 6))
        circ = random_mixed_circuit(rng, n, 50, p_measure=0, p_prep=0)
        state, _ = run_baseline(circ)
        ref = circuit_unitary(circ)[:, 0]
        assert np.max(np.abs(state.amplitudes - ref)) < 1e-12


def test_hybrid_dispatch():
    c = Circuit(2)
    c.append("CX", 0, 1)
    c.append("RZ", 1, angle=0.37)
    hs, report = run_hybrid(c)
    # the frame absorbed the CX; the rotation hit phi as a ZZ axis
    assert hs.frame.eff_z(1) == PauliString.from_label("ZZ")
    ref = StateVector.zero(2)
    ref.apply_pauli_rotation(PauliString.from_label("ZZ"), 0.37)
    assert np.array_equal(hs.phi.amplitudes, ref.amplitudes)
    assert report.gates_rotation == 1


def test_hybrid_clifford_only_leaves_phi_untouched():
    rng = np.random.default_rng(51)
    circ = random_mixed_circuit(rng, 4, 60, p_rotation=0, p_measure=0, p_prep=0)
    hs, _ = run_hybrid(circ)
    assert np.array_equal(hs.phi.amplitudes, StateVector.zero(4).amplitudes)
    assert not hs.frame.is_origin()


def test_hybrid_expectation_fresh_state():
    hs, _ = run_hybrid(Circuit(3))
    for j in range(3):
        assert hs.expectation(PauliString.single(3, j, "Z")) == pytest.approx(1.0)


def test_hybrid_bell_expectations_through_frame_only():
    hs, _ = run_hybrid(bell_circuit())
    assert np.array_equal(hs.phi.amplitudes, StateVector.zero(2).amplitudes)
    assert hs.expectation(PauliString.from_label("ZZ")) == pytest.approx(1.0)
    assert hs.expectation(PauliString.from_label("XX")) == pytest.approx(1.0)
    assert hs.expectation(PauliString.from_label("ZI")) == pytest.approx(0.0)


def test_expectations_match_baseline():
    rng = np.random.default_rng(52)
    for trial in range(25):
        n = int(rng.integers(1, 7))
        circ = random_mixed_circuit(rng, n, 40, p_measure=0, p_prep=0)
        state, _ = run_baseline(circ)
        hs, _ = run_hybrid(circ)
        for _ in range(5):
            p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            assert hs.expectation(p) == pytest.approx(state.expectation(p), abs=1e-10)


@pytest.mark.skipif(_kernels.run_gates is None, reason="compiled kernels not loaded")
def test_expectation_is_exactly_zero_outside_the_register():
    # an operator whose mapped X part leaves the register has expectation
    # exactly 0.0; any other matches the baseline; neither activates a qubit
    rng = np.random.default_rng(58)
    outside = inside = 0
    for trial in range(30):
        n = int(rng.integers(1, 7))
        circ = random_mixed_circuit(rng, n, 30, p_rotation=0.1)
        state, _ = run_baseline(circ, rng=trial)
        hs, _ = run_hybrid(circ, rng=trial)
        before = hs.active, hs.index_map.tolist()
        for _ in range(8):
            p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            value = hs.expectation(p)
            if hs._register(hs.frame.lookup(p), activate=False) is None:
                assert value == 0.0 and type(value) is float
                assert state.expectation(p) == pytest.approx(0.0, abs=1e-10)
                outside += 1
            else:
                assert value == pytest.approx(state.expectation(p), abs=1e-10)
                inside += 1
        assert (hs.active, hs.index_map.tolist()) == before
    assert outside and inside


def test_flush_fresh_state_is_noop():
    hs, _ = run_hybrid(Circuit(2))
    hs.flush_to_origin()
    assert np.array_equal(hs.phi.amplitudes, StateVector.zero(2).amplitudes)
    assert hs.frame.is_origin()


def test_flush_single_h():
    c = Circuit(1)
    c.append("H", 0)
    hs, _ = run_hybrid(c)
    hs.flush_to_origin()
    target = np.array([1, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(target, hs.phi.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_flush_counts_its_state_passes(monkeypatch):
    # one entry per flush: h quarter turns, h being the GF(2) rank of the x
    # parts of the eff_z rows, then at most one affine pass and one shear
    # for the rest, and a state of one tile (n <= 8) takes no shear; the
    # origin frame with the identity index map, as a flush leaves it, makes
    # no pass and runs no synthesis; each entry records the active count
    # the flush began with
    from framesim import backends
    from oracles import gf2_rank, random_clifford_circuit
    rng = np.random.default_rng(57)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        hs, _ = run_hybrid(random_clifford_circuit(rng, n, 10 * n))
        h = gf2_rank(hs.frame.eff_z(i).x_bits for i in range(n))
        active = hs.active
        hs.flush_to_origin()
        with monkeypatch.context() as mp:
            for name in ("invert_to_rotations", "split_clifford"):
                mp.setattr(backends, name, lambda *args: pytest.fail("synthesis ran"))
            hs.flush_to_origin()
        first, second = hs.flush_passes
        assert second == dict(quarter_turns=0, affine=0, shears=0, h=0, active=n)
        assert first["active"] == active
        assert first["quarter_turns"] == first["h"] == h
        assert first["affine"] <= 1
        assert first["shears"] <= (1 if n > 8 else 0)
        assert sum(first[kind] for kind in ("quarter_turns", "affine", "shears")) <= h + 2


def test_flush_probabilities_match_baseline():
    rng = np.random.default_rng(53)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        circ = random_mixed_circuit(rng, n, 60)
        state, rb = run_baseline(circ, rng=trial)
        hs, rh = run_hybrid(circ, rng=trial)
        assert rb.measurements == rh.measurements  # shared seeds, same branches
        hs.flush_to_origin()
        diff = np.max(np.abs(state.probabilities() - hs.phi.probabilities()))
        assert diff < 1e-10


def test_measurement_bit_convention():
    c = Circuit(1)
    c.append("MEASZ", 0)
    _, report = run_baseline(c, rng=0)
    assert report.measurements == [0]  # |0> measures eigenvalue +1 -> bit 0
    c2 = Circuit(1)
    c2.append("X", 0)
    c2.append("MEASZ", 0)
    for runner in (run_baseline, run_hybrid):
        _, rep = runner(c2, rng=0)
        assert rep.measurements == [1]


def test_prepz_resets_qubit():
    c = Circuit(2)
    c.append("X", 0)
    c.append("H", 1)
    c.append("PREPZ", 0)
    state, _ = run_baseline(c, rng=4)
    assert state.expectation(PauliString.single(2, 0, "Z")) == pytest.approx(1.0)
    hs, _ = run_hybrid(c, rng=4)
    assert hs.expectation(PauliString.single(2, 0, "Z")) == pytest.approx(1.0)


def test_run_report_fields():
    c = bell_circuit()
    c.append("RZ", 0, angle=0.1)
    _, report = run_baseline(c, rng=7)
    assert report.backend == "baseline"
    assert report.n_qubits == 2
    assert report.gates_total == 3
    assert report.gates_clifford == 2
    assert report.gates_rotation == 1
    assert report.seed == 7
    assert report.kernel_tier == _kernels.kernel_tier()


def test_numpy_integer_seed_is_reported():
    c = bell_circuit()
    c.append("MEASZ", 0)
    for run in (run_baseline, run_hybrid):
        _, report = run(c, rng=np.int64(7))
        assert report.seed == 7 and type(report.seed) is int
        assert report.measurements == run(c, rng=7)[1].measurements


def test_hybrid_timing_phases_populated():
    rng = np.random.default_rng(54)
    circ = random_mixed_circuit(rng, 3, 40)
    hs, report = run_hybrid(circ, rng=1)
    assert set(hs.timing) == {"clifford_s", "rotation_s", "measure_s", "prep_s"}
    assert all(t >= 0 for t in hs.timing.values())
    assert sum(hs.timing.values()) == pytest.approx(report.t_run_s)
    assert report.t_run_s > 0
