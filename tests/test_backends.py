"""Baseline and hybrid backends: dispatch, equivalence, flush, reports."""
import numpy as np
import pytest

from framesim import (Circuit, HybridState, PauliFrame, PauliString, StateVector, _kernels,
                      run_baseline, run_hybrid)
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
    # for the rest, and a state of one tile (n <= 8) takes no shear, then
    # at most one scatter, none when the rest ran on the whole state; the
    # origin frame with the identity index map, as a flush leaves it, makes
    # no pass; each entry records the active count the flush began with and
    # the register its rest ran on, at least the active count.  No flush
    # runs invert_to_rotations, and on the compiled tier every flush, at
    # the origin too, is one C flush (_kernels.flush).
    from framesim import backends, frame
    from oracles import gf2_rank, random_clifford_circuit
    rng = np.random.default_rng(57)
    compiled = _kernels.flush
    for _ in range(20):
        n = int(rng.integers(1, 13))
        hs, _ = run_hybrid(random_clifford_circuit(rng, n, 10 * n))
        h = gf2_rank(hs.frame.eff_z(i).x_bits for i in range(n))
        active = hs.active
        splits = []
        with monkeypatch.context() as mp:
            for module in (backends, frame):
                mp.setattr(module, "invert_to_rotations",
                           lambda *args: pytest.fail("synthesis ran"))
            if compiled is not None:
                mp.setattr(_kernels, "flush", lambda *args: splits.append(1) or compiled(*args))
            hs.flush_to_origin()
            hs.flush_to_origin()
        first, second = hs.flush_passes
        assert second == dict(quarter_turns=0, affine=0, shears=0, scatter=0, active=n,
                              register=n)
        assert first["active"] == active
        assert max(active, 1) <= first["register"] <= n
        assert first["quarter_turns"] == h
        assert len(splits) == (0 if compiled is None else 2)
        assert first["affine"] <= 1
        assert first["shears"] <= (1 if n > 8 else 0)
        assert first["scatter"] <= (0 if first["register"] == n else 1)
        assert sum(first[kind] for kind in ("quarter_turns", "affine", "shears")) <= h + 2


def invalid_frames():
    """2-qubit frames that validate() rejects, each for one broken invariant."""
    z0, x0 = PauliString.single(2, 0, "Z"), PauliString.single(2, 0, "X")
    shared = PauliFrame(2, rows=[(z0, x0), (z0, x0)])  # both rows are (Z0, X0)
    odd = PauliFrame.origin(2)
    odd.ps[1] = 1  # eff_z[1] = i Z1
    high = PauliFrame.origin(2)
    high.zs[0] |= 1 << 2  # a mask at bit n
    commuting = PauliFrame.origin(2)
    commuting.xs[3], commuting.zs[3] = 0, 2  # eff_x[1] = Z1, which commutes with eff_z[1]
    return {"shared": shared, "odd phase": odd, "mask at bit n": high,
            "commuting pair": commuting}


def test_hybrid_state_refuses_a_state_or_index_map_on_other_qubits():
    # a 5-qubit phi under a 3-qubit frame once read an expectation of 0.0
    # from the first 8 amplitudes of e_16; both mismatches now raise, on
    # either tier
    frame = PauliFrame.origin(3)
    amp = np.zeros(32)
    amp[16] = 1.0
    with pytest.raises(ValueError, match="5-qubit state under a 3-qubit frame"):
        HybridState(frame, StateVector(5, amp))
    with pytest.raises(ValueError, match="2 rows for a 3-qubit frame"):
        HybridState(frame, StateVector.zero(3), index_map=np.array([1, 2], dtype=np.uint64))
    hs = HybridState(frame, StateVector(3, amp[16:24]))
    assert hs.expectation(PauliString.from_label("ZII")) == 1.0


def test_the_numpy_tier_refuses_a_register_it_cannot_map(monkeypatch):
    # without the compiled register map the hybrid's operations run on the
    # dense state, so a state built with A != I or d < n would flush wrong
    # amplitudes; the constructor refuses both, and takes A = I, d = n
    monkeypatch.setattr(_kernels, "register_map", None)
    monkeypatch.setattr(_kernels, "flush", None)
    frame = PauliFrame.origin(2)
    for kwargs in (dict(index_map=np.array([3, 2], dtype=np.uint64)), dict(active=1),
                   dict(index_map=np.array([1, 2], dtype=np.uint64), active=0)):
        with pytest.raises(ValueError, match="numpy tier"):
            HybridState(frame, StateVector.zero(2), **kwargs)
    hs = HybridState(frame, StateVector.zero(2), index_map=np.array([1, 2], dtype=np.uint64),
                     active=2)
    hs.flush_to_origin()
    assert np.array_equal(hs.phi.amplitudes, StateVector.zero(2).amplitudes)


def test_flush_rejects_an_invalid_frame_before_any_pass(monkeypatch):
    # the flush raises with the amplitudes, the register and its pass
    # record as they were, on the C flush and on the split in Python
    paths = ["python"] + (["compiled"] if _kernels.flush is not None else [])
    # a register of one qubit under A != I where the compiled register map
    # runs it; the numpy tier holds every state dense (A = I, d = n)
    rows, active = ([3, 2], 1) if _kernels.register_map is not None else ([1, 2], 2)
    for path in paths:
        for broken, frame in invalid_frames().items():
            assert not frame.validate(), broken
            amp = np.array([0.6, 0.8j, 0, 0])
            hs = HybridState(frame, StateVector(2, amp), active=active,
                             index_map=np.array(rows, dtype=np.uint64))
            with monkeypatch.context() as mp:
                if path == "python":
                    mp.setattr(_kernels, "flush", None)
                with pytest.raises(ValueError, match="invalid frame"):
                    hs.flush_to_origin()
            assert np.array_equal(hs.phi.amplitudes, amp), (path, broken)
            assert (hs.index_map.tolist(), hs.active) == (rows, active), (path, broken)
            assert hs.frame is frame and hs.flush_passes == [], (path, broken)


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
