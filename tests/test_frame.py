"""Frame updates, lookup and synthesis against dense conjugation oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesim import Circuit, PauliFrame, PauliString, invert_to_rotations
from oracles import (all_paulis, circuit_unitary, frame_is_valid, gf2_rank, pauli_matrix,
                     random_clifford_circuit, rotation_matrix, up_to_omega)


def frame_of(circ: Circuit) -> PauliFrame:
    f = PauliFrame.origin(circ.num_qubits)
    for g in circ.gates:
        f.apply_gate(g.tag, g.qubits)
    return f


def test_origin():
    f = PauliFrame.origin(1)
    assert f.eff_z(0) == PauliString.from_label("Z")
    assert f.eff_x(0) == PauliString.from_label("X")
    assert PauliFrame.origin(3).validate()
    f2 = PauliFrame.origin(2)
    z1 = PauliString.single(2, 1, "Z")
    assert f2.lookup(z1) == z1


def test_validate_rejects_broken_frames():
    z0 = PauliString.single(1, 0, "Z")
    bad = PauliFrame(1, rows=[(z0, z0)])
    assert not bad.validate()
    odd = PauliFrame(1, rows=[(z0.with_phase_shift(1), PauliString.single(1, 0, "X"))])
    assert not odd.validate()


def test_validate_survives_random_circuits():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = frame_of(random_clifford_circuit(rng, n, 100))
        assert f.validate()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), length=st.integers(0, 80), seed=st.integers(0, 2**32 - 1),
       corrupt=st.sampled_from(["none", "bit", "phase"]), row=st.integers(0, 19),
       part=st.sampled_from(["x", "z"]), bit=st.integers(0, 9), shift=st.integers(1, 3))
def test_validate_agrees_with_the_pairwise_check(n, length, seed, corrupt, row, part,
                                                 bit, shift):
    # on a valid frame, and on one with a single x or z bit flipped or a
    # single phase shifted in one of its 2n rows
    f = frame_of(random_clifford_circuit(np.random.default_rng(seed), n, length))
    rows = [[z, x] for z, x in f.rows()]
    side, i = divmod(row % (2 * n), n)  # side 0 is eff_z, 1 is eff_x
    p = rows[i][side]
    if corrupt == "bit":
        flip = 1 << bit % n
        p = PauliString(n, p.x_bits ^ flip * (part == "x"), p.z_bits ^ flip * (part == "z"),
                        p.phase_exp)
    elif corrupt == "phase":
        p = p.with_phase_shift(shift)
    rows[i][side] = p
    broken = PauliFrame(n, rows=[tuple(r) for r in rows])
    verdict = broken.validate()
    assert verdict == frame_is_valid(broken)
    # a flipped bit may leave a valid frame (Z_0 -> Y_0 next to X_0); a
    # phase shift breaks it exactly when it is odd
    if corrupt != "bit":
        assert verdict == (corrupt == "none" or shift == 2)


def test_cx_update_example():
    f = PauliFrame.origin(2)
    f.apply_gate("CX", (0, 1))
    assert f.eff_z(1) == PauliString.from_label("ZZ")
    assert f.eff_x(0) == PauliString.from_label("XX")
    assert f.eff_z(0) == PauliString.from_label("IZ")
    assert f.eff_x(1) == PauliString.from_label("XI")
    assert f.lookup(PauliString.single(2, 1, "Z")) == PauliString.from_label("ZZ")


def test_h_and_s_periods():
    f = PauliFrame.origin(1)
    f.apply_gate("H", (0,))
    f.apply_gate("H", (0,))
    assert f.is_origin()
    for _ in range(4):
        f.apply_gate("S", (0,))
    assert f.is_origin()
    f.apply_gate("S", (0,))
    f.apply_gate("SDG", (0,))
    assert f.is_origin()


def test_gate_updates_match_dense_conjugation():
    # the per-gate row-update table, locked gate by gate: after appending g
    # to the origin frame, row entries must equal g^dag sigma g exactly
    from oracles import gate_unitary
    rng = np.random.default_rng(21)
    one_q = [("H",), ("S",), ("SDG",), ("X",), ("Y",), ("Z",)]
    for (tag,) in one_q:
        f = PauliFrame.origin(1)
        f.apply_gate(tag, (0,))
        u = gate_unitary(tag, (0,), 1)
        for row_op, sigma in ((f.eff_z(0), "Z"), (f.eff_x(0), "X")):
            ref = u.conj().T @ pauli_matrix(PauliString.from_label(sigma)) @ u
            assert np.allclose(pauli_matrix(row_op), ref), tag
    for tag in ("CX", "CZ", "SWAP"):
        for qubits in ((0, 1), (1, 0)):
            f = PauliFrame.origin(2)
            f.apply_gate(tag, qubits)
            u = gate_unitary(tag, qubits, 2)
            for i in range(2):
                for row_op, single in ((f.eff_z(i), PauliString.single(2, i, "Z")),
                                       (f.eff_x(i), PauliString.single(2, i, "X"))):
                    ref = u.conj().T @ pauli_matrix(single) @ u
                    assert np.allclose(pauli_matrix(row_op), ref), (tag, qubits)


def test_backward_composition_law():
    # lookup through a whole circuit equals dense conjugation by its unitary
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        circ = random_clifford_circuit(rng, n, int(rng.integers(1, 40)))
        f = frame_of(circ)
        u = circuit_unitary(circ)
        for q in range(n):
            for letter in "XYZ":
                p = PauliString.single(n, q, letter)
                ref = u.conj().T @ pauli_matrix(p) @ u
                assert np.allclose(pauli_matrix(f.lookup(p)), ref)


def test_lookup_arbitrary_paulis_and_homomorphism():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        circ = random_clifford_circuit(rng, n, 30)
        f = frame_of(circ)
        u = circuit_unitary(circ)
        for p in (all_paulis(n) if n <= 2 else
                  [PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                   for _ in range(10)]):
            mapped = f.lookup(p)
            assert mapped.is_hermitian
            ref = u.conj().T @ pauli_matrix(p) @ u
            assert np.allclose(pauli_matrix(mapped), ref)
        # multiplicativity on a random Hermitian pair whose product is Hermitian
        p, q = (PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                for _ in range(2))
        if (p * q).is_hermitian:
            assert f.lookup(p) * f.lookup(q) == f.lookup(p * q)


def test_lookup_rejects_bad_input():
    f = PauliFrame.origin(2)
    with pytest.raises(ValueError):
        f.lookup(PauliString.from_label("+iZZ"))
    with pytest.raises(ValueError):
        f.lookup(PauliString.from_label("Z"))


def test_apply_gate_rejects_non_clifford():
    f = PauliFrame.origin(2)
    with pytest.raises(ValueError):
        f.apply_gate("RZ", (0,))


@pytest.mark.parametrize("tag", ["CX", "CZ", "SWAP"])
def test_apply_gate_rejects_a_repeated_qubit(tag):
    # CX on (1, 1) used to multiply a row into itself and leave a frame
    # that fails validate()
    f = PauliFrame.origin(3)
    with pytest.raises(ValueError, match="distinct"):
        f.apply_gate(tag, (1, 1))
    assert f.is_origin()


def test_conjugate_rotation_matches_dense():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        circ = random_clifford_circuit(rng, n, 20)
        f = frame_of(circ)
        axis = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                           2 * int(rng.integers(2)))
        if axis.weight == 0:
            continue
        angle = [math.pi / 2, -math.pi / 2, math.pi][int(rng.integers(3))]
        before = f.rows()
        f.conjugate_rotation(axis, angle)
        r = rotation_matrix(axis.unsigned(), angle if axis.sign == 1 else -angle)
        for (z0, x0), (z1, x1) in zip(before, f.rows()):
            assert np.allclose(pauli_matrix(z1), r @ pauli_matrix(z0) @ r.conj().T)
            assert np.allclose(pauli_matrix(x1), r @ pauli_matrix(x0) @ r.conj().T)


def test_invert_origin_is_empty():
    assert invert_to_rotations(PauliFrame.origin(4)) == []


def test_invert_single_cx():
    f = PauliFrame.origin(2)
    f.apply_gate("CX", (0, 1))
    steps = invert_to_rotations(f)
    chk = f.copy()
    for s in steps:
        chk.apply_step(s)
    assert chk.is_origin()
    assert not f.is_origin()  # input untouched


def test_invert_round_trip_random():
    rng = np.random.default_rng(25)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        f = frame_of(random_clifford_circuit(rng, n, 12 * n))
        steps = invert_to_rotations(f)
        multi = sum(1 for s in steps
                    if s.kind == "pauli_rotation" and s.axis.weight >= 2)
        assert multi <= 2 * n
        singles = sum(1 for s in steps
                      if s.kind == "pauli_rotation" and s.axis.weight == 1)
        assert singles <= 2 * n
        chk = f.copy()
        for s in steps:
            chk.apply_step(s)
        assert chk.is_origin()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), length=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_invert_random_frames_round_trip_within_the_documented_bounds(n, length, seed):
    f = frame_of(random_clifford_circuit(np.random.default_rng(seed), n, length))
    steps = invert_to_rotations(f)
    weights = [s.axis.weight for s in steps if s.kind == "pauli_rotation"]
    assert sum(w >= 2 for w in weights) <= 2 * n
    assert sum(w == 1 for w in weights) <= 2 * n
    assert len(steps) - len(weights) <= n - 1
    chk = f.copy()
    for s in steps:
        chk.apply_step(s)
    assert chk == PauliFrame.origin(n)


def needs_hadamard(step) -> bool:
    """A quarter turn about an axis with an X or Y letter mixes basis states."""
    return (step.kind == "pauli_rotation" and step.axis.x_bits != 0
            and step.quarter_turns % 2 != 0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), length=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_invert_ends_with_one_run_of_single_qubit_turns_without_a_hadamard_part(n, length,
                                                                               seed):
    # the cleanup emits its turns with a Hadamard part first, so that the
    # rest form one run the flush can fold into a single pass
    f = frame_of(random_clifford_circuit(np.random.default_rng(seed), n, length))
    steps = invert_to_rotations(f)
    first_monomial = next((i for i, s in enumerate(steps)
                           if s.kind == "pauli_rotation" and s.axis.weight == 1
                           and not needs_hadamard(s)), len(steps))
    assert not any(needs_hadamard(s) for s in steps[first_monomial:])
    assert all(s.kind == "qubit_swap" or s.axis.weight == 1
               for s in steps[first_monomial:])
    weights = [s.axis.weight for s in steps if s.kind == "pauli_rotation"]
    assert sum(w >= 2 for w in weights) <= 2 * n
    assert sum(w == 1 for w in weights) <= 2 * n
    assert len(steps) - len(weights) <= n - 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), length=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       x=st.integers(0, 31), z=st.integers(0, 31), sign=st.sampled_from([0, 2]))
def test_lookup_matches_dense_conjugation_on_random_circuits(n, length, seed, x, z, sign):
    circ = random_clifford_circuit(np.random.default_rng(seed), n, length)
    u = circuit_unitary(circ)
    p = PauliString(n, x, z, sign)
    mapped = frame_of(circ).lookup(p)
    assert np.allclose(pauli_matrix(mapped), u.conj().T @ pauli_matrix(p) @ u, atol=1e-12)


def test_invert_steps_compose_to_the_tracked_unitary():
    # dense check that the steps, in order, implement U up to global phase
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        circ = random_clifford_circuit(rng, n, 25)
        u = circuit_unitary(circ)
        steps = invert_to_rotations(frame_of(circ))
        v = np.eye(1 << n, dtype=complex)
        for s in steps:
            if s.kind == "pauli_rotation":
                sign = 1 if s.axis.phase_exp == 0 else -1
                v = rotation_matrix(s.axis.unsigned(), sign * s.angle) @ v
            else:
                from oracles import gate_unitary
                v = gate_unitary("SWAP", s.qubits, n) @ v
        overlap = abs(np.trace(v.conj().T @ u)) / (1 << n)
        assert overlap == pytest.approx(1.0, abs=1e-12)


def steps_unitary(steps, n) -> np.ndarray:
    """Dense product of synthesis steps, the first applied first."""
    from oracles import gate_unitary
    v = np.eye(1 << n, dtype=complex)
    for s in steps:
        if s.kind == "pauli_rotation":
            v = rotation_matrix(s.axis, s.angle) @ v
        else:
            v = gate_unitary("SWAP", s.qubits, n) @ v
    return v


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), length=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_split_clifford_is_the_reference_product_up_to_a_power_of_omega(n, length, seed):
    # h quarter turns, h the rank of the eff_z rows' x parts, then a
    # Clifford that maps each basis state to one basis state with no
    # constant factor, whose product equals the product of
    # invert_to_rotations' steps times w**r, w = exp(i*pi/4), for one r
    from framesim.frame import split_clifford
    f = frame_of(random_clifford_circuit(np.random.default_rng(seed), n, length))
    steps = invert_to_rotations(f)
    turns, rest = split_clifford(f)
    assert len(turns) == gf2_rank(f.eff_z(i).x_bits for i in range(n))
    assert all(t.kind == "pauli_rotation" and t.quarter_turns == 1 for t in turns)
    # the basis state A k ^ offset that |k> goes to, bit by bit of A's rows
    image = [sum(((r & k).bit_count() & 1) << i for i, r in enumerate(rest.rows)) ^ rest.offset
             for k in range(1 << n)]
    assert sorted(image) == list(range(1 << n))
    assert all(rest.cross[i] >> j & 1 == rest.cross[j] >> i & 1
               for i in range(n) for j in range(n))
    remainder = np.zeros((1 << n, 1 << n), dtype=complex)
    for k in range(1 << n):
        remainder[image[k], k] = 1j ** rest.phase(k)
    ours = remainder @ steps_unitary(turns, n)
    assert np.max(np.abs(ours - up_to_omega(ours, steps_unitary(steps, n)))) < 1e-12
    assert f == frame_of(random_clifford_circuit(np.random.default_rng(seed), n, length))


def test_invert_rejects_invalid_frame():
    z0 = PauliString.single(1, 0, "Z")
    with pytest.raises(ValueError):
        invert_to_rotations(PauliFrame(1, rows=[(z0, z0)]))


def test_invert_raises_when_no_row_carries_a_qubit(monkeypatch):
    # both rows are (Z0, X0), which validate() would reject
    monkeypatch.setattr(PauliFrame, "validate", lambda self: True)
    z0, x0 = PauliString.single(2, 0, "Z"), PauliString.single(2, 0, "X")
    with pytest.raises(RuntimeError, match="no eff_z row carries qubit 1"):
        invert_to_rotations(PauliFrame(2, rows=[(z0, x0), (z0, x0)]))


def test_invert_raises_when_synthesis_misses_the_origin(monkeypatch):
    monkeypatch.setattr(PauliFrame, "conjugate_rotation", lambda self, axis, angle: None)
    f = PauliFrame.origin(1)
    f.apply_gate("H", (0,))
    with pytest.raises(RuntimeError, match="origin frame"):
        invert_to_rotations(f)


def test_dump_format():
    f = PauliFrame.origin(2)
    f.apply_gate("CX", (0, 1))
    f.apply_gate("X", (0,))
    lines = f.dump().splitlines()
    assert lines[0] == "effZ=-IZ  effX=+XX"
    assert lines[1] == "effZ=+ZZ  effX=+XI"
