"""State vector kernels against dense oracles, plus the flatness property."""
import errno
import functools
import io
import mmap
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest

from framesim import (Circuit, HybridState, PauliFrame, PauliString, StateVector,
                      run_hybrid)
from framesim import _kernels
from oracles import (compiled_clones, pauli_matrix, random_clifford_circuit, random_pauli,
                     rotation_matrix)

# the Clifford loop of each implementation, which carries every Pauli-shaped
# update: the numpy reference always, and the compiled C loop wherever its
# library loaded, on each of its clones that this CPU runs; the oracle tests
# must hold for whichever one a deployment ends up on
KERNELS = {"numpy": _kernels.numpy_clifford, **compiled_clones(_kernels.clifford)}


def use_kernels(monkeypatch, name):
    monkeypatch.setattr(_kernels, "clifford", KERNELS[name])


@pytest.fixture(params=list(KERNELS))
def kernel_path(request, monkeypatch):
    use_kernels(monkeypatch, request.param)


def on_each_kernel(test):
    """Run ``test`` once on each implementation in KERNELS.

    Unlike ``kernel_path`` this loops inside one test, so the test's id
    stays the same whichever implementations are present.
    """
    @functools.wraps(test)
    def run(*args, **kwargs):
        for name in KERNELS:
            with pytest.MonkeyPatch.context() as mp:
                use_kernels(mp, name)
                try:
                    test(*args, **kwargs)
                except AssertionError as exc:
                    exc.add_note(f"with the {name} kernels")
                    raise
    return run


def random_state(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp)


@on_each_kernel
def test_zero_state():
    s = StateVector.zero(1)
    assert np.array_equal(s.amplitudes, [1, 0])
    s3 = StateVector.zero(3)
    assert np.isclose(s3.norm(), 1.0)
    for j in range(3):
        assert s3.expectation(PauliString.single(3, j, "Z")) == pytest.approx(1.0)


@on_each_kernel
def test_apply_pauli_basics():
    s = StateVector.zero(1)
    s.apply_pauli(PauliString.from_label("X"))
    assert np.array_equal(s.amplitudes, [0, 1])
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    plus.apply_pauli(PauliString.from_label("Z"))
    assert np.allclose(plus.amplitudes, np.array([1, -1]) / np.sqrt(2))


@on_each_kernel
def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n, signed=True)
        s = random_state(rng, n)
        ref = pauli_matrix(p) @ s.amplitudes
        s.apply_pauli(p)
        assert np.max(np.abs(s.amplitudes - ref)) < 1e-14


def test_rotation_diagonal_convention(kernel_path):
    s = StateVector.zero(1)
    theta = 0.4321
    s.apply_pauli_rotation(PauliString.from_label("Z"), theta)
    assert np.isclose(s.amplitudes[0], np.exp(-1j * theta / 2))
    s2 = StateVector(1, np.array([0, 1], dtype=complex))
    s2.apply_pauli_rotation(PauliString.from_label("Z"), theta)
    assert np.isclose(s2.amplitudes[1], np.exp(1j * theta / 2))


def test_rotation_zero_angle_is_identity(kernel_path):
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n, nontrivial=True)
        s = random_state(rng, n)
        before = s.amplitudes.copy()
        s.apply_pauli_rotation(p, 0.0)
        assert np.max(np.abs(s.amplitudes - before)) < 1e-15


def test_rotation_matches_closed_form(kernel_path):
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        s = random_state(rng, n)
        ref = rotation_matrix(p, theta) @ s.amplitudes
        s.apply_pauli_rotation(p, theta)
        assert np.max(np.abs(s.amplitudes - ref)) < 1e-12


def test_rotation_inverse_composes_to_identity(kernel_path):
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        p = random_pauli(rng, n)
        theta = float(rng.uniform(-np.pi, np.pi))
        s = random_state(rng, n)
        before = s.amplitudes.copy()
        s.apply_pauli_rotation(p, theta)
        s.apply_pauli_rotation(p, -theta)
        assert np.max(np.abs(s.amplitudes - before)) < 1e-12


# (n, x, z) cases that reach each traversal branch of the compiled Clifford
# loop, whose tiles span the low 8 index bits; the dense-oracle tests above
# stop at n = 6, where the whole state is one tile.  A case's "pivot" is the
# lowest set bit of x.
TRAVERSAL_CASES = {
    "x-low-pivot-0": (12, 0x001, 0x6c3),
    "x-low-pivot-1": (12, 0x002, 0x0f0),
    "x-low-3": (12, 0x003, 0x801),
    "x-low-blocks": (12, 0x0b4, 0x35a),
    "x-low-all": (10, 0x0ff, 0x155),
    "x-high-only": (12, 0xa00, 0x3c5),
    "x-high-pivot-at-tile": (9, 0x100, 0x1ff),
    "x-both": (12, 0x969, 0xa5a),
    "x-both-pivot-0": (12, 0xc05, 0x00f),
    "x-both-z-zero": (12, 0xfff, 0x000),
    "x-low-z-zero": (11, 0x006, 0x000),
    "diagonal": (12, 0x000, 0xc81),
    "diagonal-low": (10, 0x000, 0x0a5),
    "identity": (12, 0x000, 0x000),
}


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="compiled kernels not loaded")
@pytest.mark.parametrize("case", list(TRAVERSAL_CASES))
def test_compiled_rotation_matches_numpy_reference(case, monkeypatch):
    n, x, z = TRAVERSAL_CASES[case]
    rng = np.random.default_rng(16)
    p = PauliString(n, x, z)
    start = random_state(rng, n).amplitudes
    out = {}
    for name in KERNELS:
        use_kernels(monkeypatch, name)
        s = StateVector(n, start)
        for theta in (0.7, -2.1):
            s.apply_pauli_rotation(p, theta)
        out[name] = s.amplitudes
        assert np.max(np.abs(out[name] - out["numpy"])) < 1e-12, name


@pytest.mark.parametrize("case", [c for c, (_, x, _) in TRAVERSAL_CASES.items() if x])
def test_compiled_pair_loop_keeps_its_documented_semantics(case):
    # the Clifford loop walks the pairs {k, k ^ x} for any real ca and cb
    # and any e0.  The reference below is the docstring's statement over
    # index arrays, not the numpy implementation.
    n, x, z = TRAVERSAL_CASES[case]
    rng = np.random.default_rng(17)
    ca, cb = (float(v) for v in rng.normal(size=2))
    k = np.arange(1 << n)
    for name, clifford in KERNELS.items():
        for e0 in range(4):
            amp = random_state(rng, n).amplitudes
            sg = 1.0 - 2.0 * (np.bitwise_count(k & z) & 1)
            ref = ca * amp + cb * 1j ** e0 * sg * amp[k ^ x]
            clifford(amp, x, z, ca, cb, e0)
            assert np.max(np.abs(amp - ref)) < 1e-12, (name, e0)


def test_rotation_takes_a_signed_axis_and_rejects_a_non_hermitian_one(kernel_path):
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n).with_phase_shift(2)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        s = random_state(rng, n)
        ref = rotation_matrix(p, theta) @ s.amplitudes
        s.apply_pauli_rotation(p, theta)
        assert np.max(np.abs(s.amplitudes - ref)) < 1e-12
    s = StateVector.zero(2)
    for label in ("+iZX", "-iZX", "+iZI"):
        with pytest.raises(ValueError, match="Hermitian"):
            s.apply_pauli_rotation(PauliString.from_label(label), 0.3)


def test_clifford_rotation_matches_closed_form(kernel_path):
    # every residue of the quarter-turn count mod 8, on signed axes, with
    # the global phase of exp(-i k pi/4 P): the flush's quarter turns
    rng = np.random.default_rng(22)
    for turns in range(-8, 9):
        for _ in range(4):
            n = int(rng.integers(1, 6))
            p = random_pauli(rng, n, signed=True)
            s = random_state(rng, n)
            ref = rotation_matrix(p, turns * np.pi / 2) @ s.amplitudes
            s.apply_pauli_rotation(p, turns * np.pi / 2)
            assert np.max(np.abs(s.amplitudes - ref)) < 1e-12, (p, turns)
    with pytest.raises(ValueError, match="Hermitian"):
        StateVector.zero(2).apply_pauli_rotation(PauliString.from_label("+iZX"), np.pi / 2)


def test_diagonal_rule_matches_scalar_formula(kernel_path):
    # the diagonal fast path against the per-amplitude phase formula
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        z = int(rng.integers(1, 1 << n))
        p = PauliString(n, 0, z)
        theta = float(rng.uniform(-np.pi, np.pi))
        s = random_state(rng, n)
        ref = np.array([
            (np.cos(theta / 2) - 1j * np.sin(theta / 2) * 1j ** p.phase_exp_at(k))
            * s.amplitudes[k]
            for k in range(1 << n)])
        s.apply_pauli_rotation(p, theta)
        assert np.max(np.abs(s.amplitudes - ref)) < 1e-14


@on_each_kernel
def test_expectation_examples():
    s = StateVector.zero(1)
    assert s.expectation(PauliString.from_label("Z")) == pytest.approx(1.0)
    assert s.expectation(PauliString.from_label("X")) == pytest.approx(0.0)
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert bell.expectation(PauliString.from_label("ZZ")) == pytest.approx(1.0)
    assert bell.expectation(PauliString.from_label("XX")) == pytest.approx(1.0)
    assert bell.expectation(PauliString.from_label("ZI")) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        bell.expectation(PauliString.from_label("+iZZ"))


@on_each_kernel
def test_expectation_includes_sign():
    s = StateVector.zero(1)
    assert s.expectation(PauliString.from_label("-Z")) == pytest.approx(-1.0)


def test_expectation_raises_on_a_non_real_value(monkeypatch):
    # a Hermitian P has a real expectation; a broken kernel must not be
    # silently truncated to its real part, in an expectation or a measurement
    def broken_clifford(amp, x, z, ca, cb, e0):
        amp *= 1j

    monkeypatch.setattr(_kernels, "clifford", broken_clifford)
    with pytest.raises(RuntimeError, match="non-real"):
        StateVector.zero(1).expectation(PauliString.from_label("Z"))
    with pytest.raises(RuntimeError, match="non-real"):
        StateVector.zero(1).measure(PauliString.from_label("Z"), 0)


def extra_peak(fn) -> int:
    """Peak bytes that fn() allocates on top of what was live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="the numpy kernels use whole-array temporaries")
def test_pauli_shaped_updates_allocate_at_most_one_state_copy():
    n = 16
    slack = 64 * 1024
    state = random_state(np.random.default_rng(19), n)
    axes = [PauliString.from_label(label) for label in
            ("XYZI" * 4, "-" + "ZIZZ" * 4, "Y" + "I" * (n - 1))]
    for p in axes:
        s = state.copy()
        assert extra_peak(lambda: s.expectation(p)) <= 16 * s.dim + slack, p
        s = state.copy()
        assert extra_peak(lambda: s.measure(p, 1)) <= 16 * s.dim + slack, p
        s = state.copy()
        assert extra_peak(lambda: s.apply_pauli(p)) <= slack, p
        for turns in (1, 2, -1, 4):
            s = state.copy()
            assert extra_peak(lambda: s.apply_pauli_rotation(p, turns * np.pi / 2)) <= slack, \
                (p, turns)
    for tag in ("X", "Y", "Z", "S", "SDG", "RX", "RY", "RZ"):
        for q in (0, 5, 15):
            s = state.copy()
            angle = 0.3 if tag.startswith("R") else None
            assert extra_peak(lambda: s.apply_gate(tag, (q,), angle)) <= slack, (tag, q)


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="the numpy kernels use whole-array temporaries")
def test_clifford_gates_and_flush_allocate_nothing_state_sized():
    n = 16
    slack = 64 * 1024
    rng = np.random.default_rng(20)
    state = random_state(rng, n)
    for tag, qubits in (("H", (0,)), ("H", (9,)), ("CX", (3, 12)), ("CX", (12, 3)),
                        ("CZ", (0, 15)), ("SWAP", (7, 8)), ("SWAP", (15, 1))):
        s = state.copy()
        assert extra_peak(lambda: s.apply_gate(tag, qubits)) <= slack, (tag, qubits)
    # a sparse frame, and a dense one whose remainder takes both of its
    # passes, an affine one and a shear
    for length in (20, 400):
        frame = PauliFrame.origin(n)
        for g in random_clifford_circuit(rng, n, length).gates:
            frame.apply_gate(g.tag, g.qubits)
        hs = HybridState(frame, state.copy())
        assert extra_peak(hs.flush_to_origin) <= slack, length
    assert hs.flush_passes[0]["affine"] == 1 and hs.flush_passes[0]["shears"] == 1
    # a frame without a Hadamard part whose constant phase is an odd power
    # of exp(i*pi/4): one affine pass and no turn
    frame = PauliFrame.origin(n)
    for tag, qubits in (("S", (3,)), ("X", (9,)), ("SDG", (15,)), ("S", (0,)), ("Y", (2,))):
        frame.apply_gate(tag, qubits)
    hs = HybridState(frame, state.copy())
    assert extra_peak(hs.flush_to_origin) <= slack
    assert hs.flush_passes == [dict(quarter_turns=0, affine=1, shears=0, scatter=0,
                                    active=n, register=n)]
    # a hybrid run whose register holds 10 of the 16 qubits, followed by
    # Cliffords without a Hadamard part: the rest runs on 2**10 amplitudes
    # and one scatter puts them in place
    circ = Circuit(n)
    for q in range(10):
        circ.append("RX", q, angle=0.3 + q)
    for q in range(n):
        circ.append("CX", q, (q + 5) % n)
        circ.append(("S", "X")[q % 2], (3 * q) % n)
        circ.append("CZ", q, (q + 7) % n)
    hs, _ = run_hybrid(circ, 1)
    assert hs.active == 10
    assert extra_peak(hs.flush_to_origin) <= slack
    assert hs.flush_passes[0]["scatter"] == 1 and hs.flush_passes[0]["register"] < n


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="the numpy kernels use whole-array temporaries")
def test_register_flush_allocates_at_most_the_register_copy():
    # the rest of a flush on a register of 14 of 16 qubits makes one copy
    # of its 2**14 amplitudes, a quarter of the state, and nothing more
    n, d = 16, 14
    slack = 64 * 1024
    circ = Circuit(n)
    for q in range(d):
        circ.append("RY", q, angle=0.2 + q)
    for q in range(n):
        circ.append("CX", q, (q + 5) % n)
        circ.append(("S", "X")[q % 2], (3 * q) % n)
        circ.append("CZ", q, (q + 7) % n)
    hs, _ = run_hybrid(circ, 1)
    assert hs.active == d
    assert extra_peak(hs.flush_to_origin) <= 16 * (1 << d) + slack
    assert hs.flush_passes[0]["scatter"] == 1 and hs.flush_passes[0]["register"] == d
    assert hs.flush_passes[0]["affine"] == hs.flush_passes[0]["shears"] == 0


@pytest.mark.parametrize("n", [16, 17, 18])
def test_zero_state_is_a_writable_basis_state_on_a_cache_line(n):
    # 16 qubits (1 MiB) take numpy's heap, 17 and 18 a mapping of their own
    s = StateVector.zero(n)
    amp = s.amplitudes
    assert amp.shape == (1 << n,) and amp.dtype == np.complex128
    assert amp[0] == 1 and not np.any(amp[1:])
    assert amp.flags.writeable and amp.flags.c_contiguous
    assert amp.ctypes.data % 64 == 0
    amp[-1] = 0.5j
    copy = s.copy()
    assert np.array_equal(copy.amplitudes, amp) and copy.amplitudes.ctypes.data % 64 == 0


def test_a_mapped_state_is_traced_as_its_amplitudes():
    # the mapping counts with tracemalloc as numpy's own allocations do,
    # so a peak cannot fall by hiding it
    state = StateVector.zero(18)
    for make in (lambda: StateVector.zero(18), state.copy):
        assert 4 << 20 <= extra_peak(make) <= (4 << 20) + 64 * 1024


class UnadvisableMapping(mmap.mmap):
    """A mapping whose advice fails, as on a kernel without huge pages."""
    advised = 0

    def madvise(self, *args):
        UnadvisableMapping.advised += 1
        raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("advice", ["fails", "missing"])
def test_a_mapped_state_does_not_need_the_huge_page_advice(monkeypatch, advice):
    # the advice is a hint: it fails with EINVAL on a kernel built without
    # transparent huge pages, and there is no MADV_HUGEPAGE off Linux
    monkeypatch.setattr(mmap, "mmap", UnadvisableMapping)
    monkeypatch.setattr(UnadvisableMapping, "advised", 0)
    if advice == "missing":
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    n = 17
    tracemalloc.start()
    try:
        s = StateVector.zero(n)
        assert tracemalloc.get_traced_memory()[0] >= 16 << n
    finally:
        tracemalloc.stop()
    assert UnadvisableMapping.advised == (advice == "fails")
    assert isinstance(s.amplitudes.base.obj, UnadvisableMapping)
    assert s.amplitudes[0] == 1 and not np.any(s.amplitudes[1:])


@pytest.mark.parametrize("refusal", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                     OverflowError("too large to convert to C ssize_t")])
def test_a_state_the_os_will_not_map_raises_memory_error(monkeypatch, refusal):
    # as np.zeros does below 2 MiB; a patched mapping, since under
    # overcommit a real oversized one can succeed and then be touched
    def refuse(*args, **kwargs):
        raise refusal

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(MemoryError, match=f"cannot map {16 << 17} bytes") as info:
        StateVector.zero(17)
    assert info.value.__cause__ is refusal


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_a_mapped_state_gives_its_memory_back_when_freed():
    n = 18
    tracemalloc.start()
    try:
        traced, resident = tracemalloc.get_traced_memory()[0], resident_bytes()
        for _ in range(50):
            s = StateVector.zero(n)
            s.amplitudes[:] = 1  # every page resident
            del s
        assert abs(tracemalloc.get_traced_memory()[0] - traced) <= 64 * 1024
        assert resident_bytes() - resident < 16 << n
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="the numpy kernels use whole-array temporaries")
def test_mapped_states_keep_the_expectation_and_flush_bounds():
    # the bounds above at n = 16, on states that take mappings of their own
    n = 18
    slack = 64 * 1024
    rng = np.random.default_rng(21)
    state = random_state(rng, n)
    s = state.copy()
    p = PauliString.from_label("XYZI" * 4 + "YZ")
    assert 16 * s.dim <= extra_peak(lambda: s.expectation(p)) <= 16 * s.dim + slack
    frame = PauliFrame.origin(n)
    for g in random_clifford_circuit(rng, n, 400).gates:
        frame.apply_gate(g.tag, g.qubits)
    hs = HybridState(frame, state.copy())
    assert extra_peak(hs.flush_to_origin) <= slack
    assert hs.flush_passes[0]["affine"] == 1 and hs.flush_passes[0]["shears"] == 1


@pytest.mark.parametrize("tag", ["CX", "CZ", "SWAP"])
def test_two_qubit_gates_reject_a_repeated_qubit(tag):
    # CX on (1, 1) used to do nothing and CZ on (1, 1) to apply a Z
    s = random_state(np.random.default_rng(21), 3)
    before = s.amplitudes.copy()
    with pytest.raises(ValueError, match="distinct"):
        s.apply_gate(tag, (1, 1))
    assert np.array_equal(s.amplitudes, before)


@pytest.mark.parametrize("tag, qubits, angle", [
    ("H", (0, 1), None), ("RZ", (0, 1), 0.3), ("H", (0,), 0.5), ("CX", (0,), None),
    ("SWAP", (0, 1, 2), None), ("X", (), None), ("H", (1.0,), None), ("CX", (0, 2.0), None)])
def test_apply_gate_checks_its_qubit_count_and_angle(tag, qubits, angle):
    # as Circuit.append does: H and RZ on (0, 1) acted on qubit 0 alone, H
    # ignored an angle, and CX on one qubit, SWAP on three and X on none
    # raised TypeError or IndexError; a float qubit passed the range check
    # and failed inside the kernel call
    error, match = ((TypeError, "integer") if any(isinstance(q, float) for q in qubits)
                    else (ValueError, "qubit|angle"))
    s = random_state(np.random.default_rng(22), 3)
    before = s.amplitudes.copy()
    with pytest.raises(error, match=match):
        s.apply_gate(tag, qubits, angle)
    assert np.array_equal(s.amplitudes, before)
    with pytest.raises(error, match=match):
        Circuit(3).append(tag, *qubits, angle=angle)


@on_each_kernel
def test_measure_deterministic():
    s = StateVector.zero(1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert s.measure(PauliString.from_label("Z"), rng) == 1
    assert np.allclose(s.amplitudes, [1, 0])


@on_each_kernel
def test_measure_collapse_branches():
    outcomes = []
    for seed in range(200):
        s = StateVector.zero(1)
        out = s.measure(PauliString.from_label("X"), np.random.default_rng(seed))
        outcomes.append(out)
        expected = np.array([1, out]) / np.sqrt(2)
        assert np.max(np.abs(s.amplitudes - expected)) < 1e-12
    # both branches occur with roughly even frequency
    assert 60 < outcomes.count(1) < 140


@on_each_kernel
def test_measure_bell_stabilizer():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    rng = np.random.default_rng(1)
    zz = PauliString.from_label("ZZ")
    for _ in range(10_000):
        assert bell.measure(zz, rng) == 1


@on_each_kernel
def test_prepare():
    rng = np.random.default_rng(2)
    s = StateVector(1, np.array([0, 1], dtype=complex))  # |1>
    s.prepare(PauliString.from_label("Z"), PauliString.from_label("X"), rng)
    assert np.isclose(abs(s.amplitudes[0]), 1.0)
    s0 = StateVector.zero(1)
    s0.prepare(PauliString.from_label("Z"), PauliString.from_label("X"), rng)
    assert np.array_equal(s0.amplitudes, [1, 0])
    with pytest.raises(ValueError):
        s0.prepare(PauliString.from_label("Z"), PauliString.from_label("Z"), rng)


@on_each_kernel
def test_prepare_multiqubit_stabilizer():
    rng = np.random.default_rng(3)
    for seed in range(20):
        s = random_state(np.random.default_rng(seed + 100), 2)
        s.prepare(PauliString.from_label("ZZ"), PauliString.from_label("IX"), rng)
        assert s.expectation(PauliString.from_label("ZZ")) == pytest.approx(1.0)
        assert np.isclose(s.norm(), 1.0)


@on_each_kernel
def test_gates_match_oracle():
    from oracles import gate_unitary
    rng = np.random.default_rng(4)
    cases = [("H", 1), ("S", 1), ("SDG", 1), ("X", 1), ("Y", 1), ("Z", 1),
             ("RX", 1), ("RY", 1), ("RZ", 1), ("CX", 2), ("CZ", 2), ("SWAP", 2)]
    for tag, arity in cases:
        for _ in range(8):
            n = int(rng.integers(arity, 5))
            qubits = tuple(int(q) for q in rng.choice(n, arity, replace=False))
            angle = float(rng.uniform(-np.pi, np.pi)) if tag.startswith("R") else None
            s = random_state(rng, n)
            ref = gate_unitary(tag, qubits, n, angle) @ s.amplitudes
            s.apply_gate(tag, qubits, angle)
            assert np.max(np.abs(s.amplitudes - ref)) < 1e-13, tag


def test_gate_examples():
    s = StateVector.zero(1)
    s.apply_gate("H", (0,))
    assert np.allclose(s.amplitudes, np.array([1, 1]) / np.sqrt(2))
    # control qubit 0 set: |01> (k=1) -> |11> (k=3)
    s2 = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
    s2.apply_gate("CX", (0, 1))
    assert np.array_equal(s2.amplitudes, [0, 0, 0, 1])
    s3 = StateVector.zero(1)
    s3.apply_gate("RY", (0,), np.pi / 2)
    assert np.allclose(s3.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_norm_preserved_over_random_ops():
    rng = np.random.default_rng(5)
    s = StateVector.zero(6)
    for _ in range(1000):
        r = rng.random()
        if r < 0.5:
            s.apply_pauli_rotation(random_pauli(rng, 6, nontrivial=True),
                                   float(rng.uniform(-np.pi, np.pi)))
        elif r < 0.8:
            s.apply_gate(("H", "S", "X")[rng.integers(3)], (int(rng.integers(6)),))
        else:
            a, b = (int(q) for q in rng.choice(6, 2, replace=False))
            s.apply_gate("CX", (a, b))
    assert abs(s.norm() - 1.0) < 1e-10


def test_probabilities_and_amplitude():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.allclose(bell.probabilities(), [0.5, 0, 0, 0.5])
    assert bell.amplitude(0) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        bell.amplitude(4)


def test_binary_round_trip():
    rng = np.random.default_rng(6)
    s = random_state(rng, 4)
    buf = io.BytesIO()
    s.write_binary(buf)
    buf.seek(0)
    back = StateVector.read_binary(buf)
    assert back.num_qubits == 4
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_read_binary_rejects_a_corrupt_dump_before_allocating(tmp_path):
    # a header naming 44 qubits asks for 256 TiB; from a file, read_binary
    # must raise ValueError having read only what the file holds
    header = struct.Struct("<Q").pack
    for i, (dump, match) in enumerate(((header(0), "0 qubits"), (header(65), "65 qubits"),
                                       (header(44) + bytes(96), "ends after 96 of"),
                                       (header(4) + bytes(16 * 16 - 1), "ends after 255 of"),
                                       (b"\x04\x00", "header of 2 bytes"))):
        path = tmp_path / f"dump{i}"
        path.write_bytes(dump)
        with open(path, "rb") as stream:
            def read():
                with pytest.raises(ValueError, match=match):
                    StateVector.read_binary(stream)
            assert extra_peak(read) <= 4 << 20, match


def test_top_amplitudes():
    s = StateVector(2, np.array([0.1, 0.9, 0.4, 0.1545], dtype=complex))
    top = s.top_amplitudes(2)
    assert [k for k, _ in top] == [1, 2]


def test_rotation_cost_flat_in_weight():
    # the kernel touches every amplitude once regardless of operator weight
    n = 20
    rng = np.random.default_rng(7)
    s = random_state(rng, n)
    theta = 0.3
    axes = {}
    for w in (1, 5, 10, 15, 20):
        support = rng.choice(n, w, replace=False)
        letters = rng.integers(0, 3, size=w)
        letters[0] = 0  # force one X so the paired (non-diagonal) path runs
        x = z = 0
        for q, c in zip(support, letters):
            if c != 2:
                x |= 1 << int(q)
            if c != 0:
                z |= 1 << int(q)
        axes[w] = PauliString(n, x, z)
        s.apply_pauli_rotation(axes[w], theta)  # warmup (page faults)
    # round-robin over the weights, so that a change in machine speed during
    # the test lands on every weight alike
    times = {w: [] for w in axes}
    for _ in range(15):
        for w, p in axes.items():
            t0 = time.perf_counter()
            s.apply_pauli_rotation(p, theta)
            times[w].append(time.perf_counter() - t0)
    medians = {w: sorted(t)[len(t) // 2] for w, t in times.items()}
    ratio = max(medians.values()) / min(medians.values())
    assert ratio < 1.5, f"rotation cost varies with weight: {medians}"
