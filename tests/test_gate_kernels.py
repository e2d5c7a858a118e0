"""The baseline's gate loops, on each kernel tier, against each other and
against the dense oracles: the 2x2 loop, which applies H and fused runs
of one-qubit gates, the pair exchange of CX, CZ, SWAP, Z, S and SDG, and
``swap_qubits``."""
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import Circuit, StateVector
from framesim import _kernels
from oracles import GATE_1Q, blocked_qubits, compiled_clones, embed_1q, gate_unitary

# (apply_u2, pair_exchange) of each implementation: the numpy reference
# always, and the compiled C loops wherever their library loaded, on each
# of their clones that this CPU runs
TIERS = {"numpy": (_kernels.numpy_apply_u2, _kernels.numpy_pair_exchange),
         **{name: (apply_u2, compiled_clones(_kernels.pair_exchange)[name])
            for name, apply_u2 in compiled_clones(_kernels.apply_u2).items()}}

ARITY = {"H": 1, "Z": 1, "S": 1, "SDG": 1, "CX": 2, "CZ": 2, "SWAP": 2}
MAX_QUBITS = 10

# the cases a traversal is most likely to get wrong: qubits 0 and 1, both
# orders, adjacent qubits, the edge of the rotation loops' 256-amplitude
# tiles (bits 7 and 8) and the top bit of a 10-qubit state
EDGE_CASES = [("H", 10, (q,)) for q in (0, 1, 7, 8, 9)] + [
    (tag, 10, pair) for tag in ("CX", "CZ", "SWAP")
    for pair in ((0, 1), (1, 0), (4, 5), (5, 4), (7, 8), (8, 7), (0, 9), (9, 0),
                 (9, 8))] + [
    (tag, 10, (q,)) for tag in ("Z", "S", "SDG") for q in (0, 1, 7, 8, 9)]


@functools.cache
def oracle(tag, qubits, n):
    return gate_unitary(tag, qubits, n)


def random_amplitudes(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def check_gate(tag, n, qubits, seed):
    amp = random_amplitudes(seed, n)
    ref = oracle(tag, qubits, n) @ amp
    out = {}
    for name, (apply_u2, pair_exchange) in TIERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "apply_u2", apply_u2)
            mp.setattr(_kernels, "pair_exchange", pair_exchange)
            s = StateVector(n, amp)
            s.apply_gate(tag, qubits)
            assert np.max(np.abs(s.amplitudes - ref)) < 1e-12, (name, tag, qubits)
            out[name] = s.amplitudes
            if tag == "SWAP":
                s = StateVector(n, amp)
                s.swap_qubits(*qubits)
                assert np.array_equal(s.amplitudes, out[name]), (name, qubits)
        assert np.max(np.abs(out[name] - out["numpy"])) < 1e-12, name


@st.composite
def gate_cases(draw):
    tag = draw(st.sampled_from(sorted(ARITY)))
    n = draw(st.integers(ARITY[tag], MAX_QUBITS))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=ARITY[tag],
                           max_size=ARITY[tag], unique=True))
    return tag, n, tuple(qubits), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("tag, n, qubits", EDGE_CASES)
def test_gate_edge_cases_match_oracle(tag, n, qubits):
    check_gate(tag, n, qubits, seed=60)


@settings(max_examples=60, deadline=None)
@given(gate_cases())
def test_gates_match_oracle_on_every_tier(case):
    check_gate(*case)


@st.composite
def exchange_cases(draw):
    n = draw(st.integers(1, MAX_QUBITS))
    mask = draw(st.integers(0, (1 << n) - 1))
    val = draw(st.integers(0, (1 << n) - 1)) & mask
    x = draw(st.integers(0, (1 << n) - 1)) & mask
    return n, mask, val, x, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(exchange_cases())
def test_pair_exchange_keeps_its_documented_semantics(case):
    # any masks, beyond the three shapes the gates use, against the
    # docstring's statement written out over filtered indices
    n, mask, val, x, e, seed = case
    amp = random_amplitudes(seed, n)
    k = np.arange(1 << n)
    k = k[k & mask == val]
    ref = amp.copy()
    if x:
        ref[k], ref[k ^ x] = amp[k ^ x], amp[k]
    else:
        ref[k] = 1j ** e * amp[k]
    for name, (_, pair_exchange) in TIERS.items():
        out = amp.copy()
        pair_exchange(out, mask, val, x, e)
        assert np.array_equal(out, ref), name


@st.composite
def walk_cases(draw):
    """(n, mask, val, x, e, seed), the masks drawn bit by bit, so that the
    bits 8 and 9 from which the walk pairs tiles are set as often as the
    others."""
    n = draw(st.integers(1, MAX_QUBITS))

    def mask(within):
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return sum(1 << i for i, bit in enumerate(bits) if bit) & within

    m = mask((1 << n) - 1)
    return n, m, mask(m), mask(m), draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(walk_cases())
@example((10, 0x300, 0x100, 0x300, 0, 1))  # SWAP(8, 9): the partner tile matches
@example((9, 0x1ff, 0x105, 0, 3, 2))
def test_tile_walks_are_the_numpy_loops_bit_for_bit(case):
    # the compiled pair exchange walks the state tile by tile, in tiles of
    # 2**min(n, 8) amplitudes: one tile smaller than the 256 of the
    # rotation loops below 8 qubits, several above, paired across tiles
    # from qubit 8 up; either way the amplitudes are numpy's
    n, mask, val, x, e, seed = case
    amp = random_amplitudes(seed, n)
    ref = amp.copy()
    _kernels.numpy_pair_exchange(ref, mask, val, x, e)
    for name, (_, pair_exchange) in TIERS.items():
        out = amp.copy()
        pair_exchange(out, mask, val, x, e)
        assert np.array_equal(out, ref), (name, n, mask, val, x, e)


@pytest.mark.parametrize("name", list(TIERS))
def test_gate_kernels_reject_bad_arguments(name):
    pair_exchange = TIERS[name][1]
    amp = StateVector.zero(3).amplitudes
    with pytest.raises(ValueError, match="submask"):
        pair_exchange(amp, 0b011, 0b100, 0b001, 0)
    with pytest.raises(ValueError, match="submask"):
        pair_exchange(amp, 0b011, 0b001, 0b110, 0)
    with pytest.raises(ValueError, match="out of range"):
        pair_exchange(amp, 0b1000, 0, 0, 2)


# apply_u2 of each implementation, as TIERS
U2_TIERS = {"numpy": _kernels.numpy_apply_u2, **compiled_clones(_kernels.apply_u2)}


def random_matrix(seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def check_u2(n, q, seed):
    amp, m = random_amplitudes(seed, n), random_matrix(seed + 1)
    ref = embed_1q(m, q, n) @ amp
    for name, apply_u2 in U2_TIERS.items():
        out = amp.copy()
        apply_u2(out, q, m)
        assert np.max(np.abs(out - ref)) < 1e-12, (name, n, q)


# q = 0, where a pair fills one 32-byte vector, q = 1, inside a tile, its
# top qubit, and across tiles, on states of one tile and of several
@pytest.mark.parametrize("n, q", [(10, 0), (10, 1), (10, 2), (10, 5), (10, 7), (10, 8),
                                  (10, 9), (1, 0), (2, 1), (8, 7)])
def test_u2_loop_matches_the_dense_oracle_on_every_tier(n, q):
    check_u2(n, q, seed=n + q)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_u2_loop_matches_the_dense_oracle_for_any_qubit(n, data, seed):
    check_u2(n, data.draw(st.integers(0, n - 1)), seed)


@pytest.mark.parametrize("name", list(U2_TIERS))
def test_u2_loop_rejects_bad_arguments(name):
    amp = StateVector.zero(3).amplitudes
    with pytest.raises(ValueError):
        U2_TIERS[name](amp, 3, np.eye(2))
    with pytest.raises(ValueError, match="2x2"):
        U2_TIERS[name](amp, 0, np.eye(3))


BLOCKED_N = blocked_qubits()
# gate pairs whose product the compiled loop and numpy compute exactly,
# from the same 1/sqrt(2) as the compiled loop's matrix of H
FUSED_PAIRS = (("H", "S"), ("SDG", "H"), ("X", "H"), ("H", "Y"), ("S", "X"), ("Z", "H"),
               ("Y", "S"), ("H", "Z"))
GATES = {**GATE_1Q, "H": _kernels._SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)}


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no state here")
def test_u2_passes_in_blocked_runs_are_the_whole_state_passes_bit_for_bit():
    # above the L2 size the baseline's loop fuses each pair below into one
    # 2x2 pass and walks those passes in blocked runs: q = 0, q = 1, inside
    # a tile and across tiles, up to the top qubit.  Each coset walk gives
    # the amplitudes of one whole-state 2x2 pass per qubit in qubit order,
    # the order the loop releases them in.  The SWAP(10, 9) that opens the
    # run puts the mixed tile mask 0b110 first into the span, so that in
    # some cosets the walk reaches the upper tile of qubit 9's pairs first
    n = BLOCKED_N
    qubits = (0, 1, 5, 7, 8, 9, 12, n - 1)
    swap = (1 << 10 | 1 << 9, 1 << 9, 1 << 10 | 1 << 9, 0)  # pair_exchange's SWAP
    circ = Circuit(n)
    circ.append("SWAP", 10, 9)
    for q, pair in zip(qubits, FUSED_PAIRS):
        for tag in pair:
            circ.append(tag, q)
    ops, angles = circ.lowered()

    def passes_of(apply_u2, pair_exchange):
        ref = random_amplitudes(3, n)
        pair_exchange(ref, *swap)
        for q, (first, second) in zip(qubits, FUSED_PAIRS):
            apply_u2(ref, q, GATES[second] @ GATES[first])
        return ref

    def both():
        amp = random_amplitudes(3, n)
        counts = _kernels.pass_counts()
        _kernels.baseline_gates(amp, ops, angles, 0, counts)
        return amp, passes_of(_kernels.apply_u2, _kernels.pair_exchange), counts

    for name, run in compiled_clones(both).items():
        amp, ref, counts = run()
        passes, _, blocked, fused, absorbed = counts
        assert (passes, blocked, fused, absorbed) == (1, 1, len(qubits), 0), name
        assert np.array_equal(amp, ref), name
    numpy_ref = passes_of(_kernels.numpy_apply_u2, _kernels.numpy_pair_exchange)
    assert np.max(np.abs(amp - numpy_ref)) < 1e-12


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as an FMA instruction rounds it"""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


@pytest.mark.skipif("avx2" not in _kernels._CLONES, reason="no AVX2 clone here")
@pytest.mark.parametrize("loop", ["clifford", "apply_u2"])
def test_the_avx2_loops_round_in_their_pinned_fma_order(loop):
    # the AVX2 clone fuses products into adds in the order the C source
    # pins (ROUNDED): the Clifford loop rounds p * b alone and fuses ca * a
    # into the add; the 2x2 loop rounds one product alone, im(m) * swap(u)
    # except where q = 1 (re(m) * u), and adds the other three to it in
    # turn, each in one FMA.  Computed exactly here and rounded as each FMA
    # rounds, on a few amplitudes of each pass: a build that rounds another
    # product alone, or none, differs on about a third of them
    n, rng = 10, np.random.default_rng(11)
    before = _kernels._use_clone("avx2")
    try:
        for case in range(4):
            a = random_amplitudes(20 + case, n)
            out = a.copy()
            ks = [int(k) for k in rng.integers(1 << n, size=8)]
            if loop == "clifford":
                x = (0, 1, 6, 1 << 9 | 3)[case]
                z, ca, cb, e0 = int(rng.integers(1 << n)), rng.normal(), rng.normal(), case
                _kernels.clifford(out, x, z, ca, cb, e0)
                turn = ((1, 1), (-1, 1), (-1, -1), (1, -1))[e0]
                for k in ks:
                    s = -1 if bin(k & z).count("1") % 2 else 1
                    b = a[k ^ x]
                    b = (b.real, b.imag) if e0 % 2 == 0 else (b.imag, b.real)
                    parts = [fma(ca, v, (s * t * cb) * bv)
                             for v, t, bv in zip((a[k].real, a[k].imag), turn, b)]
                    assert (out[k].real, out[k].imag) == tuple(parts), (x, e0, k)
            else:
                q = (0, 1, 3, 9)[case]
                m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                _kernels.apply_u2(out, q, m)
                own = 0 if q == 1 else 1
                for k in ks:
                    hi = k >> q & 1
                    u, w = a[k], a[k ^ 1 << q]
                    c0, c1 = m[hi, hi], m[hi, 1 - hi]
                    parts = []
                    for terms in ([(c0.real, u.real), (-c0.imag, u.imag),
                                   (c1.real, w.real), (-c1.imag, w.imag)],
                                  [(c0.real, u.imag), (c0.imag, u.real),
                                   (c1.real, w.imag), (c1.imag, w.real)]):
                        r = fma(*terms[1 - own], terms[own][0] * terms[own][1])
                        for t in terms[2:]:
                            r = fma(*t, r)
                        parts.append(r)
                    assert (out[k].real, out[k].imag) == tuple(parts), (q, k)
    finally:
        _kernels._use_clone(before)
