"""The loops of ``_kernels`` over random arguments: the compiled C loops
against the numpy references against dense matrices built from
``oracles`` or index maps computed here, the factorization that feeds the
affine and shear passes, and the flush and its remainder pass against the
per-step rotation path."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import Circuit, HybridState, PauliFrame, PauliString, StateVector, _kernels
from framesim.frame import HadamardFree, RotationStep, invert_to_rotations, split_clifford
from framesim.statevector import tile_factors
from oracles import (compiled_clones, gf2_rank, pauli_matrix,
                     random_clifford_circuit, rotation_matrix)

# the Clifford loop of the numpy reference always, and the compiled C loop
# wherever it loaded, on each of its clones that this CPU runs
TIERS = {"numpy": _kernels.numpy_clifford, **compiled_clones(_kernels.clifford)}
# the affine and shear passes of the numpy reference always, and of the C
# loops wherever they loaded; they are not cloned per SIMD width
PASSES = {"numpy": (_kernels.numpy_affine, _kernels.numpy_shear)}
if _kernels.JIT_ENABLED:
    PASSES["compiled"] = (_kernels.affine, _kernels.shear)

MAX_QUBITS = 10
TILE = 256  # amplitudes per tile of the compiled loops
SQ2 = 0.7071067811865476
COEFFICIENTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, SQ2, -SQ2]),
                         st.floats(-2.0, 2.0, allow_nan=False))


def x_bits(n):
    """Strategy for a nonzero x mask of an n-qubit state: a bit pattern
    inside one tile, or one reaching above it (n > 8 only)."""
    dim = 1 << n
    tile = min(dim, TILE)
    shapes = [st.integers(1, tile - 1)]
    if dim > TILE:
        shapes.append(st.integers(TILE, dim - 1))
    return st.one_of(*shapes)


@st.composite
def clifford_cases(draw):
    n = draw(st.integers(1, MAX_QUBITS))
    x = draw(st.one_of(st.just(0), x_bits(n)))
    return (n, x, draw(st.integers(0, (1 << n) - 1)), draw(COEFFICIENTS),
            draw(COEFFICIENTS), draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1)))


def random_amplitudes(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def xz_matrix(n, x, z):
    """Z**z X**x: (Z**z X**x a)[k] = (-1)**parity(k & z) * a[k ^ x]."""
    return pauli_matrix(PauliString(n, 0, z)) @ pauli_matrix(PauliString(n, x, 0))


def check_tiers(amp, ref, run):
    """run(clifford, out) on a copy of amp per tier; each must equal ref."""
    out = {}
    for name, clifford in TIERS.items():
        out[name] = amp.copy()
        run(clifford, out[name])
        assert np.max(np.abs(out[name] - ref)) < 1e-12, name
        assert np.max(np.abs(out[name] - out["numpy"])) < 1e-12, name


@settings(max_examples=150, deadline=None)
@given(clifford_cases())
@example((1, 1, 1, SQ2, SQ2, 3, 1))        # a one-qubit state
@example((2, 3, 2, 0.0, 1.0, 1, 2))        # two pairs per cache line
@example((9, 0x100, 0x1ff, -SQ2, -SQ2, 1, 4))  # x at the tile edge
@example((10, 0x2c5, 0x3a1, 0.3, -1.7, 2, 5))  # x inside and above a tile
@example((10, 0x300, 0x0f0, 0.0, 1.0, 3, 6))   # x above a tile only
@example((10, 0x0a4, 0x300, 0.9, 0.4, 0, 7))   # x inside a tile, z above it
@example((10, 0, 0x2c1, 0.6, -0.8, 3, 8))      # a diagonal rotation
def test_clifford_loop_matches_reference_and_oracle(case):
    # ca*I + cb * i**e0 * Z**z X**x, for any real ca and cb: a rotation by
    # any angle has ca = cos, cb = sin and e0 odd
    n, x, z, ca, cb, e0, seed = case
    ref_matrix = ca * np.eye(1 << n) + cb * 1j ** e0 * xz_matrix(n, x, z)
    amp = random_amplitudes(seed, n)
    check_tiers(amp, ref_matrix @ amp,
                lambda clifford, out: clifford(out, x, z, ca, cb, e0))


ANGLES = st.floats(-7.0, 7.0, allow_nan=False)


def check_rotation_tiers(n, axis, theta, seed):
    """StateVector.apply_pauli_rotation on each tier's Clifford loop against
    exp(-i theta P / 2) from ``oracles``."""
    amp = random_amplitudes(seed, n)
    ref = rotation_matrix(axis, theta) @ amp
    for name, clifford in TIERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "clifford", clifford)
            out = StateVector(n, amp)
            out.apply_pauli_rotation(axis, theta)
        assert np.max(np.abs(out.amplitudes - ref)) < 1e-12, name


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), data=st.data(), theta=ANGLES,
       sign=st.sampled_from([0, 2]), seed=st.integers(0, 2**32 - 1))
def test_rotation_pair_loop_matches_reference_and_oracle(n, data, theta, sign, seed):
    # a rotation whose axis flips bits (x != 0) pairs amplitude k with k ^ x
    x = data.draw(x_bits(n))
    z = data.draw(st.integers(0, (1 << n) - 1))
    check_rotation_tiers(n, PauliString(n, x, z, sign), theta, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), data=st.data(), theta=ANGLES,
       sign=st.sampled_from([0, 2]), seed=st.integers(0, 2**32 - 1))
def test_rotation_diag_loop_matches_reference_and_oracle(n, data, theta, sign, seed):
    # a rotation whose axis is all Z and I (x = 0) scales each amplitude alone
    z = data.draw(st.integers(0, (1 << n) - 1))
    check_rotation_tiers(n, PauliString(n, 0, z, sign), theta, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), length=st.integers(0, 120),
       seed=st.integers(0, 2**32 - 1))
def test_flush_matches_the_per_step_rotation_path(n, length, seed):
    # the flush's quarter and half turns on the Clifford loop against the
    # same steps applied as general rotations, global phase included
    rng = np.random.default_rng(seed)
    frame = PauliFrame.origin(n)
    for g in random_clifford_circuit(rng, n, length).gates:
        frame.apply_gate(g.tag, g.qubits)
    amp = random_amplitudes(seed, n)
    ref = StateVector(n, amp)
    for step in invert_to_rotations(frame):
        if step.kind == "pauli_rotation":
            ref.apply_pauli_rotation(step.axis, step.angle)
        else:
            ref.swap_qubits(*step.qubits)
    hs = HybridState(frame, StateVector(n, amp))
    hs.flush_to_origin()
    assert hs.frame.is_origin()
    assert np.max(np.abs(hs.phi.amplitudes - ref.amplitudes)) < 1e-12


@st.composite
def monomial_runs(draw):
    """A run of single-qubit Z-axis turns and half turns on n <= 8 qubits,
    qubits repeated, with odd and even quarter-turn counts and signed axes."""
    n = draw(st.integers(1, 8))
    run = []
    for _ in range(draw(st.integers(0, 12))):
        letter = draw(st.sampled_from("XYZ"))
        turns = draw(st.sampled_from([-1, 1, 2] if letter == "Z" else [2]))
        sign = draw(st.sampled_from([0, 2]))
        axis = PauliString.single(n, draw(st.integers(0, n - 1)), letter, sign)
        run.append(RotationStep.rotation(axis, turns * np.pi / 2))
    return n, run, draw(st.integers(0, 2**32 - 1))


def frame_of_steps(n, steps) -> PauliFrame:
    """The frame whose Clifford is the product of ``steps`` applied in order:
    the origin conjugated by their inverses, last step first."""
    frame = PauliFrame.origin(n)
    for step in reversed(steps):
        frame.conjugate_rotation(step.axis, step.angle if step.quarter_turns == 2
                                 else -step.angle)
    return frame


@settings(max_examples=150, deadline=None)
@given(monomial_runs())
def test_folded_run_matches_its_turns_one_by_one(case):
    # a run of turns without a Hadamard part, folded into the flush's
    # remainder pass, against the turns applied one by one, global phase
    # included
    n, run, seed = case
    amp = random_amplitudes(seed, n)
    ref = StateVector(n, amp)
    for step in run:
        ref.apply_pauli_rotation(step.axis, step.angle)
    turns, rest = split_clifford(frame_of_steps(n, run), run)
    assert turns == []
    for name, (affine, shear) in PASSES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "affine", affine)
            mp.setattr(_kernels, "shear", shear)
            out = StateVector(n, amp)
            out.apply_hadamard_free(rest)
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12, name


def random_invertible(rng, m) -> list[int]:
    """Row masks of a uniformly drawn invertible m x m matrix over GF(2)."""
    while True:
        rows = [int(rng.integers(0, 1 << m)) for _ in range(m)]
        if gf2_rank(rows) == m:
            return rows


def mat_vec(rows, k) -> int:
    return sum((bin(r & k).count("1") & 1) << i for i, r in enumerate(rows))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_tile_factors_reproduce_a_random_invertible_matrix_for_every_tile_split(n, seed):
    rows = random_invertible(np.random.default_rng(seed), n)
    for b in range(n + 1):
        g, up, down = tile_factors(rows, b)
        lo = (1 << b) - 1
        for k in (1 << i for i in range(n)):  # all maps here are linear
            assert shears_oracle_index(up, down, b, mat_vec(g, k)) == mat_vec(rows, k), (b, k)
        # G moves whole tiles: the tile bits of G k come from those of k
        assert all(r & lo == 0 for r in g[b:]) and gf2_rank(g) == n
        # the upper shear adds tile bits, the lower one position bits
        assert len(up) == b and all(c & lo == 0 for c in up)
        assert len(down) == n - b and all(c >> b == 0 for c in down)
        # rank B is the rank of the block of A from position to tile bits
        assert gf2_rank(up) == gf2_rank(r & lo for r in rows[b:])


def hadamard_free_matrix(form: HadamardFree) -> np.ndarray:
    """The dense matrix of form, |k> -> w**eighths * i**q(k) |A k ^ offset>,
    with q(k) summed over the pairs of set bits of k as the docstring states."""
    n = len(form.rows)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for k in range(1 << n):
        bits = [i for i in range(n) if k >> i & 1]
        q = sum(form.diag[i] for i in bits) + 2 * sum(
            form.cross[i] >> j & 1 for a, i in enumerate(bits) for j in bits[:a])
        m[mat_vec(form.rows, k) ^ form.offset, k] = (
            np.exp(1j * np.pi / 4 * form.eighths) * 1j ** (q % 4))
    return m


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_hadamard_free_after_an_index_map_is_their_product(n, seed):
    # F P_A, for a random F without a Hadamard part and a random invertible
    # A, maps |k> to F|A k>, index by index and phase included
    rng = np.random.default_rng(seed)
    cross = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                cross[i] |= 1 << j
                cross[j] |= 1 << i
    form = HadamardFree(tuple(random_invertible(rng, n)), int(rng.integers(0, 1 << n)),
                        tuple(int(d) for d in rng.integers(0, 4, n)), tuple(cross),
                        int(rng.integers(0, 8)))
    a = random_invertible(rng, n)
    index_map = np.zeros((1 << n, 1 << n))
    for k in range(1 << n):
        index_map[mat_vec(a, k), k] = 1.0
    composed = form.after(a)
    assert np.array_equal(hadamard_free_matrix(composed),
                          hadamard_free_matrix(form) @ index_map)
    assert composed.after([1 << i for i in range(n)]) == composed


def shears_oracle_index(up, down, b, k) -> int:
    """(t, l) -> (t ^ B l, l ^ M (t ^ B l)), from the bits of k one by one."""
    for i in range(b):
        if k >> i & 1:
            k ^= up[i]
    for j in range(len(down)):
        if k >> (b + j) & 1:
            k ^= down[j]
    return k


def random_affine(rng, n, phased=True):
    """Arguments (cols, offset, diag, cross, c) of an affine pass on n
    qubits: a random invertible map of tiles onto tiles, a random offset
    and, if phased, a random quadratic phase and constant."""
    b = _kernels.tile_bits(n)
    low, high = random_invertible(rng, b), random_invertible(rng, n - b)
    rows = low + [(r << b) for r in high]
    for i in range(b):  # positions may take any tile bits
        rows[i] |= int(rng.integers(0, 1 << n)) & ~((1 << b) - 1)
    cols = [sum((r >> c & 1) << i for i, r in enumerate(rows)) for c in range(n)]
    diag, cross = [0] * n, [0] * n
    c = 1.0
    if phased:
        diag = [int(d) for d in rng.integers(0, 4, n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.5:
                    cross[i] |= 1 << j
                    cross[j] |= 1 << i
        c = complex(np.exp(1j * np.pi / 4 * rng.integers(8)))
    return cols, int(rng.integers(0, 1 << n)), diag, cross, c


def affine_oracle(amp, cols, offset, diag, cross, c):
    """The affine pass index by index: out[G k ^ offset] = c * i**q(k) * amp[k]."""
    n = len(cols)
    out = np.empty_like(amp)
    for k in range(1 << n):
        bits = [i for i in range(n) if k >> i & 1]
        image, q = offset, 0
        for i in bits:
            image ^= cols[i]
            q += diag[i] + 2 * sum(cross[i] >> j & 1 for j in bits if j > i)
        out[image] = c * 1j ** (q % 4) * amp[k]
    return out


def shear_oracle(amp, up, down):
    """The shear pass index by index: out[L U k] = amp[k]."""
    b = len(up)
    out = np.empty_like(amp)
    for k in range(amp.size):
        out[shears_oracle_index(up, down, b, k)] = amp[k]
    return out


def random_shear(rng, n):
    """Columns (up, down) of random upper and lower shears on n qubits."""
    b = _kernels.tile_bits(n)
    return ([int(rng.integers(0, 1 << (n - b))) << b for _ in range(b)],
            [int(rng.integers(0, 1 << b)) for _ in range(n - b)])


def check_passes(n, seed, run, oracle):
    amp = random_amplitudes(seed, n)
    ref = oracle(amp)
    for name, passes in PASSES.items():
        out = amp.copy()
        run(passes, out)
        assert np.max(np.abs(out - ref)) < 1e-12, name


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), seed=st.integers(0, 2**32 - 1),
       phased=st.booleans())
def test_affine_pass_matches_reference_and_oracle(n, seed, phased):
    args = random_affine(np.random.default_rng(seed), n, phased)
    check_passes(n, seed, lambda passes, out: passes[0](out, *args),
                 lambda amp: affine_oracle(amp, *args))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), seed=st.integers(0, 2**32 - 1))
def test_shear_pass_matches_reference_and_oracle(n, seed):
    up, down = random_shear(np.random.default_rng(seed), n)
    check_passes(n, seed, lambda passes, out: passes[1](out, up, down),
                 lambda amp: shear_oracle(amp, up, down))


@pytest.mark.parametrize("n", [12, 13, 14])
def test_affine_and_shear_passes_move_tiles_on_larger_states(n):
    # 16 to 64 tiles, with shears of rank 2 and up that pair tiles across
    # cosets of several tiles
    rng = np.random.default_rng(n)
    args = random_affine(rng, n)
    check_passes(n, n, lambda passes, out: passes[0](out, *args),
                 lambda amp: affine_oracle(amp, *args))
    for r in (2, n - 8):
        basis = random_invertible(rng, n - 8)[:r]
        cols = [v << 8 for v in basis]
        while len(cols) < 8:  # sums of basis vectors
            cols.append(0)
            for v in basis:
                if rng.random() < 0.5:
                    cols[-1] ^= v << 8
        assert gf2_rank(cols) == r
        down = random_shear(rng, n)[1]
        check_passes(n, r, lambda passes, out: passes[1](out, cols, down),
                     lambda amp: shear_oracle(amp, cols, down))


@pytest.mark.parametrize("name", list(PASSES))
def test_affine_and_shear_passes_write_only_their_state(name):
    # the state as a view into a larger array: the elements on either side
    # must keep their values
    affine, shear = PASSES[name]
    rng = np.random.default_rng(31)
    for n in (1, 3, 8, 9, 11):
        args, cols = random_affine(rng, n), random_shear(rng, n)
        amp = random_amplitudes(n, n)
        for run, oracle in ((lambda s: affine(s, *args), affine_oracle(amp, *args)),
                            (lambda s: shear(s, *cols), shear_oracle(amp, *cols))):
            guarded = np.full(amp.size + 8, 7.0 - 7.0j)
            state = guarded[4:-4]
            state[:] = amp
            run(state)
            assert np.all(guarded[:4] == 7.0 - 7.0j) and np.all(guarded[-4:] == 7.0 - 7.0j)
            assert np.max(np.abs(state - oracle)) < 1e-12


@pytest.mark.parametrize("name", list(PASSES))
def test_affine_and_shear_passes_reject_maps_they_cannot_apply(name):
    # and leave the state as it was
    affine, shear = PASSES[name]
    n = 10
    amp = random_amplitudes(3, n)
    unit = [1 << i for i in range(n)]
    zeros = [0] * n
    bad = {"singular": (unit[:9] + [1 << 8], zeros, "singular"),
           "a position moved to another tile": ([1 << 8] + unit[1:8] + [1, 1 << 9], zeros,
                                                 "singular"),
           "asymmetric cross": (unit, [2] + zeros[1:], "symmetric")}
    for case, (cols, cross, match) in bad.items():
        state = amp.copy()
        with pytest.raises(ValueError, match=match):
            affine(state, cols, 0, zeros, cross, 1.0)
        assert np.array_equal(state, amp), case
    state = amp.copy()
    for up, down in (([1 << 9] + [0] * 6 + [1], [0, 0]), ([1 << 9] * 7, [0, 0]),
                     ([1 << 9] * 8, [0, 1 << 8]), ([1 << 9] * 8, [0])):
        with pytest.raises(ValueError, match="shear columns"):
            shear(state, up, down)
    assert np.array_equal(state, amp)


@pytest.mark.parametrize("name", list(TIERS))
def test_clifford_loop_rejects_masks_outside_the_state(name):
    clifford = TIERS[name]
    amp = StateVector.zero(3).amplitudes
    for x, z in ((8, 0), (0, 8)):
        with pytest.raises(ValueError, match="out of range"):
            clifford(amp, x, z, 0.0, 1.0, 0)


@settings(max_examples=100, deadline=None)
@given(clifford_cases())
@example((1, 1, 1, SQ2, SQ2, 3, 1))       # a one-qubit state: one vector
@example((1, 0, 1, SQ2, SQ2, 3, 2))
@example((2, 2, 3, 0.0, 1.0, 1, 3))       # x = 2: one pair of vectors
def test_clifford_loop_writes_only_its_state(case):
    # the state as a view into a larger array: the elements on either side
    # must keep their values on every tier
    n, x, z, ca, cb, e0, seed = case
    amp = random_amplitudes(seed, n)
    ref = amp.copy()
    _kernels.numpy_clifford(ref, x, z, ca, cb, e0)
    for name, clifford in TIERS.items():
        guarded = np.full(amp.size + 8, 7.0 - 7.0j)
        state = guarded[4:-4]
        state[:] = amp
        clifford(state, x, z, ca, cb, e0)
        assert np.all(guarded[:4] == 7.0 - 7.0j) and np.all(guarded[-4:] == 7.0 - 7.0j), name
        assert np.max(np.abs(state - ref)) < 1e-12, name


@pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="compiled kernels not loaded")
def test_compiled_loops_reject_a_misaligned_state():
    # a complex128 array at 8 mod 16 bytes, which numpy flags as aligned
    amp = np.zeros(2 * 1024 + 1)[1:].view(np.complex128)
    assert amp.ctypes.data % 16 == 8 and amp.flags.aligned
    circ = Circuit(10)
    circ.append("RX", 3, angle=0.5)
    ops, angles = circ.lowered()
    calls = {"clifford": lambda: _kernels.clifford(amp, 1, 0, 0.0, 1.0, 0),
             "apply_h": lambda: _kernels.apply_h(amp, 0),
             "pair_exchange": lambda: _kernels.pair_exchange(amp, 3, 1, 2, 0),
             "run_gates": lambda: _kernels.run_gates(amp, *PauliFrame.origin(10).packed(),
                                                     np.array([1 << i for i in range(10)],
                                                              dtype=np.uint64), 10,
                                                     ops, angles, 0),
             "affine": lambda: _kernels.affine(amp, [1 << i for i in range(10)], 0,
                                               [0] * 10, [0] * 10, 1.0),
             "shear": lambda: _kernels.shear(amp, [1 << 9] * 8, [0, 1])}
    for name, call in calls.items():
        with pytest.raises(ValueError, match="aligned to 16 bytes"):
            call()
        assert not amp.any(), name
