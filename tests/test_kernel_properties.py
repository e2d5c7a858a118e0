"""The loops of ``_kernels`` over random arguments: the compiled C loops
against the numpy references against dense matrices built from
``oracles`` or index maps computed here, the factorization that feeds the
affine and shear passes, the flush against its dense split, and the flush
and its remainder pass against the per-step rotation path up to a power of
exp(i*pi/4)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import (Circuit, HybridState, PauliFrame, PauliString, StateVector, _kernels,
                      random_hamiltonian, run_hybrid, trotterize)
from framesim.frame import HadamardFree, RotationStep, invert_to_rotations, split_clifford
from framesim.statevector import tile_factors
from oracles import (circuit_unitary, compiled_clones, gf2_rank, index_mapped, pauli_matrix,
                     random_clifford_circuit, random_mixed_circuit, rotation_matrix,
                     up_to_omega)

# the Clifford loop of the numpy reference always, and the compiled C loop
# wherever it loaded, on each of its clones that this CPU runs
TIERS = {"numpy": _kernels.numpy_clifford, **compiled_clones(_kernels.clifford)}
# the affine and shear passes of the numpy reference always, and of the C
# loops wherever they loaded; they are not cloned per SIMD width
PASSES = {"numpy": (_kernels.numpy_affine, _kernels.numpy_shear)}
# the scatter of a register into the whole state, likewise
EMBEDS = {"numpy": _kernels.numpy_embed}
if _kernels.kernel_tier() == "compiled-c":
    PASSES["compiled"] = (_kernels.affine, _kernels.shear)
    EMBEDS["compiled"] = _kernels.embed

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
    # the flush against the steps of invert_to_rotations applied as general
    # rotations and swaps, up to a power of w = exp(i*pi/4): one for the
    # whole state
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
    out = hs.phi.amplitudes
    assert np.max(np.abs(out - up_to_omega(out, ref.amplitudes))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), length=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_flush_is_the_dense_split_after_the_index_map(n, length, seed):
    # the flush of U P_A|phi> applies F T_h ... T_1 P_A, F and the turns
    # being split_clifford's, global phase included: F has no constant
    # factor.  Their product is U up to a power of w.
    rng = np.random.default_rng(seed)
    circ = random_clifford_circuit(rng, n, length)
    frame = PauliFrame.origin(n)
    for g in circ.gates:
        frame.apply_gate(g.tag, g.qubits)
    turns, rest = split_clifford(frame)
    split = hadamard_free_matrix(rest)
    for turn in reversed(turns):  # T_1 acts first
        split = split @ rotation_matrix(turn.axis, turn.angle)
    u = circuit_unitary(circ)
    assert np.max(np.abs(split - up_to_omega(split, u))) < 1e-12
    a = random_invertible(rng, n)
    amp = random_amplitudes(seed, n)
    hs = HybridState(frame, StateVector(n, amp),
                     index_map=np.array(a, dtype=np.uint64))
    hs.flush_to_origin()
    assert np.max(np.abs(hs.phi.amplitudes - split @ index_mapped(amp, a))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), seed=st.integers(0, 2**32 - 1))
def test_origin_flush_applies_the_index_map_in_the_form_of_its_product(n, seed):
    # at the origin frame the flush writes P_A's form directly; it must be
    # the form HadamardFree.after gives, and the flush must apply P_A
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    amp = random_amplitudes(seed, n)
    hs = HybridState(PauliFrame.origin(n), StateVector(n, amp),
                     index_map=np.array(a, dtype=np.uint64))
    forms = []
    whole = StateVector.apply_hadamard_free

    def spy(state, form, register=None):
        forms.append(form)
        return whole(state, form, register)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StateVector, "apply_hadamard_free", spy)
        hs.flush_to_origin()
    assert forms == [HadamardFree.identity(n).after(a)]
    assert np.array_equal(hs.phi.amplitudes, index_mapped(amp, a))


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
    # remainder pass, against the turns applied one by one, up to a power
    # of w
    n, run, seed = case
    amp = random_amplitudes(seed, n)
    ref = StateVector(n, amp)
    for step in run:
        ref.apply_pauli_rotation(step.axis, step.angle)
    turns, rest = split_clifford(frame_of_steps(n, run))
    assert turns == []
    for name, (affine, shear) in PASSES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "affine", affine)
            mp.setattr(_kernels, "shear", shear)
            out = StateVector(n, amp)
            out.apply_hadamard_free(rest)
        assert np.max(np.abs(out.amplitudes - up_to_omega(out.amplitudes, ref.amplitudes))
                      ) < 1e-12, name


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
    """The dense matrix of form, |k> -> i**q(k) |A k ^ offset>,
    with q(k) summed over the pairs of set bits of k as the docstring states."""
    n = len(form.rows)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for k in range(1 << n):
        bits = [i for i in range(n) if k >> i & 1]
        q = sum(form.diag[i] for i in bits) + 2 * sum(
            form.cross[i] >> j & 1 for a, i in enumerate(bits) for j in bits[:a])
        m[mat_vec(form.rows, k) ^ form.offset, k] = 1j ** (q % 4)
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
                        tuple(int(d) for d in rng.integers(0, 4, n)), tuple(cross))
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
    """Arguments (cols, offset, diag, cross) of an affine pass on n qubits:
    a random invertible map of tiles onto tiles, a random offset and, if
    phased, a random quadratic phase."""
    b = _kernels.tile_bits(n)
    low, high = random_invertible(rng, b), random_invertible(rng, n - b)
    rows = low + [(r << b) for r in high]
    for i in range(b):  # positions may take any tile bits
        rows[i] |= int(rng.integers(0, 1 << n)) & ~((1 << b) - 1)
    cols = [sum((r >> c & 1) << i for i, r in enumerate(rows)) for c in range(n)]
    diag, cross = [0] * n, [0] * n
    if phased:
        diag = [int(d) for d in rng.integers(0, 4, n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.5:
                    cross[i] |= 1 << j
                    cross[j] |= 1 << i
    return cols, int(rng.integers(0, 1 << n)), diag, cross


def affine_oracle(amp, cols, offset, diag, cross):
    """The affine pass index by index: out[G k ^ offset] = i**q(k) * amp[k]."""
    n = len(cols)
    out = np.empty_like(amp)
    for k in range(1 << n):
        bits = [i for i in range(n) if k >> i & 1]
        image, q = offset, 0
        for i in bits:
            image ^= cols[i]
            q += diag[i] + 2 * sum(cross[i] >> j & 1 for j in bits if j > i)
        out[image] = 1j ** (q % 4) * amp[k]
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
    # the passes only move amplitudes and multiply them by powers of i, so
    # every tier must give the oracle's amplitudes exactly
    amp = random_amplitudes(seed, n)
    ref = oracle(amp)
    for name, passes in PASSES.items():
        out = amp.copy()
        run(passes, out)
        assert np.array_equal(out, ref), name


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


def shear_columns(rng, n, rank, shape) -> list[int]:
    """Columns up of an upper shear on n qubits whose B has the given rank,
    with W = span(B e0, B e1), the tile offsets within a cache line, of
    the given shape: "zero" (dim 0), "e0 zero", "e1 zero" or "equal" (dim
    1, the last with B e0 = B e1) or "free" (dim 2).  The other columns
    take the rest of the rank, in random places, and random sums."""
    v = random_invertible(rng, n - 8)[:rank]
    v0, v1 = (v + [0, 0])[:2]
    w = {"zero": [0, 0], "e0 zero": [0, v0], "e1 zero": [v0, 0], "equal": [v0, v0],
         "free": [v0, v1]}[shape]
    dim = {"zero": 0, "free": 2}.get(shape, 1)
    rest = [0] * 6
    for slot, vec in zip(rng.permutation(6), v[dim:]):
        rest[slot] = vec
    for slot in range(6):
        if not rest[slot]:
            for vec in v:
                if rng.random() < 0.5:
                    rest[slot] ^= vec
    cols = [c << 8 for c in w + rest]
    assert gf2_rank(cols) == rank and gf2_rank(cols[:2]) == dim
    return cols


def shear_cases():
    """(n, rank, shape, with_down) for every rank B can have at n = 9..14
    and each shape of W that rank allows, with and without a lower shear;
    and n = 18 once, at rank 8 and at rank 7 with B e0 = B e1."""
    cases = []
    for n in range(9, 15):
        for rank in range(min(n - 8, 6) + 1):
            shapes = [s for s, dim in (("zero", 0), ("e0 zero", 1), ("e1 zero", 1),
                                       ("equal", 1), ("free", 2))
                      if dim <= rank and rank - dim <= 6]
            cases += [(n, rank, shape, down) for shape in shapes for down in (False, True)]
    return cases + [(18, 8, "free", True), (18, 7, "equal", True)]


@pytest.mark.skipif("compiled" not in PASSES, reason="the compiled passes did not load")
@pytest.mark.parametrize("n, rank, shape, with_down", shear_cases())
def test_shear_pass_moves_every_rank_and_line_group_exactly(n, rank, shape, with_down):
    # the C pass on a view into a guarded array, one amplitude or one
    # cache line into it, against numpy_shear on the same amplitudes
    rng = np.random.default_rng([n, rank, len(shape), with_down])
    up = shear_columns(rng, n, rank, shape)
    down = random_shear(rng, n)[1] if with_down else [0] * (n - 8)
    amp = random_amplitudes(rank, n)
    ref = amp.copy()
    _kernels.numpy_shear(ref, up, down)
    skip = 1 + 3 * (n % 2)
    guarded = np.full(amp.size + 2 * skip, 7.0 - 7.0j)
    state = guarded[skip:-skip]
    state[:] = amp
    _kernels.shear(state, up, down)
    assert np.all(guarded[:skip] == 7.0 - 7.0j) and np.all(guarded[-skip:] == 7.0 - 7.0j)
    assert np.array_equal(state, ref)


@pytest.mark.skipif("compiled" not in PASSES, reason="the compiled passes did not load")
@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_phase_free_affine_pass_only_moves_amplitudes(n):
    # without a phase the C pass takes its moving loop: zeros, and diag
    # entries of 4, which are 0 mod 4, must give numpy_affine's amplitudes
    rng = np.random.default_rng(n)
    cols, offset, _, _ = random_affine(rng, n, phased=False)
    amp = random_amplitudes(n, n)
    for diag, cross in (((0,) * n, (0,) * n), ([4] * n, [0] * n)):
        ref, out = amp.copy(), amp.copy()
        _kernels.numpy_affine(ref, cols, offset, diag, cross)
        _kernels.affine(out, cols, offset, diag, cross)
        assert np.array_equal(out, ref)
        assert np.array_equal(ref, affine_oracle(amp, cols, offset, [0] * n, [0] * n))


@pytest.mark.skipif("compiled" not in PASSES, reason="the compiled passes did not load")
def test_trotter_flush_equals_the_numpy_passes_bit_for_bit():
    # the paper's case at full size, 25 weight-18 terms on 18 qubits: the
    # flush applies P_A alone, a phase-free affine pass and a shear whose B
    # has rank 8, and must give the numpy passes' amplitudes exactly
    n = 18
    hs, _ = run_hybrid(trotterize(random_hamiltonian(n, n, 25, [1, 0])), 1)
    form = HadamardFree.identity(n).after(hs.index_map.tolist())
    assert gf2_rank(tile_factors(form.rows, 8)[1]) == 8
    state = hs.phi.copy()
    hs.flush_to_origin()
    assert hs.flush_passes[0]["affine"] == hs.flush_passes[0]["shears"] == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "affine", _kernels.numpy_affine)
        mp.setattr(_kernels, "shear", _kernels.numpy_shear)
        state.apply_hadamard_free(form)
    assert np.array_equal(hs.phi.amplitudes, state.amplitudes)


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
            assert np.array_equal(state, oracle)


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
            affine(state, cols, 0, zeros, cross)
        assert np.array_equal(state, amp), case
    state = amp.copy()
    for up, down in (([1 << 9] + [0] * 6 + [1], [0, 0]), ([1 << 9] * 7, [0, 0]),
                     ([1 << 9] * 8, [0, 1 << 8]), ([1 << 9] * 8, [0])):
        with pytest.raises(ValueError, match="shear columns"):
            shear(state, up, down)
    assert np.array_equal(state, amp)


def random_embedding(rng, n, d):
    """Columns and offset of a random embedding of d qubits into n, in the
    echelon form ``_kernels.embed`` takes: pivots p_0 < ... < p_(d-1),
    column i with its top bit at p_i and random bits below it off the
    pivots, and a random offset off the pivots."""
    pivots = sorted(int(p) for p in rng.choice(n, d, replace=False))
    free = ((1 << n) - 1) & ~sum(1 << p for p in pivots)
    cols = [1 << p | int(rng.integers(0, 1 << p)) & free for p in pivots]
    return cols, int(rng.integers(0, 1 << n)) & free


def embed_oracle(amp, cols, offset):
    """The scatter index by index: out[E k ^ offset] = amp[k] for k < 2**d,
    the other amplitudes below 2**d zero and those above kept."""
    out = amp.copy()
    out[:1 << len(cols)] = 0
    for k in range(1 << len(cols)):
        dest = offset
        for i, col in enumerate(cols):
            if k >> i & 1:
                dest ^= col
        out[dest] = amp[k]
    return out


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, MAX_QUBITS), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_embed_matches_reference_and_oracle(n, data, seed):
    # amplitudes above 2**d are nonzero here: the scatter overwrites only
    # its destinations
    d = data.draw(st.integers(1, n - 1), label="d")
    cols, offset = random_embedding(np.random.default_rng(seed), n, d)
    amp = random_amplitudes(seed, n)
    ref = embed_oracle(amp, cols, offset)
    for name, embed in EMBEDS.items():
        out = amp.copy()
        embed(out, cols, offset)
        assert np.array_equal(out, ref), name


@pytest.mark.parametrize("name", list(EMBEDS))
def test_embed_rejects_what_it_cannot_scatter_in_place(name):
    # and leaves the state as it was
    embed = EMBEDS[name]
    n = 6
    amp = random_amplitudes(5, n)
    bad = {"falling pivots": ([1 << 4, 1 << 2], 0, "echelon"),
           "a column with another's pivot": ([1 << 2, 1 << 4 | 1 << 2], 0, "echelon"),
           "a zero column": ([1, 0], 0, "echelon"),
           "an offset with a pivot bit": ([1 << 1, 1 << 3 | 1], 1 << 3, "pivot bit"),
           "as many columns as qubits": ([1 << i for i in range(n)], 0, "embedding of"),
           "more columns than qubits": ([1 << i for i in range(n)] + [1 << n], 0,
                                        "embedding of"),
           "a column beyond the state": ([1 << n], 0, "out of range"),
           "an offset beyond the state": ([1], 1 << n, "out of range")}
    for case, (cols, offset, match) in bad.items():
        state = amp.copy()
        with pytest.raises(ValueError, match=match):
            embed(state, cols, offset)
        assert np.array_equal(state, amp), case


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, MAX_QUBITS), length=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
def test_register_flush_equals_the_whole_state_passes_bit_for_bit(n, length, seed):
    # the flush of a hybrid run, whose rest runs on a register of fewer
    # than n qubits where it can, against the same rest applied by the
    # affine and shear passes to the whole state that the turns left
    rng = np.random.default_rng(seed)
    hs, _ = run_hybrid(random_mixed_circuit(rng, n, length, p_measure=0.03, p_prep=0.02),
                       seed)
    calls = []
    whole = StateVector.apply_hadamard_free

    def spy(state, form, register=None):
        calls.append((state.copy(), form))
        return whole(state, form, register)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StateVector, "apply_hadamard_free", spy)
        hs.flush_to_origin()
    before, form = calls[0]
    whole(before, form)
    assert np.array_equal(hs.phi.amplitudes, before.amplitudes)


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


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="compiled kernels not loaded")
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
                                               [0] * 10, [0] * 10),
             "shear": lambda: _kernels.shear(amp, [1 << 9] * 8, [0, 1]),
             "embed": lambda: _kernels.embed(amp, [1 << 9], 0)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match="aligned to 16 bytes"):
            call()
        assert not amp.any(), name
