"""The loops of ``_kernels`` over random arguments: the compiled C loops
against the numpy references against dense matrices built from
``oracles`` or index maps computed here, the permutation of a whole state
on the matrices whose factors take every shape of its passes, the flush
against its dense split, and the flush and its remainder pass against the
per-step rotation path up to a power of exp(i*pi/4)."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import (Circuit, HybridState, PauliFrame, PauliString, StateVector, _kernels,
                      compile_pauli_rotation, gf2, random_hamiltonian, run_hybrid, trotterize)
from framesim.backends import _compiled_gates, _python_gates
from framesim.frame import HadamardFree, RotationStep, invert_to_rotations, split_clifford
from oracles import (blocked_qubits, circuit_unitary, clifford_whole_array, compiled_clones,
                     gf2_rank, index_mapped, on_clone, pauli_matrix, random_clifford_circuit,
                     random_mixed_circuit, rotation_matrix, up_to_omega)

# the Clifford loop of the numpy reference always, and the compiled C loop
# wherever it loaded, on each of its clones that this CPU runs
TIERS = {"numpy": _kernels.numpy_clifford, **compiled_clones(_kernels.clifford)}
# the permutation of a whole state of the numpy reference always, and of
# the C library wherever it loaded; it is not cloned per SIMD width
PERMUTES = {"numpy": _kernels.numpy_permute}
# the phased scatter of a register into the whole state, likewise
SCATTERS = {"numpy": _kernels.numpy_scatter}
if _kernels.kernel_tier() == "compiled-c":
    PERMUTES["compiled"] = _kernels.permute
    SCATTERS["compiled"] = _kernels.scatter

MAX_QUBITS = 10
TILE = 256  # amplitudes per tile of the compiled loops
# a HybridState with an index map A != I needs the compiled register map:
# the numpy tier refuses one (see backends.HybridState)
compiled_only = pytest.mark.skipif(_kernels.register_map is None,
                                   reason="compiled kernels not loaded")
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


@compiled_only
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


@compiled_only
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
    for name, permute in PERMUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "permute", permute)
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
def test_permute_applies_a_random_invertible_matrix(n, seed):
    # amplitude k holds k, so the state that a phase-free permutation leaves
    # reads back the preimage of each index: its factors must compose to A
    rows = random_invertible(np.random.default_rng(seed), n)
    cols = gf2.columns(rows, n)
    for name, permute in PERMUTES.items():
        amp = np.arange(1 << n, dtype=complex)
        permute(amp, cols, 0, [0] * n, [0] * n)
        assert all(mat_vec(rows, int(amp[k].real)) == k for k in range(1 << n)), name


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


def random_form(rng, n) -> HadamardFree:
    """A random Clifford without a Hadamard part on n qubits: a random
    invertible matrix, offset, diag and symmetric cross."""
    cross = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                cross[i] |= 1 << j
                cross[j] |= 1 << i
    return HadamardFree(tuple(random_invertible(rng, n)), int(rng.integers(0, 1 << n)),
                        tuple(int(d) for d in rng.integers(0, 4, n)), tuple(cross))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_hadamard_free_after_an_index_map_is_their_product(n, seed):
    # F P_A, for a random F without a Hadamard part and a random invertible
    # A, maps |k> to F|A k>, index by index and phase included
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
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


def random_permute_args(rng, n, phased=True):
    """Arguments (cols, offset, diag, cross) of a permutation on n qubits: a
    random invertible matrix, a random offset and, if phased, a random
    quadratic phase."""
    form = random_form(rng, n)
    if not phased:
        form = form._replace(diag=(0,) * n, cross=(0,) * n)
    return gf2.columns(form.rows, n), form.offset, list(form.diag), list(form.cross)


def sheared_args(rng, n):
    """Arguments of a phase-free permutation on n qubits by A = L U G: a
    random G that moves whole tiles of 256 amplitudes, then random upper
    and lower shears, as the compiled permutation splits A."""
    b = min(n, 8)
    low, high = random_invertible(rng, b), random_invertible(rng, n - b)
    g = low + [(r << b) for r in high]
    for i in range(b):  # positions may take any tile bits
        g[i] |= int(rng.integers(0, 1 << n)) & ~((1 << b) - 1)
    up = [int(rng.integers(0, 1 << (n - b))) << b for _ in range(b)]
    down = [int(rng.integers(0, 1 << b)) for _ in range(n - b)]
    cols = [shears_oracle_index(up, down, b, c) for c in gf2.columns(g, n)]
    return cols, int(rng.integers(0, 1 << n)), [0] * n, [0] * n


def permute_oracle(amp, cols, offset, diag, cross):
    """The permutation index by index: out[A k ^ offset] = i**q(k) * amp[k]."""
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


def check_permutes(n, seed, args):
    # the permutation only moves amplitudes and multiplies them by powers
    # of i, so every tier must give the oracle's amplitudes exactly
    amp = random_amplitudes(seed, n)
    ref = permute_oracle(amp, *args)
    for name, permute in PERMUTES.items():
        out = amp.copy()
        permute(out, *args)
        assert np.array_equal(out, ref), name


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), seed=st.integers(0, 2**32 - 1),
       phased=st.booleans())
def test_affine_pass_matches_reference_and_oracle(n, seed, phased):
    check_permutes(n, seed, random_permute_args(np.random.default_rng(seed), n, phased))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), seed=st.integers(0, 2**32 - 1))
def test_shear_pass_matches_reference_and_oracle(n, seed):
    check_permutes(n, seed, sheared_args(np.random.default_rng(seed), n))


@pytest.mark.parametrize("n", [12, 13, 14])
def test_affine_and_shear_passes_move_tiles_on_larger_states(n):
    # 16 to 64 tiles: a random matrix, and matrices A = U whose B has rank 2
    # and n - 8, which pair tiles across cosets of several tiles
    rng = np.random.default_rng(n)
    check_permutes(n, n, random_permute_args(rng, n))
    for r in (2, n - 8):
        up = shear_columns(rng, n, r, "free")
        check_permutes(n, r, (shear_matrix(n, up, [0] * (n - 8)), 0, [0] * n, [0] * n))


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


def shear_matrix(n, up, down) -> list[int]:
    """The columns of A = L U, for the columns up of U - I and down of
    L - I on n qubits (see ``shears_oracle_index``)."""
    return [shears_oracle_index(up, down, 8, 1 << c) for c in range(n)]


def lower_shear(n, up) -> list[int]:
    """Columns down of a lower shear that the compiled permutation of A =
    L U recovers with B exactly: one position bit i0, B's highest, added
    to the position by the first tile bit j0 of B's column i0.  Then A's
    position block is singular, and the split adds that tile bit to the
    position row i0 and nothing else.  None if B = 0: A's position block
    is then invertible, and no lower shear remains."""
    i0 = max((i for i in range(8) if up[i]), default=None)
    if i0 is None:
        return None
    down = [0] * (n - 8)
    down[(up[i0] & -up[i0]).bit_length() - 9] = 1 << i0
    return down


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


@pytest.mark.skipif("compiled" not in PERMUTES, reason="the compiled library did not load")
@pytest.mark.parametrize("n, rank, shape, with_down", shear_cases())
def test_shear_pass_moves_every_rank_and_line_group_exactly(n, rank, shape, with_down):
    # the C permutation of A = U, or A = L U with a lower shear, on a view
    # into a guarded array, one amplitude or one cache line into it,
    # against numpy_permute on the same amplitudes.  The split recovers B,
    # and with it the shape of its line groups: rank B is the rank of A's
    # block from position bits to tile bits
    rng = np.random.default_rng([n, rank, len(shape), with_down])
    up = shear_columns(rng, n, rank, shape)
    down = (with_down and lower_shear(n, up)) or [0] * (n - 8)
    cols = shear_matrix(n, up, down)
    assert gf2_rank(r & 0xff for r in gf2.columns(cols, n)[8:]) == rank
    amp = random_amplitudes(rank, n)
    ref = amp.copy()
    _kernels.numpy_permute(ref, cols, 0, [0] * n, [0] * n)
    skip = 1 + 3 * (n % 2)
    guarded = np.full(amp.size + 2 * skip, 7.0 - 7.0j)
    state = guarded[skip:-skip]
    state[:] = amp
    assert _kernels.permute(state, cols, 0, [0] * n, [0] * n) == (2 if rank else 1)
    assert np.all(guarded[:skip] == 7.0 - 7.0j) and np.all(guarded[-skip:] == 7.0 - 7.0j)
    assert np.array_equal(state, ref)


@pytest.mark.parametrize("name", list(PERMUTES))
def test_lower_shear_from_a_singular_position_block(name):
    # bit 0 swapped with bit 8, and with bit 11: A's position block is
    # singular, so the compiled split takes a lower shear, an exchange
    # inside each cache line of half the tiles
    n = 12
    for top in (8, 11):
        cols = [1 << c for c in range(n)]
        cols[0], cols[top] = cols[top], cols[0]
        amp = random_amplitudes(top, n)
        out = amp.copy()
        made = PERMUTES[name](out, cols, 5, [0] * n, [0] * n)
        assert made == (2 if name == "compiled" else 1)
        assert np.array_equal(out, permute_oracle(amp, cols, 5, [0] * n, [0] * n))


@pytest.mark.skipif("compiled" not in PERMUTES, reason="the compiled library did not load")
@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_phase_free_affine_pass_only_moves_amplitudes(n):
    # without a phase the C affine pass takes its moving loop: zeros, and
    # diag entries of 4, which are 0 mod 4, must give numpy_permute's
    # amplitudes
    rng = np.random.default_rng(n)
    cols, offset, _, _ = random_permute_args(rng, n, phased=False)
    amp = random_amplitudes(n, n)
    for diag, cross in (((0,) * n, (0,) * n), ([4] * n, [0] * n)):
        ref, out = amp.copy(), amp.copy()
        _kernels.numpy_permute(ref, cols, offset, diag, cross)
        _kernels.permute(out, cols, offset, diag, cross)
        assert np.array_equal(out, ref)
        assert np.array_equal(ref, permute_oracle(amp, cols, offset, [0] * n, [0] * n))


@pytest.mark.skipif("compiled" not in PERMUTES, reason="the compiled library did not load")
def test_trotter_flush_equals_the_numpy_passes_bit_for_bit():
    # the paper's case at full size, 25 weight-18 terms on 18 qubits: the
    # flush applies P_A alone, a phase-free affine pass and a shear whose B
    # has rank 8, the rank of A's block from position bits to tile bits,
    # and must give numpy_permute's amplitudes exactly
    n = 18
    hs, _ = run_hybrid(trotterize(random_hamiltonian(n, n, 25, [1, 0])), 1)
    form = HadamardFree.identity(n).after(hs.index_map.tolist())
    assert gf2_rank(r & 0xff for r in form.rows[8:]) == 8
    state = hs.phi.copy()
    hs.flush_to_origin()
    assert hs.flush_passes[0]["affine"] == hs.flush_passes[0]["shears"] == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "permute", _kernels.numpy_permute)
        assert state.apply_hadamard_free(form) == (1, 0, 0)
    assert np.array_equal(hs.phi.amplitudes, state.amplitudes)


@pytest.mark.parametrize("name", list(PERMUTES))
def test_affine_and_shear_passes_write_only_their_state(name):
    # the state as a view into a larger array: the elements on either side
    # must keep their values
    permute = PERMUTES[name]
    rng = np.random.default_rng(31)
    for n in (1, 3, 8, 9, 11):
        amp = random_amplitudes(n, n)
        for args in (random_permute_args(rng, n), sheared_args(rng, n)):
            guarded = np.full(amp.size + 8, 7.0 - 7.0j)
            state = guarded[4:-4]
            state[:] = amp
            permute(state, *args)
            assert np.all(guarded[:4] == 7.0 - 7.0j) and np.all(guarded[-4:] == 7.0 - 7.0j)
            assert np.array_equal(state, permute_oracle(amp, *args))


@pytest.mark.parametrize("name", list(PERMUTES))
def test_affine_and_shear_passes_reject_maps_they_cannot_apply(name):
    # and leave the state as it was
    permute = PERMUTES[name]
    n = 10
    amp = random_amplitudes(3, n)
    unit = [1 << i for i in range(n)]
    zeros = [0] * n
    bad = {"singular": (unit[:9] + [1 << 8], zeros, zeros, "singular"),
           "singular in the tile bits only": (unit[:8] + [1 << 9, 1 << 9], zeros, zeros,
                                              "singular"),
           "a zero column": ([0] + unit[1:], zeros, zeros, "singular"),
           "asymmetric cross": (unit, zeros, [2] + zeros[1:], "symmetric"),
           "a set diagonal bit": (unit, zeros, [1] + zeros[1:], "symmetric"),
           "too few columns": (unit[:9], zeros[:9], zeros[:9], "per qubit"),
           "too few diag entries": (unit, zeros[:9], zeros, "per qubit"),
           "a column beyond the state": (unit[:9] + [1 << n], zeros, zeros, "out of range")}
    for case, (cols, diag, cross, match) in bad.items():
        state = amp.copy()
        with pytest.raises(ValueError, match=match):
            permute(state, cols, 0, diag, cross)
        assert np.array_equal(state, amp), case


def register_state(seed, n, d):
    """Random amplitudes below 2**d, zeros from there on: a state whose
    register holds d of its n qubits."""
    amp = np.zeros(1 << n, dtype=complex)
    amp[:1 << d] = random_amplitudes(seed, d)
    return amp


def scatter_args(form, d):
    """Arguments (cols, offset, diag, cross) of ``_kernels.scatter`` for form
    on a register of d qubits, as ``StateVector.apply_hadamard_free`` makes
    them."""
    low = (1 << d) - 1
    return (gf2.columns(form.rows, len(form.rows))[:d], form.offset, form.diag[:d],
            [c & low for c in form.cross[:d]])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scatter_matches_reference_and_oracle(n, data, seed):
    # a random form, offset, diag and cross nonzero, on a state zero beyond
    # 2**d: numpy_scatter against the form's dense matrix, and every tier
    # against numpy_scatter bit for bit, as the scatter only moves
    # amplitudes and multiplies them by powers of i
    d = data.draw(st.integers(1, n - 1), label="d")
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    form = form._replace(offset=form.offset or 1 << int(rng.integers(n)))
    amp = register_state(seed, n, d)
    args = scatter_args(form, d)
    ref = amp.copy()
    _kernels.numpy_scatter(ref, amp[:1 << d].copy(), *args)
    assert np.max(np.abs(ref - hadamard_free_matrix(form) @ amp)) < 1e-12
    for name, scatter in SCATTERS.items():
        out = amp.copy()
        scatter(out, amp[:1 << d].copy(), *args)
        assert np.array_equal(out, ref), name


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, MAX_QUBITS), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_register_rest_equals_the_numpy_passes_bit_for_bit(n, data, seed):
    # apply_hadamard_free on a register of d < n qubits makes no affine or
    # shear pass, and gives the amplitudes of numpy_permute over the whole
    # state exactly
    d = data.draw(st.integers(1, n - 1), label="d")
    form = random_form(np.random.default_rng(seed), n)
    amp = register_state(seed, n, d)
    out = StateVector(n, amp)
    assert out.apply_hadamard_free(form, d)[:2] == (0, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "permute", _kernels.numpy_permute)
        ref = StateVector(n, amp)
        ref.apply_hadamard_free(form)
    assert np.array_equal(out.amplitudes, ref.amplitudes)


def test_register_rest_makes_no_pass_only_where_it_is_the_identity():
    # A's first d columns are unit vectors and the phase has no term on the
    # first d bits; what A, diag and cross do above them changes nothing
    n, d = 6, 3
    amp = register_state(4, n, d)
    rows = (1 | 0b101000, 1 << 1, 1 << 2 | 0b010000, 0b011000, 0b110000, 0b100000)
    cross = (1 << 5, 0, 0, 1 << 4, 1 << 3, 1)
    out = StateVector(n, amp)
    assert out.apply_hadamard_free(HadamardFree(rows, 0, (0, 0, 0, 1, 2, 3), cross),
                                   d) == (0, 0, 0)
    assert np.array_equal(out.amplitudes, amp)
    # a phase on the register's bits, i**k_1 or (-1)**(k_0 k_2), takes the
    # scatter
    k = np.arange(1 << n)
    for diag, pair, phase in (((0, 1, 0), (1 << 5, 0, 0), 1j ** (k >> 1 & 1)),
                              ((0, 0, 0), (1 << 5 | 1 << 2, 0, 1), (-1) ** (k & k >> 2 & 1))):
        out = StateVector(n, amp)
        assert out.apply_hadamard_free(HadamardFree(rows, 0, diag + (1, 2, 3),
                                                    pair + cross[3:]), d) == (0, 0, 1)
        assert np.array_equal(out.amplitudes, amp * phase)


@pytest.mark.parametrize("name", list(SCATTERS))
def test_scatter_writes_only_its_state(name):
    # the state and the register as views into larger arrays: the elements
    # on either side of both, and the register itself, keep their values
    scatter = SCATTERS[name]
    rng = np.random.default_rng(32)
    for n in (2, 3, 8, 9, 11):
        for d in (1, n - 1):
            form = random_form(rng, n)
            amp = register_state(n + d, n, d)
            ref = amp.copy()
            _kernels.numpy_scatter(ref, amp[:1 << d].copy(), *scatter_args(form, d))
            guarded = np.full(amp.size + 8, 7.0 - 7.0j)
            state = guarded[4:-4]
            state[:] = amp
            held = np.full((1 << d) + 8, 7.0 - 7.0j)
            src = held[4:-4]
            src[:] = amp[:1 << d]
            scatter(state, src, *scatter_args(form, d))
            assert np.all(guarded[:4] == 7.0 - 7.0j) and np.all(guarded[-4:] == 7.0 - 7.0j)
            assert np.all(held[:4] == 7.0 - 7.0j) and np.all(held[-4:] == 7.0 - 7.0j)
            assert np.array_equal(src, amp[:1 << d])
            assert np.array_equal(state, ref), (n, d)


@pytest.mark.parametrize("name", list(SCATTERS))
def test_scatter_rejects_what_it_cannot_apply(name):
    # and leaves the state as it was
    scatter = SCATTERS[name]
    n = 6
    amp = random_amplitudes(5, n)
    src = random_amplitudes(6, 2)
    zeros = [0, 0]
    bad = {"dependent columns": (src, [3, 3], 0, zeros, zeros, "singular"),
           "a zero column": (src, [1, 0], 0, zeros, zeros, "singular"),
           "asymmetric cross": (src, [1, 2], 0, zeros, [2, 0], "symmetric"),
           "a column beyond the state": (src, [1, 1 << n], 0, zeros, zeros, "out of range"),
           "an offset beyond the state": (src, [1, 2], 1 << n, zeros, zeros, "out of range"),
           "a cross mask beyond the register": (src, [1, 2], 0, zeros, [4, 0],
                                                "out of range"),
           "a register of the wrong size": (random_amplitudes(7, 3), [1, 2], 0, zeros, zeros,
                                            r"2\*\*2 amplitudes"),
           "a register larger than the state": (random_amplitudes(8, n + 1),
                                                [1 << i for i in range(n)] + [1], 0,
                                                [0] * (n + 1), [0] * (n + 1), "amplitudes"),
           "too few diag entries": (src, [1, 2], 0, [0], zeros, "diag"),
           "a register inside the state": (None, [1, 2], 0, zeros, zeros, "apart")}
    for case, (reg, cols, offset, diag, cross, match) in bad.items():
        state = amp.copy()
        with pytest.raises(ValueError, match=match):
            scatter(state, state[:4] if reg is None else reg, cols, offset, diag, cross)
        assert np.array_equal(state, amp), case


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, MAX_QUBITS), length=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
def test_register_flush_equals_the_whole_state_passes_bit_for_bit(n, length, seed):
    # the flush of a hybrid run, whose rest runs on a register of fewer
    # than n qubits where it can, against the same rest applied by
    # numpy_permute to the whole state that the turns left
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "permute", _kernels.numpy_permute)
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


# (x, z) of a phase alone, a one-bit x at the bottom and at the top of an
# n-qubit state, and dense masks
def clifford_masks(n):
    dense = (1 << n) - 1
    return ((0, 0), (0, dense & ~5), (1, dense), (1 << n - 1, 3 & dense), (dense, dense & ~6))


@pytest.mark.parametrize("n", [1, 3, 16, 17])
def test_numpy_clifford_is_the_whole_array_formula_bit_for_bit(n):
    # at 16 and 17 qubits the pairs fill two and four blocks
    amp = random_amplitudes(23, n)
    for x, z in clifford_masks(n):
        for ca, cb, e0 in ((SQ2, -SQ2, 0), (0.3, 0.8, 1), (0.0, 1.0, 2), (-1.0, 0.5, 3)):
            out, ref = amp.copy(), amp.copy()
            _kernels.numpy_clifford(out, x, z, ca, cb, e0)
            clifford_whole_array(ref, x, z, ca, cb, e0)
            assert out.tobytes() == ref.tobytes(), (x, z, ca, cb, e0)


def test_numpy_updates_hold_temporaries_that_do_not_grow_with_the_state():
    # their blocks of 2**14 pairs hold about 100 B per pair whatever the
    # state, where whole-array forms hold 72 (Clifford), 36 (2x2) and 17
    # (pair exchange) MiB at 20 qubits
    n = 20
    amp = random_amplitudes(24, n)
    calls = [(_kernels.numpy_clifford, x, z, 0.6, 0.8, 1) for x, z in clifford_masks(n)]
    calls += [(_kernels.numpy_apply_u2, q, [[SQ2, SQ2], [SQ2, -SQ2]]) for q in (0, n - 1)]
    calls += [(_kernels.numpy_pair_exchange, 3 << n - 2, 1 << n - 1, 1 << n - 2, 0),
              (_kernels.numpy_pair_exchange, 1, 1, 0, 1)]
    for i, (kernel, *args) in enumerate(calls):
        tracemalloc.start()
        try:
            kernel(amp, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, (i, peak)


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c",
                    reason="compiled kernels not loaded")
def test_compiled_loops_reject_a_misaligned_state():
    # a complex128 array at 8 mod 16 bytes, which numpy flags as aligned,
    # holding amplitudes that each call would change: it must raise before
    # it writes any of them
    amp = np.zeros(2 * 1024 + 1)[1:].view(np.complex128)
    assert amp.ctypes.data % 16 == 8 and amp.flags.aligned
    amp[:] = np.arange(1, 1025) * (1 - 0.5j)
    snapshot = amp.tobytes()
    circ = Circuit(10)
    circ.append("RX", 3, angle=0.5)
    ops, angles = circ.lowered()
    frame = PauliFrame.origin(10)
    turned = PauliFrame.origin(10)
    turned.apply_gate("H", (3,))
    index_map = np.array([1 << i for i in range(10)], dtype=np.uint64)
    calls = {"clifford": lambda: _kernels.clifford(amp, 1, 0, 0.0, 1.0, 0),
             "apply_u2": lambda: _kernels.apply_u2(amp, 0, np.array([[0, 1], [1, 0]])),
             "pair_exchange": lambda: _kernels.pair_exchange(amp, 3, 1, 2, 0),
             "run_gates": lambda: _kernels.run_gates(amp, frame.xs, frame.zs, frame.ps,
                                                     index_map, 10, ops, angles, 0),
             "baseline_gates": lambda: _kernels.baseline_gates(amp, ops, angles, 0),
             "flush": lambda: _kernels.flush(amp, turned.xs, turned.zs, turned.ps, index_map,
                                             10),
             "permute": lambda: _kernels.permute(amp, [1 << i for i in range(10)][::-1], 0,
                                                 [0] * 10, [0] * 10),
             "scatter": lambda: _kernels.scatter(amp, np.zeros(2, dtype=complex), [1 << 9], 0,
                                                 [0], [0]),
             "scatter from a misaligned register": lambda: _kernels.scatter(
                 np.zeros(1 << 10, dtype=complex), amp[:2], [1 << 9], 0, [0], [0])}
    for name, call in calls.items():
        with pytest.raises(ValueError, match="aligned to 16 bytes"):
            call()
        assert amp.tobytes() == snapshot, name


# the register size from which the compiled gate loop blocks runs of
# rotations (see _kernels.run_gates), and the steps of a run: a rotation
# whose x part is 0, 1, inside a tile, across tiles, the tile mask of an
# earlier step, the sum of two earlier ones, or one that activates a qubit;
# or a MEASZ or PREPZ
BLOCKED_N = blocked_qubits()
RUN_STEPS = ("zero", "one", "tile", "partner", "repeat", "dependent", "activate", "MEASZ",
             "PREPZ")


def run_circuit(rng, n, d, steps) -> Circuit:
    """One rotation by a random angle per step, about a random Pauli whose x
    part has the step's kind, at the origin frame on a register of d
    qubits, or a MEASZ or PREPZ of a random qubit below d.  An ``activate``
    step reaches qubit n - 1, which is above the register when n > d; with
    A = I that leaves A as it is.  No axis is the identity."""
    circ = Circuit(n)
    tiles = []  # the tile masks x >> 8 of the steps so far
    for step in steps:
        if step in ("MEASZ", "PREPZ"):
            circ.append(step, int(rng.integers(d)))
            continue
        low = int(rng.integers(TILE))
        if step == "zero":
            x = 0
        elif step == "one":
            x = 1
        elif step == "tile":
            x = int(rng.integers(2, TILE))
        elif step == "repeat" and tiles:
            x = tiles[rng.integers(len(tiles))] << 8 | low
        elif step == "dependent" and len(tiles) > 1:
            i, j = rng.choice(len(tiles), size=2, replace=False)
            x = (tiles[i] ^ tiles[j]) << 8 | low
        elif step == "activate":
            x = 1 << (n - 1) | int(rng.integers(1 << d))
        else:
            x = int(rng.integers(TILE, 1 << d))
        if x >> 8:
            tiles.append(x >> 8)
        z = int(rng.integers(1 << n)) | (x == 0)
        circ.extend(compile_pauli_rotation(PauliString(n, x, z), float(rng.uniform(-7, 7))))
    return circ


@pytest.mark.skipif(BLOCKED_N is None, reason="the compiled loop blocks no register here")
@settings(max_examples=40, deadline=None)
@given(grow=st.booleans(), steps=st.lists(st.sampled_from(RUN_STEPS), min_size=1, max_size=12),
       clone=st.sampled_from(_kernels._CLONES or ("generic",)),
       seed=st.integers(0, 2**32 - 1))
@example(grow=False, steps=["partner", "repeat", "tile", "partner", "dependent", "zero", "one",
                            "partner", "repeat"], clone="generic", seed=1)
@example(grow=True, steps=["partner", "tile", "partner", "activate", "partner", "repeat",
                           "MEASZ", "partner", "zero", "PREPZ", "one", "dependent"],
         clone=_kernels.simd_clone() or "generic", seed=2)
def test_blocked_runs_match_one_pass_per_rotation(grow, steps, clone, seed):
    # a register of more bytes than the L2 cache, dense or with one qubit
    # left to activate (grow): the compiled loop, on either clone, blocks
    # the runs of rotations between the cuts (a MEASZ or PREPZ, an
    # activation, the end) and gives the Python loop's records, frame and
    # amplitudes.  A pass is one rotation or one blocked run of several,
    # so the loop makes fewer passes than rotations exactly when it blocked
    # a run, and every pass covers the register of d or n qubits
    n = BLOCKED_N + grow
    rng = np.random.default_rng(seed)
    circ = run_circuit(rng, n, BLOCKED_N, steps)
    amp = np.zeros(1 << n, dtype=complex)
    amp[:1 << BLOCKED_N] = random_amplitudes(seed, BLOCKED_N)
    amp /= np.linalg.norm(amp)
    states, records = [], []
    for loop, active in ((_compiled_gates, BLOCKED_N), (_python_gates, n)):
        hs = HybridState(PauliFrame.origin(n), StateVector(n, amp.copy()), active=active,
                         timing=dict(measure_s=0.0, prep_s=0.0))
        records.append([])
        on_clone(clone, loop)(hs, circ, np.random.default_rng(seed), records[-1])
        states.append(hs)
    compiled, python = states
    assert records[0] == records[1]
    assert compiled.frame == python.frame
    assert np.max(np.abs(index_mapped(compiled.phi.amplitudes, compiled.index_map)
                         - python.phi.amplitudes)) < 1e-12
    rotations = python.passes["rotation_passes"]
    c = compiled.passes
    assert rotations == sum(s not in ("MEASZ", "PREPZ") for s in steps)
    assert (c["rotation_passes"] < rotations) == (c["rotation_blocked_runs"] > 0)
    assert c["rotation_blocked_runs"] <= c["rotation_passes"] <= rotations
    assert (c["rotation_passes"] / (1 << grow) <= c["rotation_pass_equivalents"]
            <= c["rotation_passes"])
