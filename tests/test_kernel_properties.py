"""The amplitude loops of ``_kernels`` over random arguments: the compiled C
loop against the numpy reference against a dense matrix built from
``oracles``, and the flush against its per-step rotation path."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesim import HybridState, PauliFrame, PauliString, StateVector, _kernels
from framesim.frame import invert_to_rotations
from oracles import embed_1q, pauli_matrix, random_clifford_circuit

# the numpy reference always, and the compiled C loops wherever they loaded
TIERS = {"numpy": (_kernels.numpy_clifford, _kernels.numpy_rotation_pairs,
                   _kernels.numpy_rotation_diag)}
if _kernels.JIT_ENABLED:
    TIERS["compiled"] = (_kernels.clifford, _kernels.rotation_pairs,
                         _kernels.rotation_diag)

MAX_QUBITS = 10
TILE = 256  # amplitudes per tile of the compiled loops
SQ2 = 0.7071067811865476
COEFFICIENTS = st.one_of(st.sampled_from([1.0, -1.0, SQ2, -SQ2]),
                         st.floats(-2.0, 2.0, allow_nan=False))
COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


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
            draw(st.integers(0, 1)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
            draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32 - 1)))


@st.composite
def pair_cases(draw):
    n = draw(st.integers(1, MAX_QUBITS))
    x = draw(x_bits(n))
    pivot = draw(st.sampled_from([q for q in range(n) if x >> q & 1]))
    return (n, x, draw(st.integers(0, (1 << n) - 1)), pivot, draw(COEFFICIENTS),
            draw(COMPLEX), draw(COMPLEX), draw(st.integers(0, 2**32 - 1)))


def random_amplitudes(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def xz_matrix(n, x, z):
    """Z**z X**x: (Z**z X**x a)[k] = (-1)**parity(k & z) * a[k ^ x]."""
    return pauli_matrix(PauliString(n, 0, z)) @ pauli_matrix(PauliString(n, x, 0))


def check_tiers(amp, ref, run):
    """run(kernels, out) on a copy of amp per tier; each must equal ref."""
    out = {}
    for name, kernels in TIERS.items():
        out[name] = amp.copy()
        run(kernels, out[name])
        assert np.max(np.abs(out[name] - ref)) < 1e-12, name
    if "compiled" in out:
        assert np.max(np.abs(out["compiled"] - out["numpy"])) < 1e-12


@settings(max_examples=150, deadline=None)
@given(clifford_cases())
@example((1, 1, 1, SQ2, 1, 3, 0, 0, 1))        # a one-qubit state
@example((2, 3, 2, 1.0, 0, 1, 0, 1, 2))        # two pairs per cache line
@example((5, 0, 0, 1.0, 0, 0, 1, 3, 3))        # S on a state below one tile
@example((9, 0x100, 0x1ff, -SQ2, 1, 1, 3, 8, 4))  # x and p at the tile edge
@example((10, 0x2c5, 0x3a1, SQ2, 1, 2, 1, 1, 5))  # x inside and above a tile
@example((10, 0x300, 0x0f0, 1.0, 0, 3, 2, 9, 6))  # x above a tile only
def test_clifford_loop_matches_reference_and_oracle(case):
    n, x, z, c, d, e0, e1, p, seed = case
    phase = embed_1q(np.diag([1, 1j ** e1]), p, n)
    ref_matrix = c * (d * np.eye(1 << n) + 1j ** e0 * phase @ xz_matrix(n, x, z))
    amp = random_amplitudes(seed, n)
    check_tiers(amp, ref_matrix @ amp,
                lambda k, out: k[0](out, x, z, c, d, e0, e1, p))


@settings(max_examples=100, deadline=None)
@given(pair_cases())
@example((1, 1, 0, 0, 0.5, 1j, -1j, 1))
@example((10, 0x2c5, 0x3a1, 9, 0.3, 0.2 + 1j, -0.7j, 2))
def test_rotation_pair_loop_matches_reference_and_oracle(case):
    # new[k] = c*a[k] + w(k)*a[k ^ x], w(k) = (-1)**parity(k & z) times u0
    # where the pivot bit of k is clear, u1*(-1)**parity(x & z) where it is set
    n, x, z, pivot, c, u0, u1, seed = case
    u1k = -u1 if (x & z).bit_count() & 1 else u1
    w = embed_1q(np.diag([u0, u1k]), pivot, n)
    ref_matrix = c * np.eye(1 << n) + w @ xz_matrix(n, x, z)
    amp = random_amplitudes(seed, n)
    check_tiers(amp, ref_matrix @ amp,
                lambda k, out: k[1](out, x, z, pivot, c, u0, u1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), data=st.data(), f_even=COMPLEX, f_odd=COMPLEX,
       seed=st.integers(0, 2**32 - 1))
def test_rotation_diag_loop_matches_reference_and_oracle(n, data, f_even, f_odd, seed):
    z = data.draw(st.integers(0, (1 << n) - 1))
    zm = pauli_matrix(PauliString(n, 0, z))
    ref_matrix = (f_even + f_odd) / 2 * np.eye(1 << n) + (f_even - f_odd) / 2 * zm
    amp = random_amplitudes(seed, n)
    check_tiers(amp, ref_matrix @ amp, lambda k, out: k[2](out, z, f_even, f_odd))


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


@pytest.mark.parametrize("name", list(TIERS))
def test_clifford_loop_rejects_masks_outside_the_state(name):
    clifford = TIERS[name][0]
    amp = StateVector.zero(3).amplitudes
    for x, z, p in ((8, 0, 0), (0, 8, 0), (0, 0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            clifford(amp, x, z, 1.0, 0, 0, 1, p)
