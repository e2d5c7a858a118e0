"""Dense 2**n-amplitude state vector with four update families.

Besides the usual per-gate kernels of a fullstate simulator, the state
supports *native* multi-qubit Pauli rotations R_P(theta) = exp(-i theta P/2).
A Pauli P permutes basis states in pairs {k, k XOR x_bits(P)} with a phase
that is a pure bit computation, so one rotation costs a single pass over
the amplitudes regardless of how many qubits P touches.  That flatness in
operator weight is the whole point of the hybrid backend built on top.

``StateVector`` holds no amplitude loop of its own.  Every update of the
form ca*I + cb*i**e*P with real ca and cb -- rotations by any angle (the
flush's quarter turns among them), Pauli application (and with it the
expectation and the prepare repair), the measurement collapse, and the
baseline's X, Y, RX, RY and RZ -- goes through the Clifford loop of
``_kernels``, which applies each power of i without a complex multiply.
H goes through its 2x2 loop, on the matrix of H that the baseline's
compiled loop uses, and CX, SWAP and ``swap_qubits``, as well as Z, S, SDG
and CZ, which change only the amplitudes whose qubits are set, through its
masked pair exchange.  A whole Clifford without a
Hadamard part (``apply_hadamard_free``, the rest of a flush) goes through
its permutation, which moves whole tiles of amplitudes in place; on a
state that is zero beyond its first 2**d amplitudes it goes through one
phased scatter of those amplitudes from a copy of them instead.  All the
others update the amplitudes in place.

Every state-sized buffer -- a state, its copy, the copy that
``expectation`` makes and the flush's copy of its register -- comes from
``_aligned_zeros``.  From 2 MiB (17 qubits) up that is an anonymous
mapping of its own, advised for transparent huge pages, so that a fresh
state is faulted in 2 MiB at a time rather than 4 KiB, and tracemalloc
counts it; below, numpy's heap.

Index convention: bit j of the amplitude index is the computational value
of qubit j (qubit 0 = least significant bit).
"""
from __future__ import annotations

import ctypes
import math
import mmap
import struct
import weakref

import numpy as np

from . import _kernels, gf2
from .circuit import CLIFFORD_TAGS, ROTATION_AXIS, ROTATION_TAGS, check_gate
from .frame import HadamardFree
from .pauli import PauliString

# a measurement branch below this probability is an error, not a draw
_NORM_TOLERANCE = 1e-10
# largest imaginary part tolerated in the expectation of a Hermitian operator
_IMAG_TOLERANCE = 1e-9
# bytes of a cache line, the alignment of the amplitudes a state allocates
_LINE_BYTES = 64
# bytes of the smallest state that gets a mapping of its own: a huge page
_MAPPED_BYTES = 2 << 20
# the baseline's X and Y, as arguments (x, z, e0) of ``_kernels.clifford``
# from the single-bit mask of their qubit, with ca = 0 and cb = 1
_CLIFFORD_1Q = {
    "X": lambda b: (b, 0, 0),
    "Y": lambda b: (b, b, 3),
}
# the matrix of H for ``_kernels.apply_u2``, from the 1/sqrt(2) of the
# compiled gate loop's, so that both loops give the same amplitudes
_H = _kernels._SQ2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
# the gates that swap or phase a masked subset of the amplitudes, as
# arguments (mask, val, x, e) of ``_kernels.pair_exchange`` from the
# single-bit masks of their qubits: Z, S, SDG and CZ multiply the
# amplitudes whose qubits are all set by i**e
_EXCHANGE = {
    "Z": lambda b: (b, b, 0, 2),
    "S": lambda b: (b, b, 0, 1),
    "SDG": lambda b: (b, b, 0, 3),
    "CX": lambda c, t: (c | t, c, t, 0),
    "CZ": lambda a, b: (a | b, a | b, 0, 2),
    "SWAP": lambda a, b: (a | b, b, a | b, 0),
}


# tracemalloc's record of memory that Python's allocators did not allocate
_TRACK = ctypes.pythonapi.PyTraceMalloc_Track
_TRACK.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
_TRACK.restype = ctypes.c_int
_UNTRACK = ctypes.pythonapi.PyTraceMalloc_Untrack
_UNTRACK.argtypes = (ctypes.c_uint, ctypes.c_size_t)
_UNTRACK.restype = ctypes.c_int


def _aligned_zeros(dim: int) -> np.ndarray:
    """dim complex128 zeros starting on a cache line.

    A state of 2 MiB or more (17 qubits and up) gets an anonymous mapping
    of its own, of exactly 16*dim bytes, advised for transparent huge pages
    where the kernel has them (else it keeps 4 KiB pages).  Its pages come
    from the kernel already zero, so nothing is written here, and the first
    pass over them faults them in 2 MiB at a time instead of 4 KiB.  Recent
    Linux kernels place a mapping whose size is a whole number of huge
    pages, as a state's is, on a huge-page boundary, so huge pages back all
    of it; any mapping starts on a page, so on a cache line.  tracemalloc
    counts the mapping in numpy's domain, as it counts numpy's own
    allocations, until the last array on it is freed and the mapping with
    it.  A mapping the operating system refuses, or one too large to ask
    for, raises MemoryError naming its bytes, as numpy's heap does.

    A smaller state takes numpy's heap, which hands back memory already
    resident.  A mapping of less than 2 MiB cannot take a huge page and pays
    a 4 KiB fault per page of every fresh state, plus its system calls:
    with a mapping for every size, a hybrid run plus flush of 14 and 16
    qubits took 1.7x and 2.6x as long, and 8-qubit shots 1.6x.  numpy aligns
    a large array to 16 bytes only, and then every other 32-byte vector of
    the compiled loops straddles two cache lines, so it is over-allocated
    by a line and sliced.
    """
    nbytes = 16 * dim
    if nbytes < _MAPPED_BYTES:
        raw = np.zeros(dim + _LINE_BYTES // 16, dtype=np.complex128)
        skip = (-raw.ctypes.data % _LINE_BYTES) // 16
        return raw[skip:skip + dim]
    try:
        region = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map {nbytes} bytes for a state of {dim} "
                          f"amplitudes: {exc}") from exc
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux only
        try:
            region.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # a kernel without transparent huge pages
            pass
    amp = np.frombuffer(region, dtype=np.complex128)
    _TRACK(np.lib.tracemalloc_domain, amp.ctypes.data, nbytes)
    weakref.finalize(region, _UNTRACK, np.lib.tracemalloc_domain, amp.ctypes.data)
    return amp


def _aligned_copy(amp: np.ndarray) -> np.ndarray:
    """A copy of the amplitudes amp, starting on a cache line."""
    out = _aligned_zeros(amp.shape[0])
    out[:] = amp
    return out


def _pauli_update(amp: np.ndarray, p: PauliString, ca: float, cb: float, e: int) -> None:
    """amp <- ca*amp + cb * i**e * P*amp in place, in one pass of the Clifford loop.

    P|k> = i**(phase_exp + n_y) * (-1)**parity(k & z) * |k ^ x>, so
    (P*amp)[k] = i**(phase_exp - n_y) * (-1)**parity(k & z) * amp[k ^ x]:
    the partner's sign differs from k's by parity(x & z) = parity(n_y).
    ca and cb are real.
    """
    if 1 << p.num_qubits != amp.shape[0]:
        raise ValueError(f"operator on {p.num_qubits} qubits applied to "
                         f"{amp.shape[0].bit_length() - 1}-qubit state")
    e0 = (e + p.phase_exp - p.y_mask.bit_count()) & 3
    _kernels.clifford(amp, p.x_bits, p.z_bits, ca, cb, e0)


class StateVector:
    """Mutable register of 2**num_qubits complex double amplitudes."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes=None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            amp = _aligned_zeros(dim)
            amp[0] = 1.0
        else:
            amp = np.asarray(amplitudes).reshape(-1)
            if amp.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amp.size}")
            amp = _aligned_copy(amp)
        self.amplitudes = amp

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """|0...0>, the all-zeros computational state."""
        return cls(num_qubits)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def prefix(self, num_qubits: int) -> "StateVector":
        """The first 2**num_qubits amplitudes as a state of their own, which
        shares them: an update of it updates this state.  The hybrid's
        register runs its operations on it (``backends.HybridState``)."""
        if not 1 <= num_qubits <= self.num_qubits:
            raise ValueError(f"prefix of {num_qubits} qubits of a "
                             f"{self.num_qubits}-qubit state")
        out = StateVector.__new__(StateVector)
        out.num_qubits = num_qubits
        out.amplitudes = self.amplitudes[:1 << num_qubits]
        return out

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.amplitudes = _aligned_copy(self.amplitudes)
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    # ------------------------------------------------------------------
    # multi-qubit Pauli operations

    def apply_pauli(self, p: PauliString) -> None:
        """In-place permutation-plus-phase update |state> <- P|state>."""
        _pauli_update(self.amplitudes, p, 0.0, 1.0, 0)

    def apply_pauli_rotation(self, p: PauliString, theta: float) -> None:
        """Apply R_P(theta) = exp(-i theta P / 2) in one amplitude pass.

        P may carry a sign (R_{-P}(theta) = R_P(-theta)) but must be
        Hermitian.  The cost is one pass over the amplitudes whatever the
        weight of P.
        """
        if not p.is_hermitian:
            raise ValueError("rotation axis must be Hermitian (phase_exp 0 or 2)")
        half_angle = 0.5 * theta
        _pauli_update(self.amplitudes, p, math.cos(half_angle), math.sin(half_angle), 3)

    def apply_hadamard_free(self, form: HadamardFree, register: int | None = None
                            ) -> tuple[int, int, int]:
        """Apply the Clifford without a Hadamard part that ``form`` describes,
        |k> -> i**q(k) |A k ^ b>, in place.

        On the whole state this is one call of ``_kernels.permute``, which
        splits A for the tiles of the compiled loops into at most two passes
        (see ``_kernels``).  The identity makes no pass.

        A ``register`` d below the qubit count says that the state is zero
        beyond its first 2**d amplitudes, which the caller guarantees.
        There only the first d columns of A and of the phase matter, and
        one scatter, ``_kernels.scatter``, writes each of those amplitudes,
        phased, to its place from a copy of them, unless the form is the
        identity on them.  The amplitudes are those of the permutation, bit
        for bit.  Returns the number of affine passes, shear passes and
        scatters: a permutation counts its first pass as affine and a
        second as a shear.
        """
        n = self.num_qubits
        if len(form.rows) != n:
            raise ValueError(f"{len(form.rows)}-qubit Clifford applied to {n}-qubit state")
        cols = gf2.columns(form.rows, n)
        if register is not None and register < n:
            low = (1 << register) - 1
            cols = cols[:register]
            diag, cross = form.diag[:register], [c & low for c in form.cross[:register]]
            if (form.offset == 0 and cols == [1 << i for i in range(register)]
                    and not any(d & 3 for d in diag) and not any(cross)):
                return 0, 0, 0
            _kernels.scatter(self.amplitudes, _aligned_copy(self.amplitudes[:low + 1]),
                             cols, form.offset, diag, cross)
            return 0, 0, 1
        if form.is_identity():
            return 0, 0, 0
        made = _kernels.permute(self.amplitudes, cols, form.offset, form.diag, form.cross)
        return 1, made - 1, 0

    # ------------------------------------------------------------------
    # observables, measurement, preparation

    def expectation(self, p: PauliString) -> float:
        """Re <state|P|state> for Hermitian P (sign included)."""
        if not p.is_hermitian:
            raise ValueError("expectation requires a Hermitian operator")
        applied = _aligned_copy(self.amplitudes)
        _pauli_update(applied, p, 0.0, 1.0, 0)
        val = np.vdot(self.amplitudes, applied)
        if abs(val.imag) >= _IMAG_TOLERANCE:
            raise RuntimeError(f"non-real Pauli expectation {val}")
        return float(val.real)

    def measure(self, p: PauliString, rng) -> int:
        """Projectively measure Hermitian P; collapse and return +1 or -1."""
        if not p.is_hermitian:
            raise ValueError("measurement requires a Hermitian operator")
        rng = np.random.default_rng(rng)
        p_plus = min(max((1.0 + self.expectation(p)) / 2.0, 0.0), 1.0)
        outcome = 1 if rng.random() < p_plus else -1
        p_branch = p_plus if outcome == 1 else 1.0 - p_plus
        if p_branch < _NORM_TOLERANCE:
            raise RuntimeError("measurement drew a probability-zero branch")
        # (I + outcome*P)/2 projects; 1/sqrt(p_branch) renormalizes
        scale = 0.5 / math.sqrt(p_branch)
        _pauli_update(self.amplitudes, p, scale, outcome * scale, 0)
        return outcome

    def prepare(self, stab: PauliString, destab: PauliString, rng) -> None:
        """Project into the +1 eigenspace of ``stab``.

        Implemented as a measurement of ``stab``; a -1 outcome is repaired by
        applying the anticommuting ``destab``, which flips the eigenvalue.
        """
        if stab.anticommutes(destab) != 1:
            raise ValueError("stabilizer and destabilizer must anticommute")
        if self.measure(stab, rng) == -1:
            self.apply_pauli(destab)

    # ------------------------------------------------------------------
    # gate-by-gate kernels (baseline backend)

    def apply_gate(self, tag: str, qubits, angle: float | None = None) -> None:
        """Standard 1-/2-qubit unitary on the given qubit(s).

        Rotations follow R_A(theta) = exp(-i theta A / 2).  The qubits and
        the angle are checked as ``Circuit.append`` checks them, by
        ``check_gate``.
        """
        if tag not in CLIFFORD_TAGS and tag not in ROTATION_TAGS:
            raise ValueError(f"unknown gate tag {tag!r}")
        qubits = check_gate(tag, tuple(qubits), angle, self.num_qubits)
        if tag in _CLIFFORD_1Q:
            x, z, e0 = _CLIFFORD_1Q[tag](1 << qubits[0])
            _kernels.clifford(self.amplitudes, x, z, 0.0, 1.0, e0)
        elif tag in ROTATION_AXIS:
            self.apply_pauli_rotation(
                PauliString.single(self.num_qubits, qubits[0], ROTATION_AXIS[tag]), angle)
        elif tag == "H":
            _kernels.apply_u2(self.amplitudes, qubits[0], _H)
        else:
            _kernels.pair_exchange(self.amplitudes, *_EXCHANGE[tag](*[1 << q for q in qubits]))

    def swap_qubits(self, a: int, b: int) -> None:
        """Exchange the roles of qubits a and b by index relabeling, in place."""
        if a != b:
            _kernels.pair_exchange(self.amplitudes, *_EXCHANGE["SWAP"](1 << a, 1 << b))

    # ------------------------------------------------------------------
    # readout and serialization

    def amplitude(self, k: int) -> complex:
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        return complex(self.amplitudes[k])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def top_amplitudes(self, m: int = 8) -> list[tuple[int, complex]]:
        """The m largest-magnitude amplitudes as (index, value), for debugging."""
        m = min(m, self.dim)
        order = np.argsort(np.abs(self.amplitudes))[::-1][:m]
        return [(int(k), complex(self.amplitudes[k])) for k in order]

    def write_binary(self, stream) -> None:
        """Little-endian dump: one 8-byte qubit count, then (re, im) doubles."""
        stream.write(struct.pack("<Q", self.num_qubits))
        stream.write(self.amplitudes.astype("<c16").tobytes())

    @classmethod
    def read_binary(cls, stream) -> "StateVector":
        """Read a ``write_binary`` dump.  Raises ValueError, before allocating
        the state, for a short header, a qubit count outside 1 to 64 or a
        short payload."""
        header = stream.read(8)
        if len(header) != 8:
            raise ValueError(f"state dump header of {len(header)} bytes, not 8")
        (n,) = struct.unpack("<Q", header)
        if not 1 <= n <= 64:
            raise ValueError(f"state dump of {n} qubits, not 1 to 64")
        data = bytearray()
        while len(data) < 16 << n:  # in chunks: a file read allocates all it is asked for
            chunk = stream.read(min((16 << n) - len(data), 1 << 20))
            if not chunk:
                raise ValueError(f"state dump of {n} qubits ends after {len(data)} of "
                                 f"its {16 << n} payload bytes")
            data += chunk
        return cls(n, np.frombuffer(data, dtype="<c16"))
