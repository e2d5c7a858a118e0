"""The in-place amplitude kernels of ``StateVector``, the hybrid backend's
compiled gate loop, and the choice of their tier.

Six amplitude loops carry every state update:

- ``clifford`` computes ``a[k] <- ca*a[k] + cb * i**e0 * (-1)**parity(k & z)
  * a[k ^ x]`` with real ca and cb: every update of the form
  ``ca*I + cb*i**e0*P`` for a multi-qubit Pauli P.  That
  is rotations by any angle, Pauli application (and with it the expectation
  and the prepare repair), the measurement collapse, the flush's quarter
  turns, and the baseline's X, Y, RX, RY and RZ.
- ``apply_h`` applies the Hadamard gate to one qubit: the baseline's H.
- ``pair_exchange`` swaps ``a[k]`` with ``a[k ^ x]`` for every k whose bits
  under ``mask`` equal ``val``, or multiplies ``a[k]`` by ``i**e`` when x is
  0: the baseline's CX and SWAP, and the baseline's Z, S, SDG and CZ, which
  touch only the amplitudes whose qubits are set.
- ``affine`` computes ``a[G k ^ offset] <- i**q(k) * a[k]`` for an
  invertible GF(2) matrix G that maps tiles of ``2**tile_bits`` amplitudes
  onto tiles and a quadratic form q, and ``shear`` moves ``a[k]`` to the
  index that two shears make of k = (t, l): one adds a linear function of
  the position l in the tile to the tile index t, the next a linear
  function of the new tile index to l.  One affine pass and one shear
  apply the part of a flush without a Hadamard part
  (``StateVector.apply_hadamard_free``).  Without a phase, as for the
  index map alone, the affine pass only moves amplitudes; the shear moves
  whole cache lines between the tiles.
- ``embed`` moves ``a[k]`` to ``a[E k ^ offset]`` for the first 2**d
  amplitudes, E an injective GF(2) map in echelon form, and zeroes the
  ones it leaves: on a state that is zero beyond 2**d, the affine and
  shear passes of a flush run on those 2**d amplitudes alone, and this
  scatter then puts them in place, instead of two passes over the whole
  state.

The C loops in ``_kernels.c`` make one pass over the amplitudes they touch
(one read and one write each) and allocate nothing; the affine pass takes
from its wrapper a bitmap of one bit per tile, 1/32768 of the state.  The
Clifford loop walks the state in cache-sized tiles, so that its cost
depends neither on the number of qubits nor on how many qubits the
operator touches; the gate loops walk contiguous runs in address order, a
cache line at a time where the runs are shorter.  The Clifford loop holds two amplitudes per 32-byte
vector and applies a power of i as an element swap and a sign pattern,
with no complex multiply.  It and the Hadamard loop are compiled twice
from one body, a generic clone and one for AVX2 with FMA, and the library
picks one when it loads, from what the CPU reports; ``simd_clone`` names
it.  On a 2-core Xeon with AVX2, on a state that starts on a cache line
(as ``StateVector`` allocates it), a rotation runs at 0.54-0.71 ns per
amplitude at n = 16, 0.77-0.82 at n = 18 and 0.75-0.83 at n = 20 on the
AVX2 clone, against 0.38-0.49, 0.70-0.78 and 0.75-0.78 for an in-place
negation of the same amplitudes; the generic clone runs at 0.85-1.13,
0.85-1.00 and 0.88-1.04.  On the index map of the flushes of the
benchmark's 18-qubit Trotter circuits (seed 1, the first six), a
phase-free affine pass runs at 0.86-1.22 ns per amplitude and the shear at
1.10-1.80, against 0.62-0.70 for the negation (3.1-4.5 times it
together), where a lookup and a multiply per amplitude and a shear pair by
pair ran at 2.6-4.0 and 2.7-3.5.  The ``numpy_*`` functions compute the same
things by filtering index arrays, with whole-array temporaries, several
times slower per amplitude; they are the reference the tests compare the C
loops against.  The C loops take a contiguous complex128 state aligned to
16 bytes, and their wrappers raise ValueError for any other.

``run_gates`` is the hybrid backend's gate loop in C: it runs a circuit's
lowered gate stream (``Circuit.lowered``) on a bit-packed Pauli frame (see
``PauliFrame.packed``) and the amplitudes, up to the next measurement or
preparation, calling the Clifford loop for each rotation on the hybrid's
register of 2**d amplitudes.  ``register_map`` maps one operator onto that
register, activating a qubit when it must, as the loop does for each
rotation; the hybrid's measurements, preparations, expectations and flush
turns go through it (see ``backends.HybridState``).  Neither has a numpy
counterpart: without the compiled library both are None, and
``backends.run_hybrid`` runs its Python gate loop over ``PauliFrame``,
which keeps the register dense and is the loop's reference in the tests.

On first import the C source is compiled with the system C compiler (``gcc``,
else ``cc``) into ``$XDG_CACHE_HOME/framesim`` (default ``~/.cache/framesim``),
under a name keyed by a hash of the source and the compiler flags, linked
with the C math library for the gate loop's cosines and sines, and then
loaded with ``ctypes``; later imports load the cached library without
compiling.  The build names no CPU, so a cached library runs on any
x86-64.  When the library loads, the six loop names are the C loops,
``run_gates`` and ``register_map`` are set and ``kernel_tier()`` returns
``compiled-c``.
When it cannot be built or loaded (no compiler, a build error, a cache
directory that cannot be written) one ``RuntimeWarning`` names the reason,
the six names are bound to the numpy functions instead and ``run_gates``
and ``register_map`` are None.  The choice is
made once, here, from what the import observes.
"""
import ctypes
import hashlib
import os
import warnings
import weakref
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared")
_LIBS = ("-lm",)  # after the source, so that the linker keeps it
_SQ2 = 0.7071067811865476  # 1/sqrt(2), as in the C loop
_I_POW = np.array([1, 1j, -1, -1j])
TILE_BITS = 8  # a tile of the C loops holds 2**TILE_BITS amplitudes


class _Unavailable(Exception):
    """The compiled tier cannot be used; the message says why."""


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "framesim"


def _compiler() -> str | None:
    """Path of the C compiler the build uses: ``gcc``, else ``cc``, else None."""
    import shutil
    return shutil.which("gcc") or shutil.which("cc")


def _library(source: bytes) -> Path:
    """Where the library built from ``source`` is cached: a name keyed by a
    hash of the source and the build flags, in ``_cache_dir``."""
    key = hashlib.sha256(source + " ".join(_CFLAGS + _LIBS).encode()).hexdigest()[:16]
    return _cache_dir() / f"_kernels-{key}.so"


def _build() -> Path:
    """Return the path of the compiled library, compiling it if not cached."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"kernel source missing: {exc}") from None
    lib = _library(source)
    cache = lib.parent
    if lib.is_file():
        return lib
    import subprocess, tempfile  # only a first import compiles
    cc = _compiler()
    if cc is None:
        raise _Unavailable("no C compiler (gcc or cc) on PATH")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=lib.name, suffix=".tmp")
    except OSError as exc:
        raise _Unavailable(f"cache directory {cache} is not writable: {exc}") from None
    os.close(fd)
    try:
        done = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE), *_LIBS],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise _Unavailable(f"{cc} failed to build {_SOURCE.name}: "
                               f"{done.stderr.strip()}")
        os.replace(tmp, lib)  # atomic: a concurrent import sees all or nothing
    except OSError as exc:
        raise _Unavailable(f"could not build with {cc}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load():
    """Load the compiled library and declare its signatures."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as exc:
        raise _Unavailable(f"could not load the compiled kernels: {exc}") from None
    ptr, i64, u64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
    lib.framesim_clifford.argtypes = [ptr, i64, u64, u64, f64, f64, ctypes.c_int]
    lib.framesim_clifford.restype = None
    lib.framesim_apply_h.argtypes = [ptr, i64, ctypes.c_int]
    lib.framesim_apply_h.restype = None
    lib.framesim_pair_exchange.argtypes = [ptr, i64, u64, u64, u64, ctypes.c_int]
    lib.framesim_pair_exchange.restype = None
    lib.framesim_run_gates.argtypes = [ptr, ctypes.c_int, ptr, ptr, ptr, ptr,
                                       ctypes.POINTER(i64), ptr, ptr, i64, i64,
                                       ctypes.POINTER(f64)]
    lib.framesim_run_gates.restype = i64
    lib.framesim_register_map.argtypes = [ptr, ctypes.c_int, i64, ptr, ctypes.c_int]
    lib.framesim_register_map.restype = i64
    lib.framesim_affine.argtypes = [ptr, i64, ptr, u64, ptr, ptr, ptr]
    lib.framesim_affine.restype = ctypes.c_int
    lib.framesim_shear.argtypes = [ptr, i64, ptr, ptr]
    lib.framesim_shear.restype = ctypes.c_int
    lib.framesim_embed.argtypes = [ptr, ctypes.c_int, ptr, u64]
    lib.framesim_embed.restype = None
    lib.framesim_use_avx2.argtypes = [ctypes.c_int]
    lib.framesim_use_avx2.restype = ctypes.c_int
    return lib


try:
    _lib = _load()
except _Unavailable as exc:
    _lib = None
    warnings.warn(f"framesim: compiled kernels unavailable, using the slower "
                  f"numpy path ({exc})", RuntimeWarning, stacklevel=2)

# a numba-era alias of kernel_tier() == "compiled-c"; perfbench/run.py
# reads it, and nothing else should
JIT_ENABLED = _lib is not None


def kernel_tier() -> str:
    """Name of the amplitude-kernel tier in use: ``compiled-c`` or ``numpy``."""
    return "numpy" if _lib is None else "compiled-c"


# the clones of the Clifford and Hadamard loops that this CPU runs, indexed
# by the value framesim_use_avx2 returns
_CLONES = (() if _lib is None else
           ("generic", "avx2") if _lib.framesim_use_avx2(-1) else ("generic",))


def simd_clone() -> str | None:
    """Name of the compiled clone the Clifford and Hadamard loops run:
    ``avx2`` or ``generic``; None on the numpy tier."""
    return None if _lib is None else _CLONES[_lib.framesim_use_avx2(-1)]


def _use_clone(name: str) -> str:
    """Run the Clifford and Hadamard loops on clone ``name``, one of those
    this CPU runs, and return the name of the clone used before.  For the
    tests, which check every clone; a run keeps the clone picked at load."""
    if name not in _CLONES:
        raise ValueError(f"clone {name!r} does not run here (runs: {_CLONES})")
    before = simd_clone()
    _lib.framesim_use_avx2(_CLONES.index(name))
    return before


# weak reference to the last amplitude array passed in, with its data address
# and length: a rotation sequence reuses one array, and reading the address
# through ``ndarray.ctypes`` costs more than a small rotation
_last = (lambda: None, 0, 0)


def _address(amp: np.ndarray, *masks: int) -> int:
    """Validate amp for the C loops and return its data address."""
    global _last
    ref, addr, n = _last
    if ref() is not amp or amp.shape[0] != n:
        if not (isinstance(amp, np.ndarray) and amp.dtype == np.complex128
                and amp.ndim == 1 and amp.flags.c_contiguous):
            raise ValueError("amplitudes must be a contiguous 1-d complex128 array")
        n = amp.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"amplitude count {n} is not a power of two >= 2")
        addr = amp.ctypes.data
        if addr % 16:
            raise ValueError("amplitude array is not aligned to 16 bytes")
        _last = (weakref.ref(amp), addr, n)
    if not amp.flags.writeable:
        raise ValueError("amplitude array is read-only")
    for m in masks:
        if not 0 <= m < n:
            raise ValueError("bit mask out of range for the amplitude array")
    return addr


def _check_exchange(mask, val, x) -> None:
    if val & ~mask or x & ~mask:
        raise ValueError(f"val {val:#x} and x {x:#x} must be submasks of mask {mask:#x}")


def _c_clifford(amp, x, z, ca, cb, e0):
    """``numpy_clifford`` in one tiled pass of the C loop."""
    addr = _address(amp, x, z)
    _lib.framesim_clifford(addr, amp.shape[0], x, z, ca, cb, e0 & 3)


def _c_apply_h(amp, q):
    """``numpy_apply_h`` in one pass of the C loop."""
    addr = _address(amp, 1 << q)
    _lib.framesim_apply_h(addr, amp.shape[0], q)


def _c_pair_exchange(amp, mask, val, x, e):
    """``numpy_pair_exchange`` in one pass of the C loop."""
    addr = _address(amp, mask)
    _check_exchange(mask, val, x)
    _lib.framesim_pair_exchange(addr, amp.shape[0], mask, val, x, e & 3)


def tile_bits(num_qubits: int) -> int:
    """b, for the tiles of 2**b amplitudes that the affine and shear passes
    of a num_qubits-qubit state work in: TILE_BITS, or the whole state."""
    return min(num_qubits, TILE_BITS)


_AFFINE_ERRORS = {1: "the affine map is singular or moves positions across tiles",
                  2: "the phase's cross masks are not symmetric with a clear diagonal"}


def _check_affine(amp, cols, diag, cross) -> int:
    n = amp.shape[0].bit_length() - 1
    if not len(cols) == len(diag) == len(cross) == n:
        raise ValueError(f"need one column, diag and cross entry per qubit ({n})")
    return n


def _c_affine(amp, cols, offset, diag, cross):
    """``numpy_affine`` in one tiled pass of the C loop."""
    addr = _address(amp, offset, *cols, *cross)
    _check_affine(amp, cols, diag, cross)
    seen = np.zeros(((amp.shape[0] >> tile_bits(len(cols))) + 7) >> 3, dtype=np.uint8)
    cols, cross = np.array(cols, dtype=np.uint64), np.array(cross, dtype=np.uint64)
    err = _lib.framesim_affine(addr, amp.shape[0], cols.ctypes.data, offset,
                               bytes(d & 3 for d in diag), cross.ctypes.data,
                               seen.ctypes.data)
    if err:
        raise ValueError(_AFFINE_ERRORS[err])


def _c_shear(amp, up, down):
    """``numpy_shear`` in one pass of the C loop, coset by coset."""
    addr = _address(amp, *up)
    _check_shear(amp, up, down)
    up, down = np.array(up, dtype=np.uint64), np.array(down, dtype=np.uint64)
    _lib.framesim_shear(addr, amp.shape[0], up.ctypes.data, down.ctypes.data)


def _check_shear(amp, up, down) -> int:
    n = amp.shape[0].bit_length() - 1
    b = tile_bits(n)
    if len(up) != b or any(c & ((1 << b) - 1) for c in up):
        raise ValueError(f"need {b} upper shear columns above the {b} position bits")
    if len(down) != n - b or any(c >> b for c in down):
        raise ValueError(f"need {n - b} lower shear columns below bit {b}")
    return b


def _check_embed(amp, cols, offset) -> None:
    """Raise ValueError unless the columns cols of E and the offset are as
    ``numpy_embed`` needs them: E in echelon form, an offset without a
    pivot bit, fewer columns than the state has qubits."""
    n = amp.shape[0].bit_length() - 1
    if len(cols) >= n:
        raise ValueError(f"an embedding of {len(cols)} qubits into {n} qubits")
    if not (0 <= min([offset, *cols]) and max([offset, *cols]) < amp.shape[0]):
        raise ValueError("bit mask out of range for the amplitude array")
    pivots = 0
    for c in cols:
        top = 1 << c.bit_length() >> 1
        if top <= pivots or c & pivots:
            raise ValueError("the embedding's columns are not in echelon form")
        pivots |= top
    if offset & pivots:
        raise ValueError("the embedding's offset has a pivot bit")


def _c_embed(amp, cols, offset):
    """``numpy_embed`` in one pass of the C loop over 2**len(cols) amplitudes."""
    addr = _address(amp)
    _check_embed(amp, cols, offset)
    cols = np.array(cols, dtype=np.uint64)
    _lib.framesim_embed(addr, len(cols), cols.ctypes.data, offset)


def _check_register(index_map, active) -> int:
    n = index_map.shape[0] if isinstance(index_map, np.ndarray) else -1
    if (n < 1 or index_map.dtype != np.uint64 or index_map.ndim != 1
            or not index_map.flags.c_contiguous or not index_map.flags.writeable):
        raise ValueError("index map must be a writeable contiguous uint64 array of n rows")
    if not 0 <= active <= n:
        raise ValueError(f"active count {active} out of range for {n} qubits")
    return n


_SINGULAR_MAP = "index map is not an invertible matrix on the register's qubits"


def _c_run_gates(amp, xs, zs, ps, index_map, active, ops, angles, start):
    """Run a lowered gate stream from gate ``start`` on the hybrid backend, in
    one call of the C gate loop; return the index of the first gate not run
    (the next MEASZ or PREPZ, or the gate count), the seconds spent in
    rotations and the active count after the call.

    xs, zs and ps are the packed frame of ``PauliFrame.packed`` and
    index_map the n row masks of the register's index map (see
    ``register_map``), all updated in place; active is the register's
    active count d.  ops and angles are the arrays of ``Circuit.lowered``,
    on the same n qubits as amp; the gate codes and qubits are not checked
    again.  Each rotation runs on the first 2**max(d, 1) amplitudes.
    """
    n = xs.shape[0] // 2
    addr = _address(amp)
    if amp.shape[0] != 1 << n:
        raise ValueError(f"frame on {n} qubits applied to "
                         f"{amp.shape[0].bit_length() - 1}-qubit state")
    for words, dtype in ((xs, np.uint64), (zs, np.uint64), (ps, np.uint8)):
        if words.dtype != dtype or words.shape != (2 * n,) or not words.flags.c_contiguous:
            raise ValueError("packed frame must be contiguous uint64, uint64 and "
                             "uint8 arrays of 2n rows")
    if _check_register(index_map, active) != n:
        raise ValueError(f"index map of {index_map.shape[0]} rows for a {n}-qubit frame")
    count = len(angles)
    if len(ops) != 3 * count or not 0 <= start <= count:
        raise ValueError("lowered gate arrays do not match, or start is out of range")
    spent = ctypes.c_double(0.0)
    d = ctypes.c_int64(active)
    stop = _lib.framesim_run_gates(addr, n, xs.ctypes.data, zs.ctypes.data, ps.ctypes.data,
                                   index_map.ctypes.data, ctypes.byref(d),
                                   ops.buffer_info()[0], angles.buffer_info()[0], start,
                                   count, ctypes.byref(spent))
    if stop < 0:
        raise ValueError(_SINGULAR_MAP)
    return stop, spent.value, d.value


def _c_register_map(index_map, active, x, z, phase, activate):
    """The signed Pauli operator i**phase * (letters x, z), a frame image on
    n qubits, mapped onto the hybrid's register: P_A^dag P P_A, for the
    index map P_A|k> = |A k> of the invertible GF(2) matrix A whose n row
    masks index_map holds, (A k)_i = parity(index_map[i] & k), with its Z
    letters at or above the active count d dropped.

    Returns (x, z, phase, d) of the result, x and z below 2**d.  If its X
    part leaves the register (A^-1 x has a bit at or above d), returns None
    when ``activate`` is false, and otherwise first activates one qubit: it
    folds into A the CX and SWAP gates that gather those bits at bit d, on
    qubits that the register holds at |0>, and d grows by one.  index_map
    is updated in place.
    """
    n = _check_register(index_map, active)
    if not 0 <= max(x, z) < 1 << n:
        raise ValueError(f"operator masks out of range for {n} qubits")
    op = np.array([x, z, phase & 3], dtype=np.uint64)
    d = _lib.framesim_register_map(index_map.ctypes.data, n, active, op.ctypes.data,
                                   int(activate))
    if d == -2:
        raise ValueError(_SINGULAR_MAP)
    if d == -1:
        return None
    return int(op[0]), int(op[1]), int(op[2]), d


def numpy_clifford(amp, x, z, ca, cb, e0):
    """amp[k] <- ca*amp[k] + cb * i**e0 * (-1)**parity(k & z) * amp[k ^ x].

    ca and cb are real.  This is ca + cb * i**e0 * P for a Pauli P with x
    bits x and z bits z (up to P's own phase, see
    ``statevector._pauli_update``).
    """
    if not 0 <= max(x, z) < amp.shape[0]:
        raise ValueError("bit mask out of range for the amplitude array")
    k = np.arange(amp.shape[0], dtype=np.int64)
    sg = 1.0 - 2.0 * (np.bitwise_count(k & np.int64(z)) & 1)
    amp[:] = ca * amp + cb * _I_POW[e0 & 3] * sg * amp[k ^ np.int64(x)]


def numpy_apply_h(amp, q):
    """The Hadamard gate on qubit q: for each pair k0, k1 = k0 | 2**q with
    bit q of k0 clear, amp[k0], amp[k1] <- (a0 + a1)/sqrt(2), (a0 - a1)/sqrt(2)."""
    if not 0 <= q < amp.shape[0].bit_length() - 1:
        raise ValueError(f"qubit {q} out of range for the amplitude array")
    k0 = np.arange(amp.shape[0], dtype=np.int64)
    k0 = k0[k0 & (1 << q) == 0]
    k1 = k0 | (1 << q)
    a0 = amp[k0]
    a1 = amp[k1]
    amp[k0] = (a0 + a1) * _SQ2
    amp[k1] = (a0 - a1) * _SQ2


def numpy_pair_exchange(amp, mask, val, x, e):
    """Swap amp[k] with amp[k ^ x] for every k with k & mask == val; when x
    is 0, multiply amp[k] by i**e instead.  val and x must be submasks of
    mask, so that each pair is listed once."""
    if not 0 <= mask < amp.shape[0]:
        raise ValueError("bit mask out of range for the amplitude array")
    _check_exchange(mask, val, x)
    k = np.arange(amp.shape[0], dtype=np.int64)
    k = k[k & mask == val]
    if x == 0:
        amp[k] *= _I_POW[e & 3]
    else:
        amp[k], amp[k ^ x] = amp[k ^ x], amp[k]


def numpy_affine(amp, cols, offset, diag, cross):
    """amp[G k ^ offset] <- i**q(k) * amp[k] for every index k.

    G is the GF(2) matrix with columns ``cols`` (column i is the image of
    bit i), and q(k) = sum over the set bits i of k of diag[i] +
    popcount(cross[i] & k), mod 4.  G must be invertible and map each tile
    of 2**b amplitudes (b = ``tile_bits``) onto a tile: cols[i] < 2**b for
    i < b.  cross must be symmetric with a clear diagonal, so that q is the
    quadratic form of a Clifford without a Hadamard part.  Raises
    ValueError otherwise.
    """
    n = _check_affine(amp, cols, diag, cross)
    if not 0 <= max([offset, *cols, *cross]) < amp.shape[0]:
        raise ValueError("bit mask out of range for the amplitude array")
    if any(cross[i] >> j & 1 != (i != j and cross[j] >> i & 1)
           for i in range(n) for j in range(i + 1)):
        raise ValueError(_AFFINE_ERRORS[2])
    b = tile_bits(n)
    k = np.arange(amp.shape[0], dtype=np.int64)
    dest = np.full(amp.shape[0], offset, dtype=np.int64)
    q = np.zeros(amp.shape[0], dtype=np.int64)
    for i in range(n):
        bit = k >> i & 1
        dest ^= bit * cols[i]
        q += bit * (diag[i] + np.bitwise_count(k & np.int64(cross[i])))
    if (any(cols[i] >> b for i in range(b))
            or np.any(np.bincount(dest, minlength=amp.shape[0]) != 1)):
        raise ValueError(_AFFINE_ERRORS[1])
    out = np.empty_like(amp)
    out[dest] = _I_POW[q & 3] * amp
    amp[:] = out


def numpy_shear(amp, up, down):
    """The upper shear t ^= B l, then the lower shear l ^= M t, of every
    index k = (t, l), t being its tile and l its position in the tile
    (b = ``tile_bits``): amp[(t ^ B l, l ^ M (t ^ B l))] <- amp[(t, l)].

    B l is the XOR of up[i] over the set bits i of l, the b masks up having
    no bit below b; M t is the XOR of down[j] over the set bits j of t, the
    n - b masks down being below 2**b.
    """
    b = _check_shear(amp, up, down)
    if not 0 <= max(up, default=0) < amp.shape[0]:
        raise ValueError("bit mask out of range for the amplitude array")
    k = np.arange(amp.shape[0], dtype=np.int64)
    for i, col in enumerate(up):
        k ^= (k >> i & 1) * col
    for j, col in enumerate(down):
        k ^= (k >> (b + j) & 1) * col
    out = np.empty_like(amp)
    out[k] = amp
    amp[:] = out


def numpy_embed(amp, cols, offset):
    """amp[E k ^ offset] <- amp[k] for every k < 2**d, d = len(cols), and
    the other amplitudes below 2**d set to 0.

    E k is the XOR of cols[i] over the set bits i of k.  E must be in
    echelon form: the top bit of cols[i] rises with i, and no column has
    another's top bit.  offset must have no top bit of a column, and d must
    be below the qubit count.  Raises ValueError otherwise.  Then E k ^
    offset >= k, which lets the C loop run in place (see ``_kernels.c``).
    """
    _check_embed(amp, cols, offset)
    k = np.arange(1 << len(cols), dtype=np.int64)
    dest = np.full(k.size, offset, dtype=np.int64)
    for i, c in enumerate(cols):
        dest ^= (k >> i & 1) * c
    moved = amp[:k.size].copy()
    amp[:k.size] = 0
    amp[dest] = moved


if _lib is not None:
    clifford, apply_h, pair_exchange = _c_clifford, _c_apply_h, _c_pair_exchange
    affine, shear, embed = _c_affine, _c_shear, _c_embed
    run_gates, register_map = _c_run_gates, _c_register_map
else:
    clifford, apply_h, pair_exchange = numpy_clifford, numpy_apply_h, numpy_pair_exchange
    affine, shear, embed = numpy_affine, numpy_shear, numpy_embed
    run_gates = register_map = None
