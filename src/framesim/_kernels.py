"""The in-place amplitude kernels of ``StateVector``, the compiled gate
loops of both backends, and the choice of their tier.

Five amplitude operations carry every state update:

- ``clifford`` computes ``a[k] <- ca*a[k] + cb * i**e0 * (-1)**parity(k & z)
  * a[k ^ x]`` with real ca and cb: every update of the form
  ``ca*I + cb*i**e0*P`` for a multi-qubit Pauli P.  That
  is rotations by any angle, Pauli application (and with it the expectation
  and the prepare repair), the measurement collapse, the flush's quarter
  turns, and the baseline's X, Y, RX, RY and RZ.
- ``apply_u2`` applies any complex 2x2 matrix to one qubit: the baseline's
  H, and a run of its one-qubit gates on one qubit, fused into their
  product.  In ``baseline_gates`` the same loop also applies a CX or CZ
  whose target holds that run (see there).
- ``pair_exchange`` swaps ``a[k]`` with ``a[k ^ x]`` for every k whose bits
  under ``mask`` equal ``val``, or multiplies ``a[k]`` by ``i**e`` when x is
  0: the baseline's CX and SWAP, and the baseline's Z, S, SDG and CZ, which
  touch only the amplitudes whose qubits are set.
- ``scatter`` computes ``a[C k ^ offset] <- i**q(k) * src[k]`` for the 2**d
  amplitudes of ``src``, C an injective GF(2) map from d bits and q a
  quadratic form, and sets every other amplitude below 2**d to 0: on a
  state that is zero beyond 2**d, whose first 2**d amplitudes ``src``
  copies, it applies the part of a flush without a Hadamard part in one
  pass over those amplitudes.
- ``permute`` computes ``a[A k ^ offset] <- i**q(k) * a[k]`` for every k, A
  an invertible GF(2) matrix: that part of a flush on a whole state
  (``StateVector.apply_hadamard_free``).  In C it factors A for its tiles
  into a matrix that moves whole tiles and two shears, and makes an affine
  pass for the first, with the offset and the phase, and one shear pass
  for the shears unless A needs none.  Without a phase, as for the index
  map alone, the affine pass only moves amplitudes; the shear moves whole
  cache lines between the tiles.  On the numpy tier it is the scatter of a
  copy of the whole state, so both operations share one reference.

The C loops in ``_kernels.c`` make one pass over the amplitudes they touch
(one read and one write each), the permutation two at most, and allocate
nothing; the permutation takes from its wrapper a bitmap of one bit per
tile, whose size it reports, and the scatter reads the copy of the
register that its caller makes.  The Clifford, 2x2 and pair-exchange
loops walk the state in cache-sized tiles, pairing a tile with the one its
partner mask reaches, so that the cost of the Clifford loop depends
neither on the number of qubits nor on how many qubits the operator
touches; inside a tile the other two take contiguous runs, a cache line
at a time where the runs are shorter.  Each walks one set of tiles:
the whole state for a single pass, or one coset of a blocked run (see
``run_gates``).  The Clifford loop holds two amplitudes per 32-byte
vector and applies a power of i as an element swap and a sign pattern,
with no complex multiply; the 2x2 loop holds them the same way and makes
two complex products per amplitude.  Both load a cache line of both
partners before they store any of it, since partners in two tiles sit a
multiple of 4 KiB apart, and a load that follows a store to the same
address modulo 4 KiB waits for that store.  These two are compiled twice
from one body, a generic clone and one for AVX2 with FMA, and the library
picks one when it loads, from what the CPU reports; ``simd_clone`` names
it.  On a 2-core Xeon with AVX2, on a state that
starts on a cache line (as ``StateVector`` allocates it), a rotation runs
at 0.54-0.71 ns per amplitude at n = 16, 0.77-0.82 at n = 18 and
0.75-0.83 at n = 20 on the AVX2 clone, against 0.38-0.49, 0.70-0.78 and
0.75-0.78 for an in-place negation of the same amplitudes; the generic
clone runs at 0.85-1.13, 0.85-1.00 and 0.88-1.04.  On the index map of
the flushes of the benchmark's 18-qubit Trotter circuits (seed 1, the
first six), the permutation's phase-free affine pass runs at 0.86-1.22 ns
per amplitude and its shear at 1.10-1.80, against 0.62-0.70 for the
negation (3.1-4.5 times it together), where a lookup and a multiply per
amplitude and a shear pair by pair ran at 2.6-4.0 and 2.7-3.5.  The
``numpy_*`` functions compute the same things by filtering index arrays,
with whole-array temporaries, several times slower per amplitude; they
are the reference the tests compare the C loops against.  The C loops
take a contiguous complex128 state aligned to
16 bytes, and their wrappers raise ValueError for any other.

The two gate loops in C run a circuit's lowered gate stream
(``Circuit.lowered``) up to the next measurement or preparation.
``baseline_gates`` is the baseline's: each two-qubit gate is the pass
that ``StateVector.apply_gate`` makes of it, over the whole state, and
each run of one-qubit gates on one qubit makes one pass at most: none
where its gates cancel in inverse pairs, the gate's own where one is
left, else one ``apply_u2`` pass of their product.  A CX or CZ right
after a 2x2 pass on its target (a lone H or a product) makes no pass of
its own: the 2x2 pass applies the matrix where the gate's control is
clear and its product with X or Z where it is set.  The benchmark's
18-qubit Trotter circuits (seed 1) make 960-971 passes for their
1727-1845 gates, 210-224 of their CX absorbed that way.
``run_gates`` is the hybrid backend's: it updates the words of a
``PauliFrame`` in place and calls the Clifford loop for each rotation on
the hybrid's register of 2**d amplitudes.  Once the amplitudes of a pass
outgrow the L2 cache (``l2_bytes``), both apply each run of passes in one
walk that takes each group of tiles through the whole run while the group
sits in the cache, with the amplitudes of one pass each, bit for bit.  A
run ends before a group would fill more than half the cache, or put more
of its tiles on one set of cache lines than half the cache's ways
(``l2_ways``), as single-bit masks above the bits that pick a tile's
sets would; at
n = 18 on a 2-core Xeon with 2 MiB of L2, runs of 3 to 7 rotations
cost 0.31-0.34 ns per amplitude and rotation against 0.47-0.49 one by
one.  ``register_map`` maps one operator onto the hybrid's
register, activating a qubit when it must, as its loop does for each
rotation; the hybrid's measurements, preparations and expectations go
through it (see ``backends.HybridState``).  ``flush`` is the hybrid's
flush in one call on the frame's words: the split of
``frame.split_clifford``, its quarter turns on the register, and the rest
composed with the index map, which ``StateVector.apply_hadamard_free``
then applies.  None of the four has a numpy counterpart: without the
compiled library all are None, ``backends.run_baseline`` runs its Python
gate loop over ``StateVector.apply_gate``, ``backends.run_hybrid`` its
Python gate loop over ``PauliFrame``, which keeps the register dense, and
the flush runs ``split_clifford`` and its turns one by one; these are the
references of the tests.

On first import the C source is compiled with the system C compiler (``gcc``,
else ``cc``) into ``$XDG_CACHE_HOME/framesim`` (default ``~/.cache/framesim``),
under a name keyed by a hash of the source and the compiler flags, linked
with the C math library for the gate loop's cosines and sines, and then
loaded with ``ctypes``; later imports load the cached library without
compiling.  The build names no CPU, so a cached library runs on any
x86-64.  When the library loads, the five operation names are the C loops,
``baseline_gates``, ``run_gates``, ``register_map`` and ``flush`` are set
and ``kernel_tier()`` returns ``compiled-c``.
When it cannot be built or loaded (no compiler, a build error, a cache
directory that cannot be written) one ``RuntimeWarning`` names the reason,
the five names are bound to the numpy functions instead and the other four
are None.  The choice is
made once, here, from what the import observes.
"""
import ctypes
import hashlib
import os
import warnings
import weakref
from array import array
from pathlib import Path

import numpy as np

from . import gf2

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared")
_LIBS = ("-lm",)  # after the source, so that the linker keeps it
_SQ2 = 0.7071067811865476  # 1/sqrt(2), as in the C gate loop's matrix of H
_I_POW = np.array([1, 1j, -1, -1j])


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
    lib.framesim_apply_u2.argtypes = [ptr, i64, ctypes.c_int, ptr]
    lib.framesim_apply_u2.restype = None
    lib.framesim_pair_exchange.argtypes = [ptr, i64, u64, u64, u64, ctypes.c_int]
    lib.framesim_pair_exchange.restype = None
    lib.framesim_run_gates.argtypes = [ptr, ctypes.c_int, ptr, ptr, ptr, ptr,
                                       ctypes.POINTER(i64), ptr, ptr, i64, i64,
                                       ctypes.POINTER(f64), ptr]
    lib.framesim_run_gates.restype = i64
    lib.framesim_baseline_gates.argtypes = [ptr, ctypes.c_int, ptr, ptr, i64, i64, ptr]
    lib.framesim_baseline_gates.restype = i64
    lib.framesim_register_map.argtypes = [ptr, ctypes.c_int, i64, ptr, ctypes.c_int]
    lib.framesim_register_map.restype = i64
    lib.framesim_flush.argtypes = [ptr, ctypes.c_int, ptr, ptr, ptr, ptr, ctypes.POINTER(i64),
                                   ptr, ctypes.POINTER(f64), ptr]
    lib.framesim_flush.restype = ctypes.c_int
    lib.framesim_permute.argtypes = [ptr, i64, ptr, u64, ptr, ptr, ptr]
    lib.framesim_permute.restype = i64
    lib.framesim_scatter.argtypes = [ptr, ptr, ctypes.c_int, ptr, u64, ptr, ptr]
    lib.framesim_scatter.restype = ctypes.c_int
    lib.framesim_use_avx2.argtypes = [ctypes.c_int]
    lib.framesim_use_avx2.restype = ctypes.c_int
    lib.framesim_l2_bytes.argtypes = []
    lib.framesim_l2_bytes.restype = i64
    lib.framesim_l2_ways.argtypes = []
    lib.framesim_l2_ways.restype = ctypes.c_int
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


# the clones of the Clifford and 2x2 loops that this CPU runs,
# indexed by the value framesim_use_avx2 returns
_CLONES = (() if _lib is None else
           ("generic", "avx2") if _lib.framesim_use_avx2(-1) else ("generic",))


def simd_clone() -> str | None:
    """Name of the compiled clone the Clifford and 2x2 loops run: ``avx2``
    or ``generic``; None on the numpy tier."""
    return None if _lib is None else _CLONES[_lib.framesim_use_avx2(-1)]


def l2_bytes() -> int | None:
    """The L2 cache size, in bytes, above which the compiled gate loops and
    the flush block their runs of passes (see ``run_gates``): what the
    system reported when the library loaded, 0 if it reported none, and
    then no run is blocked.  None on the numpy tier."""
    return None if _lib is None else _lib.framesim_l2_bytes()


def l2_ways() -> int | None:
    """The L2 cache's ways, which bound how many tiles of one blocked coset
    may share their cache sets (see ``run_gates``): what the system
    reported when the library loaded, 0 if it reported none, and then only
    the size bounds a run.  None on the numpy tier."""
    return None if _lib is None else _lib.framesim_l2_ways()


def _use_clone(name: str) -> str:
    """Run the Clifford and 2x2 loops on clone ``name``, one of those this
    CPU runs, and return the name of the clone used before.  For the tests,
    which check every clone; a run keeps the clone picked at load."""
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


def _u2_matrix(m) -> np.ndarray:
    """m as a contiguous 2x2 complex128 array; ValueError for another shape."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"a one-qubit gate needs a 2x2 matrix, got shape {m.shape}")
    return m


def _c_apply_u2(amp, q, m):
    """``numpy_apply_u2`` in one pass of the C loop."""
    addr = _address(amp, 1 << q)
    m = _u2_matrix(m)
    _lib.framesim_apply_u2(addr, amp.shape[0], q, m.ctypes.data)


def _c_pair_exchange(amp, mask, val, x, e):
    """``numpy_pair_exchange`` in one pass of the C loop."""
    addr = _address(amp, mask)
    _check_exchange(mask, val, x)
    _lib.framesim_pair_exchange(addr, amp.shape[0], mask, val, x, e & 3)


_MAP_ERRORS = {1: "the map is singular",
               2: "the phase's cross masks are not symmetric with a clear diagonal"}


def _check_cross(cross) -> None:
    """Raise ValueError unless cross is symmetric with a clear diagonal."""
    n = len(cross)
    if any(cross[i] >> j & 1 != (i != j and cross[j] >> i & 1)
           for i in range(n) for j in range(i + 1)):
        raise ValueError(_MAP_ERRORS[2])


def _check_permute(amp, cols, diag, cross) -> None:
    n = amp.shape[0].bit_length() - 1
    if not len(cols) == len(diag) == len(cross) == n:
        raise ValueError(f"need one column, diag and cross entry per qubit ({n})")


def _c_permute(amp, cols, offset, diag, cross) -> int:
    """``numpy_permute`` in one call of the C library, which splits A for
    its tiles into an affine pass and a shear pass, unless A needs no
    shear.  A first call without scratch reports the bytes of the zeroed
    bitmap, one bit per tile, that the affine pass marks its cycles in.
    Returns the passes made."""
    addr = _address(amp, offset, *cols, *cross)
    _check_permute(amp, cols, diag, cross)
    cols, cross = np.array(cols, dtype=np.uint64), np.array(cross, dtype=np.uint64)
    args = (addr, amp.shape[0], cols.ctypes.data, offset, bytes(d & 3 for d in diag),
            cross.ctypes.data)
    seen = np.zeros(_lib.framesim_permute(*args, None), dtype=np.uint8)
    made = _lib.framesim_permute(*args, seen.ctypes.data)
    if made < 0:
        raise ValueError(_MAP_ERRORS[-made])
    return made


def _check_scatter(amp, src, cols, offset, diag, cross) -> None:
    """Raise ValueError unless src is 2**d amplitudes apart from amp and
    no more, d = len(cols), with a diag and a cross entry per column and
    every mask in range."""
    d = len(cols)
    if not (isinstance(src, np.ndarray) and src.ndim == 1 and src.shape[0] == 1 << d
            <= amp.shape[0]) or np.may_share_memory(src, amp):
        raise ValueError(f"the register must be 2**{d} amplitudes apart from the "
                         f"state's {amp.shape[0]}, and no more")
    if not len(diag) == len(cross) == d:
        raise ValueError(f"need one diag and cross entry per column ({d})")
    if not (0 <= min([offset, *cols, *cross]) and max([offset, *cols]) < amp.shape[0]
            and max(cross, default=0) < src.shape[0]):
        raise ValueError("bit mask out of range for the amplitude array or the register")


def _c_scatter(amp, src, cols, offset, diag, cross):
    """``numpy_scatter`` in one pass of the C loop over the 2**d amplitudes of src."""
    src_addr, addr = _address(src), _address(amp)
    _check_scatter(amp, src, cols, offset, diag, cross)
    cols, cross = np.array(cols, dtype=np.uint64), np.array(cross, dtype=np.uint64)
    err = _lib.framesim_scatter(addr, src_addr, len(cols), cols.ctypes.data, offset,
                                bytes(x & 3 for x in diag), cross.ctypes.data)
    if err:
        raise ValueError(_MAP_ERRORS[err])


def _check_register(index_map, active) -> int:
    n = index_map.shape[0] if isinstance(index_map, np.ndarray) else -1
    if (n < 1 or index_map.dtype != np.uint64 or index_map.ndim != 1
            or not index_map.flags.c_contiguous or not index_map.flags.writeable):
        raise ValueError("index map must be a writeable contiguous uint64 array of n rows")
    if not 0 <= active <= n:
        raise ValueError(f"active count {active} out of range for {n} qubits")
    return n


_SINGULAR_MAP = "index map is not an invertible matrix on the register's qubits"


def _is_array(a, code: str, size: int) -> bool:
    """True if a is a stdlib ``array`` of typecode ``code`` and ``size``-byte items."""
    return isinstance(a, array) and a.typecode == code and a.itemsize == size


_NO_COUNTS = array("q", bytes(40))


def pass_counts() -> array:
    """Zeroed counts for ``run_gates``, ``baseline_gates`` and ``flush`` to
    add to: the passes over the register, the amplitudes those passes cover,
    the blocked runs and, from ``baseline_gates`` alone, the one-qubit gates
    and the two-qubit gates that made no pass of their own, as an ``array``
    of typecode 'q'."""
    return _NO_COUNTS[:]


def _check_counts(counts) -> array:
    """counts, or new zeroed counts for None; ValueError unless it is what
    ``pass_counts`` returns.  The caller keeps it alive over the C call."""
    if counts is None:
        return pass_counts()
    if not (_is_array(counts, "q", 8) and len(counts) == len(_NO_COUNTS)):
        raise ValueError("pass counts must be an array of 5 items of typecode 'q'")
    return counts


def _check_hybrid(amp, xs, zs, ps, index_map, active) -> tuple[int, int]:
    """Validate a hybrid's state, frame words and register for the C loops;
    return the qubit count n and the state's address.  xs, zs and ps must
    be the words of a ``PauliFrame``: ``array`` of typecode 'Q', 'Q' and
    'B', 2n rows each, 1 <= n <= 64."""
    n = len(xs) // 2
    if not (_is_array(xs, "Q", 8) and _is_array(zs, "Q", 8) and _is_array(ps, "B", 1)
            and len(xs) == len(zs) == len(ps) == 2 * n and 1 <= n <= 64):
        raise ValueError("the frame must be arrays of typecode 'Q', 'Q' and 'B', "
                         "of 2n rows each")
    addr = _address(amp)
    if amp.shape[0] != 1 << n:
        raise ValueError(f"frame on {n} qubits applied to "
                         f"{amp.shape[0].bit_length() - 1}-qubit state")
    if _check_register(index_map, active) != n:
        raise ValueError(f"index map of {index_map.shape[0]} rows for a {n}-qubit frame")
    return n, addr


def _check_lowered(ops, angles, start) -> int:
    """The gate count of the lowered arrays ops and angles; ValueError unless
    they are those of ``Circuit.lowered`` and 0 <= start <= that count."""
    count = len(angles)
    if not (_is_array(ops, "i", 4) and _is_array(angles, "d", 8)
            and len(ops) == 3 * count and 0 <= start <= count):
        raise ValueError("lowered gate arrays do not match, or start is out of range")
    return count


def _c_run_gates(amp, xs, zs, ps, index_map, active, ops, angles, start, counts=None):
    """Run a lowered gate stream from gate ``start`` on the hybrid backend, in
    one call of the C gate loop; return the index of the first gate not run
    (the next MEASZ or PREPZ, or the gate count), the seconds spent in
    rotations and the active count after the call.

    xs, zs and ps are the words of a ``PauliFrame`` (``array`` of typecode
    'Q', 'Q' and 'B', 2n rows each) and index_map the n row masks of the
    register's index map (see ``register_map``), all updated in place;
    active is the register's active count d.  ops and angles are the arrays
    of ``Circuit.lowered``, on the same n qubits as amp; the gate codes and
    qubits are not checked again.  Each rotation runs on the first
    2**max(d, 1) amplitudes.  While those hold more bytes than the L2 cache
    (``l2_bytes``), the loop blocks each run of rotations on one register
    size: it applies the run in one walk that takes each group of tiles
    through every rotation of the run while the group sits in the L2 cache,
    with the amplitudes of one pass per rotation, bit for bit.  The run
    ends before a rotation on another register size, at the call's return
    and where its group would outgrow half the cache, or put more of its
    tiles on one set of cache lines than half the cache's ways
    (``l2_ways``).

    ``counts`` (see ``pass_counts``) receives the passes over the register
    (a blocked run counts once), the amplitudes those passes cover and the
    blocked runs, added to what it holds.
    """
    n, addr = _check_hybrid(amp, xs, zs, ps, index_map, active)
    counts = _check_counts(counts)
    count = _check_lowered(ops, angles, start)
    spent = ctypes.c_double(0.0)
    d = ctypes.c_int64(active)
    stop = _lib.framesim_run_gates(addr, n, xs.buffer_info()[0], zs.buffer_info()[0],
                                   ps.buffer_info()[0],
                                   index_map.ctypes.data, ctypes.byref(d),
                                   ops.buffer_info()[0], angles.buffer_info()[0], start,
                                   count, ctypes.byref(spent), counts.buffer_info()[0])
    if stop < 0:
        raise ValueError(_SINGULAR_MAP)
    return stop, spent.value, d.value


def _c_baseline_gates(amp, ops, angles, start, counts=None):
    """Run a lowered gate stream from gate ``start`` on the baseline, in one
    call of the C gate loop, and return the index of the first gate not
    run: the next MEASZ or PREPZ, or the gate count.

    ops and angles are the arrays of ``Circuit.lowered``, on the qubits of
    amp; the gate codes and qubits are not checked again.  A gate's pass
    is the one ``StateVector.apply_gate`` makes: the Clifford loop for X,
    Y, RX, RY and RZ, the 2x2 loop on its matrix for H and the pair
    exchange for Z, S, SDG, CX, CZ and SWAP.  The one-qubit gates of a qubit
    are held until a two-qubit gate on it, or the call's return, and then
    make one pass at most: none where they cancel in adjacent inverse pairs
    (H H, S SDG, SDG S, X X, Y Y, Z Z, found on the gate codes), the pass
    of the gate left where one is, and else one ``apply_u2`` pass of their
    product.  A lone H, RX, RY or RZ is applied after those taken in before
    it, so that with nothing fused the amplitudes are those of one pass per
    gate in stream order, bit for bit; a fused run rounds once where its
    gates rounded one by one.  Each two-qubit gate makes its pass, except a
    CX whose target, or a CZ either of whose qubits, is settled last with a
    2x2 pass (a lone H or a product): that pass applies the gate too, the
    matrix where the control is clear and its product with X or Z where it
    is set, with the amplitudes of the two passes, bit for bit.  While
    the state holds more bytes than the L2 cache (``l2_bytes``), the loop
    blocks these passes in runs as ``run_gates`` blocks rotations, with the
    amplitudes of one pass each, bit for bit.  ``counts`` (see
    ``pass_counts``) receives the passes, the amplitudes they cover and the
    blocked runs, as in ``run_gates``, the one-qubit gates that made no
    pass of their own (all those of a run that cancelled, all but one of
    the others) and the two-qubit gates that made none.
    """
    addr = _address(amp)
    counts = _check_counts(counts)
    count = _check_lowered(ops, angles, start)
    return _lib.framesim_baseline_gates(addr, amp.shape[0].bit_length() - 1,
                                        ops.buffer_info()[0], angles.buffer_info()[0],
                                        start, count, counts.buffer_info()[0])


# the errors of framesim_flush, by return code; the last two are those of
# gf2.solve and split_clifford, which no valid frame raises
_SPLIT_ERRORS = {-1: (ValueError, "cannot split an invalid frame"),
                 -2: (ValueError, _SINGULAR_MAP),
                 -3: (ValueError, "inconsistent GF(2) system"),
                 -4: (RuntimeError, "the frame's eff_x rows fit no quadratic phase")}


def _split_result(h: int, form: np.ndarray, n: int):
    """The form in the 3n + 1 words the C flush writes, as the fields
    (rows, offset, diag, cross) of a ``frame.HadamardFree``; raises the
    error of a negative h."""
    if h < 0:
        kind, message = _SPLIT_ERRORS[h]
        raise kind(message)
    w = form.tolist()
    return tuple(w[:n]), w[3 * n], tuple(w[2 * n:3 * n]), tuple(w[n:2 * n])


def _c_flush(amp, xs, zs, ps, index_map, active, counts=None):
    """The hybrid's flush of the frame words xs, zs, ps into the register, in
    one C call: the split of ``frame.split_clifford`` and its h quarter
    turns, each mapped onto the register (activating a qubit if it must,
    see ``register_map``) and run in one pass of the Clifford loop over
    2**max(d, 1) amplitudes, or blocked in runs as ``run_gates`` blocks
    them, then the rest F composed with the index map P_A as
    ``HadamardFree.after`` composes them.  index_map and the amplitudes are
    updated in place, the frame words are not; ``counts`` receives the
    turns' passes as in ``run_gates``.

    Returns h, the active count d after the turns, the fields (rows,
    offset, diag, cross) of F P_A and the seconds spent in the turn passes.
    Raises before any write: ValueError for an invalid frame or index map,
    as ``split_clifford`` and ``register_map`` do.
    """
    n, addr = _check_hybrid(amp, xs, zs, ps, index_map, active)
    counts = _check_counts(counts)
    form = np.empty(3 * n + 1, dtype=np.uint64)
    spent = ctypes.c_double(0.0)
    d = ctypes.c_int64(active)
    h = _lib.framesim_flush(addr, n, xs.buffer_info()[0], zs.buffer_info()[0],
                            ps.buffer_info()[0], index_map.ctypes.data, ctypes.byref(d),
                            form.ctypes.data, ctypes.byref(spent), counts.buffer_info()[0])
    return h, d.value, _split_result(h, form, n), spent.value


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


def numpy_apply_u2(amp, q, m):
    """The one-qubit gate of the complex 2x2 matrix m on qubit q: for each
    pair k0, k1 = k0 | 2**q with bit q of k0 clear, amp[k0], amp[k1] <-
    m[0, 0] a0 + m[0, 1] a1, m[1, 0] a0 + m[1, 1] a1."""
    if not 0 <= q < amp.shape[0].bit_length() - 1:
        raise ValueError(f"qubit {q} out of range for the amplitude array")
    m = _u2_matrix(m)
    k0 = np.arange(amp.shape[0], dtype=np.int64)
    k0 = k0[k0 & (1 << q) == 0]
    a0, a1 = amp[k0], amp[k0 | (1 << q)]
    amp[k0] = m[0, 0] * a0 + m[0, 1] * a1
    amp[k0 | (1 << q)] = m[1, 0] * a0 + m[1, 1] * a1


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


def _images(cols, offset, diag, cross):
    """C k ^ offset and q(k) mod 4 for every k < 2**len(cols), C having the
    columns cols and q being as in ``numpy_scatter``."""
    k = np.arange(1 << len(cols), dtype=np.int64)
    dest = np.full(k.size, offset, dtype=np.int64)
    q = np.zeros(k.size, dtype=np.int64)
    for i, col in enumerate(cols):
        bit = k >> i & 1
        dest ^= bit * col
        q += bit * (diag[i] + np.bitwise_count(k & np.int64(cross[i])))
    return dest, q & 3


def numpy_scatter(amp, src, cols, offset, diag, cross):
    """amp[C k ^ offset] <- i**q(k) * src[k] for every k < 2**d, d = len(cols),
    and the other amplitudes below 2**d set to 0.

    C k is the XOR of cols[i] over the set bits i of k (column i is the
    image of bit i), and q(k) = sum over the set bits i of k of diag[i] +
    popcount(cross[i] & k), mod 4.  src holds 2**d amplitudes, no more than
    amp and apart from it; the columns must be independent, and the cross
    masks below 2**d, symmetric and with a clear diagonal, so that q is the
    quadratic form of a Clifford without a Hadamard part.  Raises
    ValueError otherwise.
    """
    _check_scatter(amp, src, cols, offset, diag, cross)
    _check_cross(cross)
    basis = gf2.Echelon()
    if not all(basis.add(c)[0] for c in cols):
        raise ValueError(_MAP_ERRORS[1])
    dest, q = _images(cols, offset, diag, cross)
    moved = _I_POW[q]
    moved *= src
    amp[:dest.size] = 0
    amp[dest] = moved


def numpy_permute(amp, cols, offset, diag, cross) -> int:
    """amp[A k ^ offset] <- i**q(k) * amp[k] for every index k, A having the
    columns cols and q being as in ``numpy_scatter``: that scatter of a
    copy of the whole state.  A must be invertible and cross as there;
    raises ValueError otherwise.  Returns the passes made, 1."""
    _check_permute(amp, cols, diag, cross)
    numpy_scatter(amp, amp.copy(), cols, offset, diag, cross)
    return 1


# bytes per amplitude of the whole-array temporaries that one kernel call
# of the tier in use holds at its peak: none in the C loops; on the numpy
# tier numpy_clifford's, the largest (index, sign and gathered, scaled and
# summed amplitude arrays), as tracemalloc reads it at 18 qubits, where
# numpy_permute holds 57 (a copy of the state, index, phase and moved
# amplitude arrays), numpy_apply_u2 36 and numpy_pair_exchange 17 (see
# bench.memory_need)
TEMPORARY_BYTES = 0 if _lib is not None else 72

if _lib is not None:
    clifford, apply_u2, pair_exchange = _c_clifford, _c_apply_u2, _c_pair_exchange
    permute, scatter = _c_permute, _c_scatter
    run_gates, baseline_gates, register_map = _c_run_gates, _c_baseline_gates, _c_register_map
    flush = _c_flush
else:
    clifford, apply_u2, pair_exchange = numpy_clifford, numpy_apply_u2, numpy_pair_exchange
    permute, scatter = numpy_permute, numpy_scatter
    run_gates = baseline_gates = register_map = flush = None
