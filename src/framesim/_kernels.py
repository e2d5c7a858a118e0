"""The in-place amplitude kernels of ``StateVector``, and the choice of their tier.

Five amplitude loops carry every state update:

- ``clifford`` computes ``a[k] <- c*(d*a[k] + i**e(k) * (-1)**parity(k & z)
  * a[k ^ x])`` with ``e(k) = e0 + popcount(k & m)``: every update whose
  coefficients are powers of i times 1 or 1/sqrt(2).  That is Pauli
  application (and with it the expectation and the prepare repair), the
  flush's quarter and half turns, a run of the flush's single-qubit turns
  without a Hadamard part in one pass (the phase mask m), and the
  baseline's X and Y.
- ``rotation_pairs`` and ``rotation_diag`` compute ``a <- c*a + u*P*a`` for
  a multi-qubit Pauli P and any complex u: rotations by arbitrary angles
  and the measurement collapse.  ``rotation_pairs`` serves an operator P
  that flips bits and ``rotation_diag`` a diagonal one.
- ``apply_h`` applies the Hadamard gate to one qubit: the baseline's H.
- ``pair_exchange`` swaps ``a[k]`` with ``a[k ^ x]`` for every k whose bits
  under ``mask`` equal ``val``, or multiplies ``a[k]`` by ``i**e`` when x is
  0: the baseline's CX and SWAP and the flush's qubit relabelings, and the
  baseline's Z, S, SDG and CZ, which touch only the amplitudes whose
  qubits are set.

The C loops in ``_kernels.c`` make one pass over the amplitudes they touch
(one read and one write each) and allocate nothing.  The Clifford and
rotation loops walk the state in cache-sized tiles, so that their cost
depends neither on the number of qubits nor on how many qubits the operator
touches; the gate loops walk contiguous runs in address order, a cache line
at a time where the runs are shorter.  The Clifford loop applies a power of
i as an element swap and a sign pattern, with no complex multiply: on a
2-core Xeon at n = 20 it runs at 1.0-1.3 ns per amplitude (1.0-1.6 with
a phase mask, which picks the element order per amplitude), against
1.9-2.3 for ``rotation_pairs`` and 0.7-0.85 for an in-place streaming
pass.  The ``numpy_*`` functions compute the same things
by filtering index arrays, with whole-array temporaries, several times
slower per amplitude; they are the reference the tests compare the C loops
against.

On first import the C source is compiled with the system C compiler (``gcc``,
else ``cc``) into ``$XDG_CACHE_HOME/framesim`` (default ``~/.cache/framesim``),
under a name keyed by a hash of the source and the compiler flags, and then
loaded with ``ctypes``; later imports load the cached library without
compiling.  When the library loads, the five names are the C loops and
``JIT_ENABLED`` is True.  When it cannot be built or loaded (no compiler, a
build error, a cache directory that cannot be written) one
``RuntimeWarning`` names the reason and the five names are bound to the
numpy functions instead.  The choice is made once, here, from what the
import observes.
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
_SQ2 = 0.7071067811865476  # 1/sqrt(2), as in the C loop
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


def _build() -> Path:
    """Return the path of the compiled library, compiling it if not cached."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"kernel source missing: {exc}") from None
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_kernels-{key}.so"
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
        done = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
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
    lib.framesim_rotation_pairs.argtypes = [ptr, i64, u64, u64, ctypes.c_int, f64,
                                            f64, f64, f64, f64]
    lib.framesim_rotation_pairs.restype = None
    lib.framesim_rotation_diag.argtypes = [ptr, i64, u64, f64, f64, f64, f64]
    lib.framesim_rotation_diag.restype = None
    lib.framesim_clifford.argtypes = [ptr, i64, u64, u64, f64, f64, ctypes.c_int, u64]
    lib.framesim_clifford.restype = None
    lib.framesim_apply_h.argtypes = [ptr, i64, ctypes.c_int]
    lib.framesim_apply_h.restype = None
    lib.framesim_pair_exchange.argtypes = [ptr, i64, u64, u64, u64, ctypes.c_int]
    lib.framesim_pair_exchange.restype = None
    return lib


try:
    _lib = _load()
except _Unavailable as exc:
    _lib = None
    warnings.warn(f"framesim: compiled kernels unavailable, using the slower "
                  f"numpy path ({exc})", RuntimeWarning, stacklevel=2)

JIT_ENABLED = _lib is not None


def kernel_tier() -> str:
    """Name of the amplitude-kernel tier in use: ``compiled-c`` or ``numpy``."""
    return "compiled-c" if JIT_ENABLED else "numpy"


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


def _c_rotation_pairs(amp, x, z, pivot, c, u0, u1):
    """``numpy_rotation_pairs`` in one tiled pass of the C loop."""
    addr = _address(amp, x, z)
    if not (x >> pivot) & 1:
        raise ValueError(f"pivot {pivot} is not a set bit of x")
    _lib.framesim_rotation_pairs(addr, amp.shape[0], x, z, pivot, c,
                                 u0.real, u0.imag, u1.real, u1.imag)


def _c_rotation_diag(amp, z, f_even, f_odd):
    """``numpy_rotation_diag`` in one tiled pass of the C loop."""
    addr = _address(amp, z)
    _lib.framesim_rotation_diag(addr, amp.shape[0], z, f_even.real, f_even.imag,
                                f_odd.real, f_odd.imag)


def _c_clifford(amp, x, z, c, d, e0, m):
    """``numpy_clifford`` in one tiled pass of the C loop."""
    addr = _address(amp, x, z, m)
    _lib.framesim_clifford(addr, amp.shape[0], x, z, c, d, e0 & 3, m)


def _c_apply_h(amp, q):
    """``numpy_apply_h`` in one pass of the C loop."""
    addr = _address(amp, 1 << q)
    _lib.framesim_apply_h(addr, amp.shape[0], q)


def _c_pair_exchange(amp, mask, val, x, e):
    """``numpy_pair_exchange`` in one pass of the C loop."""
    addr = _address(amp, mask)
    _check_exchange(mask, val, x)
    _lib.framesim_pair_exchange(addr, amp.shape[0], mask, val, x, e & 3)


def numpy_rotation_pairs(amp, x, z, pivot, c, u0, u1):
    """amp[k0] <- c*a0 + u0*sg*a1; amp[k1] <- c*a1 + u1*sg*a0.

    This is c*a + u*P*a for a P whose x bits are x and whose z bits are z,
    with u0 and u1 carrying u and the phase of P (see
    ``statevector._combine``); c is real.
    k0 runs over indices with the pivot bit clear (one per pair),
    k1 = k0 ^ x is its partner and sg = (-1)**parity(k0 & z).  The pivot
    must be a set bit of x, so exactly one member of every pair has it
    clear: inserting a zero bit at the pivot position into 0 .. len/2 - 1
    lists each pair once.
    """
    if not (x >> pivot) & 1:
        raise ValueError(f"pivot {pivot} is not a set bit of x")
    low = np.arange(amp.shape[0] >> 1, dtype=np.int64)
    k0 = ((low >> pivot) << (pivot + 1)) | (low & np.int64((1 << pivot) - 1))
    k1 = k0 ^ np.int64(x)
    sg = 1.0 - 2.0 * (np.bitwise_count(k0 & np.int64(z)) & 1)
    a0 = amp[k0]
    a1 = amp[k1]
    amp[k0] = c * a0 + u0 * (sg * a1)
    amp[k1] = c * a1 + u1 * (sg * a0)


def numpy_rotation_diag(amp, z, f_even, f_odd):
    """amp[k] *= f_even or f_odd depending on parity(k & z).

    This is c*a + u*P*a for a diagonal P with z bits z, through
    f_even = c + w and f_odd = c - w, where w is u times the phase of P.
    """
    k = np.arange(amp.shape[0], dtype=np.int64)
    odd = (np.bitwise_count(k & np.int64(z)) & 1).astype(bool)
    amp *= np.where(odd, f_odd, f_even)


def numpy_clifford(amp, x, z, c, d, e0, m):
    """amp[k] <- c*(d*amp[k] + i**e(k) * (-1)**parity(k & z) * amp[k ^ x]).

    e(k) = e0 + popcount(k & m).  With m = 0 this is c*(d + i**e0 * P) for a
    Pauli P with x bits x and z bits z (up to P's own phase, see
    ``statevector._pauli_turn``).  With c = 1 and d = 0 it is any product of
    single-qubit Cliffords without a Hadamard part, up to an eighth root of
    unity: i**(popcount(k & m) + 2*parity(k & z)) is i raised to any
    function of k that is linear mod 4 in its bits.  c is real and d is 0
    or 1.
    """
    if not 0 <= max(x, z, m) < amp.shape[0]:
        raise ValueError("bit mask out of range for the amplitude array")
    k = np.arange(amp.shape[0], dtype=np.int64)
    e = (e0 + np.bitwise_count(k & np.int64(m))) & 3
    sg = 1.0 - 2.0 * (np.bitwise_count(k & np.int64(z)) & 1)
    amp[:] = c * (d * amp + _I_POW[e] * sg * amp[k ^ np.int64(x)])


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


if _lib is not None:
    rotation_pairs, rotation_diag = _c_rotation_pairs, _c_rotation_diag
    clifford, apply_h, pair_exchange = _c_clifford, _c_apply_h, _c_pair_exchange
else:
    rotation_pairs, rotation_diag = numpy_rotation_pairs, numpy_rotation_diag
    clifford, apply_h, pair_exchange = numpy_clifford, numpy_apply_h, numpy_pair_exchange
