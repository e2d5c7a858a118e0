"""Building, caching and loading the compiled amplitude kernels.

Each test imports framesim in a fresh interpreter with its own cache
directory and PATH, so the build step runs as it would on first import.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HAVE_CC = shutil.which("gcc") is not None or shutil.which("cc") is not None
PROBE = "import framesim._kernels as k; print(k.kernel_tier())"
# the fallback tier must also compute: one paired and one diagonal rotation
# against the dense closed form, each gate with a loop of its own (S on the
# pair exchange, Y on the Clifford loop) against its dense matrix, one
# run of single-qubit turns without a Hadamard part (phases, bit flips and
# an odd eighth root) in the flush's remainder pass against its dense
# rotations, one flush against its steps as dense rotations and swaps, on
# a state of several tiles, both up to a power of exp(i*pi/4) for the
# whole state, and the hybrid's Python gate loop, with a
# MEASZ and a PREPZ, against the baseline
ROTATE_PROBE = PROBE + """
import numpy as np
from framesim import HybridState, PauliFrame, PauliString, StateVector
from framesim.frame import invert_to_rotations
from oracles import gate_unitary, random_clifford_circuit, rotation_matrix, up_to_omega
rng = np.random.default_rng(0)
for label in ("XZYIY", "ZIZZI"):
    p = PauliString.from_label(label)
    amp = rng.normal(size=32) + 1j * rng.normal(size=32)
    s = StateVector(5, amp)
    s.apply_pauli_rotation(p, 0.9)
    if np.max(np.abs(s.amplitudes - rotation_matrix(p, 0.9) @ amp)) > 1e-12:
        raise SystemExit(f"numpy tier disagrees with the dense oracle on {label}")
for tag, qubits in (("H", (3,)), ("CX", (4, 1)), ("CZ", (0, 2)), ("SWAP", (1, 3)),
                    ("S", (2,)), ("Y", (4,))):
    amp = rng.normal(size=32) + 1j * rng.normal(size=32)
    s = StateVector(5, amp)
    s.apply_gate(tag, qubits)
    if np.max(np.abs(s.amplitudes - gate_unitary(tag, qubits, 5) @ amp)) > 1e-12:
        raise SystemExit(f"numpy tier disagrees with the dense oracle on {tag}")
from framesim.frame import RotationStep, split_clifford
run = [RotationStep.rotation(PauliString.from_label(label), turns * np.pi / 2)
       for label, turns in (("IIZII", 1), ("XIIII", 2), ("-IIIIZ", 2), ("IYIII", 2))]
amp = rng.normal(size=32) + 1j * rng.normal(size=32)
ref = amp.copy()
for step in run:
    ref = rotation_matrix(step.axis, step.angle) @ ref
frame = PauliFrame.origin(5)
for step in reversed(run):
    frame.conjugate_rotation(step.axis, step.angle if step.quarter_turns == 2 else -step.angle)
turns, rest = split_clifford(frame)
s = StateVector(5, amp)
s.apply_hadamard_free(rest)
if turns or np.max(np.abs(s.amplitudes - up_to_omega(s.amplitudes, ref))) > 1e-12:
    raise SystemExit("numpy tier disagrees with the dense oracle on a remainder pass")
n = 10
frame = PauliFrame.origin(n)
for g in random_clifford_circuit(rng, n, 200).gates:
    frame.apply_gate(g.tag, g.qubits)
amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
ref = amp.copy()
for step in invert_to_rotations(frame):
    if step.kind == "pauli_rotation":
        ref = rotation_matrix(step.axis, step.angle) @ ref
    else:
        ref = gate_unitary("SWAP", step.qubits, n) @ ref
hs = HybridState(frame, StateVector(n, amp))
hs.flush_to_origin()
if (np.max(np.abs(hs.phi.amplitudes - up_to_omega(hs.phi.amplitudes, ref))) > 1e-12
        or not hs.flush_passes[0]["shears"]):
    raise SystemExit("numpy tier disagrees with the dense oracle on the flush")
from framesim import Circuit, _kernels, run_baseline, run_hybrid
if _kernels.run_gates is not None:
    raise SystemExit("numpy tier bound the compiled gate loop")
circ = Circuit(5)
for tag, qubits, angle in (("H", (0,), None), ("CX", (0, 4), None), ("RY", (4,), 0.8),
                           ("S", (2,), None), ("MEASZ", (4,), None), ("H", (4,), None),
                           ("PREPZ", (0,), None), ("RX", (0,), -1.3), ("MEASZ", (0,), None)):
    circ.append(tag, *qubits, angle=angle)
state, rb = run_baseline(circ, 3)
hs, rh = run_hybrid(circ, 3)
hs.flush_to_origin()
if rb.measurements != rh.measurements or np.max(np.abs(
        state.probabilities() - hs.phi.probabilities())) > 1e-12:
    raise SystemExit("numpy tier's hybrid gate loop disagrees with the baseline")
"""


def import_kernels(cache: Path, path: str, src: Path = SRC, probe: str = PROBE):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path,
               PYTHONPATH=f"{src}{os.pathsep}{TESTS}")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip(), done.stderr


def test_missing_compiler_warns_and_falls_back(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    tier, err = import_kernels(tmp_path / "cache", str(empty), probe=ROTATE_PROBE)
    assert tier == "numpy"
    assert err.count("RuntimeWarning") == 1
    assert "no C compiler" in err


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (gcc or cc) on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # the same compiler and flags as the build, with every common warning
    # and every departure from ISO C turned into an error
    from framesim import _kernels
    cc = _kernels._compiler()
    done = subprocess.run([cc, *_kernels._CFLAGS, "-Wall", "-Wextra", "-Wpedantic",
                           "-Werror", "-o", str(tmp_path / "kernels.so"),
                           str(_kernels._SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def libasan() -> str | None:
    """Path of gcc's AddressSanitizer runtime, or None without gcc or it."""
    if shutil.which("gcc") is None:
        return None
    done = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=60)
    path = done.stdout.strip()
    return path if done.returncode == 0 and os.path.isabs(path) and os.path.exists(path) \
        else None


# the compiled loops at every size the hybrid's register takes: the Clifford
# loop on states of exactly 2 to 2**10 amplitudes on each clone, a
# circuit at n = 10 that activates the register one qubit at a time
# (prefixes of 2 to 2**10 amplitudes) around a MEASZ and a PREPZ, and
# its flush, with the affine and shear passes; the shear pass on groups of
# 1, 2 and 4 tiles with a lower shear; the scatter of a register of 1 and
# of n - 1 qubits onto the last amplitude, and a flush whose rest runs on
# a register of 7 of 10 qubits and is scattered into place
SANITIZED_PROBE = """
import numpy as np
from framesim import Circuit, _kernels, run_hybrid
if _kernels.kernel_tier() != "compiled-c":
    raise SystemExit("the sanitized library did not load")
rng = np.random.default_rng(0)
for clone in _kernels._CLONES:
    _kernels._use_clone(clone)
    for m in range(1, 11):
        amp = np.zeros(1 << m, dtype=complex)
        if amp.ctypes.data % 16:
            raise SystemExit("numpy returned a state below 16-byte alignment")
        for x in {0, 1, (1 << m) - 1, 1 << (m - 1)}:
            _kernels.clifford(amp, x, int(rng.integers(1 << m)), 0.6, 0.8, 3)
n = 10
circ = Circuit(n)
for q in range(n):
    circ.append("CX", q, (q + 3) % n)
    circ.append(("RX", "RY")[q % 2], q, angle=0.3 + q)
    if q == 4:
        circ.append("MEASZ", 2)
        circ.append("PREPZ", 8)
hs, _ = run_hybrid(circ, 1)
if hs.active != n:
    raise SystemExit(f"the register holds {hs.active} qubits, not {n}")
hs.flush_to_origin()
if abs(np.linalg.norm(hs.phi.amplitudes) - 1.0) > 1e-12:
    raise SystemExit("the flushed state lost its norm")
for up in ([0] * 8, [0, 1 << 8] + [1 << 9] * 6, [1 << 8, 1 << 9, 1 << 10] + [0] * 5):
    amp = rng.normal(size=1 << 11) + 1j * rng.normal(size=1 << 11)
    _kernels.shear(amp, up, [3, 1 << 6, 0])
for cols, offset, last in (([(1 << n) - 1], 0, 1),
                           ([1 << (i + 1) for i in range(n - 1)], 1, (1 << (n - 1)) - 1)):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    moved = amp[last]
    _kernels.embed(amp, cols, offset)
    if amp[-1] != moved:
        raise SystemExit(f"the scatter of {len(cols)} qubits missed the last amplitude")
circ = Circuit(n)
for q in range(7):
    circ.append("RY", q, angle=0.4 + q)
for q in range(n):
    circ.append("CX", q, (q + 3) % n)
    circ.append("CZ", q, (q + 6) % n)
hs, _ = run_hybrid(circ, 1)
hs.flush_to_origin()
if hs.flush_passes[0]["register"] != 7 or hs.flush_passes[0]["embed"] != 1:
    raise SystemExit(f"the flush did not scatter a register of 7: {hs.flush_passes}")
if abs(np.linalg.norm(hs.phi.amplitudes) - 1.0) > 1e-12:
    raise SystemExit("the scattered state lost its norm")
"""
# a write past the end of a 4-amplitude state, which the sanitizer must stop
OVERRUN_PROBE = """
import numpy as np
from framesim import _kernels
amp = np.zeros(4, dtype=complex)
_kernels._lib.framesim_pair_exchange(amp.ctypes.data, 8, 0, 0, 0, 2)
"""


@pytest.mark.skipif(libasan() is None, reason="gcc or its libasan missing")
def test_kernels_run_clean_under_address_and_undefined_behaviour_sanitizers(
        tmp_path, monkeypatch):
    # build the library with the sanitizers into the cache an import reads,
    # under the name the build would give it, and run the probe on it
    from framesim import _kernels
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    lib = _kernels._library(_kernels._SOURCE.read_bytes())
    lib.parent.mkdir(parents=True)
    done = subprocess.run(["gcc", *_kernels._CFLAGS, "-fsanitize=address,undefined",
                           "-fno-sanitize-recover=all", "-o", str(lib),
                           str(_kernels._SOURCE), *_kernels._LIBS],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), LD_PRELOAD=libasan(),
               ASAN_OPTIONS="detect_leaks=0", PYTHONPATH=f"{SRC}{os.pathsep}{TESTS}")
    runs = {name: subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, timeout=300)
            for name, probe in (("probe", SANITIZED_PROBE), ("overrun", OVERRUN_PROBE))}
    assert runs["probe"].returncode == 0, runs["probe"].stderr[-4000:]
    assert "runtime error" not in runs["probe"].stderr, runs["probe"].stderr[-4000:]
    # the sanitizer is live: the same setup stops a deliberate overrun
    assert runs["overrun"].returncode != 0
    assert "heap-buffer-overflow" in runs["overrun"].stderr


def test_build_error_warns_with_compiler_output(tmp_path):
    fake = tmp_path / "bin"
    fake.mkdir()
    gcc = fake / "gcc"
    gcc.write_text("#!/bin/sh\necho 'fake compiler refuses' >&2\nexit 1\n")
    gcc.chmod(0o755)
    tier, err = import_kernels(tmp_path / "cache", str(fake))
    assert tier == "numpy"
    assert err.count("RuntimeWarning") == 1
    assert "failed to build" in err and "fake compiler refuses" in err
    assert not list((tmp_path / "cache" / "framesim").iterdir())  # no partial library


def test_missing_source_warns_and_falls_back(tmp_path):
    shutil.copytree(SRC / "framesim", tmp_path / "src" / "framesim",
                    ignore=shutil.ignore_patterns("*.c", "__pycache__"))
    tier, err = import_kernels(tmp_path / "cache", os.environ["PATH"], tmp_path / "src")
    assert tier == "numpy"
    assert err.count("RuntimeWarning") == 1
    assert "kernel source missing" in err


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (gcc or cc) on PATH")
def test_unwritable_cache_warns_and_falls_back(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    tier, err = import_kernels(blocker, os.environ["PATH"])
    assert tier == "numpy"
    assert err.count("RuntimeWarning") == 1
    assert "not writable" in err


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (gcc or cc) on PATH")
def test_second_import_loads_the_cache_without_compiling(tmp_path):
    cache = tmp_path / "cache"
    tier, err = import_kernels(cache, os.environ["PATH"])
    assert (tier, err) == ("compiled-c", "")
    built = sorted((cache / "framesim").iterdir())
    assert [p.suffix for p in built] == [".so"]
    empty = tmp_path / "bin"
    empty.mkdir()
    tier, err = import_kernels(cache, str(empty))  # no compiler reachable now
    assert (tier, err) == ("compiled-c", "")
    assert sorted((cache / "framesim").iterdir()) == built


def cpu_flags() -> set[str]:
    """The CPU feature flags the operating system lists in /proc/cpuinfo;
    empty where it has no such file."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (gcc or cc) on PATH")
def test_an_avx2_host_runs_the_avx2_clone(tmp_path):
    # the library picks its clone from what the CPU reports; a host whose
    # operating system lists AVX2 and FMA must not end up on the generic one
    probe = "import framesim._kernels as k; print(k.simd_clone())"
    clone, err = import_kernels(tmp_path / "cache", os.environ["PATH"], probe=probe)
    assert err == ""
    if {"avx2", "fma"} <= cpu_flags():
        assert clone == "avx2"
    else:
        assert clone == "generic"
