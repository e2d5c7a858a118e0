"""Building, caching and loading the compiled amplitude kernels.

Each test imports framesim in a fresh interpreter with its own cache
directory and PATH, so the build step runs as it would on first import.
"""
import os
import re
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
# a state of several tiles, whose rest is one gather of the whole state,
# both up to a power of exp(i*pi/4) for the whole state, the scatter of
# that flush's rest from registers of 1 and n - 1 qubits against that
# gather, a 17-qubit state, which takes a mapping of its own (traced, and
# zero but for |0>), and a flush on its top five qubits against the dense
# oracle, and the hybrid's Python gate loop, with a MEASZ and a PREPZ,
# against the baseline
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
        or (hs.flush_passes[0]["affine"], hs.flush_passes[0]["shears"]) != (1, 0)):
    raise SystemExit("numpy tier disagrees with the dense oracle on the flush")
turns, rest = split_clifford(frame)
for d in (1, n - 1):
    amp = np.zeros(1 << n, dtype=complex)
    amp[:1 << d] = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
    s, ref = StateVector(n, amp), StateVector(n, amp)
    if s.apply_hadamard_free(rest, d) != (0, 0, 1):
        raise SystemExit(f"numpy tier made no scatter of a register of {d}")
    ref.apply_hadamard_free(rest)
    if not np.array_equal(s.amplitudes, ref.amplitudes):
        raise SystemExit(f"numpy tier's scatter of {d} qubits disagrees with its gather")
import mmap, tracemalloc
n, top = 17, 12
tracemalloc.start()
s = StateVector.zero(n)
if (tracemalloc.get_traced_memory()[0] < 16 << n
        or not isinstance(s.amplitudes.base.obj, mmap.mmap)
        or s.amplitudes[0] != 1 or np.any(s.amplitudes[1:])):
    raise SystemExit("numpy tier's 17-qubit state is not a traced mapping of |0>")
tracemalloc.stop()
frame, small = PauliFrame.origin(n), PauliFrame.origin(5)
for g in random_clifford_circuit(rng, 5, 60).gates:
    small.apply_gate(g.tag, g.qubits)
    frame.apply_gate(g.tag, tuple(top + q for q in g.qubits))
psi = rng.normal(size=32) + 1j * rng.normal(size=32)
s.amplitudes[0] = 0
s.amplitudes[::1 << top] = psi
ref = psi
for step in invert_to_rotations(small):
    if step.kind == "pauli_rotation":
        ref = rotation_matrix(step.axis, step.angle) @ ref
    else:
        ref = gate_unitary("SWAP", step.qubits, 5) @ ref
hs = HybridState(frame, s)
hs.flush_to_origin()
out = hs.phi.amplitudes[::1 << top]
if (np.max(np.abs(out - up_to_omega(out, ref))) > 1e-12
        or np.count_nonzero(hs.phi.amplitudes) > 32):
    raise SystemExit("numpy tier disagrees with the dense oracle on a 17-qubit flush")
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


def test_every_exported_c_function_has_its_signature_declared():
    # ctypes passes an argument it has no type for as a C int, which cuts a
    # pointer or a 64-bit mask to 32 bits, and reads an undeclared result
    # as one; so every non-static framesim_* function of the source gets
    # argtypes and restype in _kernels._load, which declares no other
    source = (SRC / "framesim" / "_kernels.c").read_text()
    defined = set(re.findall(r"^(?!static\b)\w[\w ]*\b(framesim_\w+)\(", source, re.M))
    loader = (SRC / "framesim" / "_kernels.py").read_text()
    assert {"framesim_clifford", "framesim_run_gates", "framesim_flush"} <= defined
    for attr in ("argtypes", "restype"):
        declared = set(re.findall(rf"\blib\.(framesim_\w+)\.{attr} = ", loader))
        assert declared == defined, attr


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
# loop, and the 2x2 loop on every qubit, on states of exactly 2 to 2**10
# amplitudes on each clone, a
# circuit at n = 10 that activates the register one qubit at a time
# (prefixes of 2 to 2**10 amplitudes) around a MEASZ and a PREPZ, and
# its flush, with the permutation's affine and shear passes; the
# permutation of matrices A = L U whose shear pass moves groups of 1, 2
# and 4 tiles with a lower shear, and of one whose position block is
# singular, against numpy's; the phased scatter of a register of
# 1 and of n - 1 qubits, reaching the last amplitude, against numpy's, and
# a flush whose rest runs on a register of 7 of 10 qubits and is scattered
# into place; the turn count and form of the flush of a 10-qubit frame,
# whose masks reach bit 9, against split_clifford's after the index map, a
# flush whose 10 quarter turns activate the register from 0 qubits up to
# all 10, and flushes at the origin frame with an index map A != I, of a
# register of 6 and of 10 qubits, against P_A; and above the L2 cache the
# hybrid's blocked runs of rotations and turns, and the baseline's of every
# gate kind, fused 2x2 passes included, against its Python loop, on each
# clone; and on each clone a CX and a CZ absorbed into the 2x2 pass of an
# H, with every control and target of states of 2 to 10 qubits, and in
# blocked runs with the control at bit 0, in a tile and above it, and
# blocked runs that end before their tiles fill half the L2's ways
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
        for q in range(m):
            _kernels.apply_u2(amp, q, np.array([[0.6, 0.8j], [0.8j, 0.6]]))
        for t in range(m):
            for c in range(m):
                for tag in ("CX", "CZ") if c != t else ():
                    circ = Circuit(m)
                    circ.append("H", t)
                    circ.append(tag, c, t)
                    counts = _kernels.pass_counts()
                    _kernels.baseline_gates(amp, *circ.lowered(), 0, counts)
                    if counts[4] != 1:
                        raise SystemExit(f"{tag}({c}, {t}) was not absorbed: {counts}")
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
# B's columns up, W = span(B e0, B e1) of dimension 0, 1 and 2, and the
# lower shear that the split recovers with them (see lower_shear in
# test_kernel_properties); then bit 0 swapped with bit 10
unit = [1 << c for c in range(11)]
for up, down in (([0, 0, 1 << 9] + [0] * 4 + [1 << 8], [1 << 7, 0, 0]),
                 ([0, 1 << 8] + [1 << 9] * 6, [0, 1 << 7, 0]),
                 ([1 << 8, 1 << 9, 1 << 10] + [0] * 4 + [1 << 10], [0, 0, 1 << 7]),
                 (None, None)):
    cols = unit[10:] + unit[1:10] + unit[:1]
    if up is not None:
        cols = []
        for k in unit:
            for i in range(8):
                k ^= up[i] if k >> i & 1 else 0
            for j in range(3):
                k ^= down[j] if k >> (8 + j) & 1 else 0
            cols.append(k)
    amp = rng.normal(size=1 << 11) + 1j * rng.normal(size=1 << 11)
    ref = amp.copy()
    _kernels.numpy_permute(ref, cols, 3, [0] * 11, [0] * 11)
    if _kernels.permute(amp, cols, 3, [0] * 11, [0] * 11) != 2 or not np.array_equal(amp, ref):
        raise SystemExit(f"the permutation of {cols} disagrees with numpy's")
for cols, offset, diag, cross in (([(1 << n) - 1], 0, [1], [0]),
                                  ([1 << (i + 1) for i in range(n - 1)], 1, [3] * (n - 1),
                                   [2, 1] + [0] * (n - 3))):
    d = len(cols)
    amp = np.zeros(1 << n, dtype=complex)
    amp[:1 << d] = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
    ref = amp.copy()
    _kernels.numpy_scatter(ref, amp[:1 << d].copy(), cols, offset, diag, cross)
    _kernels.scatter(amp, amp[:1 << d].copy(), cols, offset, diag, cross)
    if not np.array_equal(amp, ref) or amp[-1] == 0:
        raise SystemExit(f"the scatter of {d} qubits disagrees with numpy's")
circ = Circuit(n)
for q in range(7):
    circ.append("RY", q, angle=0.4 + q)
for q in range(n):
    circ.append("CX", q, (q + 3) % n)
    circ.append("CZ", q, (q + 6) % n)
hs, _ = run_hybrid(circ, 1)
hs.flush_to_origin()
if hs.flush_passes[0]["register"] != 7 or hs.flush_passes[0]["scatter"] != 1:
    raise SystemExit(f"the flush did not scatter a register of 7: {hs.flush_passes}")
if abs(np.linalg.norm(hs.phi.amplitudes) - 1.0) > 1e-12:
    raise SystemExit("the scattered state lost its norm")
from framesim import HybridState, PauliFrame, StateVector
from framesim.frame import split_clifford
frame = PauliFrame.origin(n)
for q in range(n):
    frame.apply_gate("H", (q,))
    frame.apply_gate("CX", (q, (q + 1) % n))
    frame.apply_gate("S", ((7 * q) % n,))
turns, rest = split_clifford(frame)
amp = np.zeros(1 << n, dtype=complex)
amp[0] = 1.0
index_map = np.array([(3 << q) & ((1 << n) - 1) for q in range(n)], dtype=np.uint64)
h, _, fields, _ = _kernels.flush(amp, frame.xs, frame.zs, frame.ps, index_map, 0)
if h != len(turns) or fields != tuple(rest.after(index_map.tolist())):
    raise SystemExit(f"the flush's form of a {n}-qubit frame disagrees with split_clifford")
frame = PauliFrame.origin(n)
for q in range(n):
    frame.apply_gate("H", (q,))
    frame.apply_gate("CZ", (q, (q + 4) % n))
hs = HybridState(frame, StateVector.zero(n), active=0)
hs.flush_to_origin()
if (hs.flush_passes[0]["quarter_turns"], hs.flush_passes[0]["register"]) != (n, n):
    raise SystemExit(f"the flush's turns did not activate all {n} qubits: {hs.flush_passes}")
if abs(np.linalg.norm(hs.phi.amplitudes) - 1.0) > 1e-12:
    raise SystemExit("the flushed register lost its norm")
from framesim.frame import HadamardFree
rows = [(3 << q) & ((1 << n) - 1) for q in range(n)]
for d in (6, n):
    amp = np.zeros(1 << n, dtype=complex)
    amp[:1 << d] = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
    expected = StateVector(n, amp.copy())
    expected.apply_hadamard_free(HadamardFree(tuple(rows), 0, (0,) * n, (0,) * n), d)
    hs = HybridState(PauliFrame.origin(n), StateVector(n, amp),
                     index_map=np.array(rows, dtype=np.uint64), active=d)
    hs.flush_to_origin()
    if hs.flush_passes[0]["quarter_turns"] or not np.array_equal(hs.phi.amplitudes,
                                                                 expected.amplitudes):
        raise SystemExit(f"the flush at the origin of a register of {d} is not P_A")
# a register above the L2 cache, where the gate loop and the flush's turns
# walk blocked runs of rotations on both clones
from framesim import random_hamiltonian, trotterize
l2 = _kernels.l2_bytes()
n = (l2 // 16).bit_length()
if l2 and n <= 22:
    circ = trotterize(random_hamiltonian(n, n, n + 8, seed=3))
    frame = PauliFrame.origin(n)
    for q in range(n):
        frame.apply_gate("H", (q,))
        frame.apply_gate("CZ", (q, (q + 5) % n))
    for clone in _kernels._CLONES:
        _kernels._use_clone(clone)
        hs, _ = run_hybrid(circ, 1)
        flushed = HybridState(frame.copy(), StateVector(n, hs.phi.amplitudes.copy()))
        flushed.flush_to_origin()
        if not (hs.passes["rotation_blocked_runs"] and flushed.passes["turn_blocked_runs"]):
            raise SystemExit(f"no run was blocked on {n} qubits: {hs.passes}, {flushed.passes}")
        if abs(np.linalg.norm(flushed.phi.amplitudes) - 1.0) > 1e-12:
            raise SystemExit("the blocked runs lost the norm")
    # the baseline's blocked runs of every gate kind, against its Python loop
    from framesim import run_baseline
    base = Circuit(n)
    for q in range(n):
        base.append("H", q)
        base.append("RY", q, angle=0.2 + q)
    base.append("MEASZ", 0)
    for tag, *qubits in (("SWAP", 10, 9), ("H", 9), ("CX", 12, 8), ("CZ", 9, n - 1),
                         ("S", 13), ("SDG", 2), ("Z", 11), ("X", 14), ("Y", 1), ("PREPZ", 3),
                         ("CX", 0, n - 1), ("SWAP", 1, 15)):
        base.append(tag, *qubits)
    base.extend(circ)
    for clone in _kernels._CLONES:
        _kernels._use_clone(clone)
        state, report = run_baseline(base, 1)
        compiled = _kernels.baseline_gates
        _kernels.baseline_gates = None
        ref, ref_report = run_baseline(base, 1)
        _kernels.baseline_gates = compiled
        # the H, RY pairs of the first layer fuse into 2x2 passes
        if not (report.passes["gate_blocked_runs"] and report.passes["gate_fused"]):
            raise SystemExit(f"the baseline blocked or fused nothing on {n} qubits: "
                             f"{report.passes}")
        if (report.measurements != ref_report.measurements
                or np.max(np.abs(state.amplitudes - ref.amplitudes)) > 1e-12):
            raise SystemExit("the baseline's blocked runs differ from its Python loop")
        # absorbed gates inside blocked runs, between a SWAP and a CZ
        for c, t in ((0, 5), (1, 0), (3, 6), (6, 3), (9, 2), (0, 12), (4, 12), (n - 1, 8)):
            for tag in ("CX", "CZ"):
                a, b = sorted({7, 10, 11} - {c, t})[:2]
                circ = Circuit(n)
                for g in (("SWAP", a, b), ("H", t), (tag, c, t), ("CZ", a, b)):
                    circ.append(*g)
                counts = _kernels.pass_counts()
                _kernels.baseline_gates(state.amplitudes, *circ.lowered(), 0, counts)
                if counts[2] != 1 or counts[4] != 1:
                    raise SystemExit(f"{tag}({c}, {t}) was not absorbed in a run: {counts}")
    # runs that end before their tiles fill half the ways of one set: lone
    # passes on every qubit whose tile bits pick no set, two that do among them
    ways = _kernels.l2_ways()
    w = max((l2 // ways // 4096).bit_length() - 1, 0) if ways else n
    high = list(range(8 + w, n))
    if len(high) > max((ways // 2).bit_length() - 1, 0):
        split = Circuit(n)
        for q in high[:2] + [q for q in (8, 9) if q < 8 + w] + high[2:]:
            split.append("RX", q, angle=0.3 + q)
        for clone in _kernels._CLONES:
            _kernels._use_clone(clone)
            state, report = run_baseline(split, 1)
            compiled = _kernels.baseline_gates
            _kernels.baseline_gates = None
            ref, _ = run_baseline(split, 1)
            _kernels.baseline_gates = compiled
            if report.passes["gate_passes"] < 2 or not np.array_equal(state.amplitudes,
                                                                      ref.amplitudes):
                raise SystemExit(f"the split runs differ from the Python loop: {report.passes}")
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


@pytest.mark.skipif(shutil.which("getconf") is None, reason="no getconf on PATH")
def test_the_l2_size_is_what_the_system_reports():
    # the library reads the L2 size that blocks its runs of rotations from
    # the system, as getconf does, and reads 0 where the system gives none
    from framesim import _kernels
    if _kernels.kernel_tier() != "compiled-c":
        pytest.skip("the compiled kernels did not load")
    done = subprocess.run(["getconf", "LEVEL2_CACHE_SIZE"], capture_output=True, text=True)
    reported = done.stdout.strip() if done.returncode == 0 else ""
    assert _kernels.l2_bytes() == max(int(reported or 0), 0)


@pytest.mark.skipif(shutil.which("getconf") is None, reason="no getconf on PATH")
def test_the_l2_ways_are_what_the_system_reports():
    # the library reads the L2 ways that bound how many tiles of a blocked
    # run share their cache sets from the system, as getconf does, and reads
    # 0 where the system gives none
    from framesim import _kernels
    if _kernels.kernel_tier() != "compiled-c":
        pytest.skip("the compiled kernels did not load")
    done = subprocess.run(["getconf", "LEVEL2_CACHE_ASSOC"], capture_output=True, text=True)
    reported = done.stdout.strip() if done.returncode == 0 else ""
    assert _kernels.l2_ways() == max(int(reported or 0), 0)
