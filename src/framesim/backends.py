"""The two executable backends over the shared gate IR.

``run_baseline`` is the conventional fullstate simulator: every gate in the
stream hits the 2**n amplitudes.  ``run_hybrid`` keeps a Pauli frame next to
the state vector: Clifford gates only update the frame, and the remaining
gates (rotations, measurements, preparations) act on the state through the
frame lookup as native multi-qubit Pauli operations.  The tracked physical
state is U|phi> where U is the Clifford the frame represents, so runtime
scales with the number of non-Clifford gates instead of the gate total.

Both backends draw measurement outcomes from an injected seeded generator
with one uniform variate per measurement, so runs with equal seeds follow
identical outcome branches and can be compared amplitude by amplitude.
Measured eigenvalue +1 is recorded as classical bit 0.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .circuit import CLIFFORD_TAGS, ROTATION_AXIS, ROTATION_TAGS, TAGS, Circuit
from .frame import PauliFrame, invert_to_rotations, split_clifford
from .pauli import PauliString
from .statevector import StateVector


@dataclass
class RunReport:
    """Timing and bookkeeping for one backend execution.

    t_run_s covers gate-stream execution only; the benchmark records
    (``bench.BenchRecord``) add the compile time of the caller that built the
    circuit.  kernel_tier names the amplitude-kernel tier the run executed on
    (``compiled-c``, or ``numpy`` when the compiled kernels did not load);
    the tier is fixed at import, so it is read from ``_kernels``, not stored.
    """

    backend: str
    n_qubits: int
    gates_total: int = 0
    gates_clifford: int = 0
    gates_rotation: int = 0
    t_run_s: float = 0.0
    seed: int | None = None
    measurements: list[int] = field(default_factory=list)

    @property
    def kernel_tier(self) -> str:
        return _kernels.kernel_tier()


@dataclass
class HybridState:
    """Frame + state vector pair representing U|phi>.

    ``flush_passes`` gets one entry per ``flush_to_origin`` call: the state
    passes it made, by kind (``quarter_turns``, ``affine`` and ``shears``),
    and ``h``, the size of the Hadamard layer of the Clifford it flushed.
    ``timing["flush_s"]`` adds up the seconds of the flushes, their
    synthesis included.
    """

    frame: PauliFrame
    phi: StateVector
    timing: dict[str, float] = field(default_factory=dict)
    flush_passes: list[dict[str, int]] = field(default_factory=list)

    def expectation(self, p: PauliString) -> float:
        """<P> on the tracked state, via <phi| lookup(P) |phi>."""
        return self.phi.expectation(self.frame.lookup(p))

    def flush_to_origin(self) -> None:
        """Fold the frame's Clifford U into the amplitudes, in h + 2 state
        passes at most, h being the size of U's Hadamard layer.

        ``split_clifford`` writes U as h quarter turns followed by one
        Clifford F without a Hadamard part, which maps each basis state to
        one basis state times a phase.  Each turn runs in one pass of the
        Clifford loop (``StateVector.apply_pauli_rotation``), and F in an
        affine pass and a shear pass (``StateVector.apply_hadamard_free``); the
        qubit relabelings and single-qubit turns of the synthesis all
        become part of F.  The frame fixes U only up to a global phase: the
        flush takes it from the product of the steps of
        ``invert_to_rotations``, so the result equals those steps applied
        one by one as rotations and swaps, global phase included, within
        rounding.  It matches a gate-by-gate run up to one global phase,
        which is left unnormalized.  The origin frame makes no pass and no
        synthesis.
        """
        t0 = time.perf_counter()
        passes = dict.fromkeys(("quarter_turns", "affine", "shears", "h"), 0)
        if not self.frame.is_origin():
            turns, rest = split_clifford(self.frame, invert_to_rotations(self.frame))
            for turn in turns:
                self.phi.apply_pauli_rotation(turn.axis, turn.angle)
            passes["affine"], passes["shears"] = self.phi.apply_hadamard_free(rest)
            passes["quarter_turns"] = passes["h"] = len(turns)
            self.frame = PauliFrame.origin(self.frame.num_qubits)
        self.flush_passes.append(passes)
        self.timing["flush_s"] = self.timing.get("flush_s", 0.0) + time.perf_counter() - t0


def _fill_counts(report: RunReport, circuit: Circuit) -> None:
    report.gates_total = len(circuit)
    report.gates_clifford = circuit.clifford_count()
    report.gates_rotation = circuit.rotation_count()


def _seeded(rng) -> tuple[int | None, np.random.Generator]:
    """The seed to report (integral seeds only) and the generator to draw from."""
    seed = int(rng) if isinstance(rng, numbers.Integral) else None
    return seed, np.random.default_rng(rng)


def run_baseline(circuit: Circuit, rng=None) -> tuple[StateVector, RunReport]:
    """Gate-by-gate fullstate execution of the circuit."""
    seed, rng = _seeded(rng)
    n = circuit.num_qubits
    state = StateVector.zero(n)
    report = RunReport("baseline", n, seed=seed)
    _fill_counts(report, circuit)
    t0 = time.perf_counter()
    for g in circuit:
        if g.tag in CLIFFORD_TAGS or g.tag in ROTATION_TAGS:
            state.apply_gate(g.tag, g.qubits, g.angle)
        elif g.tag == "MEASZ":
            outcome = state.measure(PauliString.single(n, g.qubits[0], "Z"), rng)
            report.measurements.append(0 if outcome == 1 else 1)
        elif g.tag == "PREPZ":
            state.prepare(PauliString.single(n, g.qubits[0], "Z"),
                          PauliString.single(n, g.qubits[0], "X"), rng)
        else:
            raise ValueError(f"unsupported gate tag {g.tag!r}")
    report.t_run_s = time.perf_counter() - t0
    return state, report


def run_hybrid(circuit: Circuit, rng=None) -> tuple[HybridState, RunReport]:
    """Frame-tracked execution: Cliffords update the frame, everything else
    reaches the state vector as a multi-qubit Pauli operation.

    ``HybridState.timing`` receives the seconds spent in rotations,
    measurements and preparations; ``clifford_s`` is the rest of the gate
    loop, so it includes the loop's own dispatch.  The gate loop is the
    compiled one when ``_kernels`` loaded its C library, else the Python
    one; both draw the same outcomes from ``rng`` and leave the same frame
    and, within rounding, the same amplitudes.
    """
    seed, rng = _seeded(rng)
    n = circuit.num_qubits
    hs = HybridState(PauliFrame.origin(n), StateVector.zero(n))
    report = RunReport("hybrid", n, seed=seed)
    _fill_counts(report, circuit)
    gate_loop = _python_gates if _kernels.run_gates is None else _compiled_gates
    t0 = time.perf_counter()
    rotation_s, measure_s, prep_s = gate_loop(hs, circuit, rng, report.measurements)
    report.t_run_s = time.perf_counter() - t0
    hs.timing.update(clifford_s=report.t_run_s - rotation_s - measure_s - prep_s,
                     rotation_s=rotation_s, measure_s=measure_s, prep_s=prep_s)
    return hs, report


_MEASZ = TAGS.index("MEASZ")


def _compiled_gates(hs: HybridState, circuit: Circuit, rng,
                    measurements: list[int]) -> tuple[float, float, float]:
    """The hybrid's gate loop on ``_kernels.run_gates``: the circuit's lowered
    stream runs in C on the packed frame up to each MEASZ or PREPZ, which
    Python performs on the rows read back from the packed words; the frame
    is unpacked once, at the end.  Returns the seconds spent in rotations,
    measurements and preparations."""
    xs, zs, ps = hs.frame.packed()
    ops, angles = circuit.lowered()
    phi = hs.phi
    rotation_s = measure_s = prep_s = 0.0
    clock = time.perf_counter
    i = 0
    while True:
        i, spent = _kernels.run_gates(phi.amplitudes, xs, zs, ps, ops, angles, i)
        rotation_s += spent
        if i == len(angles):
            break
        t1 = clock()
        stab, destab = PauliFrame.packed_pair(xs, zs, ps, ops[3 * i + 1])
        if ops[3 * i] == _MEASZ:
            outcome = phi.measure(stab, rng)
            measurements.append(0 if outcome == 1 else 1)
            measure_s += clock() - t1
        else:
            phi.prepare(stab, destab, rng)
            prep_s += clock() - t1
        i += 1
    hs.frame = PauliFrame.from_packed(xs, zs, ps)
    return rotation_s, measure_s, prep_s


def _python_gates(hs: HybridState, circuit: Circuit, rng,
                  measurements: list[int]) -> tuple[float, float, float]:
    """The hybrid's gate loop in Python, one ``PauliFrame`` update or lookup
    per gate.  Returns the seconds spent in rotations, measurements and
    preparations."""
    n = circuit.num_qubits
    frame, phi = hs.frame, hs.phi
    rotation_s = measure_s = prep_s = 0.0
    clock = time.perf_counter
    for g in circuit:
        tag = g.tag
        if tag in CLIFFORD_TAGS:
            frame.apply_gate(tag, g.qubits)
        elif tag in ROTATION_TAGS:
            t1 = clock()
            axis = frame.lookup(PauliString.single(n, g.qubits[0], ROTATION_AXIS[tag]))
            phi.apply_pauli_rotation(axis, g.angle)
            rotation_s += clock() - t1
        elif tag == "MEASZ":
            t1 = clock()
            outcome = phi.measure(frame.lookup(
                PauliString.single(n, g.qubits[0], "Z")), rng)
            measurements.append(0 if outcome == 1 else 1)
            measure_s += clock() - t1
        elif tag == "PREPZ":
            t1 = clock()
            phi.prepare(frame.lookup(PauliString.single(n, g.qubits[0], "Z")),
                        frame.lookup(PauliString.single(n, g.qubits[0], "X")),
                        rng)
            prep_s += clock() - t1
        else:
            raise ValueError(f"unsupported gate tag {tag!r}")
    return rotation_s, measure_s, prep_s
