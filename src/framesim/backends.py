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
from .circuit import CLIFFORD_TAGS, ROTATION_AXIS, ROTATION_TAGS, Circuit
from .frame import PauliFrame, invert_to_rotations
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
    """Frame + state vector pair representing U|phi>."""

    frame: PauliFrame
    phi: StateVector
    timing: dict[str, float] = field(default_factory=dict)

    def expectation(self, p: PauliString) -> float:
        """<P> on the tracked state, via <phi| lookup(P) |phi>."""
        return self.phi.expectation(self.frame.lookup(p))

    def flush_to_origin(self) -> None:
        """Fold the frame's Clifford into the amplitudes, up to global phase.

        Conjugating the backward-stored frame to the origin is the same as
        sandwiching U between the step unitaries' inverses, so the steps
        applied in order implement U itself; swaps become amplitude index
        relabelings.  Every step updates the amplitudes in place, in one
        pass of a ``_kernels`` loop.  Each rotation is a quarter or half
        turn, whose coefficients are powers of i times 1 or 1/sqrt(2), so
        ``StateVector.apply_clifford_rotation`` runs it on the Clifford
        loop, without complex multiplies, at 1.0-1.3 ns per amplitude on a
        2-core Xeon at n = 20 (a general rotation pass takes 1.9-2.3).  A
        swap runs in the masked pair exchange, which moves only the half of
        the amplitudes whose two qubits differ.  The resulting amplitudes
        match a gate-by-gate run up to one global phase, which is left
        unnormalized, and the per-step rotation path within rounding.
        """
        steps = invert_to_rotations(self.frame)
        t0 = time.perf_counter()
        for step in steps:
            if step.kind == "pauli_rotation":
                self.phi.apply_clifford_rotation(step.axis, step.quarter_turns)
            else:
                self.phi.swap_qubits(*step.qubits)
        self.frame = PauliFrame.origin(self.frame.num_qubits)
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
    for g in circuit.gates:
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
    loop, so it includes the loop's own dispatch.
    """
    seed, rng = _seeded(rng)
    n = circuit.num_qubits
    hs = HybridState(PauliFrame.origin(n), StateVector.zero(n))
    report = RunReport("hybrid", n, seed=seed)
    _fill_counts(report, circuit)
    frame, phi = hs.frame, hs.phi
    rotation_s = measure_s = prep_s = 0.0
    clock = time.perf_counter
    t0 = clock()
    for g in circuit.gates:
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
            report.measurements.append(0 if outcome == 1 else 1)
            measure_s += clock() - t1
        elif tag == "PREPZ":
            t1 = clock()
            phi.prepare(frame.lookup(PauliString.single(n, g.qubits[0], "Z")),
                        frame.lookup(PauliString.single(n, g.qubits[0], "X")),
                        rng)
            prep_s += clock() - t1
        else:
            raise ValueError(f"unsupported gate tag {tag!r}")
    report.t_run_s = clock() - t0
    hs.timing.update(clifford_s=report.t_run_s - rotation_s - measure_s - prep_s,
                     rotation_s=rotation_s, measure_s=measure_s, prep_s=prep_s)
    return hs, report
