"""The two executable backends over the shared gate IR.

``run_baseline`` is the conventional fullstate simulator: every gate in the
stream hits the 2**n amplitudes, a run of one-qubit gates on one qubit as
one pass of their product.  ``run_hybrid`` keeps a Pauli frame next to
the state vector: Clifford gates only update the frame, and the remaining
gates (rotations, measurements, preparations) act on the state through the
frame lookup as native multi-qubit Pauli operations.  The tracked physical
state is U P_A |phi> where U is the Clifford the frame represents and P_A
an index map |k> -> |A k>, A an invertible GF(2) matrix, so runtime scales
with the number of non-Clifford gates instead of the gate total.  phi is
exactly zero beyond its first 2**d amplitudes, the register of d active
qubits, and every operation runs on those alone; an operation whose X
part leaves the register first activates one more qubit, which changes
only A (see ``HybridState``).  So a rotation costs 2**d amplitudes, d
being at most the GF(2) rank of the X parts applied so far.

Both backends draw measurement outcomes from an injected seeded generator
with one uniform variate per measurement, so runs with equal seeds follow
identical outcome branches and can be compared amplitude by amplitude.
Measured eigenvalue +1 is recorded as classical bit 0.
"""
from __future__ import annotations

import numbers
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .circuit import CLIFFORD_TAGS, ROTATION_AXIS, ROTATION_TAGS, Circuit
from .frame import HadamardFree, PauliFrame, split_clifford
# perfbench/spans.py wraps this name; without it --trace 1 raises AttributeError
from .frame import invert_to_rotations  # noqa: F401
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

    ``passes`` counts the baseline's passes over the state for its gates,
    as ``HybridState.passes`` counts the hybrid's: ``gate_passes``, one per
    pass, ``gate_pass_equivalents``, 1 per pass over the whole state,
    ``gate_blocked_runs``, the runs of passes that the compiled loop
    applied in one blocked pass (see ``_kernels.baseline_gates``), each
    counted once in the other two, ``gate_fused``, the one-qubit gates
    that made no pass of their own, cancelled or folded into the 2x2 pass
    of their run, and ``gate_absorbed``, the CX and CZ gates that made no
    pass of their own, applied by the 2x2 pass of the run before them (both
    0 from the Python loop).  Without blocking,
    ``gate_passes + gate_fused + gate_absorbed`` is the gate count.  Empty on hybrid
    reports, whose ``HybridState`` holds the counts.
    """

    backend: str
    n_qubits: int
    gates_total: int = 0
    gates_clifford: int = 0
    gates_rotation: int = 0
    t_run_s: float = 0.0
    seed: int | None = None
    measurements: list[int] = field(default_factory=list)
    passes: dict[str, float] = field(default_factory=dict)

    @property
    def kernel_tier(self) -> str:
        return _kernels.kernel_tier()


@dataclass(eq=False)
class HybridState:
    """Frame, index map and state vector representing U P_A |phi>.

    U is the frame's Clifford and P_A the index map |k> -> |A k> of an
    invertible GF(2) matrix A, held as its n row masks in ``index_map``
    ((A k)_i = parity(index_map[i] & k)).  phi is exactly zero beyond its
    first 2**d amplitudes, d being ``active``: the register.  An operation
    whose frame image P reaches phi runs as P_A^dag P P_A on those 2**d
    amplitudes (``_register``).  When its X part leaves the register, one
    more qubit becomes active first: CX and SWAP gates on qubits that are
    |0> in phi gather its X bits at bit d and fold into A, and d grows by
    one.  Z letters outside the register act as +1 and are dropped.  So a
    rotation costs 2**d amplitudes, not 2**n, and d is at most the GF(2)
    rank of the X parts of the operators applied so far.

    ``run_hybrid`` starts its compiled gate loop at A = I and d = 0 (phi =
    |0...0>); a state built any other way starts at A = I and d = n, which
    is the plain U|phi>.  The numpy tier has no register map, so there the
    state stays at A = I and d = n, and the constructor raises ValueError
    for any other ``index_map`` or ``active``.  On either tier it raises
    ValueError for a phi or an ``index_map`` on another number of qubits
    than the frame.

    ``flush_passes`` gets one entry per ``flush_to_origin`` call: the state
    passes it made, by kind (``quarter_turns``, one per qubit of the
    Hadamard layer of the Clifford it flushed, ``affine`` and ``shears``,
    the passes of the permutation of the whole state (one gather on the
    numpy tier, counted as affine), and ``scatter``, the phased scatter of
    a register into the whole state),
    ``active``, d when the flush began, and ``register``, max(d, 1) after
    its quarter turns: the qubits its rest ran on, n for the passes.
    ``timing["flush_s"]`` adds up the seconds of the flushes, their split
    of U and the pass of P_A included, and ``timing["flush_turns_s"]`` the
    seconds of their quarter-turn passes alone: timed inside the C flush,
    as the gate loop times ``rotation_s``, or around each turn on the
    numpy tier.

    ``passes`` counts the passes over the register that the rotations of
    the gate loop (``rotation_*``) and the quarter turns of the flushes
    (``turn_*``) made: ``*_passes``, one per pass, ``*_pass_equivalents``,
    the sum of 2**max(d, 1) / 2**n over those passes, and
    ``*_blocked_runs``, the runs of rotations that the compiled loops
    applied in one blocked pass (see ``_kernels.run_gates``), each counted
    once in the other two.  Without blocking, a pass is one rotation or
    turn.  The loops add to the counts in place, and ``passes`` reads them.
    """

    frame: PauliFrame
    phi: StateVector
    timing: dict[str, float] = field(default_factory=dict)
    flush_passes: list[dict[str, int]] = field(default_factory=list)
    index_map: np.ndarray | None = None
    active: int | None = None
    # the rotations' and the turns' passes, amplitudes and blocked runs
    _rotation_counts: array = field(default_factory=_kernels.pass_counts, init=False,
                                    repr=False)
    _turn_counts: array = field(default_factory=_kernels.pass_counts, init=False, repr=False)

    def __post_init__(self):
        n = self.frame.num_qubits
        if self.phi.num_qubits != n:
            raise ValueError(f"a {self.phi.num_qubits}-qubit state under a {n}-qubit frame")
        if self.index_map is None:
            self.index_map = _identity_map(n)
        if len(self.index_map) != n:
            raise ValueError(f"index map of {len(self.index_map)} rows for a {n}-qubit frame")
        if self.active is None:
            self.active = n
        if _kernels.register_map is None and (
                self.active != n or not np.array_equal(self.index_map, _identity_map(n))):
            raise ValueError("the numpy tier runs the register dense: the index map must "
                             "be the identity and every qubit active")

    def _register(self, p: PauliString, activate: bool = True
                  ) -> tuple[StateVector, PauliString] | None:
        """The register, as the state of phi's first 2**max(d, 1) amplitudes,
        and P_A^dag P P_A on it for the frame image P.  If its X part leaves
        the register, one more qubit is activated first, or, when
        ``activate`` is false, None is returned.  On the numpy tier A = I
        and d = n throughout (see the class docstring)."""
        if _kernels.register_map is None:
            return self.phi, p
        mapped = _kernels.register_map(self.index_map, self.active, p.x_bits, p.z_bits,
                                       p.phase_exp, activate)
        if mapped is None:
            return None
        x, z, phase, self.active = mapped
        m = max(self.active, 1)
        return self.phi.prefix(m), PauliString(m, x, z, phase)

    def _measure_z(self, tag: str, q: int, rng, measurements: list[int]) -> None:
        """MEASZ or PREPZ (``tag``) on qubit q, the one step both gate loops
        take: measure Z_q's image on the register and record a MEASZ outcome
        in ``measurements`` (+1 as bit 0).  A -1 PREPZ outcome is repaired by
        X_q's image, which anticommutes with Z_q's and so flips it.  That
        image is mapped only then, after the measurement: mapping it may
        activate a qubit, which only the repair needs.  The seconds go to
        ``timing["measure_s"]`` or ``timing["prep_s"]``."""
        t0 = time.perf_counter()
        state, stab = self._register(self.frame.eff_z(q))
        outcome = state.measure(stab, rng)
        if tag == "MEASZ":
            measurements.append(0 if outcome == 1 else 1)
        elif outcome == -1:
            state, destab = self._register(self.frame.eff_x(q))
            state.apply_pauli(destab)
        key = "measure_s" if tag == "MEASZ" else "prep_s"
        self.timing[key] += time.perf_counter() - t0

    @property
    def passes(self) -> dict[str, float]:
        n = self.frame.num_qubits
        return {**_pass_dict("rotation", self._rotation_counts, n),
                **_pass_dict("turn", self._turn_counts, n)}

    def expectation(self, p: PauliString) -> float:
        """<P> on the tracked state, via <phi| P_A^dag lookup(P) P_A |phi>:
        exactly 0 when that operator's X part leaves the register."""
        reg = self._register(self.frame.lookup(p), activate=False)
        return 0.0 if reg is None else reg[0].expectation(reg[1])

    def flush_to_origin(self) -> None:
        """Fold the frame's Clifford U and the index map P_A into the
        amplitudes, in h passes over 2**d amplitudes, h being the size of
        U's Hadamard layer, and one scatter into the whole state (h + 2
        passes at most if d = n); afterwards A = I and d = n.

        ``split_clifford`` writes U as h quarter turns followed by one
        Clifford F without a Hadamard part, which maps each basis state to
        one basis state times a phase.  Each turn runs on the register as
        any rotation does, in one pass of the Clifford loop over 2**d
        amplitudes, and F P_A (``HadamardFree.after``) in one scatter that
        writes each amplitude of the register, d as the turns leave it,
        phased, to its place; with d = n it runs in one permutation of the
        whole state instead, an affine pass and a shear pass on the
        compiled tier (``StateVector.apply_hadamard_free``).  On the
        compiled tier one call, ``_kernels.flush``, checks the frame,
        splits it, runs the turns and composes F P_A, on the frame's
        words; on the numpy tier
        ``split_clifford``, ``StateVector.apply_pauli_rotation`` and
        ``HadamardFree.after`` do, with the same turns, amplitudes and
        form, bit for bit.
        The frame fixes U only up to a global phase, and the flush applies
        U = F T_h ... T_1 with F free of a constant factor, as
        ``split_clifford`` returns it.
        So the result equals the steps of ``invert_to_rotations`` applied
        one by one to P_A|phi> times a power of exp(i*pi/4), and a
        gate-by-gate run times some global phase, which is left
        unnormalized.  An invalid frame raises ValueError before any pass.
        At the origin frame the split makes no turn and F = I, so either
        tier's form is P_A alone, A's rows with no offset and no phase;
        with A = I too no pass is made.
        """
        t0 = time.perf_counter()
        n = self.frame.num_qubits
        passes = dict.fromkeys(("quarter_turns", "affine", "shears", "scatter"), 0)
        passes["active"] = self.active
        turn_s = 0.0
        if _kernels.flush is not None:
            f = self.frame
            passes["quarter_turns"], self.active, fields, turn_s = _kernels.flush(
                self.phi.amplitudes, f.xs, f.zs, f.ps, self.index_map, self.active,
                self._turn_counts)
            form = HadamardFree(*fields)
        else:
            turns, rest = split_clifford(self.frame)
            for turn in turns:
                state, axis = self._register(turn.axis)
                t1 = time.perf_counter()
                state.apply_pauli_rotation(axis, turn.angle)
                turn_s += time.perf_counter() - t1
                _add_pass(self._turn_counts, 1, 1 << state.num_qubits)
            passes["quarter_turns"] = len(turns)
            form = rest.after(self.index_map.tolist())  # A as the turns left it
        self.frame = PauliFrame.origin(n)
        passes["register"] = max(self.active, 1)
        passes["affine"], passes["shears"], passes["scatter"] = self.phi.apply_hadamard_free(
            form, passes["register"])
        self.index_map, self.active = _identity_map(n), n
        self.flush_passes.append(passes)
        self.timing["flush_turns_s"] = self.timing.get("flush_turns_s", 0.0) + turn_s
        self.timing["flush_s"] = self.timing.get("flush_s", 0.0) + time.perf_counter() - t0


def _add_pass(counts: array, passes: int, amplitudes: int) -> None:
    """Count unblocked passes over ``amplitudes`` amplitudes in all, as the
    compiled loops count them (see ``_kernels.pass_counts``)."""
    counts[0] += passes
    counts[1] += amplitudes


def _pass_dict(kind: str, counts: array, n: int) -> dict[str, float]:
    """The counts of ``_kernels.pass_counts`` as ``<kind>_passes``,
    ``<kind>_pass_equivalents`` (the amplitudes over 2**n) and
    ``<kind>_blocked_runs``."""
    passes, amplitudes, blocked = counts[:3]
    return {f"{kind}_passes": passes, f"{kind}_pass_equivalents": amplitudes / (1 << n),
            f"{kind}_blocked_runs": blocked}


def _identity_map(n: int) -> np.ndarray:
    """The row masks of the n x n identity, as the register holds them."""
    return np.array([1 << i for i in range(n)], dtype=np.uint64)


def _fill_counts(report: RunReport, circuit: Circuit) -> None:
    report.gates_total = len(circuit)
    report.gates_clifford = circuit.clifford_count()
    report.gates_rotation = circuit.rotation_count()


def _seeded(rng) -> tuple[int | None, np.random.Generator]:
    """The seed to report (integral seeds only) and the generator to draw from."""
    seed = int(rng) if isinstance(rng, numbers.Integral) else None
    return seed, np.random.default_rng(rng)


def run_baseline(circuit: Circuit, rng=None) -> tuple[StateVector, RunReport]:
    """Fullstate execution of the circuit: each gate is a pass of
    ``StateVector.apply_gate`` over the 2**n amplitudes, and each MEASZ or
    PREPZ a ``StateVector.measure`` or ``prepare``.

    The gate loop is the compiled one, ``_kernels.baseline_gates``, when
    ``_kernels`` loaded its C library, else the Python one, gate by gate,
    which the tests use as its reference.  The compiled loop makes one
    pass at most of each run of one-qubit gates on one qubit, and above
    the L2 cache size it blocks its passes in runs, with the amplitudes of
    one pass each.  Both loops draw the same outcomes from ``rng`` and
    leave the same amplitudes: bit for bit where no gate fused, else
    within rounding.  ``RunReport.passes`` receives their counts.
    """
    seed, rng = _seeded(rng)
    n = circuit.num_qubits
    state = StateVector.zero(n)
    report = RunReport("baseline", n, seed=seed)
    _fill_counts(report, circuit)
    gate_loop = _python_baseline if _kernels.baseline_gates is None else _compiled_baseline
    counts = _kernels.pass_counts()
    t0 = time.perf_counter()
    gate_loop(state, circuit, rng, report.measurements, counts)
    report.t_run_s = time.perf_counter() - t0
    report.passes = {**_pass_dict("gate", counts, n), "gate_fused": counts[3],
                     "gate_absorbed": counts[4]}
    return state, report


def _baseline_measure_z(state: StateVector, tag: str, q: int, rng,
                        measurements: list[int]) -> None:
    """MEASZ or PREPZ (``tag``) on qubit q of the baseline's state, the one
    step both its gate loops take; a MEASZ outcome goes to ``measurements``
    (+1 as bit 0)."""
    z = PauliString.single(state.num_qubits, q, "Z")
    if tag == "MEASZ":
        measurements.append(0 if state.measure(z, rng) == 1 else 1)
    else:
        state.prepare(z, PauliString.single(state.num_qubits, q, "X"), rng)


def _compiled_baseline(state: StateVector, circuit: Circuit, rng, measurements: list[int],
                       counts: array) -> None:
    """The baseline's gate loop on ``_kernels.baseline_gates``: the lowered
    stream runs in C up to each MEASZ or PREPZ, which
    ``_baseline_measure_z`` performs on its decoded ``circuit[i]``."""
    ops, angles = circuit.lowered()
    i = 0
    while True:
        i = _kernels.baseline_gates(state.amplitudes, ops, angles, i, counts)
        if i == len(circuit):
            return
        g = circuit[i]
        _baseline_measure_z(state, g.tag, g.qubits[0], rng, measurements)
        i += 1


def _python_baseline(state: StateVector, circuit: Circuit, rng, measurements: list[int],
                     counts: array) -> None:
    """The baseline's gate loop in Python, one ``StateVector.apply_gate``
    per decoded gate, and ``_baseline_measure_z`` for each MEASZ or PREPZ."""
    gates = 0
    for g in circuit:
        if g.tag in CLIFFORD_TAGS or g.tag in ROTATION_TAGS:
            state.apply_gate(g.tag, g.qubits, g.angle)
            gates += 1
        else:  # MEASZ or PREPZ, the circuit's only other tags
            _baseline_measure_z(state, g.tag, g.qubits[0], rng, measurements)
    _add_pass(counts, gates, gates << state.num_qubits)


def run_hybrid(circuit: Circuit, rng=None) -> tuple[HybridState, RunReport]:
    """Frame-tracked execution: Cliffords update the frame, everything else
    reaches the state vector as a multi-qubit Pauli operation.

    The compiled gate loop starts the register at d = 0 and runs each
    operation on the 2**d amplitudes it holds (see ``HybridState``); the
    Python loop keeps it dense, d = n and A = I, as the tests' reference.
    ``HybridState.timing`` receives the seconds spent in rotations,
    measurements and preparations; ``clifford_s`` is the rest of the gate
    loop, so it includes the loop's own dispatch.  The gate loop is the
    compiled one when ``_kernels`` loaded its C library, else the Python
    one; both draw the same outcomes from ``rng`` and leave the same frame
    and, within rounding, the same amplitudes.
    """
    seed, rng = _seeded(rng)
    n = circuit.num_qubits
    gate_loop = _python_gates if _kernels.run_gates is None else _compiled_gates
    hs = HybridState(PauliFrame.origin(n), StateVector.zero(n),
                     timing=dict(measure_s=0.0, prep_s=0.0),
                     active=0 if gate_loop is _compiled_gates else n)
    report = RunReport("hybrid", n, seed=seed)
    _fill_counts(report, circuit)
    t0 = time.perf_counter()
    rotation_s = gate_loop(hs, circuit, rng, report.measurements)
    report.t_run_s = time.perf_counter() - t0
    t = hs.timing
    t.update(clifford_s=report.t_run_s - rotation_s - t["measure_s"] - t["prep_s"],
             rotation_s=rotation_s)
    return hs, report


def _compiled_gates(hs: HybridState, circuit: Circuit, rng, measurements: list[int]) -> float:
    """The hybrid's gate loop on ``_kernels.run_gates``: the circuit's lowered
    stream runs in C on the frame's own words and the register, up to each
    MEASZ or PREPZ, which ``HybridState._measure_z`` performs on its decoded
    ``circuit[i]``.  Returns the seconds spent in rotations."""
    frame = hs.frame
    ops, angles = circuit.lowered()
    amplitudes = hs.phi.amplitudes
    rotation_s = 0.0
    i = 0
    while True:
        i, spent, hs.active = _kernels.run_gates(amplitudes, frame.xs, frame.zs, frame.ps,
                                                 hs.index_map, hs.active, ops, angles, i,
                                                 hs._rotation_counts)
        rotation_s += spent
        if i == len(circuit):
            return rotation_s
        g = circuit[i]
        hs._measure_z(g.tag, g.qubits[0], rng, measurements)
        i += 1


def _python_gates(hs: HybridState, circuit: Circuit, rng, measurements: list[int]) -> float:
    """The hybrid's gate loop in Python, one ``PauliFrame`` update or lookup
    per decoded gate, and ``HybridState._measure_z`` for each MEASZ or PREPZ.
    Returns the seconds spent in rotations."""
    n = circuit.num_qubits
    frame, phi = hs.frame, hs.phi
    rotation_s = 0.0
    rotations = 0
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
            rotations += 1
        else:  # MEASZ or PREPZ, the circuit's only other tags
            hs._measure_z(tag, g.qubits[0], rng, measurements)
    _add_pass(hs._rotation_counts, rotations, rotations << n)
    return rotation_s
