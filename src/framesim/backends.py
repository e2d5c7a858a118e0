"""The two executable backends over the shared gate IR.

``run_baseline`` is the conventional fullstate simulator: every gate in the
stream hits the 2**n amplitudes.  ``run_hybrid`` keeps a Pauli frame next to
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
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .circuit import CLIFFORD_TAGS, ROTATION_AXIS, ROTATION_TAGS, TAGS, Circuit
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
    is the plain U|phi>.

    ``flush_passes`` gets one entry per ``flush_to_origin`` call: the state
    passes it made, by kind (``quarter_turns``, ``affine``, ``shears`` and
    ``embed``, the scatter of the register into the whole state), ``h``,
    the size of the Hadamard layer of the Clifford it flushed, ``active``,
    d when the flush began, and ``register``, max(d, 1) after its quarter
    turns: the qubits its affine and shear passes ran on.
    ``timing["flush_s"]`` adds up the seconds of the flushes, their split
    of U and the pass of P_A included.
    """

    frame: PauliFrame
    phi: StateVector
    timing: dict[str, float] = field(default_factory=dict)
    flush_passes: list[dict[str, int]] = field(default_factory=list)
    index_map: np.ndarray | None = None
    active: int | None = None

    def __post_init__(self):
        n = self.frame.num_qubits
        if self.index_map is None:
            self.index_map = _identity_map(n)
        if self.active is None:
            self.active = n

    def _register(self, p: PauliString, activate: bool = True
                  ) -> tuple[StateVector, PauliString] | None:
        """The register, as the state of phi's first 2**max(d, 1) amplitudes,
        and P_A^dag P P_A on it for the frame image P.  If its X part leaves
        the register, one more qubit is activated first, or, when
        ``activate`` is false, None is returned.  The numpy tier runs only
        the dense Python gate loop, so there A = I and d = n throughout."""
        if _kernels.register_map is None:
            return self.phi, p
        mapped = _kernels.register_map(self.index_map, self.active, p.x_bits, p.z_bits,
                                       p.phase_exp, activate)
        if mapped is None:
            return None
        x, z, phase, self.active = mapped
        m = max(self.active, 1)
        return self.phi.prefix(m), PauliString(m, x, z, phase)

    def expectation(self, p: PauliString) -> float:
        """<P> on the tracked state, via <phi| P_A^dag lookup(P) P_A |phi>:
        exactly 0 when that operator's X part leaves the register."""
        reg = self._register(self.frame.lookup(p), activate=False)
        return 0.0 if reg is None else reg[0].expectation(reg[1])

    def flush_to_origin(self) -> None:
        """Fold the frame's Clifford U and the index map P_A into the
        amplitudes, in h + 2 passes at most over 2**d amplitudes, h being
        the size of U's Hadamard layer, and one scatter into the whole
        state; afterwards A = I and d = n.

        ``split_clifford`` writes U as h quarter turns followed by one
        Clifford F without a Hadamard part, which maps each basis state to
        one basis state times a phase.  Each turn runs on the register as
        any rotation does, in one pass of the Clifford loop over 2**d
        amplitudes (``StateVector.apply_pauli_rotation``), and F P_A
        (``HadamardFree.after``) in an affine pass and a shear pass over the
        register, d as the turns leave it, followed by one scatter of its
        amplitudes into place; with d = n the two passes run on the whole
        state and no scatter is made (``StateVector.apply_hadamard_free``).
        The frame fixes U only up to a global phase, and the flush applies
        U = F T_h ... T_1 with F free of a constant factor, as
        ``split_clifford`` returns it.
        So the result equals the steps of ``invert_to_rotations`` applied
        one by one to P_A|phi> times a power of exp(i*pi/4), and a
        gate-by-gate run times some global phase, which is left
        unnormalized.  An invalid frame raises ValueError before any pass.
        At the origin frame P_A alone is applied, with no split: its form
        is A's rows with no offset and no phase, which the affine pass only
        moves; with A = I too no pass is made.
        """
        t0 = time.perf_counter()
        n = self.frame.num_qubits
        passes = dict.fromkeys(("quarter_turns", "affine", "shears", "embed", "h"), 0)
        passes["active"] = self.active
        if self.frame.is_origin():
            form = HadamardFree(tuple(self.index_map.tolist()), 0, (0,) * n, (0,) * n)
        else:
            turns, rest = split_clifford(self.frame)
            for turn in turns:
                state, axis = self._register(turn.axis)
                state.apply_pauli_rotation(axis, turn.angle)
            passes["quarter_turns"] = passes["h"] = len(turns)
            self.frame = PauliFrame.origin(n)
            form = rest.after(self.index_map.tolist())  # A as the turns left it
        passes["register"] = max(self.active, 1)
        passes["affine"], passes["shears"], passes["embed"] = self.phi.apply_hadamard_free(
            form, passes["register"])
        self.index_map, self.active = _identity_map(n), n
        self.flush_passes.append(passes)
        self.timing["flush_s"] = self.timing.get("flush_s", 0.0) + time.perf_counter() - t0


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
                     active=0 if gate_loop is _compiled_gates else n)
    report = RunReport("hybrid", n, seed=seed)
    _fill_counts(report, circuit)
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
    stream runs in C on the packed frame and the register up to each MEASZ
    or PREPZ, which Python performs on the register with the rows read back
    from the packed words; the frame is unpacked once, at the end.  Returns
    the seconds spent in rotations, measurements and preparations."""
    xs, zs, ps = hs.frame.packed()
    ops, angles = circuit.lowered()
    amplitudes = hs.phi.amplitudes
    rotation_s = measure_s = prep_s = 0.0
    clock = time.perf_counter
    i = 0
    while True:
        i, spent, hs.active = _kernels.run_gates(amplitudes, xs, zs, ps, hs.index_map,
                                                 hs.active, ops, angles, i)
        rotation_s += spent
        if i == len(angles):
            break
        t1 = clock()
        stab, destab = PauliFrame.packed_pair(xs, zs, ps, ops[3 * i + 1])
        state, stab = hs._register(stab)
        outcome = state.measure(stab, rng)
        if ops[3 * i] == _MEASZ:
            measurements.append(0 if outcome == 1 else 1)
            measure_s += clock() - t1
        else:
            # PREPZ: a -1 outcome is repaired by the anticommuting destab,
            # as StateVector.prepare does
            if outcome == -1:
                state, destab = hs._register(destab)
                state.apply_pauli(destab)
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
