"""In-memory span recorder that wraps framesim's public callables.

Only the benchmark installs these wrappers, and only for a traced run; the
program itself is not modified.  A span is the tuple
``(run_id, span_id, parent_id, name, start, end, value)``: ``parent_id`` is
the span that was open when this one started (0 for a root span), and
``value`` carries one per-call observation (the weight of a looked-up axis,
the step counts of a frame inversion) or None.  All spans of one
repetition share ``run_id``.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import framesim
import framesim.backends
from framesim import HybridState, PauliFrame, StateVector

_GATE_KIND = {"CX": "gate_cx", "CZ": "gate_cz", "SWAP": "gate_swap"}


class Recorder:
    """Collects spans; ``run_id`` is set by the caller per repetition."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack = [0]
        self._next_id = 1

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.run_id, sid, parent, name, t0, t1, None))

    def wrap(self, fn, name_of, value_of=None):
        """``fn`` with a span around each call; ``name_of(args)`` names it."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((self.run_id, sid, parent, name_of(args), t0, t1,
                          value_of(out) if value_of else None))
            return out

        return wrapper

    def take(self) -> list[tuple]:
        """Remove and return the spans recorded so far."""
        out, self.spans[:] = list(self.spans), []
        return out


def _fixed(name):
    return lambda args: name


def _gate_name(args):
    return "statevector." + _GATE_KIND.get(args[1], "gate_1q")


def _invert_counts(steps):
    rotations = sum(1 for s in steps if s.kind == "pauli_rotation")
    return (rotations, len(steps) - rotations)


# (owner, attribute, span name, per-call value)
_TARGETS = (
    (PauliFrame, "apply_gate", _fixed("frame.apply_gate"), None),
    (PauliFrame, "lookup", _fixed("frame.lookup"), lambda p: p.weight),
    (framesim.backends, "invert_to_rotations", _fixed("frame.invert"), _invert_counts),
    (StateVector, "apply_pauli_rotation", _fixed("statevector.rotation"), None),
    (StateVector, "apply_gate", _gate_name, None),
    (StateVector, "measure", _fixed("statevector.measure"), None),
    (StateVector, "prepare", _fixed("statevector.prepare"), None),
    (StateVector, "swap_qubits", _fixed("statevector.swap_qubits"), None),
    (HybridState, "flush_to_origin", _fixed("backends.flush"), None),
)


@contextmanager
def installed(rec: Recorder):
    """Route the wrapped callables through ``rec`` for the duration."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
    try:
        for (owner, attr, name_of, value_of), (_, _, fn) in zip(_TARGETS, saved):
            setattr(owner, attr, rec.wrap(fn, name_of, value_of))
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tree:
    """Spans of one repetition with parent links resolved.

    ``outer`` spans are those whose parent belongs to another layer, so a
    measurement that ``prepare`` makes internally is counted as part of the
    preparation, and a swap inside ``apply_gate("SWAP")`` as part of the gate.
    """

    def __init__(self, spans):
        self.by_id = {s[1]: s for s in spans}
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        for s in spans:
            self.by_name[s[3]].append(s)
            self.child_time[s[2]] += s[5] - s[4]
        self._root = {}

    def root_name(self, span) -> str:
        sid = span[1]
        path = []
        while sid not in self._root:
            s = self.by_id[sid]
            path.append(sid)
            if s[2] == 0:
                self._root[sid] = s[3]
                break
            sid = s[2]
        root = self._root[sid]
        for p in path:
            self._root[p] = root
        return root

    def outer(self, name: str, roots=None) -> list[tuple]:
        out = []
        for s in self.by_name.get(name, ()):
            parent = self.by_id.get(s[2])
            if parent is not None and layer(parent[3]) == layer(name):
                continue
            if roots is None or self.root_name(s) in roots:
                out.append(s)
        return out

    def total(self, name: str, roots=None) -> float:
        return sum(s[5] - s[4] for s in self.outer(name, roots))

    def self_time(self, name: str) -> float:
        return sum(s[5] - s[4] - self.child_time[s[1]] for s in self.outer(name))


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of a non-empty sequence."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def write_jsonl(spans, path) -> None:
    """One JSON list per span, after a header line naming the fields."""
    with open(path, "w") as f:
        f.write(json.dumps(["run", "id", "parent", "name", "start", "end", "value"]) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")
