"""framesim benchmark: end-to-end and per-layer numbers for both backends.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is run from framesim's sources in ``src/`` through the public
API only.  One repetition builds a seeded circuit (untimed), runs it on the
baseline and on the hybrid backend, and checks the outputs: post-flush
probabilities agree and both states are normalized, and on ``shots_n8`` the
per-shot measurement records are identical.  Repetitions continue until
``--seconds`` have passed; a repetition with a failed check is counted and
left out of the medians.

``--trace 0`` prints the end-to-end metrics: set-up time in a fresh
interpreter, the run time of each backend and each backend's tracemalloc
peak.  ``--trace 1`` alternates untraced and traced repetitions and prints
the per-layer metrics computed from the traced spans (see spans.py); the
untraced twin of each traced repetition gives the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give each
metric with its unit and sample count and the run metadata; the full
result and the spans of the first traced repetition are written under
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "framesim" / "__init__.py").is_file():
    sys.exit(f"perfbench: framesim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import framesim  # noqa: E402
from framesim import _kernels, run_baseline, run_hybrid  # noqa: E402
from framesim.bench import VERIFY_TOLERANCE  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, build, build_circuit, build_hamiltonian, shot_rng  # noqa: E402

NORM_TOLERANCE = 1e-10
SETUP_REPS = 8          # fresh-interpreter set-ups per run (after one warm-up)
INPROCESS_BUILDS = 5    # traced in-process builds per run
MIB = float(1 << 20)
BYTES_PER_AMP_PASS = 32  # one complex128 read plus one write per amplitude

END_TO_END = (
    ("setup_s", "s"),
    ("baseline_run_s", "s"),
    ("hybrid_run_s", "s"),
    ("baseline_peak_mib", "MiB"),
    ("hybrid_peak_mib", "MiB"),
)

# Units marked exact are counts that repeat exactly for a seed; they are
# taken from the first traced repetition, everything else is the median
# over traced repetitions.
EXACT_UNITS = ("count", "B", "qubits")
PER_LAYER = (
    ("circuit.gates", "count"),
    ("circuit.clifford_gates", "count"),
    ("circuit.rotation_gates", "count"),
    ("circuit.build_s", "s"),
    ("hamiltonian.build_pct", "%"),
    ("frame.apply_gate_calls", "count"),
    ("frame.apply_gate_ns_per_call", "ns/call"),
    ("frame.lookup_calls", "count"),
    ("frame.lookup_ns_per_call", "ns/call"),
    ("frame.lookup_axis_weight_mean", "qubits"),
    ("frame.invert_s", "s"),
    ("frame.invert_rotations", "count"),
    ("frame.invert_swaps", "count"),
    ("statevector.rotation_calls", "count"),
    ("statevector.rotation_ns_per_amp_median", "ns/amp"),
    ("statevector.rotation_ns_per_amp_p90", "ns/amp"),
    ("statevector.stream_floor_ns_per_amp", "ns/amp"),
    ("statevector.rotation_over_floor", "ratio"),
    ("statevector.bytes_moved_computed", "B"),
    ("statevector.rotation_pct", "%"),
    ("statevector.gate_1q_calls", "count"),
    ("statevector.gate_1q_ns_per_amp", "ns/amp"),
    ("statevector.gate_cx_calls", "count"),
    ("statevector.gate_cx_ns_per_amp", "ns/amp"),
    ("statevector.gate_cz_calls", "count"),
    ("statevector.gate_swap_calls", "count"),
    ("statevector.gate_pct", "%"),
    ("statevector.measure_calls", "count"),
    ("statevector.measure_pct_baseline", "%"),
    ("statevector.measure_pct_hybrid", "%"),
    ("statevector.prepare_calls", "count"),
    ("statevector.prepare_pct_baseline", "%"),
    ("statevector.prepare_pct_hybrid", "%"),
    ("backends.flush_s", "s"),
    ("backends.flush_pct", "%"),
    ("backends.baseline_self_ns_per_gate", "ns/gate"),
    ("backends.hybrid_self_ns_per_gate", "ns/gate"),
    ("backends.hybrid_dispatch_pct", "%"),
    ("backends.trace_overhead_frac", "ratio"),
)


@dataclass
class Rep:
    """One repetition: both backends on one circuit, plus its checks."""

    index: int
    baseline_s: list = field(default_factory=list)
    hybrid_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, passed: bool) -> None:
        self.attempted += 1
        self.failed += not passed


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict
    samples: dict
    attempted: int
    failed: int
    meta: dict
    notes: list = field(default_factory=list)
    reps: list = field(default_factory=list)


def _no_span(name):
    return nullcontext()


def check_states(rep: Rep, state, hybrid) -> None:
    rep.check(float(np.max(np.abs(state.probabilities() - hybrid.phi.probabilities())))
              <= VERIFY_TOLERANCE)
    rep.check(abs(state.norm() - 1.0) <= NORM_TOLERANCE)
    rep.check(abs(hybrid.phi.norm() - 1.0) <= NORM_TOLERANCE)


def run_rep(w, seed: int, index: int, circuit, span=_no_span, balance=False) -> Rep:
    """Run both backends on ``circuit`` and check the outputs against each other.

    The order of the two backends alternates with the repetition (or shot)
    index so that slow drift hits both equally.  With ``balance`` the
    cheaper backend runs again on the same circuit, each run checked, until
    it has used about as much time as the other; that gives it more samples
    for the same run length.
    """
    rep = Rep(index)
    clock = time.perf_counter

    def timed(samples, name, fn):
        t0 = clock()
        with span(name):
            out = fn()
        samples.append(clock() - t0)
        return out

    if not w.needs_amplitudes:
        return _shots_rep(w, seed, rep, circuit, timed)

    def baseline():
        return timed(rep.baseline_s, "run.baseline",
                     lambda: run_baseline(circuit, seed)[0])

    def hybrid():
        def to_amplitudes():
            hs, _ = run_hybrid(circuit, seed)
            hs.flush_to_origin()
            return hs
        return timed(rep.hybrid_s, "run.hybrid", to_amplitudes)

    if index % 2:
        hs = hybrid()
        state = baseline()
    else:
        state = baseline()
        hs = hybrid()
    check_states(rep, state, hs)
    while balance:
        b, h = sum(rep.baseline_s), sum(rep.hybrid_s)
        if h + rep.hybrid_s[-1] <= b:
            check_states(rep, state, hybrid())
        elif b + rep.baseline_s[-1] <= h:
            check_states(rep, baseline(), hs)
        else:
            break
    return rep


def _shots_rep(w, seed: int, rep: Rep, circuit, timed) -> Rep:
    """All shots of one circuit; a sample is the total over the shots."""
    runs = {"baseline": (run_baseline, []), "hybrid": (run_hybrid, [])}
    out = {}
    for shot in range(w.shots):
        order = ("baseline", "hybrid") if (rep.index + shot) % 2 == 0 else ("hybrid", "baseline")
        for side in order:
            fn, samples = runs[side]
            rng = shot_rng(seed, rep.index, shot)
            out[side] = timed(samples, f"run.{side}", lambda: fn(circuit, rng))
        (state, report_b), (hs, report_h) = out["baseline"], out["hybrid"]
        rep.check(report_b.measurements == report_h.measurements)
        hs.flush_to_origin()  # for the probability check only
        check_states(rep, state, hs)
    rep.baseline_s.append(sum(runs["baseline"][1]))
    rep.hybrid_s.append(sum(runs["hybrid"][1]))
    return rep


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def peak_pass(w, seed: int, circuit) -> tuple[float, float]:
    """tracemalloc peaks of one baseline and one hybrid run (one shot on
    shots workloads); untimed, so it also warms the allocator for the timed
    repetitions."""
    rng = (lambda: seed) if w.needs_amplitudes else (lambda: shot_rng(seed, 0, 0))

    def hybrid():
        hs, _ = run_hybrid(circuit, rng())
        if w.needs_amplitudes:
            hs.flush_to_origin()

    return peak_mib(lambda: run_baseline(circuit, rng())), peak_mib(hybrid)


def stream_floor(num_qubits: int) -> float:
    """ns per amplitude of an in-place complex multiply over a state-sized array."""
    amps = 1 << num_qubits
    a = np.full(amps, 1.0 + 0.0j)
    c = complex(np.cos(1e-3), np.sin(1e-3))
    passes = min(4096, max(32, (1 << 24) >> num_qubits))
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        a *= c
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / amps * 1e9


def time_setup(w, seed: int) -> float:
    """Seconds from ``import framesim`` to built inputs, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(w.to_json()), str(seed)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout.split()[-1])


def repeat_until(seconds: float, body) -> None:
    """Call body(index) for index = 0, 1, ... until ``seconds`` have passed
    (at least once)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        body(index)
        index += 1


def medians(reps, attr: str) -> tuple[float, int]:
    """Median and count of the samples of passing repetitions."""
    passing = [r for r in reps if r.ok] or reps  # a run with no passing rep is incorrect anyway
    samples = [t for r in passing for t in getattr(r, attr)]
    return statistics.median(samples), len(samples)


# ----------------------------------------------------------------------
# end-to-end run


def run_end_to_end(w, seed: int, seconds: float):
    time_setup(w, seed)  # writes the byte-code caches; not counted
    circuit = build(w, seed, 0)
    peak_b, peak_h = peak_pass(w, seed, circuit)
    reps: list[Rep] = []
    setups: list[float] = []
    # The set-up probes are spread over the run, not taken in one burst, so
    # that they see the same mix of machine load as the repetitions.
    probe_at = [time.perf_counter()]

    def body(i):
        reps.append(run_rep(w, seed, i, build(w, seed, i), balance=True))
        if len(setups) < SETUP_REPS and time.perf_counter() >= probe_at[0]:
            setups.append(time_setup(w, seed))
            probe_at[0] += seconds / SETUP_REPS

    repeat_until(seconds, body)
    while len(setups) < SETUP_REPS:
        setups.append(time_setup(w, seed))
    base, n_base = medians(reps, "baseline_s")
    hyb, n_hyb = medians(reps, "hybrid_s")
    metrics = {"setup_s": statistics.median(setups), "baseline_run_s": base,
               "hybrid_run_s": hyb, "baseline_peak_mib": peak_b,
               "hybrid_peak_mib": peak_h}
    samples = {"setup_s": len(setups), "baseline_run_s": n_base, "hybrid_run_s": n_hyb,
               "baseline_peak_mib": 1, "hybrid_peak_mib": 1}
    notes = [f"speedup baseline/hybrid = {base / hyb:.3f} (informational, not a metric)"]
    return metrics, samples, reps, notes


# ----------------------------------------------------------------------
# traced run


def traced_setup(w, seed: int, rec: spans.Recorder) -> dict:
    ham_s, circ_s = [], []
    for k in range(INPROCESS_BUILDS):
        rec.run_id = f"setup{k}"
        with rec.span("hamiltonian.build"):
            ham = build_hamiltonian(w, seed, 0)
        with rec.span("circuit.build"):
            build_circuit(w, seed, 0, ham)
        tree = spans.Tree(rec.spans[-2:])
        ham_s.append(tree.total("hamiltonian.build") if ham is not None else 0.0)
        circ_s.append(tree.total("circuit.build"))
    return {"circuit.build_s": statistics.median(circ_s),
            "hamiltonian.build_pct": statistics.median(
                100.0 * h / (h + c) for h, c in zip(ham_s, circ_s))}


def layer_metrics(w, circuit, rep: Rep, tree: spans.Tree) -> dict:
    amps = 1 << w.num_qubits
    base_s, hyb_s = sum(rep.baseline_s), sum(rep.hybrid_s)
    gates = len(circuit) * w.shots
    # The benchmark's own root spans: one per backend run.  On amplitude
    # workloads the flush runs inside run.hybrid; on shots_n8 it runs in
    # the output check, as a root span of its own.
    hyb_roots = {"run.hybrid"}
    base_roots = {"run.baseline"}

    def per(total, calls, unit=1.0):
        return total / calls / unit * 1e9 if calls else 0.0

    m = {"circuit.gates": len(circuit),
         "circuit.clifford_gates": circuit.clifford_count(),
         "circuit.rotation_gates": circuit.rotation_count()}
    for name in ("apply_gate", "lookup"):
        s = tree.outer(f"frame.{name}")
        m[f"frame.{name}_calls"] = len(s)
        m[f"frame.{name}_ns_per_call"] = per(sum(x[5] - x[4] for x in s), len(s))
    weights = [x[6] for x in tree.outer("frame.lookup")]
    m["frame.lookup_axis_weight_mean"] = statistics.fmean(weights) if weights else 0.0
    inverts = tree.outer("frame.invert")
    m["frame.invert_s"] = sum(x[5] - x[4] for x in inverts)
    m["frame.invert_rotations"] = sum(x[6][0] for x in inverts)
    m["frame.invert_swaps"] = sum(x[6][1] for x in inverts)

    rot = tree.outer("statevector.rotation", hyb_roots)
    rot_ns = [(x[5] - x[4]) / amps * 1e9 for x in rot]
    m["statevector.rotation_calls"] = len(rot)
    m["statevector.rotation_ns_per_amp_median"] = statistics.median(rot_ns) if rot_ns else 0.0
    m["statevector.rotation_ns_per_amp_p90"] = spans.percentile(rot_ns, 0.9) if rot_ns else 0.0
    m["statevector.bytes_moved_computed"] = len(rot) * amps * BYTES_PER_AMP_PASS
    m["statevector.rotation_pct"] = 100.0 * tree.total("statevector.rotation", hyb_roots) / hyb_s
    gate_total = 0.0
    for kind in ("1q", "cx", "cz", "swap"):
        s = tree.outer(f"statevector.gate_{kind}", base_roots)
        total = sum(x[5] - x[4] for x in s)
        gate_total += total
        m[f"statevector.gate_{kind}_calls"] = len(s)
        if kind in ("1q", "cx"):
            m[f"statevector.gate_{kind}_ns_per_amp"] = per(total, len(s), amps)
    m["statevector.gate_pct"] = 100.0 * gate_total / base_s
    for op in ("measure", "prepare"):
        m[f"statevector.{op}_calls"] = len(tree.outer(f"statevector.{op}", base_roots))
        m[f"statevector.{op}_pct_baseline"] = (
            100.0 * tree.total(f"statevector.{op}", base_roots) / base_s)
        m[f"statevector.{op}_pct_hybrid"] = (
            100.0 * tree.total(f"statevector.{op}", hyb_roots) / hyb_s)

    m["backends.flush_s"] = tree.total("backends.flush")
    m["backends.flush_pct"] = 100.0 * tree.total("backends.flush", hyb_roots) / hyb_s
    # time inside run_baseline/run_hybrid that no wrapped callee accounts for
    m["backends.baseline_self_ns_per_gate"] = per(tree.self_time("run.baseline"), gates)
    hyb_self = tree.self_time("run.hybrid")
    m["backends.hybrid_self_ns_per_gate"] = per(hyb_self, gates)
    frame_s = tree.total("frame.apply_gate") + tree.total("frame.lookup")
    m["backends.hybrid_dispatch_pct"] = 100.0 * (frame_s + hyb_self) / hyb_s
    return m


def run_traced(w, seed: int, seconds: float):
    rec = spans.Recorder()
    metrics = traced_setup(w, seed, rec)
    setup_spans = rec.take()
    floor = stream_floor(w.num_qubits)
    run_rep(w, seed, 0, build(w, seed, 0))  # warm-up, discarded
    reps: list[Rep] = []
    per_rep: list[dict] = []
    kept: list = []

    def body(i):
        circuit = build(w, seed, i)

        def traced_rep():
            rec.run_id = i
            with spans.installed(rec):
                return run_rep(w, seed, i, circuit, rec.span)

        if i % 2:
            traced = traced_rep()
            plain = run_rep(w, seed, i, circuit)
        else:
            plain = run_rep(w, seed, i, circuit)
            traced = traced_rep()
        recorded = rec.take()
        if not kept:
            kept.extend(recorded)
        reps.extend((plain, traced))
        m = layer_metrics(w, circuit, traced, spans.Tree(recorded))
        m["backends.trace_overhead_frac"] = sum(traced.hybrid_s) / sum(plain.hybrid_s)
        per_rep.append((plain.ok and traced.ok, m))

    repeat_until(seconds, body)
    RESULTS.mkdir(exist_ok=True)
    spans.write_jsonl(setup_spans + kept, RESULTS / f"spans-{w.name}-seed{seed}.jsonl")
    # as in medians(): failed repetitions count only when none passed
    chosen = [m for ok, m in per_rep if ok] or [m for _, m in per_rep]
    exact = {name for name, unit in PER_LAYER if unit in EXACT_UNITS}
    for name in chosen[0]:
        metrics[name] = (chosen[0][name] if name in exact
                         else statistics.median(m[name] for m in chosen))
    metrics["statevector.stream_floor_ns_per_amp"] = floor
    metrics["statevector.rotation_over_floor"] = (
        metrics["statevector.rotation_ns_per_amp_median"] / floor)
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    samples = {name: 1 if name in exact else len(chosen) for name, _ in PER_LAYER}
    samples["circuit.build_s"] = samples["hamiltonian.build_pct"] = INPROCESS_BUILDS
    return metrics, samples, reps, layer_map_notes(w.name, metrics)


def layer_map_notes(workload: str, metrics: dict) -> list[str]:
    """Compare the measured shares with the expectations in layer_map.json."""
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    notes = []
    for exp in layer_map["workloads"].get(workload, {}).get("expect", []):
        value = metrics[exp["metric"]]
        ok = value >= exp["min"]
        notes.append(f"layer map: {exp['metric']} = {value:.1f} "
                     f"(expected >= {exp['min']}): {'ok' if ok else 'NOT MET'}")
    return notes


# ----------------------------------------------------------------------
# metadata and output


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_rev() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(ROOT / ".git" / ref).strip()
        if not rev:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        return rev or "unknown"
    return head or "unknown"


def run_metadata(w, seed: int, floor: float) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    meminfo = _read("/proc/meminfo")

    def field_of(text, key):
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return "unknown"

    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or \
        field_of(cpuinfo, "cache size")
    mem = field_of(meminfo, "MemAvailable")
    return {
        "workload": w.to_json(),
        "seed": seed,
        "kernel_tier": "numba-jit" if _kernels.JIT_ENABLED else "numpy-fallback",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "framesim": framesim.__version__,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": field_of(cpuinfo, "model name"),
        "llc_size": llc,
        "mem_available": mem,
        "stream_floor_ns_per_amp": floor,
        "stream_floor_array_mib": (1 << w.num_qubits) * 16 / MIB,
        "bytes_moved": "computed from array sizes, not measured",
    }


def run_workload(w, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        metrics, samples, reps, notes = run_traced(w, seed, seconds)
        floor = metrics["statevector.stream_floor_ns_per_amp"]
    else:
        metrics, samples, reps, notes = run_end_to_end(w, seed, seconds)
        floor = stream_floor(w.num_qubits)
    return Outcome(metrics, samples, sum(r.attempted for r in reps),
                   sum(r.failed for r in reps), run_metadata(w, seed, floor), notes,
                   [asdict(r) for r in reps])


def report(name: str, outcome: Outcome, units: dict) -> None:
    meta = outcome.meta
    print(f"== {name}: kernel tier {meta['kernel_tier']} "
          f"(numba importable: {meta['numba_importable']}), seed {meta['seed']}")
    print("meta " + json.dumps(meta))
    for metric, value in outcome.metrics.items():
        n = outcome.samples[metric]
        how = f"median of {n}" if n > 1 else "one sample"
        print(f"{name} {metric} = {value:.6g} {units[metric]} ({how})")
    frac = outcome.failed / outcome.attempted
    print(f"{name} failed_fraction = {frac:.6g} ({outcome.failed}/{outcome.attempted} checks)")
    for note in outcome.notes:
        print(f"{name} {note}")


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *names])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=None) -> int:
    workloads = workloads or WORKLOADS
    args = parse_args(argv, list(workloads))
    names = list(workloads) if args.workload == "all" else [args.workload]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    outcomes = {}
    for name in names:
        outcomes[name] = out = run_workload(workloads[name], args.seed, args.seconds,
                                            bool(args.trace))
        report(name, out, units)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
            {"meta": out.meta, "metrics": out.metrics, "samples": out.samples,
             "attempted": out.attempted, "failed": out.failed, "notes": out.notes,
             "repetitions": out.reps},
            indent=1))
    prefix = len(names) > 1
    metrics = {(f"{name}.{m}" if prefix else m): {"value": v, "unit": units[m]}
               for name, out in outcomes.items() for m, v in out.metrics.items()}
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
