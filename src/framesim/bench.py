"""Benchmark harness: timed backend comparisons over Hamiltonian workloads.

A benchmark cell builds a Hamiltonian (random or from a file), Trotterizes
it, and executes the gate stream on each selected backend.  Compile time is
the Hamiltonian construction plus circuit generation, which both backends
share by design; run time is the gate-stream execution.  Every cell runs
``warmups`` untimed repetitions followed by ``repetitions`` timed ones and
reports the median, since single wall-clock samples are too noisy to
compare backends with.

The rescaled runtime t_run / (n_terms * 2**n_qubits) normalizes out the
trivial workload scaling so the locality dependence stands out.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
import sys
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import _kernels
from .backends import run_baseline, run_hybrid
from .circuit import trotterize
from .hamiltonian import Hamiltonian, parse_hamiltonian, random_hamiltonian

BACKENDS = ("baseline", "hybrid")


# the record columns in ``BenchRecord`` field order, each with its type;
# the CSV header is part of the interchange contract
_COLUMNS = (("name", str), ("n_qubits", int), ("n_terms", int),
            ("L_mean", float), ("L_std", float), ("L_max", int),
            ("backend", str), ("t_compile_s", float), ("t_run_s", float),
            ("rescaled_runtime", float), ("speedup_vs_baseline", float),
            ("seed", int), ("t_flush_s", float), ("kernel_tier", str),
            ("simd_clone", str))
# the columns that may hold no value, an empty cell (null in JSONL)
_OPTIONAL = frozenset({"speedup_vs_baseline", "seed", "simd_clone"})
CSV_FIELDS = tuple(column for column, _ in _COLUMNS)
# the values that the columns added after the first twelve take in files
# written before them: no flush time, an unknown tier and no clone
_LATER_COLUMNS = {"t_flush_s": 0.0, "kernel_tier": "", "simd_clone": ""}

VERIFY_TOLERANCE = 1e-10
# bytes of one complex128 amplitude
AMPLITUDE_BYTES = 16
# where the memory left to a run is read, read-only: the kernel's estimate
# of what can be allocated without swapping, the process's cgroups, and the
# mount under which their memory limits are found
MEMINFO = "/proc/meminfo"
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"
# a cgroup limit at or above this sets none (version 1 writes 2**63 less a page)
_NO_LIMIT = 1 << 62


class BenchConfigError(ValueError):
    """Invalid benchmark configuration (bad source, backend set, or more
    qubits than the memory left to the run holds)."""


@dataclass(frozen=True)
class RandomSpec:
    """Parameters of a generated random Hamiltonian workload."""

    num_qubits: int
    locality: int
    n_terms: int
    seed: int


@dataclass
class BenchConfig:
    source: RandomSpec | str
    backends: tuple[str, ...] = BACKENDS
    trotter_time: float = 1.0
    trotter_steps: int = 1
    repetitions: int = 3
    warmups: int = 1
    verify: bool = True

    def __post_init__(self):
        if self.repetitions < 1:
            raise BenchConfigError("repetitions must be >= 1")
        if self.warmups < 0:
            raise BenchConfigError("warmups must be >= 0")
        bad = [b for b in self.backends if b not in BACKENDS]
        if bad or not self.backends:
            raise BenchConfigError(f"backends must be a non-empty subset of {BACKENDS}")


@dataclass
class BenchRecord:
    name: str
    n_qubits: int
    n_terms: int
    l_mean: float
    l_std: float
    l_max: int
    backend: str
    t_compile_s: float
    t_run_s: float
    rescaled_runtime: float
    speedup_vs_baseline: float | None
    seed: int | None
    t_flush_s: float = 0.0
    kernel_tier: str = ""
    simd_clone: str | None = None


def _load_hamiltonian(config: BenchConfig) -> Hamiltonian:
    src = config.source
    if isinstance(src, RandomSpec):
        return random_hamiltonian(src.num_qubits, src.locality, src.n_terms, src.seed)
    with open(src, "r", encoding="utf-8") as fh:
        name = str(src).rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return parse_hamiltonian(fh, name=name)


def memory_limits() -> tuple[int | None, int | None]:
    """MemAvailable and the cgroup's memory limit, in bytes; None for one
    that cannot be read or, for the cgroup, that sets no limit."""
    available = None
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    limits = []
    for path in _cgroup_limit_files():
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit() and int(text) < _NO_LIMIT:
            limits.append(int(text))
    return available, min(limits, default=None)


def _cgroup_limit_files() -> list[str]:
    """The memory-limit files of the process's cgroup and of each of its
    ancestors, whose limits bind it too: version 2's ``memory.max`` and
    version 1's ``memory.limit_in_bytes`` under the memory controller's
    mount.  Without a readable PROC_CGROUP, those of the root."""
    unified = controller = "/"
    try:
        with open(PROC_CGROUP, encoding="ascii") as fh:
            for line in fh:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                if controllers == "":
                    unified = path
                elif "memory" in controllers.split(","):
                    controller = path
    except (OSError, ValueError):
        pass
    return ([f"{CGROUP_ROOT}{cgroup}/memory.max" for cgroup in _lineage(unified)]
            + [f"{CGROUP_ROOT}/memory{cgroup}/memory.limit_in_bytes"
               for cgroup in _lineage(controller)])


def _lineage(path: str) -> list[str]:
    """A cgroup's path and its ancestors' up to the root, which is ""."""
    parts = [part for part in path.split("/") if part]
    return ["".join(f"/{part}" for part in parts[:depth])
            for depth in range(len(parts), -1, -1)]


def memory_need(config: BenchConfig, num_qubits: int) -> int:
    """The bytes of state that a run of config on num_qubits holds at once.

    A backend's repetition holds the state of the repetition before while
    it fills its own, beside the last state of each backend run before it:
    one state more than the backends; a hybrid repetition's flush, once the
    state before it is freed, holds a copy of its register, up to a state,
    in that state's place.  The cross-check holds the two last states and
    at most 24 bytes per amplitude besides, the probabilities it compares.
    The circuits and the hybrid's gate tables are left out: they grow with
    the terms, not with 2**n, and 100 terms of weight 14 hold about 1.4 MiB
    at the peak, a third of one 18-qubit state.  On the numpy tier a kernel
    call of a run holds a block of temporaries besides the states, counted
    as ``_kernels.TEMPORARY_BYTES`` per amplitude (see there); a run's
    flush moves no amplitude, since a Trotter circuit leaves its frame at
    the origin.
    """
    per_amplitude = AMPLITUDE_BYTES * (len(config.backends) + 1) + _kernels.TEMPORARY_BYTES
    if config.verify and set(config.backends) == set(BACKENDS):
        per_amplitude = max(per_amplitude, 2 * AMPLITUDE_BYTES + 24)
    return per_amplitude << num_qubits


def _check_memory(config: BenchConfig, num_qubits: int) -> None:
    """Raise BenchConfigError if a run cannot hold the states it needs."""
    need = memory_need(config, num_qubits)
    available, limit = memory_limits()
    if any(cap is not None and need > cap for cap in (available, limit)):
        raise BenchConfigError(
            f"{num_qubits} qubits need {_mib(need)}, "
            f"{need / (AMPLITUDE_BYTES << num_qubits):g} states of "
            f"{AMPLITUDE_BYTES} B per amplitude, more than MemAvailable "
            f"({_mib(available, 'unreadable')}) or the cgroup's memory limit "
            f"({_mib(limit, 'none')})")


def _mib(nbytes: int | None, missing: str = "") -> str:
    return missing if nbytes is None else f"{nbytes / 2**20:.1f} MiB"


def run_config(config: BenchConfig) -> list[BenchRecord]:
    """Execute one benchmark cell and return one record per backend.

    Each hybrid repetition ends in ``flush_to_origin``, timed on its own:
    the hybrid record's ``t_flush_s`` is the median flush of the timed
    repetitions, the time from its ``t_run_s`` to the amplitudes that the
    baseline's ``t_run_s`` ends on (0.0 on baseline records).  Every record
    names the kernel tier and the compiled clone that ran it
    (``_kernels.kernel_tier()`` and ``simd_clone()``, None on the numpy
    tier).

    Raises BenchConfigError, before any state is allocated, for more
    qubits than the memory left to the run holds (``memory_need``).
    """
    probe = _load_hamiltonian(config)
    _check_memory(config, probe.num_qubits)
    l_mean, l_std, l_max = probe.locality_stats()
    seed = int(config.source.seed) if isinstance(config.source, RandomSpec) else None

    runners = {"baseline": run_baseline, "hybrid": run_hybrid}
    timings: dict[str, tuple[float, float, float]] = {}
    final_state: dict[str, object] = {}
    for backend in config.backends:
        compile_times: list[float] = []
        run_times: list[float] = []
        flush_times: list[float] = []
        for rep in range(config.warmups + config.repetitions):
            t0 = time.perf_counter()
            ham = _load_hamiltonian(config)
            circuit = trotterize(ham, config.trotter_time, config.trotter_steps)
            t_compile = time.perf_counter() - t0
            state, report = runners[backend](circuit, rng=seed)
            t_flush = 0.0
            if backend == "hybrid":
                t0 = time.perf_counter()
                state.flush_to_origin()
                t_flush = time.perf_counter() - t0
            if rep >= config.warmups:
                compile_times.append(t_compile)
                run_times.append(report.t_run_s)
                flush_times.append(t_flush)
        timings[backend] = (statistics.median(compile_times),
                            statistics.median(run_times), statistics.median(flush_times))
        final_state[backend] = state

    if config.verify and set(config.backends) == set(BACKENDS):
        _verify_states(final_state["baseline"], final_state["hybrid"])

    records = []
    dim = 1 << probe.num_qubits
    for backend in config.backends:
        t_compile, t_run, t_flush = timings[backend]
        speedup = None
        if "baseline" in timings:
            speedup = timings["baseline"][1] / t_run
        records.append(BenchRecord(
            name=probe.name, n_qubits=probe.num_qubits, n_terms=len(probe),
            l_mean=l_mean, l_std=l_std, l_max=l_max, backend=backend,
            t_compile_s=t_compile, t_run_s=t_run,
            rescaled_runtime=t_run / (len(probe) * dim),
            speedup_vs_baseline=speedup, seed=seed, t_flush_s=t_flush,
            kernel_tier=_kernels.kernel_tier(), simd_clone=_kernels.simd_clone()))
    return records


def _verify_states(baseline_state, hybrid_state) -> None:
    """Cross-check the two backends on the cell that was just timed, the
    hybrid state as its repetition's flush left it."""
    diff = np.max(np.abs(baseline_state.probabilities()
                         - hybrid_state.phi.probabilities()))
    if diff > VERIFY_TOLERANCE:
        raise RuntimeError(f"backend mismatch: post-flush probabilities differ "
                           f"by {diff:.3e} (> {VERIFY_TOLERANCE})")


def default_sweep_cells(qubits=None, localities=None, terms=(50, 100)):
    """The (n, k, n_terms) grid: n in 8..24 step 2, k in 4..n step 2."""
    qubits = tuple(qubits) if qubits is not None else tuple(range(8, 25, 2))
    cells = []
    for n in qubits:
        ks = tuple(localities) if localities is not None else tuple(range(4, n + 1, 2))
        for k in ks:
            if k > n:
                continue
            for t in terms:
                cells.append((n, k, t))
    return cells


def sweep(cells, seed: int = 0, verify: bool = False, log=None, **settings):
    """Run a grid of cells, yielding records as they complete.

    ``settings`` are the other ``BenchConfig`` fields, passed on to every
    cell's config.  Per-cell failures are logged to ``log`` (default: the
    current ``sys.stderr``) and skipped so long sweeps always make progress;
    callers should write records incrementally.
    """
    for index, (n, k, n_terms) in enumerate(cells):
        config = BenchConfig(RandomSpec(n, k, n_terms, seed + index), verify=verify,
                             **settings)
        try:
            yield from run_config(config)
        except Exception as exc:  # noqa: BLE001 - sweeps must survive bad cells
            print(f"[sweep] cell n={n} k={k} terms={n_terms} failed: {exc}",
                  file=log or sys.stderr)


# ----------------------------------------------------------------------
# record serialization

def _record_values(r: BenchRecord) -> dict[str, object]:
    return dict(zip(CSV_FIELDS, astuple(r)))


def _record_to_row(r: BenchRecord) -> dict[str, str]:
    return {key: ("" if value is None else
                  repr(value) if isinstance(value, float) else str(value))
            for key, value in _record_values(r).items()}


def _cell(value: object, kind: type, optional: bool):
    """The value of one cell of type ``kind``: parsed from text, as a CSV
    file holds every cell and an old JSONL file its numbers, or taken from
    a JSON number, where an int column accepts only an integer and a float
    column any number, a bool being neither.  Raises ValueError for
    anything else."""
    if value == "" and optional:
        return None
    if isinstance(value, str):
        return kind(value)
    if kind is int and type(value) is int or kind is float and type(value) in (int, float):
        return kind(value)
    raise ValueError(value)


def _row_to_record(row: dict[str, object], where: str) -> BenchRecord:
    row = {**_LATER_COLUMNS, **row}  # files written before those columns read back
    missing = [column for column in CSV_FIELDS if row.get(column) is None]
    if missing:
        raise BenchConfigError(f"{where}: missing column(s) {', '.join(missing)}")
    values = []
    for column, kind in _COLUMNS:
        try:
            values.append(_cell(row[column], kind, column in _OPTIONAL))
        except (TypeError, ValueError):
            raise BenchConfigError(
                f"{where}: column {column}: cannot read {row[column]!r}") from None
    return BenchRecord(*values)


def write_records(records, stream, fmt: str = "csv") -> None:
    if fmt == "csv":
        writer = csv.DictWriter(stream, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for r in records:
            writer.writerow(_record_to_row(r))
            stream.flush()
    elif fmt == "jsonl":
        for r in records:
            stream.write(json.dumps(_record_values(r)) + "\n")
            stream.flush()
    else:
        raise BenchConfigError(f"unknown format {fmt!r}")


def read_records(stream, fmt: str = "csv") -> list[BenchRecord]:
    if fmt == "csv":
        reader = csv.DictReader(stream)
        return [_row_to_record(row, f"line {reader.line_num}") for row in reader]
    if fmt == "jsonl":
        out = []
        for number, line in enumerate(stream, 1):
            if line.strip():
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise BenchConfigError(
                        f"line {number}: not valid JSON ({exc.msg} at column {exc.pos + 1})") from None
                if not isinstance(row, dict):
                    raise BenchConfigError(f"line {number}: a record must be a JSON object")
                row = {k: ("" if v is None else v) for k, v in row.items()}
                out.append(_row_to_record(row, f"line {number}"))
        return out
    raise BenchConfigError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# reporting

@dataclass
class ReportRow:
    """``speedup`` is t_run(baseline) / t_run(hybrid), and
    ``speedup_to_amplitudes`` t_run(baseline) / (t_run + t_flush)(hybrid)."""

    name: str
    n_qubits: int
    n_terms: int
    seed: int | None
    speedup: float
    compile_ratio: float
    speedup_to_amplitudes: float


@dataclass
class ReportSummary:
    rows: list[ReportRow]
    groups: dict[tuple[int, int], dict[str, float]]


def report(records) -> ReportSummary:
    """Pair baseline/hybrid records per config and summarize the ratios."""
    paired: dict[tuple, dict[str, BenchRecord]] = {}
    for r in records:
        paired.setdefault((r.name, r.n_qubits, r.n_terms, r.seed), {})[r.backend] = r
    rows = []
    for (name, n, n_terms, seed), group in sorted(paired.items(),
                                                  key=lambda kv: str(kv[0])):
        if set(group) != set(BACKENDS):
            raise ValueError(f"config {name!r} has records for {sorted(group)} only; "
                             "report needs a baseline/hybrid pair per config")
        base, hyb = group["baseline"], group["hybrid"]
        for r in (base, hyb):
            if not (r.t_compile_s > 0 and r.t_run_s > 0):
                raise ValueError(f"config {name!r}: the {r.backend} record has a "
                                 "non-positive t_compile_s or t_run_s")
        rows.append(ReportRow(
            name, n, n_terms, seed, speedup=base.t_run_s / hyb.t_run_s,
            compile_ratio=hyb.t_compile_s / base.t_compile_s,
            speedup_to_amplitudes=base.t_run_s / (hyb.t_run_s + hyb.t_flush_s)))
    groups: dict[tuple[int, int], dict[str, float]] = {}
    for key in sorted({(r.n_qubits, r.n_terms) for r in rows}):
        members = [r for r in rows if (r.n_qubits, r.n_terms) == key]
        speedups = [r.speedup for r in members]
        to_amplitudes = [r.speedup_to_amplitudes for r in members]
        ratios = [r.compile_ratio for r in members]
        groups[key] = {
            "count": len(members),
            "speedup_mean": float(np.mean(speedups)),
            "speedup_std": float(np.std(speedups)),
            "speedup_to_amplitudes_mean": float(np.mean(to_amplitudes)),
            "compile_ratio_mean": float(np.mean(ratios)),
            "compile_ratio_std": float(np.std(ratios)),
        }
    return ReportSummary(rows, groups)


def render_report(summary: ReportSummary) -> str:
    out = io.StringIO()
    out.write(f"{'name':24s} {'n':>3s} {'terms':>6s} {'speedup':>9s} {'to amps':>9s} "
              f"{'compile':>9s}\n")
    for r in summary.rows:
        out.write(f"{r.name[:24]:24s} {r.n_qubits:3d} {r.n_terms:6d} "
                  f"{r.speedup:9.3f} {r.speedup_to_amplitudes:9.3f} {r.compile_ratio:9.3f}\n")
    out.write("\nper (n_qubits, n_terms):\n")
    for (n, t), stats in summary.groups.items():
        out.write(f"  n={n:2d} terms={t:5d}: speedup {stats['speedup_mean']:.2f} "
                  f"+- {stats['speedup_std']:.2f} ({stats['speedup_to_amplitudes_mean']:.2f} "
                  f"with the flush), compile ratio "
                  f"{stats['compile_ratio_mean']:.2f} +- {stats['compile_ratio_std']:.2f} "
                  f"({stats['count']} configs)\n")
    return out.getvalue()
