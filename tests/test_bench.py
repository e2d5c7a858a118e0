"""Benchmark harness: records, serialization, sweep, report, CLI."""
import dataclasses
import errno
import io
import json
import mmap
import tracemalloc

import pytest

from framesim import BenchConfig, BenchRecord, HybridState, RandomSpec, _kernels, bench
from framesim.bench import (BACKENDS, CSV_FIELDS, BenchConfigError, _record_to_row,
                            default_sweep_cells, read_records, render_report, report,
                            run_config, sweep, write_records)
from framesim.cli import main as cli_main


# bytes per amplitude that a run holds besides its states: the numpy
# tier's kernel temporaries, none on the compiled tier
TEMPORARY = _kernels.TEMPORARY_BYTES
# a verified run of both backends: two states and the cross-check's 24 B
# per amplitude, or three states and the temporaries, whichever is more
BOTH_VERIFIED = max(48 + TEMPORARY, 56)


def small_config(**kw):
    defaults = dict(source=RandomSpec(4, 2, 10, 7), repetitions=2, warmups=1)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_run_config_both_backends():
    records = run_config(small_config())
    assert [r.backend for r in records] == ["baseline", "hybrid"]
    for r in records:
        assert r.n_qubits == 4 and r.n_terms == 10 and r.seed == 7
        assert (r.l_mean, r.l_std, r.l_max) == (2.0, 0.0, 2)
        assert r.rescaled_runtime == r.t_run_s / (10 * 16)
        assert r.t_compile_s > 0 and r.t_run_s > 0
    assert records[0].speedup_vs_baseline == pytest.approx(1.0)
    assert records[1].speedup_vs_baseline == pytest.approx(
        records[0].t_run_s / records[1].t_run_s)


def test_run_config_deterministic_nontiming_fields():
    def stable(records):
        return [(r.name, r.n_qubits, r.n_terms, r.l_mean, r.l_std, r.l_max,
                 r.backend, r.seed) for r in records]

    assert stable(run_config(small_config())) == stable(run_config(small_config()))


def test_run_config_checks_the_memory_budget_before_allocating(monkeypatch):
    # verifying both backends holds two states and 24 B per amplitude
    # besides: 56 B for each of 2**8 amplitudes, 3.5 states (compiled tier)
    need = BOTH_VERIFIED << 8
    config = small_config(source=RandomSpec(8, 2, 5, 0))
    ran = []
    with monkeypatch.context() as mp:
        mp.setattr(bench, "run_baseline", lambda *args: ran.append(args))
        for available, limit in ((need - 1, None), (None, need - 1), (1 << 40, need - 1)):
            mp.setattr(bench, "memory_limits", lambda: (available, limit))
            with pytest.raises(BenchConfigError,
                               match=f"8 qubits need .*, {BOTH_VERIFIED / 16:g} states of 16 B"):
                run_config(config)
    assert not ran
    monkeypatch.setattr(bench, "memory_limits", lambda: (need, need))
    assert len(run_config(config)) == 2
    # unverified, both backends hold 3 states; one backend holds 2
    for backends, verify, states in ((BACKENDS, False, 3), (("hybrid",), True, 2)):
        held = 16 * states + TEMPORARY
        monkeypatch.setattr(bench, "memory_limits", lambda: (held << 8, None))
        assert len(run_config(small_config(source=RandomSpec(8, 2, 5, 0), backends=backends,
                                           verify=verify))) == len(backends)
        monkeypatch.setattr(bench, "memory_limits", lambda: ((held << 8) - 1, None))
        with pytest.raises(BenchConfigError, match=f"{held / 16:g} states"):
            run_config(small_config(source=RandomSpec(8, 2, 5, 0), backends=backends,
                                    verify=verify))


def traced_peak(fn) -> tuple[int, object]:
    """The peak bytes traced while fn() runs, and what it returns."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backends, verify", [(BACKENDS, True), (BACKENDS, False),
                                             (("hybrid",), True), (("baseline",), True)])
def test_a_run_holds_the_states_of_its_memory_budget(backends, verify):
    # at 18 qubits a state is 4 MiB, and the circuits of 20 terms of weight
    # 4, which the budget leaves out, are tens of KiB, so the traced peak is
    # the states; it falls half a state short where numpy computes the
    # cross-check's squared magnitudes in place
    n = 18
    config = small_config(source=RandomSpec(n, 4, 20, 3), backends=backends, verify=verify)
    need = bench.memory_need(config, n)
    peak, records = traced_peak(lambda: run_config(config))
    assert len(records) == len(backends)
    assert need - (8 << n) <= peak <= need + 256 * 1024


def test_cli_run_over_the_memory_budget_exits_1_naming_both_numbers(monkeypatch, capsys):
    monkeypatch.setattr(bench, "memory_limits", lambda: (3 << 20, 5 << 20))
    assert cli_main(["run", "--random", "16", "2", "4", "1"]) == 1
    err = capsys.readouterr().err
    states = BOTH_VERIFIED / 16
    assert f"16 qubits need {states:.1f} MiB, {states:g} states of 16 B per amplitude" in err
    assert "MemAvailable (3.0 MiB)" in err and "memory limit (5.0 MiB)" in err


def fake_proc_and_cgroups(tmp_path, monkeypatch, proc_cgroup, limits):
    """Point the reader at a fake /proc/self/cgroup and cgroup mount, with
    ``limits`` mapping a limit file's path under the mount to its text."""
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:  8000000 kB\nMemFree:  100 kB\n"
                       "MemAvailable:  7000000 kB\nBuffers:  5 kB\n")
    monkeypatch.setattr(bench, "MEMINFO", str(meminfo))
    if proc_cgroup is not None:
        (tmp_path / "cgroup").write_text(proc_cgroup)
    monkeypatch.setattr(bench, "PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(bench, "CGROUP_ROOT", str(tmp_path / "fs"))
    for path, text in limits.items():
        (tmp_path / "fs" / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / path).write_text(text)


V1_PROC = "4:memory:/jobs/run\n3:cpu:/\n0::/\n"
V2_PROC = "0::/user.slice/job.scope\n"


@pytest.mark.parametrize("proc_cgroup, limits, limit", [
    # version 2: the process's cgroup, below the root, and its ancestors
    (V2_PROC, {"memory.max": "1024\n", "user.slice/job.scope/memory.max": "max\n"}, 1024),
    (V2_PROC, {"user.slice/memory.max": "5368709120\n",
               "user.slice/job.scope/memory.max": "6442450944\n"}, 5 << 30),
    (V2_PROC, {"user.slice/job.scope/memory.max": "max\n"}, None),
    # version 1: the memory controller's path, "no limit" as 2**63 less a page
    (V1_PROC, {"memory/jobs/run/memory.limit_in_bytes": "5368709120\n",
               "memory/memory.limit_in_bytes": "9223372036854771712\n"}, 5 << 30),
    (V1_PROC, {"memory/jobs/memory.limit_in_bytes": "4096\n"}, 4096),
    (V1_PROC, {"memory/jobs/run/memory.limit_in_bytes": "9223372036854771712\n"}, None),
    # no /proc/self/cgroup: the root's limits
    (None, {"memory.max": "1024\n", "user.slice/memory.max": "1\n"}, 1024),
    (None, {"memory/memory.limit_in_bytes": "2048\n"}, 2048),
    (None, {}, None),
])
def test_memory_limits_reads_meminfo_and_the_cgroup(tmp_path, monkeypatch, proc_cgroup,
                                                    limits, limit):
    fake_proc_and_cgroups(tmp_path, monkeypatch, proc_cgroup, limits)
    assert bench.memory_limits() == (7000000 * 1024, limit)
    monkeypatch.setattr(bench, "MEMINFO", str(tmp_path / "missing"))
    assert bench.memory_limits() == (None, limit)


def test_run_config_single_backend():
    records = run_config(small_config(backends=("hybrid",)))
    assert len(records) == 1
    assert records[0].speedup_vs_baseline is None


def test_config_validation():
    with pytest.raises(BenchConfigError):
        BenchConfig(source=RandomSpec(4, 2, 5, 0), repetitions=0)
    with pytest.raises(BenchConfigError):
        BenchConfig(source=RandomSpec(4, 2, 5, 0), backends=("gpu",))


def test_run_config_file_source(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("qubits: 3\n0.5 ZZI\n-0.25 IXX\n")
    records = run_config(small_config(source=str(path)))
    assert records[0].name == "toy"
    assert records[0].n_terms == 2
    assert records[0].seed is None


def test_csv_round_trip():
    records = run_config(small_config())
    buf = io.StringIO()
    write_records(records, buf, "csv")
    text = buf.getvalue()
    assert text.splitlines()[0] == ("name,n_qubits,n_terms,L_mean,L_std,L_max,"
                                    "backend,t_compile_s,t_run_s,rescaled_runtime,"
                                    "speedup_vs_baseline,seed,t_flush_s,kernel_tier,simd_clone")
    back = read_records(io.StringIO(text), "csv")
    assert back == records


def test_jsonl_round_trip():
    records = run_config(small_config(backends=("hybrid",)))
    buf = io.StringIO()
    write_records(records, buf, "jsonl")
    back = read_records(io.StringIO(buf.getvalue()), "jsonl")
    assert back == records
    # numbers are written as JSON numbers, not as the CSV strings
    row = json.loads(buf.getvalue().splitlines()[0])
    assert type(row["n_qubits"]) is int and type(row["t_run_s"]) is float
    # files written with string-valued numbers still read back
    legacy = {k: (None if v is None else str(v)) for k, v in row.items()}
    assert read_records(io.StringIO(json.dumps(legacy) + "\n"), "jsonl") == records[:1]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_records_name_the_tier_and_the_clone_on_both_backends(fmt):
    # the two trailing columns hold what ran the cell, on the baseline's
    # record and the hybrid's, and read back; a file written before them
    # reads back with an unknown tier and no clone
    records = run_config(small_config())
    assert [(r.backend, r.kernel_tier, r.simd_clone) for r in records] == [
        (backend, _kernels.kernel_tier(), _kernels.simd_clone()) for backend in BACKENDS]
    buf = io.StringIO()
    write_records(records, buf, fmt)
    assert read_records(io.StringIO(buf.getvalue()), fmt) == records
    lines = buf.getvalue().splitlines()
    if fmt == "csv":
        old = "".join(",".join(line.split(",")[:-2]) + "\n" for line in lines)
    else:
        old = "".join(json.dumps({k: v for k, v in json.loads(line).items()
                                  if k not in ("kernel_tier", "simd_clone")}) + "\n"
                      for line in lines)
    assert read_records(io.StringIO(old), fmt) == [
        dataclasses.replace(r, kernel_tier="", simd_clone=None) for r in records]


@pytest.mark.skipif(_kernels.run_gates is None, reason="compiled kernels not loaded")
def test_hybrid_records_time_the_flush(monkeypatch):
    # each hybrid repetition flushes a register under an index map that is
    # not the identity; baseline records carry no flush
    maps = []
    flush = HybridState.flush_to_origin

    def recorded(hs):
        maps.append(hs.index_map.tolist())
        flush(hs)

    monkeypatch.setattr(HybridState, "flush_to_origin", recorded)
    baseline, hybrid = run_config(small_config())
    assert len(maps) == 3 and all(m != [1, 2, 4, 8] for m in maps)
    assert baseline.t_flush_s == 0.0 and hybrid.t_flush_s > 0


OLD_HEADER = ("name,n_qubits,n_terms,L_mean,L_std,L_max,backend,t_compile_s,t_run_s,"
              "rescaled_runtime,speedup_vs_baseline,seed")


def test_records_without_t_flush_s_read_back_and_report(tmp_path, capsys):
    # files written before the t_flush_s column read back with 0.0 there
    old = [_fake("a", 4, 10, "baseline", 1.0, 2.0), _fake("a", 4, 10, "hybrid", 1.0, 0.5)]
    rows = [",".join(_record_to_row(r)[k] for k in CSV_FIELDS[:12]) for r in old]
    path = tmp_path / "old.csv"
    path.write_text("\n".join([OLD_HEADER, *rows]) + "\n")
    assert read_records(io.StringIO(path.read_text()), "csv") == old
    buf = io.StringIO()
    write_records(old, buf, "jsonl")
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    text = "".join(json.dumps({k: v for k, v in row.items() if k != "t_flush_s"}) + "\n"
                   for row in lines)
    assert read_records(io.StringIO(text), "jsonl") == old
    assert cli_main(["report", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[3:5] == ["4.000", "4.000"]


def test_default_sweep_cells_grid():
    cells = default_sweep_cells()
    # n in 8..24 step 2 with k in 4..n step 2, two term counts per cell
    per_n = {n: len(range(4, n + 1, 2)) for n in range(8, 25, 2)}
    assert len(cells) == 2 * sum(per_n.values()) == 126
    small = default_sweep_cells(qubits=(4, 6), localities=(2, 4), terms=(5,))
    assert small == [(4, 2, 5), (4, 4, 5), (6, 2, 5), (6, 4, 5)]


def test_sweep_yields_records_and_survives_failures(monkeypatch):
    monkeypatch.setattr(bench, "memory_limits", lambda: (1 << 20, None))
    log = io.StringIO()
    cells = [(4, 2, 5), (30, 2, 5), (5, 3, 5)]  # middle cell exceeds the budget
    records = list(sweep(cells, seed=1, repetitions=1, warmups=0, log=log))
    assert [(r.n_qubits, r.backend) for r in records] == [
        (4, "baseline"), (4, "hybrid"), (5, "baseline"), (5, "hybrid")]
    assert "[sweep] cell n=30 k=2 terms=5 failed: 30 qubits need" in log.getvalue()
    assert "MemAvailable (1.0 MiB)" in log.getvalue()


def _fake(name, n, terms, backend, t_compile, t_run, seed=0):
    return BenchRecord(name, n, terms, 4.0, 0.0, 4, backend, t_compile, t_run,
                       t_run / (terms * 2 ** n), None, seed)


def test_report_speedups():
    records = [_fake("a", 4, 10, "baseline", 1.0, 2.0),
               _fake("a", 4, 10, "hybrid", 1.0, 2.0),
               _fake("b", 4, 10, "baseline", 1.0, 3.0),
               _fake("b", 4, 10, "hybrid", 0.9, 1.0)]
    summary = report(records)
    by_name = {r.name: r for r in summary.rows}
    assert by_name["a"].speedup == pytest.approx(1.0)
    assert by_name["b"].speedup == pytest.approx(3.0)
    assert by_name["b"].compile_ratio == pytest.approx(0.9)
    stats = summary.groups[(4, 10)]
    assert stats["count"] == 2
    assert stats["speedup_mean"] == pytest.approx(2.0)
    text = render_report(summary)
    assert "speedup" in text and "n= 4" in text


def test_report_derives_the_speedup_to_amplitudes():
    records = [_fake("a", 4, 10, "baseline", 1.0, 3.0),
               dataclasses.replace(_fake("a", 4, 10, "hybrid", 1.0, 1.0), t_flush_s=0.5)]
    summary = report(records)
    assert summary.rows[0].speedup == pytest.approx(3.0)
    assert summary.rows[0].speedup_to_amplitudes == pytest.approx(2.0)
    assert summary.groups[(4, 10)]["speedup_to_amplitudes_mean"] == pytest.approx(2.0)
    text = render_report(summary)
    assert text.splitlines()[1].split()[3:5] == ["3.000", "2.000"]
    assert "speedup 3.00 +- 0.00 (2.00 with the flush)" in text


def test_report_rejects_unpaired_records():
    with pytest.raises(ValueError, match="pair"):
        report([_fake("a", 4, 10, "baseline", 1.0, 2.0)])


# ----------------------------------------------------------------------
# CLI

def test_cli_run_produces_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = cli_main(["run", "--random", "4", "2", "8", "3", "--repetitions", "1",
                     "--warmups", "0", "--output", str(out)])
    assert code == 0
    records = read_records(io.StringIO(out.read_text()), "csv")
    assert len(records) == 2
    report_code = cli_main(["report", str(out)])
    assert report_code == 0
    assert "speedup" in capsys.readouterr().out


def test_cli_run_that_fails_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys):
    def fail(config):
        raise RuntimeError("simulation failed")

    monkeypatch.setattr(bench, "run_config", fail)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier records\n")
    for out in (kept, absent):
        assert cli_main(["run", "--random", "3", "2", "4", "1", "--output", str(out)]) == 2
    assert "framesim: runtime error: simulation failed" in capsys.readouterr().err
    assert kept.read_text() == "earlier records\n" and not absent.exists()
    monkeypatch.undo()
    assert cli_main(["run", "--random", "3", "2", "4", "1", "--repetitions", "1",
                     "--output", str(kept)]) == 0
    assert len(read_records(io.StringIO(kept.read_text()), "csv")) == 2



@pytest.mark.parametrize("command", [["run", "--random", "3", "2", "4", "1"],
                                     ["sweep", "--qubits", "3:4:1", "--localities", "2:2:1",
                                      "--terms", "4"]])
def test_cli_interrupted_in_its_first_cell_leaves_the_output_as_it_was(tmp_path, monkeypatch,
                                                                       command):
    # a sweep yields its records cell by cell: the file is emptied only once
    # the first record is in, as for a run
    def interrupt(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "run_config", interrupt)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"earlier records\r\n")
    for out in (kept, absent):
        with pytest.raises(KeyboardInterrupt):
            cli_main([*command, "--output", str(out)])
    assert kept.read_bytes() == b"earlier records\r\n" and not absent.exists()

def test_cli_run_stdout_jsonl(capsys):
    code = cli_main(["run", "--random", "3", "2", "4", "1", "--backends", "hybrid",
                     "--repetitions", "1", "--warmups", "0", "--format", "jsonl"])
    assert code == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 1 and '"backend": "hybrid"' in lines[0]
    clone = f" ({_kernels.simd_clone()})" if _kernels.kernel_tier() == "compiled-c" else ""
    assert f"framesim: kernel tier {_kernels.kernel_tier()}{clone}" in captured.err
    assert captured.err.count("framesim: kernel tier") == 1


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c", reason="no compiled loop")
@pytest.mark.parametrize("l2, ending", [
    (2 << 20, "both gate loops block above the 2048 KiB L2 cache"),
    (0, "both gate loops unblocked: L2 cache size unknown")])
def test_cli_tier_line_names_the_cache_size_that_blocking_uses(capsys, monkeypatch, l2,
                                                               ending):
    # the line names the L2 size that the library read, here a stand-in,
    # or says that no run is blocked; with the ways unknown it names no ways
    monkeypatch.setattr(_kernels, "l2_bytes", lambda: l2)
    monkeypatch.setattr(_kernels, "l2_ways", lambda: 0)
    code = cli_main(["run", "--random", "3", "2", "4", "1", "--backends", "hybrid",
                     "--repetitions", "1", "--warmups", "0"])
    assert code == 0
    assert (f"framesim: kernel tier compiled-c ({_kernels.simd_clone()}), {ending}\n"
            in capsys.readouterr().err)


@pytest.mark.skipif(_kernels.kernel_tier() != "compiled-c", reason="no compiled loop")
def test_cli_tier_line_names_the_ways_of_the_cache_that_blocking_uses(capsys, monkeypatch):
    # with the ways known, the line names them beside the L2 size
    monkeypatch.setattr(_kernels, "l2_bytes", lambda: 2 << 20)
    monkeypatch.setattr(_kernels, "l2_ways", lambda: 16)
    code = cli_main(["run", "--random", "3", "2", "4", "1", "--backends", "hybrid",
                     "--repetitions", "1", "--warmups", "0"])
    assert code == 0
    assert (f"framesim: kernel tier compiled-c ({_kernels.simd_clone()}), "
            "both gate loops block above the 2048 KiB, 16-way L2 cache\n"
            in capsys.readouterr().err)


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--qubits", "3:4:1", "--localities", "2:2:1",
                     "--terms", "4", "--repetitions", "1", "--warmups", "0",
                     "--output", str(out)])
    assert code == 0
    records = read_records(io.StringIO(out.read_text()), "csv")
    assert len(records) == 4
    assert f"framesim: kernel tier {_kernels.kernel_tier()}" in capsys.readouterr().err


def test_cli_sweep_takes_the_shared_run_settings(tmp_path, capsys, monkeypatch):
    # hybrid alone, unverified, holds 2 states, 32 B per amplitude: the
    # budget fits n = 3 (256 B on the compiled tier) but not n = 4, nor
    # n = 3 with both backends
    held = 32 + TEMPORARY
    monkeypatch.setattr(bench, "memory_limits", lambda: (None, held << 3))
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--qubits", "3:4:1", "--localities", "2:2:1",
                     "--terms", "4", "--backends", "hybrid",
                     "--repetitions", "1", "--warmups", "0", "--output", str(out)])
    assert code == 0
    records = read_records(io.StringIO(out.read_text()), "csv")
    assert [(r.n_qubits, r.backend) for r in records] == [(3, "hybrid")]
    err = capsys.readouterr().err
    assert "[sweep] cell n=4" in err and f"4 qubits need 0.0 MiB, {held / 16:g} states" in err


def test_cli_run_a_state_the_os_will_not_map_exits_2(monkeypatch, capsys):
    # a budget that cannot be read lets the run try; the refused mapping of
    # its first 17-qubit state ends it as a runtime error, with no traceback
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(bench, "memory_limits", lambda: (None, None))
    monkeypatch.setattr(mmap, "mmap", refuse)
    assert cli_main(["run", "--random", "17", "2", "2", "1"]) == 2
    err = capsys.readouterr().err
    assert f"framesim: runtime error: cannot map {16 << 17} bytes" in err
    assert "Traceback" not in err


def _pair_text(fmt, hybrid_t_run=2.0):
    buf = io.StringIO()
    write_records([_fake("a", 4, 10, "baseline", 1.0, 2.0),
                   _fake("a", 4, 10, "hybrid", 1.0, hybrid_t_run)], buf, fmt)
    return buf.getvalue()


MALFORMED_RECORDS = {
    # the seed column cut from the header and from every row
    "csv_missing_column": (
        "csv", "".join(",".join(v for k, v in zip(CSV_FIELDS, line.split(",")) if k != "seed")
                       + "\n" for line in _pair_text("csv").splitlines()),
        "line 2: missing column(s) seed"),
    "jsonl_line_not_an_object": (
        "jsonl", _pair_text("jsonl") + "[1, 2]\n",
        "line 3: a record must be a JSON object"),
    # n_qubits of the hybrid row (CSV line 3) replaced by text
    "csv_value_does_not_parse": (
        "csv", _pair_text("csv").replace("a,4,10,4.0,0.0,4,hybrid",
                                         "a,abc,10,4.0,0.0,4,hybrid"),
        "line 3: column n_qubits: cannot read 'abc'"),
    "jsonl_line_not_json": (
        "jsonl", _pair_text("jsonl") + '{"name": "a" "n_qubits": 4}\n',
        "line 3: not valid JSON (Expecting ',' delimiter at column 14)"),
    "zero_run_time": (
        "csv", _pair_text("csv", hybrid_t_run=0.0),
        "the hybrid record has a non-positive t_compile_s or t_run_s"),
}


@pytest.mark.parametrize("column, value", [
    ("n_qubits", 8.5), ("n_terms", 10.9), ("seed", True), ("L_max", False), ("L_max", "4.5"),
    ("L_mean", True), ("t_run_s", [2.0]), ("name", 5)])
def test_jsonl_reads_numbers_strictly(column, value):
    # an int column accepts only a JSON integer that is not a bool, a float
    # column refuses a bool: 8.5 used to read as 8, 10.9 as 10 and true as 1
    row = json.loads(_pair_text("jsonl").splitlines()[0])
    text = json.dumps({**row, column: value}) + "\n"
    with pytest.raises(BenchConfigError, match=f"line 1: column {column}: cannot read"):
        read_records(io.StringIO(text), "jsonl")


def test_jsonl_float_columns_accept_integers():
    # other writers may write 4.0 as the JSON integer 4: a float column
    # reads it as the float
    row = json.loads(_pair_text("jsonl").splitlines()[0])
    record = read_records(io.StringIO(json.dumps({**row, "L_mean": 4, "t_run_s": 2}) + "\n"),
                         "jsonl")[0]
    assert record == _fake("a", 4, 10, "baseline", 1.0, 2.0)
    assert type(record.l_mean) is float and type(record.t_run_s) is float


@pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
def test_cli_report_rejects_malformed_records(tmp_path, capsys, case):
    fmt, text, message = MALFORMED_RECORDS[case]
    path = tmp_path / f"records.{fmt}"
    path.write_text(text)
    assert cli_main(["report", str(path), "--format", fmt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("framesim: config error: ") and message in err


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli_main(["run", "--file", str(tmp_path / "missing.txt")]) == 1
    # paths that open() refuses, here a directory: a config error, not a traceback
    capsys.readouterr()
    for argv in (["run", "--file", str(tmp_path)],
                 ["run", "--random", "4", "2", "2", "1", "--output", str(tmp_path)],
                 ["report", str(tmp_path)]):
        assert cli_main(argv) == 1, argv
        assert "\nframesim: config error:" in "\n" + capsys.readouterr().err, argv
    with monkeypatch.context() as mp:  # the output is opened before any backend runs
        mp.setattr(bench, "run_config", lambda config: pytest.fail("ran before --output opened"))
        assert cli_main(["run", "--random", "4", "2", "2", "1", "--output", str(tmp_path)]) == 1
    assert "\nframesim: config error:" in "\n" + capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 QQ\n")
    assert cli_main(["run", "--file", str(bad)]) == 1
    capsys.readouterr()
    with monkeypatch.context() as mp:  # a verified run of both backends
        mp.setattr(bench, "memory_limits", lambda: (BOTH_VERIFIED << 8, None))
        assert cli_main(["run", "--random", "8", "2", "4", "1"]) == 0
        assert cli_main(["run", "--random", "9", "2", "4", "1"]) == 1
    assert "framesim: config error: 9 qubits need" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_main(["run"])  # missing source
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli_main(["bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
