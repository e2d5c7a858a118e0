"""Tests of the benchmark itself, on tiny instances of each workload."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from framesim import HybridState  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = {w.name: w for w in (
    Workload("trotter_n18_k18", "trotter", 5, locality=5, terms=3),
    Workload("clifford_rot_n20", "clifford_rot", 5, rotations=3),
    Workload("shots_n8", "shots", 4, gates=40, rotations=10, measurements=4,
             preparations=2, shots=3),
)}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "INPROCESS_BUILDS", 2)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def bench(capsys, *argv):
    assert run.main(["--seconds", "0", *argv], workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert list(WORKLOADS) == list(TINY)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())
    assert list(layer_map["workloads"]) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_smoke_prints_every_metric(capsys, workload, trace):
    result, lines = bench(capsys, "--workload", workload, "--trace", str(trace))
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    for name, unit in expected:
        assert any(line.startswith(f"{workload} {name} = ") and f" {unit} (" in line
                   for line in lines), name
    assert any(f"{workload} failed_fraction = 0 " in line for line in lines)
    assert any("kernel tier numpy-fallback" in line or "kernel tier numba-jit" in line
               for line in lines)


def test_counts_repeat_exactly(capsys):
    first, _ = bench(capsys, "--trace", "1", "--seed", "7")
    second, _ = bench(capsys, "--trace", "1", "--seed", "7")
    exact = [k for k, v in first["metrics"].items() if v["unit"] in run.EXACT_UNITS]
    assert len(exact) == 3 * sum(u in run.EXACT_UNITS for _, u in run.PER_LAYER)
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_perturbed_hybrid_amplitudes_fail_the_checks(capsys, monkeypatch):
    flush = HybridState.flush_to_origin

    def scaled_flush(self):
        flush(self)
        self.phi.amplitudes *= 1.001

    monkeypatch.setattr(HybridState, "flush_to_origin", scaled_flush)
    result, lines = bench(capsys, "--workload", "trotter_n18_k18")
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines if "failed_fraction" in line)
    printed = float(frac.split("=")[1].split()[0])
    assert printed > 0 and printed == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_failed_repetitions_are_left_out_of_the_medians():
    good = run.Rep(0, baseline_s=[1.0], hybrid_s=[2.0, 3.0, 4.0], attempted=3)
    bad = run.Rep(1, baseline_s=[50.0], hybrid_s=[60.0], attempted=3, failed=1)
    assert run.medians([good, bad, bad], "hybrid_s") == (3.0, 3)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "shots_n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
