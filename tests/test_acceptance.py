"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints an ``ACCEPTANCE <n> PASS`` line (visible with ``pytest -s``)
summarizing what was measured.  Timing-based criteria interleave their
repetitions round-robin across cells and compare medians, so a transient
load spike on a shared machine cannot land entirely on one cell.
"""
import statistics
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from framesim import (PauliFrame, PauliString, StateVector, _kernels,
                      compile_pauli_rotation, invert_to_rotations,
                      random_hamiltonian, run_baseline, run_hybrid, trotterize)
from oracles import (all_paulis, circuit_unitary, pauli_matrix,
                     random_clifford_circuit, random_mixed_circuit,
                     random_pauli, rotation_matrix)


def random_state(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp)


def random_weighted_pauli(rng, n, k):
    support = rng.choice(n, k, replace=False)
    x = z = 0
    for q in support:
        c = int(rng.integers(3))
        if c != 2:
            x |= 1 << int(q)
        if c != 0:
            z |= 1 << int(q)
    return PauliString(n, x, z)


# ----------------------------------------------------------------------
# 1. rotation-kernel oracle


def test_criterion_1_rotation_kernel_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(500):
        n = 1 + trial % 6
        p = random_pauli(rng, n)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        s = random_state(rng, n)
        ref = rotation_matrix(p, theta) @ s.amplitudes
        s.apply_pauli_rotation(p, theta)
        worst = max(worst, float(np.max(np.abs(s.amplitudes - ref))))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 1 PASS: 500 rotations, n<=6, max amplitude error "
          f"{worst:.2e} <= 1e-12")


# ----------------------------------------------------------------------
# 2. CNOT-staircase oracle


def test_criterion_2_staircase_oracle():
    rng = np.random.default_rng(102)
    n = 5
    worst = 0.0
    for trial in range(100):
        k = 1 + trial % 5
        term = random_weighted_pauli(rng, n, k)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        frag = compile_pauli_rotation(term, theta)
        cx = sum(1 for g in frag.gates if g.tag == "CX")
        assert cx == 2 * (k - 1), f"weight {k}: {cx} CX gates"
        err = float(np.max(np.abs(circuit_unitary(frag) - rotation_matrix(term, theta))))
        worst = max(worst, err)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2 PASS: 100 staircases, weights 1-5, exactly 2(k-1) CX, "
          f"max error {worst:.2e} <= 1e-12")


# ----------------------------------------------------------------------
# 3. backend equivalence


def test_criterion_3_backend_equivalence():
    rng = np.random.default_rng(103)
    worst_exp = worst_prob = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        circ = random_mixed_circuit(rng, n, int(rng.integers(20, 101)))
        state, rb = run_baseline(circ, rng=trial)
        hs, rh = run_hybrid(circ, rng=trial)
        assert rb.measurements == rh.measurements
        for _ in range(4):
            p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            diff = abs(hs.expectation(p) - state.expectation(p))
            worst_exp = max(worst_exp, diff)
        hs.flush_to_origin()
        worst_prob = max(worst_prob, float(np.max(
            np.abs(state.probabilities() - hs.phi.probabilities()))))
    assert worst_exp <= 1e-10 and worst_prob <= 1e-10

    # measurement-distribution agreement: two-sample chi-squared over 1e4
    # shots per backend on 20 circuits with mid-circuit measurements
    shots = 10_000
    p_values = []
    for cid in range(20):
        gen = np.random.default_rng(5000 + cid)
        n = int(gen.integers(2, 5))
        circ = random_mixed_circuit(gen, n, int(gen.integers(12, 25)),
                                    p_rotation=0.3, p_measure=0.15, p_prep=0.05)
        for q in range(n):
            circ.append("MEASZ", q)
        counts = []
        for which, runner in enumerate((run_baseline, run_hybrid)):
            tally = Counter()
            for shot in range(shots):
                _, rep = runner(circ, rng=np.random.default_rng(
                    (cid, which, shot)))
                tally[tuple(rep.measurements)] += 1
            counts.append(tally)
        bins = sorted(set(counts[0]) | set(counts[1]))
        table = np.array([[c.get(b, 0) for b in bins] for c in counts])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            p_values.append(1.0)  # single deterministic outcome on both sides
            continue
        p_values.append(scipy.stats.chi2_contingency(table).pvalue)
    assert min(p_values) > 0.01, f"chi-squared rejected: p={min(p_values):.4f}"
    print(f"\nACCEPTANCE 3 PASS: 200 circuits, expectation diff {worst_exp:.2e} "
          f"and post-flush probability diff {worst_prob:.2e} <= 1e-10; "
          f"chi-squared over {shots} shots x 20 circuits, min p "
          f"{min(p_values):.3f} > 0.01")


# ----------------------------------------------------------------------
# 4. frame inversion


def test_criterion_4_frame_inversion():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    max_rotations = 0
    for trial in range(1000):
        n = 1 + trial % 16
        frame = PauliFrame.origin(n)
        for g in random_clifford_circuit(rng, n, 10 * n + 20).gates:
            frame.apply_gate(g.tag, g.qubits)
        steps = invert_to_rotations(frame)
        multi = sum(1 for s in steps
                    if s.kind == "pauli_rotation" and s.axis.weight >= 2)
        assert multi <= 2 * n, f"{multi} multi-qubit rotations at n={n}"
        max_rotations = max(max_rotations, multi)
        check = frame.copy()
        for s in steps:
            check.apply_step(s)
        assert check.is_origin()  # exact, signs included
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 1000 frames (n<=16) round-trip exactly, "
          f"multi-qubit rotations <= 2n (max seen {max_rotations}), "
          f"{elapsed:.1f}s < 60s")


# ----------------------------------------------------------------------
# 5-7. timed benchmark criteria (shared measurement fixtures)

LOCALITY_N = 18
LOCALITY_KS = (4, 8, 12, 16, 18)
SIZE_NS = (14, 16, 18, 20)
SIZE_K = 4
N_TERMS = 100


def _tier() -> str:
    """The kernel tier and SIMD clone that the timed criteria ran on."""
    return f"kernel tier {_kernels.kernel_tier()}, clone {_kernels.simd_clone()}"


def _median_times(cells, runner, warmups, rounds):
    """Round-robin timing: every round visits every cell once."""
    samples = {key: [] for key in cells}
    for _ in range(warmups):
        for key in cells:
            runner(cells[key])
    for _ in range(rounds):
        for key in cells:
            samples[key].append(runner(cells[key]))
    return {key: statistics.median(v) for key, v in samples.items()}


@pytest.fixture(scope="module")
def locality_sweep():
    circuits = {k: trotterize(random_hamiltonian(LOCALITY_N, k, N_TERMS, seed=1000 + k))
                for k in LOCALITY_KS}
    hybrid_t = _median_times(circuits, lambda c: run_hybrid(c)[1].t_run_s,
                             warmups=1, rounds=9)
    baseline_t = _median_times(circuits, lambda c: run_baseline(c)[1].t_run_s,
                               warmups=1, rounds=5)
    # compilation is the same code for both backends, so the parity check
    # compares paired back-to-back builds, alternating which backend goes
    # first; the per-round ratio then cancels shared load drift
    def build(k):
        t0 = time.perf_counter()
        trotterize(random_hamiltonian(LOCALITY_N, k, N_TERMS, seed=1000 + k))
        return time.perf_counter() - t0

    ratio_samples = {k: [] for k in LOCALITY_KS}
    for k in LOCALITY_KS:
        build(k)
    for rnd in range(9):
        for k in LOCALITY_KS:
            first, second = build(k), build(k)
            t_base, t_hyb = (first, second) if rnd % 2 == 0 else (second, first)
            ratio_samples[k].append(t_hyb / t_base)
    compile_ratios = {k: statistics.median(v) for k, v in ratio_samples.items()}
    return {"hybrid": hybrid_t, "baseline": baseline_t,
            "compile_ratios": compile_ratios}


def test_criterion_5_locality_flatness(locality_sweep):
    hybrid_t = locality_sweep["hybrid"]
    baseline_t = locality_sweep["baseline"]
    ratio = max(hybrid_t.values()) / min(hybrid_t.values())
    assert ratio <= 1.3, f"hybrid t_run over k: {hybrid_t} (ratio {ratio:.2f}; {_tier()})"
    ks = list(LOCALITY_KS)
    base = [baseline_t[k] for k in ks]
    assert all(b2 > b1 for b1, b2 in zip(base, base[1:])), \
        f"baseline not strictly increasing: {baseline_t} ({_tier()})"
    slope, intercept = np.polyfit(ks, base, 1)
    fitted = slope * np.array(ks) + intercept
    ss_res = float(np.sum((np.array(base) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(base) - np.mean(base)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.9, f"baseline linear fit R^2 = {r2:.3f} ({_tier()})"
    speedup = baseline_t[18] / hybrid_t[18]
    assert speedup >= 5.0, f"speedup at k=18 is {speedup:.1f}x ({_tier()})"
    print(f"\nACCEPTANCE 5 PASS: n={LOCALITY_N}, {N_TERMS} terms: hybrid "
          f"max/min {ratio:.2f} <= 1.3; baseline strictly increasing with "
          f"R^2 {r2:.3f} >= 0.9; speedup at k=18 {speedup:.1f}x >= 5x ({_tier()})")


@pytest.fixture(scope="module")
def size_sweep():
    circuits = {n: trotterize(random_hamiltonian(n, SIZE_K, N_TERMS, seed=2000 + n))
                for n in SIZE_NS}
    return _median_times(circuits, lambda c: run_hybrid(c)[1].t_run_s,
                         warmups=1, rounds=9)


def test_criterion_6_rescaled_runtime_flatness(size_sweep):
    rescaled = {n: t / (N_TERMS * 2 ** n) for n, t in size_sweep.items()}
    ratio = max(rescaled.values()) / min(rescaled.values())
    assert ratio <= 2.0, f"rescaled runtimes {rescaled} vary by {ratio:.2f}x ({_tier()})"
    pretty = {n: f"{v:.2e}" for n, v in rescaled.items()}
    print(f"\nACCEPTANCE 6 PASS: hybrid rescaled runtime across n={SIZE_NS}: "
          f"{pretty}, max/min {ratio:.2f} <= 2 ({_tier()})")


def test_criterion_7_compile_time_parity(locality_sweep):
    ratios = locality_sweep["compile_ratios"]
    assert all(0.8 <= r <= 1.2 for r in ratios.values()), \
        f"compile-time ratios out of band: {ratios} ({_tier()})"
    pretty = {k: f"{r:.2f}" for k, r in ratios.items()}
    print(f"\nACCEPTANCE 7 PASS: hybrid/baseline compile-time ratios {pretty} "
          f"within [0.8, 1.2] ({_tier()})")


# ----------------------------------------------------------------------
# 8. exhaustive Pauli algebra


def test_criterion_8_pauli_algebra_exhaustive():
    pairs = 0
    for n in (1, 2, 3):
        matrices = {(p.x_bits, p.z_bits): pauli_matrix(p) for p in all_paulis(n)}
        for p in all_paulis(n):
            mp = matrices[(p.x_bits, p.z_bits)]
            # single-operator bit action, entry-exact
            dim = 1 << n
            built = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                built[p.flip_target(k), k] = 1j ** p.phase_exp_at(k)
            assert np.array_equal(built, mp)
            for q in all_paulis(n):
                mq = matrices[(q.x_bits, q.z_bits)]
                prod = p * q
                assert np.array_equal(
                    (1j ** prod.phase_exp) * matrices[(prod.x_bits, prod.z_bits)],
                    mp @ mq)
                commute = np.array_equal(mp @ mq, mq @ mp)
                assert p.anticommutes(q) == (0 if commute else 1)
                pairs += 1
    print(f"\nACCEPTANCE 8 PASS: {pairs} Pauli pairs (n<=3) agree with "
          f"Kronecker-product matrices entry-exactly")
