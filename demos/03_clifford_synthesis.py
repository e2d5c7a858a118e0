"""Synthesizing a tracked Clifford back into O(n) Pauli rotations.

Any valid frame can be reduced to the origin by one rule applied over and
over: a pi/2 turn about i*B*A conjugates a frame entry A onto any
anticommuting Pauli B (a pi turn when A = -B).  Per qubit, at most two such
turns reduce a row to a single-qubit pair, at most one more per entry sends
the pair to (+Z, +X), and swaps sort the pairs into place; the same steps,
applied to a state vector, implement the Clifford the frame represents.
This is what lets the hybrid backend hand back amplitudes.
"""
import numpy as np

from framesim import PauliFrame, invert_to_rotations

rng = np.random.default_rng(11)
n = 8

# build a random Clifford circuit and accumulate it in a frame
frame = PauliFrame.origin(n)
gate_count = 0
tags_1q = ["H", "S", "SDG", "X", "Y", "Z"]
tags_2q = ["CX", "CZ", "SWAP"]
for _ in range(300):
    if rng.random() < 0.5:
        frame.apply_gate(tags_1q[rng.integers(6)], (int(rng.integers(n)),))
    else:
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        frame.apply_gate(tags_2q[rng.integers(3)], (a, b))
    gate_count += 1

print(f"{gate_count} random Clifford gates on {n} qubits produced:")
print(frame.dump())

steps = invert_to_rotations(frame)
multi = [s for s in steps if s.kind == "pauli_rotation" and s.axis.weight >= 2]
single = [s for s in steps if s.kind == "pauli_rotation" and s.axis.weight == 1]
swaps = [s for s in steps if s.kind == "qubit_swap"]
print(f"\nsynthesis: {len(multi)} multi-qubit rotations (bound 2n = {2 * n}), "
      f"{len(single)} single-qubit rotations, {len(swaps)} swaps")
for s in multi[:4]:
    print(f"  R({s.axis}) angle {s.angle:+.4f}")

# applying the steps' conjugation images restores the origin frame exactly
check = frame.copy()
for s in steps:
    check.apply_step(s)
print("\nround trip to origin frame, signs included:", check.is_origin())
