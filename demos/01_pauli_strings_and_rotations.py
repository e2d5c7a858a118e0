"""Pauli strings as bitmasks and the pairwise rotation kernel.

Walks through the encoding of signed Pauli operators, their action on
computational basis states, and why a multi-qubit rotation costs a single
pass over the amplitudes regardless of how many qubits it touches.
"""
import numpy as np

from framesim import PauliString, StateVector

# A Pauli string is two bitmasks plus a phase exponent.  The dense label
# reads from the highest qubit down to qubit 0, matching binary notation.
p = PauliString.from_label("XYZX")
print("operator:       ", p)
print("x bits / z bits:", bin(p.x_bits), bin(p.z_bits))
mx, my, mz = p.masks()
print("letter masks:   ", f"X={mx:04b} Y={my:04b} Z={mz:04b}")
print("weight:         ", p.weight)

# Applied to a basis state |k>, a Pauli only flips bits and attaches an
# i**e phase; both come straight out of the masks.
k = 0b0000
print(f"\nP|{k:04b}> = i^{p.phase_exp_at(k)} |{p.flip_target(k):04b}>")

# Products track the exact phase: X*Y = iZ, and anticommutation is a parity.
x, y = PauliString.from_label("X"), PauliString.from_label("Y")
print("\nX * Y =", x * y)
print("anticommute(X, Y) =", x.anticommutes(y))

# The rotation R_P(theta) = exp(-i theta P / 2) pairs amplitude k with
# k XOR x_bits.  All pairs update with the same two coefficients, so the
# kernel is one sweep whatever the weight of P.
rng = np.random.default_rng(7)
n = 10
state = StateVector(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
state.amplitudes /= np.linalg.norm(state.amplitudes)

theta = 0.7
for label in ("Z" + "I" * (n - 1), "ZXYZXIIZXY"):
    axis = PauliString.from_label(label)
    applied = state.copy()
    applied.apply_pauli(axis)
    # verify against the closed form cos(t/2) I - i sin(t/2) P
    check = (np.cos(theta / 2) * state.amplitudes
             - 1j * np.sin(theta / 2) * applied.amplitudes)
    state.apply_pauli_rotation(axis, theta)
    err = np.max(np.abs(state.amplitudes - check))
    print(f"R_{{{label}}}({theta}) weight {axis.weight:2d}: "
          f"closed-form error {err:.2e}")

print("\nnorm after rotations:", state.norm())
