"""Quantum circuit simulation with a fullstate and a Pauli-frame hybrid backend.

The hybrid backend tracks Clifford gates in a Pauli frame at negligible cost
and executes only non-Clifford operations as native multi-qubit Pauli
rotations on the state vector, so the cost of a Trotterized Hamiltonian step
does not grow with the locality of its terms.
"""
from .pauli import PauliString
from .statevector import StateVector
from .frame import PauliFrame, RotationStep, invert_to_rotations
from .hamiltonian import (HamTerm, Hamiltonian, HamiltonianParseError,
                          candidate_count, parse_hamiltonian, random_hamiltonian)
from .circuit import (CLIFFORD_TAGS, ROTATION_TAGS, Circuit, Gate,
                      compile_pauli_rotation, trotterize)
from .backends import HybridState, RunReport, run_baseline, run_hybrid
from .bench import (BenchConfig, BenchRecord, RandomSpec, default_sweep_cells,
                    read_records, report, run_config, sweep, write_records)

__all__ = [
    "PauliString", "StateVector", "PauliFrame", "RotationStep",
    "invert_to_rotations", "HamTerm", "Hamiltonian", "HamiltonianParseError",
    "candidate_count", "parse_hamiltonian", "random_hamiltonian",
    "CLIFFORD_TAGS", "ROTATION_TAGS", "Circuit", "Gate",
    "compile_pauli_rotation", "trotterize", "HybridState", "RunReport",
    "run_baseline", "run_hybrid", "BenchConfig", "BenchRecord", "RandomSpec",
    "default_sweep_cells", "read_records", "report", "run_config", "sweep",
    "write_records",
]

__version__ = "0.1.0"
