"""Time one workload set-up in a fresh interpreter.

Usage: python3 setup_probe.py '<workload spec as JSON>' <seed>

Prints the seconds from ``import framesim`` until the inputs of repetition
0 (Hamiltonian plus Trotter circuit, or the generated circuit) are built.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    spec, seed = json.loads(sys.argv[1]), int(sys.argv[2])
    t0 = time.perf_counter()
    import framesim  # noqa: F401  (the import is what is being timed)
    import workloads
    workloads.build(workloads.Workload(**spec), seed, 0)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
