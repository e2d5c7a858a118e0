"""Command line front end: ``framesim run | sweep | report``.

Exit codes: 0 success, 1 configuration error (bad flags, missing or
malformed input, a file or output path that cannot be opened, a run over
its memory budget), 2 runtime error (simulation
failure, a state the operating system will not map, or a backend
cross-check mismatch).  ``run`` and ``sweep`` name the amplitude
kernel tier on stderr before they start, with the compiled clone in use
(``avx2`` or ``generic``) and the L2 cache size above which both gate
loops, the baseline's and the hybrid's, block their passes in runs, or
that they run unblocked because the system reported no size, so a numpy
fallback, a generic build on an AVX2 host or an unblocked loop shows in
every run's output.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import _kernels, bench
from .bench import BenchConfig, BenchConfigError, RandomSpec
from .hamiltonian import HamiltonianParseError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our contract reserves 2 for
    # runtime failures, so remap usage problems to the config-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backends", default="baseline,hybrid",
                   help="comma-separated subset of {baseline,hybrid}")
    p.add_argument("--time", type=float, default=1.0, help="evolution time t")
    p.add_argument("--steps", type=int, default=1, help="Trotter steps")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--warmups", type=int, default=1)
    p.add_argument("--output", default=None, help="write records here (default stdout)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="framesim",
                     description="Benchmark the fullstate and Pauli-frame hybrid "
                                 "backends on Trotterized Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="benchmark a single Hamiltonian")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--random", nargs=4, type=int,
                     metavar=("N_QUBITS", "LOCALITY", "N_TERMS", "SEED"),
                     help="generate a random exact-locality Hamiltonian")
    src.add_argument("--file", help="read a Pauli-sum text file")
    run.add_argument("--no-verify", action="store_true",
                     help="skip the cross-backend probability check")
    _add_common(run)

    swp = sub.add_parser("sweep",
                         help="benchmark the (n_qubits, locality, n_terms) grid")
    swp.add_argument("--qubits", default="8:24:2", help="range lo:hi:step (inclusive)")
    swp.add_argument("--localities", default=None,
                     help="range lo:hi:step; default 4..n_qubits step 2 per cell")
    swp.add_argument("--terms", default="50,100", help="comma-separated term counts")
    swp.add_argument("--seed", type=int, default=0, help="base seed for the grid")
    _add_common(swp)

    rep = sub.add_parser("report",
                         help="summarize speedups and compile ratios from records")
    rep.add_argument("records", help="records file produced by run/sweep")
    rep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def _parse_range(text: str) -> tuple[int, ...]:
    lo, hi, step = (int(v) for v in text.split(":"))
    return tuple(range(lo, hi + 1, step))


def _report_tier() -> None:
    # on stderr, so that records written to stdout stay machine-readable
    line = f"framesim: kernel tier {_kernels.kernel_tier()}"
    clone = _kernels.simd_clone()
    if clone:
        l2 = _kernels.l2_bytes()
        line += (f" ({clone}), both gate loops block above the {l2 >> 10} KiB L2 cache" if l2
                 else f" ({clone}), both gate loops unblocked: L2 cache size unknown")
    print(line, file=sys.stderr)


def _settings(args) -> dict:
    """The run settings that ``run`` and ``sweep`` share, as ``BenchConfig`` fields."""
    return dict(backends=tuple(args.backends.split(",")),
                trotter_time=args.time, trotter_steps=args.steps,
                repetitions=args.repetitions, warmups=args.warmups)


def _write(make_records, args) -> None:
    """Write the records that ``make_records()`` returns, a list or a
    generator, to ``--output``, or to stdout without one.

    The file is opened, for appending, before ``make_records`` is called, so
    a path that cannot be opened fails before any backend runs.  It is
    emptied only once the first record is in, or the records end without
    one: if the call or the first record fails, a file that was there is
    left as it was, and one that was not is removed.  The records after the
    first are written as they come."""
    if args.output is None:
        bench.write_records(make_records(), sys.stdout, args.format)
        return
    existed = os.path.lexists(args.output)
    with open(args.output, "a", encoding="utf-8", newline="") as stream:
        try:
            records = iter(make_records())
            first = next(records, None)
        except BaseException:
            if not existed:
                os.remove(args.output)
            raise
        if stream.seekable():
            stream.truncate(0)
        if first is not None:
            records = itertools.chain((first,), records)
        bench.write_records(records, stream, args.format)


def _cmd_run(args) -> int:
    source = RandomSpec(*args.random) if args.random is not None else args.file
    config = BenchConfig(source, verify=not args.no_verify, **_settings(args))
    _report_tier()
    _write(lambda: bench.run_config(config), args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cells = bench.default_sweep_cells(
        qubits=_parse_range(args.qubits),
        localities=_parse_range(args.localities) if args.localities else None,
        terms=tuple(int(v) for v in args.terms.split(",")))
    _report_tier()
    _write(lambda: bench.sweep(cells, seed=args.seed, **_settings(args)), args)
    return EXIT_OK


def _cmd_report(args) -> int:
    with open(args.records, "r", encoding="utf-8") as fh:
        records = bench.read_records(fh, args.format)
    summary = bench.report(records)
    sys.stdout.write(bench.render_report(summary))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except (BenchConfigError, HamiltonianParseError, OSError, ValueError) as exc:
        print(f"framesim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, MemoryError) as exc:
        print(f"framesim: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
