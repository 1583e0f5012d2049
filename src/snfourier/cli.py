"""Command-line front end: run | verify | spectrum | sample.

Each command parses its arguments, calls the library and returns through
_emit, which writes once every text is built: a failing command writes no file.

Exit codes are part of the contract: 0 success, 1 verify-battery failure,
2 input/validation problems, 3 degree-guard violations or an allocation that
ran out of memory, 4 an annihilated state. Errors print a single line to
stderr. Identical invocations with identical seeds produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from .errors import AnnihilatedStateError, DegreeGuardError, check_degree
from .pipeline import run_plan, sample_computational, sample_fourier
from .serialize import (
    fourier_distribution_to_csv,
    fourier_distribution_to_json,
    function_from_csv,
    ledger_to_jsonl,
    partition_samples_to_csv,
    plan_from_json,
    posterior_to_csv,
    report_to_json,
    samples_to_csv,
    spectrum_to_json,
)
from .transform import NORMALIZATIONS, function_degree, gft_forward


def _emit(out: str, files: dict, note: str = "") -> int:
    """Write each {name: text} entry into the directory out, then say so."""
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {' '.join(files)}{note} to {directory}")
    return 0


def _load_plan(args):
    plan = plan_from_json(Path(args.plan).read_text(encoding="utf-8"))
    if args.seed is not None:
        plan = replace(plan, seed=args.seed)
    if args.n_guard is not None:
        check_degree(plan.n, args.n_guard)
    return plan


def _cmd_run(args) -> int:
    plan = _load_plan(args)
    state, report = run_plan(plan)
    return _emit(args.out, {
        "posterior.csv": posterior_to_csv(report.posterior),
        "spectrum.json": spectrum_to_json(gft_forward(state.amplitudes, args.normalization)),
        "ledger.jsonl": ledger_to_jsonl(report.ledger),
        "report.json": report_to_json(plan, report),
    })


def _cmd_verify(args) -> int:
    # imported here: only this command needs the battery and its oracles
    from .verify import format_table, run_battery

    results = run_battery(args.n_max, seed=args.seed, guard=args.n_guard)
    print(format_table(results), end="")
    return 0 if all(result.passed for result in results) else 1


def _cmd_spectrum(args) -> int:
    values = function_from_csv(Path(args.input).read_text(encoding="utf-8"))
    check_degree(function_degree(values), args.n_guard)
    spectrum = gft_forward(values, args.normalization)
    unitary = (spectrum if args.normalization == "unitary"
               else gft_forward(values, "unitary"))
    write_energies = (fourier_distribution_to_json if args.format == "json"
                      else fourier_distribution_to_csv)
    return _emit(args.out, {
        "spectrum.json": spectrum_to_json(spectrum),
        f"energies.{args.format}": write_energies(unitary.sampling_distribution()),
    })


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    plan = _load_plan(args)
    state, _ = run_plan(plan)
    if args.mode == "computational":
        draws = sample_computational(state, args.count, seed=plan.seed)
        files = {"samples.csv": samples_to_csv(draws)}
    else:
        draws, exact = sample_fourier(state, args.count, seed=plan.seed)
        files = {"samples.csv": partition_samples_to_csv(draws),
                 "distribution.json": fourier_distribution_to_json(exact)}
    return _emit(args.out, files, f" ({args.count} draws)")


# built once per process: in-process callers of main then leave no parser
# graph behind per call for the cyclic collector
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snfourier",
        description="Harmonic analysis and statevector inference over permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plan=False):
        if plan:
            p.add_argument("--plan", required=True, help="plan JSON path")
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--seed", type=int, default=None,
                           help="override the plan's RNG seed")
        p.add_argument("--n-guard", type=int, default=None,
                       help="tighten the dense-storage degree guard")

    run_p = sub.add_parser("run", help="execute a plan and write its artifacts")
    common(run_p, plan=True)
    run_p.add_argument("--normalization", choices=NORMALIZATIONS,
                       default="unitary", help="normalization of spectrum.json")
    run_p.set_defaults(handler=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the self-check battery")
    verify_p.add_argument("--n-max", type=int, default=4,
                          help="largest degree the battery sweeps")
    verify_p.add_argument("--seed", type=int, default=0)
    common(verify_p)
    verify_p.set_defaults(handler=_cmd_verify)

    spectrum_p = sub.add_parser(
        "spectrum", help="transform a rank,value CSV and report block energies"
    )
    spectrum_p.add_argument("--input", required=True, help="rank,value CSV path")
    spectrum_p.add_argument("--out", required=True, help="output directory")
    spectrum_p.add_argument("--normalization", choices=NORMALIZATIONS,
                            default="unitary")
    spectrum_p.add_argument("--format", choices=("json", "csv"), default="json",
                            help="format of the energy distribution file")
    common(spectrum_p)
    spectrum_p.set_defaults(handler=_cmd_spectrum)

    sample_p = sub.add_parser("sample", help="run a plan, then draw from the result")
    common(sample_p, plan=True)
    sample_p.add_argument("--count", type=int, default=1000)
    sample_p.add_argument("--mode", choices=("computational", "fourier"),
                          default="computational")
    sample_p.set_defaults(handler=_cmd_sample)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DegreeGuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        # numpy's message names the allocation: size, shape and dtype
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 3
    except AnnihilatedStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
