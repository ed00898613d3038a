"""Command-line front end.

Subcommands: check (axiom / strategyproofness verdicts on a mechanism
file), enumerate (orders, separations, closed-form counts), path (utility
segment walk between two orders), amd (solve for an optimal strategyproof
mechanism), zoo (built-in mechanism tables).

Every run prints one JSON report to stdout; --out additionally writes the
same report to a file, atomically, and only on success. Exit codes: 0 pass
or agreement, 1 a mechanism-level violation, 2 an internal cross-check
disagreement or any other internal fault (a bug, not a verdict), 3 bad
input, including bad flags. Bad input and internal faults
print ``{"error": ...}`` to stderr instead of a report, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import amd as amd_mod
from . import axioms, core, mechanisms, paths, verify
from .core import FormatError, UtilityFn, WeakOrder, order_classes, parse_rational

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INTERNAL = 2
EXIT_INPUT = 3

# Closed-form counts are big integers: at m=500 they take 0.03-0.04 s (2-vCPU
# host, CPython 3.11) and the largest has about 2,400 digits, safely under
# Python's default limit of 4,300 digits for turning an int into text.
COUNTS_MAX_M = 500

# A path walks O(m^2) orders of m alternatives each. Between random strict
# orders on a 2-vCPU host (CPython 3.11), m=40 takes 1-1.4 s, m=64 4.2-5.3 s
# with 6.6-7.7 MB printed, m=80 9.5 s with 12 MB, and m=160 over 100 s.
PATH_MAX_M = 64

# Design solves the upper-set program, 2^m - 2 variables. On a 2-vCPU host
# (CPython 3.11) `amd --m 6` on `random_objective(6, Random(0))` takes
# 0.4-0.6 s end to end, 0.26-0.41 s of it `timing_s` (62 variables, 246
# rows, a 1.0 MB report); the m=7 program (126 variables, 679 rows) takes
# 36 s and 5,094 pivots to solve alone.
AMD_MAX_M = 6

# modes whose verdict is one SP violation or none
_SP_CHECKS = {"sp": verify.check_sp_bruteforce, "multisep": paths.check_refinement_sp}

# CLI mode tokens map to the library's descriptive names
_MODE_CHECKS = {
    "theorem1": verify.check_decomposition,
    "corollary1": verify.check_deterministic_decomposition,
    "remark2": verify.check_relaxed_decomposition,
}

CHECK_MODES = ("axioms", *_SP_CHECKS, *_MODE_CHECKS)


class _InputError(Exception):
    """Anything wrong with what the user handed us; exits with code 3."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as bad input, exit 3, instead of
    argparse's exit 2, which this CLI reserves for internal disagreements."""

    def error(self, message: str):
        raise _InputError(f"{self.prog}: {message}")


def _load_mechanism(path: str) -> mechanisms.MechanismTable:
    if not os.path.exists(path):
        raise _InputError(f"mechanism file not found: {path}")
    try:
        return mechanisms.load_mechanism(path)
    except mechanisms.MechanismFormatError as exc:
        raise _InputError(f"bad mechanism file {path}: {exc}") from None


def _load_utility(path: str, m: int) -> UtilityFn:
    if not os.path.exists(path):
        raise _InputError(f"utility file not found: {path}")
    data = core.read_json(path, f"utility file {path} not valid JSON", _InputError)
    values = data.get("values") if isinstance(data, dict) else None
    if not isinstance(values, list) or len(values) != m:
        raise _InputError(f"utility file {path} must hold {m} values")
    try:
        parsed = tuple(parse_rational(v) for v in values)
    except FormatError:
        raise _InputError(f"utility file {path}: values must be \"p/q\" rationals")
    try:
        return UtilityFn(m, parsed)
    except ValueError as exc:
        raise _InputError(f"utility file {path}: {exc}") from None


def _parse_order(text: str) -> WeakOrder:
    try:
        return WeakOrder.parse(text)
    except FormatError as exc:
        raise _InputError(str(exc)) from None


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    mech = _load_mechanism(args.mechanism)

    if args.mode == "axioms":
        report = axioms.check_all_axioms(
            mech, all_violations=args.emit_all_certificates
        )
        ok = all(report.verdicts.values())
        return {"check": report.to_json()}, EXIT_PASS if ok else EXIT_VIOLATION

    if args.mode in _SP_CHECKS:
        violation = _SP_CHECKS[args.mode](mech)
        result = {
            "mechanism": mech.name,
            "m": mech.m,
            "pass": violation is None,
            "violation": core.json_value(violation),
        }
        return {"check": result}, EXIT_PASS if violation is None else EXIT_VIOLATION

    check = _MODE_CHECKS[args.mode]
    try:
        report = check(mech)
    except verify.NotDeterministicError as exc:
        raise _InputError(str(exc)) from None
    code = EXIT_PASS if report.agreement else EXIT_INTERNAL
    return {"check": report.to_json()}, code


def cmd_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    m = args.m
    if m < 1:
        raise _InputError("enumerate needs --m >= 1")
    if args.what == "counts":
        if m > COUNTS_MAX_M:
            raise _InputError(f"closed-form counts are capped at m={COUNTS_MAX_M}")
        return {"enumerate": verify.count_constraints(m).to_json()}, EXIT_PASS
    if m > core.ENUMERATION_MAX_M:
        raise _InputError(
            f"enumeration beyond m={core.ENUMERATION_MAX_M} is unreasonably large"
        )
    if args.what == "orders":
        orders = list(core.order_texts(m))
        return {"enumerate": {"m": m, "orders": orders}}, EXIT_PASS
    separations = [sep.to_json() for sep in axioms.all_separations(m)]
    return {"enumerate": {"m": m, "separations": separations}}, EXIT_PASS


def cmd_path(args: argparse.Namespace) -> tuple[dict, int]:
    start = _parse_order(args.from_order)
    end = _parse_order(args.to_order)
    if start.m != end.m:
        raise _InputError("orders must cover the same alternatives")
    if start.m > PATH_MAX_M:
        raise _InputError(f"paths are capped at m={PATH_MAX_M}, not m={start.m}")
    u = _load_utility(args.utilities_from, start.m) if args.utilities_from else None
    v = _load_utility(args.utilities_to, end.m) if args.utilities_to else None
    try:
        result = paths.refinement_path(start, end, u, v)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return {"path": result.to_json()}, EXIT_PASS


def _put_table(result: dict, mech: mechanisms.MechanismTable, path: str | None) -> None:
    """Save the table to ``path``, or embed it in the report without one."""
    if path:
        mechanisms.save_mechanism(mech, path)
    else:
        result["mechanism_table"] = mechanisms.mechanism_to_json(mech)
    result["mechanism_file"] = path or None


def cmd_amd(args: argparse.Namespace) -> tuple[dict, int]:
    m = args.m
    if m < 1:
        raise _InputError("amd needs --m >= 1")
    if m > AMD_MAX_M:
        raise _InputError(f"LP design beyond m={AMD_MAX_M} is unreasonably large")
    if not args.objective:
        raise _InputError("amd needs --objective FILE")
    try:
        objective = amd_mod.load_objective(args.objective, m)
    except FormatError as exc:
        raise _InputError(str(exc)) from None
    except OSError as exc:
        raise _InputError(f"cannot read objective file: {exc}") from None

    solution, mech = amd_mod.solve_design(m, objective)
    violation = verify.check_sp_bruteforce(mech)
    result: dict = {
        "m": m,
        "objective": args.objective,
        "summary": amd_mod.lp_summary(m),
        "solution": solution.to_json(),
        "sp_check": {
            "pass": violation is None,
            "violation": core.json_value(violation),
        },
    }
    _put_table(result, mech, args.out_mechanism)
    # an optimum that fails the brute-force re-check means the G program
    # and the scanner disagree: internal, loudly
    code = EXIT_PASS if violation is None else EXIT_INTERNAL
    return {"amd": result}, code


def cmd_zoo(args: argparse.Namespace) -> tuple[dict, int]:
    if args.action == "list":
        return {"zoo": {"mechanisms": sorted(mechanisms.ZOO)}}, EXIT_PASS
    if not args.name:
        raise _InputError("zoo emit needs --name")
    factory = mechanisms.ZOO.get(args.name)
    if factory is None:
        raise _InputError(
            f"unknown mechanism {args.name!r}; try: {', '.join(sorted(mechanisms.ZOO))}"
        )
    m = args.m
    if m is None or m < 1:
        raise _InputError("zoo emit needs --m >= 1")
    if m > core.ENUMERATION_MAX_M:
        raise _InputError(
            f"zoo tables beyond m={core.ENUMERATION_MAX_M} are unreasonably large"
        )
    result = {"name": args.name, "m": m, "entries": len(order_classes(m))}
    _put_table(result, factory(m), args.out_mechanism)
    return {"zoo": result}, EXIT_PASS


def _check_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("check", help="run verdicts on a mechanism file")
    p.add_argument("--mechanism", required=True, help="mechanism JSON file")
    p.add_argument("--mode", choices=CHECK_MODES, default="theorem1")
    p.add_argument(
        "--emit-all-certificates",
        action="store_true",
        help="list every certificate instead of the first per axiom",
    )
    return p


def _enumerate_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("enumerate", help="orders, separations, or counts")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--what", choices=("orders", "separations", "counts"), default="counts")
    return p


def _path_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("path", help="refinement path between two orders")
    p.add_argument("--from", dest="from_order", required=True, metavar="ORDER")
    p.add_argument("--to", dest="to_order", required=True, metavar="ORDER")
    p.add_argument("--utilities-from", help="JSON file {\"values\": [\"p/q\", ...]}")
    p.add_argument("--utilities-to", help="JSON file {\"values\": [\"p/q\", ...]}")
    return p


def _amd_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("amd", help="design an optimal strategyproof mechanism")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--objective", required=True, help="objective JSON file")
    p.add_argument(
        "--out-mechanism", help="write the designed mechanism table to this file"
    )
    return p


def _zoo_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("zoo", help="built-in mechanism tables")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("--name", help="mechanism name for emit")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out-mechanism", help="write the table to this file")
    return p


# each subcommand's parser, in the order help lists them
_SUBPARSERS = {
    "check": _check_parser,
    "enumerate": _enumerate_parser,
    "path": _path_parser,
    "amd": _amd_parser,
    "zoo": _zoo_parser,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand's parser, or with
    ``command``'s alone. A command line whose first word is ``command``
    parses the same on both, help and errors included: the top level only
    hands the rest to that subparser and reports what it leaves over. One
    subparser instead of five saves about a millisecond of every run."""
    parser = _Parser(
        prog="sepax",
        description=(
            "Verify strategyproofness of ordinal mechanisms through local "
            "separation axioms, walk utility-segment paths, and design "
            "optimal strategyproof mechanisms by exact LP."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add_parser in _SUBPARSERS.items():
        if command in (None, name):
            p = add_parser(sub)
            p.add_argument("--out", help="also write the JSON report to this file")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "enumerate": cmd_enumerate,
    "path": cmd_path,
    "amd": cmd_amd,
    "zoo": cmd_zoo,
}


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except (_InputError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault in sepax itself, never a verdict: exit 2, and name where it
        # was raised instead of printing a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        fault = {
            "error": f"internal error: {type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}",
        }
        print(json.dumps(fault), file=sys.stderr)
        return EXIT_INTERNAL


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBPARSERS else None
    args = build_parser(command).parse_args(argv)
    started = time.perf_counter()
    result, code = _COMMANDS[args.command](args)
    report = {
        "command": args.command,
        # every scan is serial; the key keeps the report's shape
        "workers": 1,
        "result": result,
        "timing_s": round(time.perf_counter() - started, 6),
    }
    payload = json.dumps(report, indent=2)
    if args.out:
        mechanisms.write_atomic(args.out, payload + "\n")
    print(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
