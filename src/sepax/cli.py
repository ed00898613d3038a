"""Command-line front end.

Subcommands: check (axiom / strategyproofness verdicts on a mechanism
file), enumerate (orders, separations, closed-form counts), path (utility
segment walk between two orders), amd (solve for an optimal strategyproof
mechanism), zoo (built-in mechanism tables).

Every run prints one JSON report to stdout; --out additionally writes the
same report to a file, atomically, and only on success. Exit codes: 0 pass
or agreement, 1 a mechanism-level violation or an unsolvable design, 2 an
internal cross-check disagreement (a bug, not a verdict), 3 bad input,
including bad flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import amd as amd_mod
from . import axioms, mechanisms, paths, verify
from .core import FormatError, UtilityFn, WeakOrder, enumerate_weak_orders, parse_rational

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INTERNAL = 2
EXIT_INPUT = 3

CHECK_MODES = ("axioms", "sp", "multisep", "theorem1", "corollary1", "remark2")

# CLI mode tokens map to the library's descriptive names
_MODE_CHECKS = {
    "theorem1": verify.check_decomposition,
    "remark2": verify.check_relaxed_decomposition,
    "corollary1": verify.check_deterministic_decomposition,
}


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _InputError(f"utility file {path} not valid JSON: {exc}")
    values = data.get("values") if isinstance(data, dict) else None
    if not isinstance(values, list) or len(values) != m:
        raise _InputError(f"utility file {path} must hold {m} values")
    try:
        return UtilityFn(m, tuple(parse_rational(v) for v in values))
    except (FormatError, ValueError, TypeError, AttributeError):
        raise _InputError(f"utility file {path}: values must be \"p/q\" rationals")


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

    if args.mode == "sp":
        violation = verify.check_sp_bruteforce(mech)
        result = {
            "mechanism": mech.name,
            "m": mech.m,
            "pass": violation is None,
            "violation": None if violation is None else violation.to_json(),
        }
        return {"check": result}, EXIT_PASS if violation is None else EXIT_VIOLATION

    if args.mode == "multisep":
        violation = paths.check_refinement_sp(mech)
        result = {
            "mechanism": mech.name,
            "m": mech.m,
            "pass": violation is None,
            "violation": None if violation is None else violation.to_json(),
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
    if m is None or m < 1:
        raise _InputError("enumerate needs --m >= 1")
    if args.what == "counts":
        return {"enumerate": verify.count_constraints(m).to_json()}, EXIT_PASS
    if m > 7:
        raise _InputError("enumeration beyond m=7 is unreasonably large")
    if args.what == "orders":
        orders = [order.text for order in enumerate_weak_orders(m)]
        return {"enumerate": {"m": m, "orders": orders}}, EXIT_PASS
    separations = [sep.to_json() for sep in axioms.all_separations(m)]
    return {"enumerate": {"m": m, "separations": separations}}, EXIT_PASS


def cmd_path(args: argparse.Namespace) -> tuple[dict, int]:
    start = _parse_order(args.from_order)
    end = _parse_order(args.to_order)
    if start.m != end.m:
        raise _InputError("orders must cover the same alternatives")
    u = _load_utility(args.utilities_from, start.m) if args.utilities_from else None
    v = _load_utility(args.utilities_to, end.m) if args.utilities_to else None
    try:
        result = paths.refinement_path(start, end, u, v)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return {"path": result.to_json()}, EXIT_PASS


def cmd_amd(args: argparse.Namespace) -> tuple[dict, int]:
    m = args.m
    if m is None or m < 1:
        raise _InputError("amd needs --m >= 1")
    if m > 4:
        raise _InputError("LP design beyond m=4 is unreasonably large")
    if not args.objective:
        raise _InputError("amd needs --objective FILE")
    try:
        objective = amd_mod.load_objective(args.objective, m)
    except FormatError as exc:
        raise _InputError(str(exc)) from None
    except OSError as exc:
        raise _InputError(f"cannot read objective file: {exc}") from None

    lp = amd_mod.generate_sp_constraints(
        m, include_lowered_inequality=args.include_lowered_inequality
    )
    summary = amd_mod.lp_summary(m, lp)
    solution, mech = amd_mod.solve_design(lp, m, objective)
    result: dict = {
        "m": m,
        "objective": args.objective,
        "summary": summary,
        "solution": solution.to_json(),
    }
    if mech is None:
        result["mechanism_file"] = None
        result["sp_check"] = None
        return {"amd": result}, EXIT_VIOLATION

    violation = verify.check_sp_bruteforce(mech)
    result["sp_check"] = {
        "pass": violation is None,
        "violation": None if violation is None else violation.to_json(),
    }
    if args.out_mechanism:
        mechanisms.save_mechanism(mech, args.out_mechanism)
        result["mechanism_file"] = args.out_mechanism
    else:
        result["mechanism_table"] = mechanisms.mechanism_to_json(mech)
        result["mechanism_file"] = None
    # an optimum that fails the brute-force re-check means our constraint
    # generator and scanner disagree: internal, loudly
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
    if m > 6:
        raise _InputError("zoo tables beyond m=6 are unreasonably large")
    mech = factory(m)
    result = {"name": args.name, "m": m, "entries": len(enumerate_weak_orders(m))}
    if args.out_mechanism:
        mechanisms.save_mechanism(mech, args.out_mechanism)
        result["mechanism_file"] = args.out_mechanism
    else:
        result["mechanism_table"] = mechanisms.mechanism_to_json(mech)
        result["mechanism_file"] = None
    return {"zoo": result}, EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sepax",
        description=(
            "Verify strategyproofness of ordinal mechanisms through local "
            "separation axioms, walk utility-segment paths, and design "
            "optimal strategyproof mechanisms by exact LP."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="also write the JSON report to this file")
        p.add_argument("--seed", type=int, default=None, help="echoed in the report")
        p.add_argument(
            "--summary", action="store_true", help="print human-readable lines to stderr"
        )

    p = sub.add_parser("check", help="run verdicts on a mechanism file")
    p.add_argument("--mechanism", required=True, help="mechanism JSON file")
    p.add_argument("--mode", choices=CHECK_MODES, default="theorem1")
    p.add_argument(
        "--emit-all-certificates",
        action="store_true",
        help="list every certificate instead of the first per axiom",
    )
    common(p)

    p = sub.add_parser("enumerate", help="orders, separations, or counts")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--what", choices=("orders", "separations", "counts"), default="counts")
    common(p)

    p = sub.add_parser("path", help="refinement path between two orders")
    p.add_argument("--from", dest="from_order", required=True, metavar="ORDER")
    p.add_argument("--to", dest="to_order", required=True, metavar="ORDER")
    p.add_argument("--utilities-from", help="JSON file {\"values\": [\"p/q\", ...]}")
    p.add_argument("--utilities-to", help="JSON file {\"values\": [\"p/q\", ...]}")
    common(p)

    p = sub.add_parser("amd", help="design an optimal strategyproof mechanism")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--objective", required=True, help="objective JSON file")
    p.add_argument(
        "--out-mechanism", help="write the designed mechanism table to this file"
    )
    p.add_argument(
        "--include-lowered-inequality",
        action="store_true",
        help="also emit the redundant lower-part inequalities",
    )
    common(p)

    p = sub.add_parser("zoo", help="built-in mechanism tables")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("--name", help="mechanism name for emit")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out-mechanism", help="write the table to this file")
    common(p)

    return parser


_COMMANDS = {
    "check": cmd_check,
    "enumerate": cmd_enumerate,
    "path": cmd_path,
    "amd": cmd_amd,
    "zoo": cmd_zoo,
}


def _summarize(report: dict, stream) -> None:
    body = report["result"]
    if "check" in body:
        check = body["check"]
        if "verdicts" in check:
            for axiom, ok in check["verdicts"].items():
                print(f"{axiom}: {'pass' if ok else 'FAIL'}", file=stream)
        elif "agreement" in check:
            print(
                f"{check['statement']}: sp={check['sp_verdict']} "
                f"decomposition={check['decomposition_verdict']} "
                f"agreement={check['agreement']}",
                file=stream,
            )
        else:
            print(f"sp pass: {check['pass']}", file=stream)
    elif "amd" in body:
        solution = body["amd"]["solution"]
        print(
            f"lp status: {solution['status']}"
            + (
                f", objective {solution['objective_value']}"
                if solution["objective_value"] is not None
                else ""
            ),
            file=stream,
        )
    elif "zoo" in body and "mechanisms" in body["zoo"]:
        print("\n".join(body["zoo"]["mechanisms"]), file=stream)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        result, code = _COMMANDS[args.command](args)
    except (_InputError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT

    report = {
        "command": args.command,
        "seed": args.seed,
        # every scan is serial; the key keeps the report's shape
        "workers": 1,
        "result": result,
        "timing_s": round(time.perf_counter() - started, 6),
    }
    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        mechanisms.write_atomic(args.out, payload + "\n")
    if args.summary:
        _summarize(report, sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
