"""Runs sepax inside one fresh interpreter on the benchmark's behalf.

    python3 driver.py cli --spans FILE --job ID -- ARGV...
        calls ``sepax.cli.main(ARGV)`` with every layer traced, writes the
        spans to FILE and exits with main's code.

    python3 driver.py battery --jobs FILE --out FILE [--spans FILE]
        runs the in-process library battery listed in the jobs file, one
        job after another, and writes each job's wall time and report (or
        error) to the out file; with --spans, every layer is traced.

Start it with ``-X importtime`` when tracing, so the benchmark can count
each layer module's import in that layer's self time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from tracer import Tracer


def _dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)


def run_cli(args) -> int:
    import sepax.cli

    tracer = Tracer(args.job)
    tracer.install()
    try:
        return sepax.cli.main(args.argv)
    finally:
        _dump(tracer, args.spans)


def _battery_call(sepax, job: dict, tables: dict):
    if job["call"] == "scan_deterministic_decomposition":
        return sepax.scan_deterministic_decomposition(
            job["m"], job["count"], job["seed"], cross_check=job["cross_check"]
        )
    mech = sepax.mechanism_from_json(tables[job["table"]], name=job["table"])
    return getattr(sepax, job["call"])(mech)


def run_battery(args) -> int:
    with open(args.jobs, encoding="utf-8") as fh:
        spec = json.load(fh)
    tables = {}
    for name in sorted({job["table"] for job in spec["jobs"] if "table" in job}):
        with open(os.path.join(os.path.dirname(args.jobs), name), encoding="utf-8") as fh:
            tables[name] = json.load(fh)

    import sepax

    tracer = None
    if args.spans:
        tracer = Tracer(spec["pass"])
        tracer.install()
    results = []
    try:
        for job in spec["jobs"]:
            start = perf_counter()
            try:
                report = _battery_call(sepax, job, tables).to_json()
                error = None
            except Exception as exc:  # a crash is a failed job, reported, not fatal
                report, error = None, f"{type(exc).__name__}: {exc}"
            results.append({"wall_s": perf_counter() - start, "report": report, "error": error})
    finally:
        if tracer is not None:
            _dump(tracer, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("battery")
    p.add_argument("--jobs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_battery(args)


if __name__ == "__main__":
    sys.exit(main())
