#!/usr/bin/env python3
"""The sepax benchmark: seeded workloads run against the CLI and the
library from outside, every output checked exactly.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory and run as users run it (``python3 -m
sepax``, no ``--workers`` flag, ``SEPAX_WORKERS`` unset). Workloads:
verify-m5, local-m6, design-m3, population-m4 (see ``workloads.py`` and
``README.md``).

With ``--trace 0`` each job runs once, untraced, and the last line of
stdout carries the end-to-end metrics. With ``--trace 1`` each job runs
both untraced and traced (every layer's public functions wrapped, see
``tracer.py``), alternating which goes first, and the last line carries
the per-layer metrics. The line before it holds the run's details:
machine, input properties, derived counts, report digests and the figures
that are not contract metrics.

A run repeats the workload's pass (its fixed job list) and stops at the
pass boundary nearest to ``--seconds``, after at least one pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import exact
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DRIVER = os.path.join(BENCH, "driver.py")

SETUP_REPS = 7
JOB_TIMEOUT_S = 100
# no new pass starts after this much of a run, so a run ends within 180 s
RUN_BUDGET_S = 120

SETUP_CODE = """
import json
from time import perf_counter
start = perf_counter()
import sepax
sepax.enumerate_weak_orders({m})
sepax.all_separations({m})
elapsed = perf_counter() - start
print(json.dumps({{"setup_s": elapsed, "file": sepax.__file__}}))
"""

SELF_LAYERS = ("core", "mechanisms", "axioms", "verify", "paths", "amd", "lp")
# per-layer metrics that are wall time inside calls to these functions
FUNCTION_TIMES = {
    "core.enumerate_s": {"core.enumerate_weak_orders"},
    "axioms.separations_s": {"axioms.all_separations"},
    "cli.main_s": {"cli.main"},
    "mechanisms.load_s": {"mechanisms.load_mechanism", "mechanisms.mechanism_from_json"},
    "mechanisms.save_s": {"mechanisms.save_mechanism"},
    "axioms.scan_s": {"axioms.find_violations"},
    "verify.sp_scan_s": {"verify.check_sp_bruteforce"},
    "verify.det_scan_s": {"verify.scan_deterministic_decomposition"},
    "paths.refinement_scan_s": {"paths.check_refinement_sp"},
    "amd.build_s": {"amd.generate_sp_constraints"},
    "lp.solve_s": {"lp.solve_lp"},
}
# derived count -> per-layer metric name and unit
COUNTS = {
    "orders": ("core.orders", "count"),
    "separations": ("axioms.separations", "count"),
    "seps_scanned": ("axioms.seps_scanned", "count"),
    "pairs_scanned": ("verify.pairs_scanned", "count"),
    "det_tables": ("verify.det_tables", "count"),
    "amd_rows": ("amd.rows", "count"),
    "amd_cols": ("amd.cols", "count"),
    "load_bytes": ("mechanisms.load_bytes", "bytes"),
    "report_bytes": ("cli.report_bytes", "bytes"),
    "workers": ("cli.workers", "count"),
}
# per-layer counts of calls, taken from the traced jobs' spans
SPAN_COUNTS = {
    "amd.builds": "amd.generate_sp_constraints",
    "lp.solves": "lp.solve_lp",
}
COUNT_UNITS = dict(COUNTS.values()) | {name: "count" for name in SPAN_COUNTS}
# per-layer times in the contract; the other function times go to details,
# because each reads exactly 0 on the workloads that never call it
PER_LAYER_TIMES = [f"{layer}.self_s" for layer in SELF_LAYERS] + [
    "cli.startup_s", "trace.overhead_s", "core.enumerate_s", "axioms.separations_s",
]


class Failure(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def job_env() -> dict:
    """The caller's environment without ``SEPAX_WORKERS`` and without any
    ``PYTHON*`` setting (``PYTHONDONTWRITEBYTECODE`` would make every job
    compile sepax from source, unlike an installed package), then the
    checkout's sources on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k != "SEPAX_WORKERS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: str, env: dict, out_path: str, err_path: str):
    """Run one process (and whatever it starts) to completion. Returns wall
    seconds, CPU seconds of it and its reaped children, peak RSS in MB of
    the largest of them, and the exit code."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # a pool worker left behind by a crash
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


class SetupTimer:
    """Times set-up (import plus cold orders and separations at m), each
    sample in a fresh interpreter. Samples are spread over the run: on a
    shared virtual machine the speed drifts over seconds, so samples taken
    in one burst would all see the same moment."""

    def __init__(self, m: int, env: dict, workdir: str, seconds: float) -> None:
        self.m, self.env, self.workdir = m, env, workdir
        self.interval = seconds / SETUP_REPS
        self.times: list[float] = []
        self.spent = 0.0
        self.last = perf_counter()

    def once(self) -> float:
        src = os.path.join(ROOT, "src")
        out, err = os.path.join(self.workdir, "setup.out"), os.path.join(self.workdir, "setup.err")
        start = perf_counter()
        _, _, _, code = spawn([sys.executable, "-c", SETUP_CODE.format(m=self.m)], self.workdir, self.env, out, err)
        self.last = perf_counter()
        self.spent += self.last - start
        text = _read(out)
        if code != 0 or not text.strip():
            raise Failure(f"sepax does not import from {src}: {_read(err)[-500:]}")
        data = json.loads(text)
        if os.path.commonpath([os.path.abspath(data["file"]), src]) != src:
            raise Failure(f"sepax was imported from {data['file']}, not from {src}")
        return data["setup_s"]

    def warm_up(self) -> None:
        """One uncounted sample, which checks where sepax comes from and
        leaves its bytecode cache written as every later process finds it,
        then the first counted one."""
        self.once()
        self.times.append(self.once())

    def due(self) -> None:
        if len(self.times) < SETUP_REPS and perf_counter() - self.last >= self.interval:
            self.times.append(self.once())

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPS:
            self.times.append(self.once())
        return self.times


@dataclass
class Execution:
    """One process the benchmark started, and what a traced one recorded."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    spans: list = field(default_factory=list)
    imports: dict = field(default_factory=dict)


@dataclass
class Record:
    """One job's checked outcome."""

    key: str
    wall: float
    report_bytes: int
    counts: dict
    digest: str | None
    error: str | None


def check_job(job, wall: float, text: str, code: int, printed: bool = True) -> Record:
    """Check one job's report; digest it without ``timing_s``."""
    try:
        report = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        report = None
    counts, error = {}, None
    try:
        counts = job.check(report, code)
    except (exact.CheckFailed, LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        # a malformed report is a failed job, not a benchmark crash
        error = f"{job.key}: {type(exc).__name__}: {exc}"
    files = counts.pop("files", {})
    digest = None
    if report is not None:
        report.pop("timing_s", None)
        body = json.dumps(report, sort_keys=True) + "".join(files[k] for k in sorted(files))
        digest = hashlib.sha256(body.encode()).hexdigest()
    return Record(job.key, wall, len(text) if printed else 0, counts, digest, error)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def _read_json(path: str, default):
    """A file a job wrote; ``default`` when it is missing or cut short."""
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError:
        return default


def _execute(argv: list[str], base: str, workdir: str, env: dict, traced: bool) -> Execution:
    execution = Execution(*spawn(argv, workdir, env, base + ".out", base + ".err"))
    if traced:
        execution.spans = _read_json(base + ".spans", [])
        execution.imports = tracer.import_self_times(_read(base + ".err"))
    return execution


def run_cli_job(job, workdir: str, env: dict, traced: bool, index: int) -> tuple[Execution, list[Record]]:
    base = os.path.join(workdir, f"job-{index}")
    if traced:
        argv = [sys.executable, "-X", "importtime", DRIVER, "cli", "--spans", base + ".spans",
                "--job", job.key, "--", *job.argv]
    else:
        argv = [sys.executable, "-m", "sepax", *job.argv]
    execution = _execute(argv, base, workdir, env, traced)
    return execution, [check_job(job, execution.wall, _read(base + ".out"), execution.code)]


def run_battery_pass(p, workdir: str, env: dict, traced: bool, index: int) -> tuple[Execution, list[Record]]:
    """One battery process over the whole pass."""
    base = os.path.join(workdir, f"battery-{index}")
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), DRIVER, "battery",
            "--jobs", os.path.join(workdir, "battery.json"), "--out", base + ".json",
            *(["--spans", base + ".spans"] if traced else [])]
    execution = _execute(argv, base, workdir, env, traced)
    results = _read_json(base + ".json", []) if execution.code == 0 else []
    records = []
    for i, job in enumerate(p.jobs):
        if i >= len(results):
            records.append(Record(job.key, 0.0, 0, {}, None, f"{job.key}: battery exited {execution.code}"))
            continue
        result = results[i]
        text = json.dumps(result["report"]) if result["report"] is not None else ""
        record = check_job(job, result["wall_s"], text, 0 if result["error"] is None else 1, printed=False)
        if result["error"] is not None:
            record.error = f"{job.key}: {result['error']}"
        records.append(record)
    return execution, records


@dataclass
class PassResult:
    """Untraced and traced executions of one pass, aligned by position: one
    execution per job for CLI workloads, one per pass for the battery."""

    records: list[Record] = field(default_factory=list)
    cost: list[Execution] = field(default_factory=list)
    traced_records: list[Record] = field(default_factory=list)
    traced_cost: list[Execution] = field(default_factory=list)

    def add(self, traced: bool, execution: Execution, records: list[Record]) -> None:
        (self.traced_cost if traced else self.cost).append(execution)
        (self.traced_records if traced else self.records).extend(records)


def run_passes(p, workdir: str, env: dict, seconds: float, trace: bool, setup: SetupTimer,
               started: float) -> list[PassResult]:
    """Whole passes until --seconds is covered to the nearest pass. When
    tracing, every unit runs untraced and traced, alternating which runs
    first. Set-up samples fall between units."""
    units = [None] if p.battery else p.jobs
    passes: list[PassResult] = []
    loop_start = perf_counter()
    counter = 0
    while True:
        result = PassResult()
        for i, job in enumerate(units):
            order = ((False, True) if (i + len(passes)) % 2 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                if p.battery:
                    result.add(traced, *run_battery_pass(p, workdir, env, traced, counter))
                else:
                    result.add(traced, *run_cli_job(job, workdir, env, traced, counter))
                counter += 1
            setup.due()
        passes.append(result)
        measured = perf_counter() - loop_start - setup.spent
        # stop at the pass boundary nearest to --seconds
        if measured + measured / len(passes) / 2 >= seconds or perf_counter() - started > RUN_BUDGET_S:
            return passes


def pass_counts(p, records: list[Record]) -> dict:
    """Derived counts of one pass, under their per-layer metric names."""
    counts = defaultdict(int)
    for r in records:
        for name, value in r.counts.items():
            if name in ("amd_rows", "amd_cols", "workers"):
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    counts.update(p.process_counts)
    counts["report_bytes"] = sum(r.report_bytes for r in records)
    return {metric: counts.get(key, 0) for key, (metric, _unit) in COUNTS.items()}


def summarize(p, passes: list[PassResult], setup: list[float], trace: bool) -> tuple[dict, dict, int, int]:
    records = [r for pr in passes for r in pr.records + pr.traced_records]
    # a job's report must not change between passes, traced or not
    digests = defaultdict(set)
    for r in records:
        digests[r.key].add(r.digest)
    unstable = {k for k, d in digests.items() if len(d) != 1 or None in d}
    errors = [r.error for r in records if r.error] + [f"{k}: report differs between executions" for k in sorted(unstable)]
    failed = sum(r.error is not None or r.key in unstable for r in records)

    first = passes[0].records
    plain = [r for pr in passes for r in pr.records]
    cost = [e for pr in passes for e in pr.cost]
    walls = [r.wall for r in plain]
    n = len(exact.orders(p.m))
    details = {
        "jobs_per_pass": len(p.jobs),
        "passes": len(passes),
        "job_p50_samples": len(walls),
        "fail_ratio": failed / len(records),
        "errors": errors[:5],
        "setup_runs_s": setup,
        "inputs": {
            "m": p.m,
            "tables": p.tables,
            "sp_share": p.sp_tables / p.tables if p.tables else None,
            "violation_depth_share": sorted(round(d, 6) for d in p.depths),
            "pairs_per_table": n * (n - 1),
        },
        "counts_per_pass": pass_counts(p, first),
        "pass_digest": hashlib.sha256("".join(r.digest or "-" for r in first).encode()).hexdigest(),
        "job_digests": {r.key: r.digest for r in first},
        "job_walls_s": {r.key: [x.wall for x in plain if x.key == r.key] for r in first},
    }
    if len(walls) >= 100:
        details["job_p90_s"] = statistics.quantiles(walls, n=10, method="inclusive")[-1]
    if trace:
        values, details["layers"] = trace_metrics(passes)
        metrics = {name: (values[name], "s") for name in PER_LAYER_TIMES}
        metrics.update((name, (value, COUNT_UNITS[name])) for name, value in details["counts_per_pass"].items())
        metrics.update((name, (values[name], "count")) for name in SPAN_COUNTS)
    else:
        metrics = {
            "jobs_per_s": (sum(r.error is None for r in plain) / sum(e.wall for e in cost), "1/s"),
            "job_p50_s": (statistics.median(walls), "s"),
            "cpu_s": (sum(e.cpu for e in cost) / len(plain), "s"),
            "peak_rss_mb": (max(e.rss_mb for e in cost), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    return metrics, details, len(records), failed


def trace_metrics(passes: list[PassResult]) -> tuple[dict, dict]:
    """Per pass: self time of each layer (its spans' self time plus the
    import of its module), start-up, wall time inside selected functions,
    calls counted from spans, and the tracing overhead (traced minus
    untraced wall).

    Start-up is traced wall time outside every top-level sepax call and
    outside the import of the layer modules: interpreter start, standard
    library imports, the package ``__init__``, the driver's own work (the
    battery's ``to_json`` and bookkeeping) and exit. Layer self times plus
    start-up then add up to the traced wall time exactly when the spans'
    self times add up to their top-level spans, which is checked."""
    totals = defaultdict(float)
    span_self = root = 0.0
    for pr in passes:
        for plain, traced in zip(pr.cost, pr.traced_cost):
            layers = defaultdict(float)
            selfs = tracer.self_times(traced.spans)
            for name, value in selfs.items():
                layers[tracer.layer_of(name)] += value
            for module, value in traced.imports.items():
                layers[tracer.layer_of(module)] += value
            for layer in tracer.LAYERS:
                totals[f"{layer}.self_s"] += layers[layer]
            job_self = sum(selfs.values())
            job_root = sum(s[2] - s[1] for s in traced.spans if s[3] < 0)
            if abs(job_self - job_root) > 1e-6 + 1e-9 * job_root:
                raise Failure(f"span self times sum to {job_self} s, top-level spans to {job_root} s")
            span_self += job_self
            root += job_root
            totals["cli.startup_s"] += traced.wall - job_root - sum(traced.imports.values())
            totals["trace.overhead_s"] += traced.wall - plain.wall
            totals["trace.job_wall_s"] += traced.wall
            totals["trace.untraced_wall_s"] += plain.wall
            for metric, names in FUNCTION_TIMES.items():
                totals[metric] += tracer.outermost_time(traced.spans, names)
            for metric, name in SPAN_COUNTS.items():
                totals[metric] += sum(s[0] == name for s in traced.spans)
    values = {name: value / len(passes) for name, value in totals.items()}
    details = {
        "per_pass": values,
        "dominant_layer": max(tracer.LAYERS, key=lambda layer: values[f"{layer}.self_s"]),
        "span_self_sum_s": span_self / len(passes),
        "root_span_s": root / len(passes),
    }
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sepax benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "sepax", "cli.py")):
        print(f"bench: no sepax sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = job_env()
        p = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = SetupTimer(p.m, env, workdir, args.seconds)
        if p.battery:
            with open(os.path.join(workdir, "battery.json"), "w", encoding="utf-8") as fh:
                json.dump({"pass": args.workload, "jobs": [job.call for job in p.jobs]}, fh)
        setup.warm_up()
        passes = run_passes(p, workdir, env, args.seconds, bool(args.trace), setup, started)
        metrics, details, attempted, failed = summarize(p, passes, setup.finish(), bool(args.trace))
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   environment=environment(), run_s=perf_counter() - started)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
