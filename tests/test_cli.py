import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import sepax.axioms as axioms
import sepax.cli as cli
import sepax.mechanisms as mechanisms
import sepax.verify as verify
from sepax.amd import random_objective
from sepax.core import ENUMERATION_MAX_M, UtilityFn, WeakOrder
from sepax.mechanisms import (
    k_sensitive_boost,
    min_top_dictator,
    save_mechanism,
    top_class_uniform,
    uniform_lottery,
)
from sepax.paths import refinement_path
from tests.oracles import objective_to_json, saved_layout_fault, weak_order_count
from tests.report_sweep import (
    CRAFTED_FILES,
    LONG_LITERAL_FILES,
    READERS,
    RESPELLED_FILES,
    UNREADABLE_FILES,
    reader_argv,
)


def run_cli(argv: list[str]) -> tuple[int, dict | None, str]:
    """Run main() capturing stdout (the JSON report) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    return code, report, err.getvalue()


@pytest.fixture()
def zoo_files(tmp_path: Path) -> dict[str, str]:
    files = {}
    for mech in (
        uniform_lottery(3),
        top_class_uniform(3),
        min_top_dictator(3),
        k_sensitive_boost(3),
    ):
        path = tmp_path / f"{mech.name}.json"
        save_mechanism(mech, path)
        files[mech.name] = str(path)
    return files


def test_check_axioms_pass(zoo_files):
    code, report, _ = run_cli(
        ["check", "--mechanism", zoo_files["top_class_uniform"], "--mode", "axioms"]
    )
    assert code == 0
    assert report["command"] == "check"
    verdicts = report["result"]["check"]["verdicts"]
    assert all(verdicts.values())


def test_check_axioms_violation(zoo_files):
    code, report, _ = run_cli(
        ["check", "--mechanism", zoo_files["k_sensitive_boost"], "--mode", "axioms"]
    )
    assert code == 1
    check = report["result"]["check"]
    assert check["verdicts"]["responsive"] is False
    assert check["certificates"]["responsive"][0]["lhs"] == "1/6"


def test_check_sp_modes(zoo_files):
    for mode in ("sp", "multisep"):
        code, report, _ = run_cli(
            ["check", "--mechanism", zoo_files["uniform_lottery"], "--mode", mode]
        )
        assert code == 0
        assert report["result"]["check"]["pass"] is True
        code, report, _ = run_cli(
            ["check", "--mechanism", zoo_files["k_sensitive_boost"], "--mode", mode]
        )
        assert code == 1
        assert report["result"]["check"]["violation"]["truth"]


def test_check_equivalence_modes(zoo_files):
    for mode in ("theorem1", "remark2"):
        for name in ("top_class_uniform", "k_sensitive_boost"):
            code, report, _ = run_cli(
                ["check", "--mechanism", zoo_files[name], "--mode", mode]
            )
            assert code == 0  # agreement, whatever the verdicts
            assert report["result"]["check"]["agreement"] is True
    code, report, _ = run_cli(
        ["check", "--mechanism", zoo_files["min_top_dictator"], "--mode", "corollary1"]
    )
    assert code == 0
    assert report["result"]["check"]["statement"] == "monotonic_vs_sp_deterministic"


def test_corollary_mode_rejects_randomized(zoo_files):
    code, report, err = run_cli(
        ["check", "--mechanism", zoo_files["uniform_lottery"], "--mode", "corollary1"]
    )
    assert code == 3
    assert report is None
    assert "deterministic" in json.loads(err)["error"]


def test_internal_disagreement_exit_code(zoo_files, monkeypatch):
    # force the two routes apart to prove exit code 2 is wired up
    def lie(mech):
        return None

    monkeypatch.setattr(verify, "check_sp_bruteforce", lie)
    code, report, _ = run_cli(
        ["check", "--mechanism", zoo_files["k_sensitive_boost"], "--mode", "theorem1"]
    )
    assert code == 2
    assert report["result"]["check"]["agreement"] is False


def test_missing_mechanism_file(tmp_path):
    path = tmp_path / "nope.json"
    code, report, err = run_cli(["check", "--mechanism", str(path)])
    assert code == 3
    assert json.loads(err)["error"] == (
        f"cannot read mechanism file {path}: No such file or directory"
    )


def test_malformed_mechanism_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "entries": []}')
    code, _, err = run_cli(["check", "--mechanism", str(bad)])
    assert code == 3
    assert "bad mechanism file" in json.loads(err)["error"]


def test_enumerate_counts():
    code, report, _ = run_cli(["enumerate", "--m", "6"])
    assert code == 0
    counts = report["result"]["enumerate"]
    assert counts["orders"] == 4683
    assert counts["separations_total"] == 16622
    assert counts["separations_max_per_order"] == 62


def test_enumerate_orders_and_separations():
    code, report, _ = run_cli(["enumerate", "--m", "2", "--what", "orders"])
    assert code == 0
    assert report["result"]["enumerate"]["orders"] == ["0>1", "1>0", "0,1"]
    code, report, _ = run_cli(["enumerate", "--m", "3", "--what", "separations"])
    assert code == 0
    seps = report["result"]["enumerate"]["separations"]
    assert len(seps) == 18
    assert {"coarse": "0,1>2", "fine": "0>1>2", "kappa": 1, "M1": [0], "M2": [1]} in seps


def test_enumerate_caps():
    code, _, err = run_cli(["enumerate", "--m", "8", "--what", "orders"])
    assert code == 3
    assert "m=7" in json.loads(err)["error"]
    code, _, _ = run_cli(["enumerate", "--m", "9", "--what", "counts"])
    assert code == 0  # closed-form counts have no cap below the parse level


def test_path_command():
    code, report, _ = run_cli(["path", "--from", "0>1", "--to", "1>0"])
    assert code == 0
    path = report["result"]["path"]
    assert path["orders"] == ["0>1", "0,1", "1>0"]
    assert path["breakpoints"] == ["1/2"]
    assert [s["direction"] for s in path["steps"]] == ["coarsen", "refine"]


def test_path_with_utility_files(tmp_path):
    u = tmp_path / "u.json"
    v = tmp_path / "v.json"
    u.write_text(json.dumps({"values": ["7", "1"]}))
    v.write_text(json.dumps({"values": ["1/3", "2/3"]}))
    code, report, _ = run_cli(
        ["path", "--from", "0>1", "--to", "1>0",
         "--utilities-from", str(u), "--utilities-to", str(v)]
    )
    assert code == 0
    assert report["result"]["path"]["orders"][0] == "0>1"
    # inconsistent utility file: rejected as input
    v.write_text(json.dumps({"values": ["2/3", "1/3"]}))
    code, _, err = run_cli(
        ["path", "--from", "0>1", "--to", "1>0", "--utilities-to", str(v)]
    )
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": [1, 2]}))
    code, _, err = run_cli(
        ["path", "--from", "0>1", "--to", "1>0", "--utilities-from", str(bad)]
    )
    assert code == 3
    assert "p/q" in json.loads(err)["error"]
    # a valid rational that is not a utility: the real reason is reported
    bad.write_text(json.dumps({"values": ["-1", "0"]}))
    code, report, err = run_cli(
        ["path", "--from", "0>1", "--to", "1>0", "--utilities-from", str(bad)]
    )
    assert code == 3
    assert report is None
    error = json.loads(err)["error"]
    assert "negative utility" in error
    assert "p/q" not in error


def test_path_size_mismatch():
    code, _, err = run_cli(["path", "--from", "0>1", "--to", "0>1>2"])
    assert code == 3
    assert "same alternatives" in json.loads(err)["error"]


def test_amd_welfare(tmp_path):
    objective = tmp_path / "welfare.json"
    objective.write_text(
        json.dumps(
            {
                "sense": "max",
                "terms": [
                    {"order": "0>1", "alt": 0, "coef": "1"},
                    {"order": "1>0", "alt": 1, "coef": "1"},
                    {"order": "0,1", "alt": 0, "coef": "1"},
                    {"order": "0,1", "alt": 1, "coef": "1"},
                ],
            }
        )
    )
    out_mech = tmp_path / "designed.json"
    code, report, _ = run_cli(
        ["amd", "--m", "2", "--objective", str(objective),
         "--out-mechanism", str(out_mech)]
    )
    assert code == 0
    amd_report = report["result"]["amd"]
    assert amd_report["solution"]["status"] == "optimal"
    assert amd_report["solution"]["objective_value"] == "3"
    assert amd_report["sp_check"]["pass"] is True
    assert amd_report["mechanism_file"] == str(out_mech)
    written = json.loads(out_mech.read_text())
    assert written["m"] == 2
    code2, report2, _ = run_cli(["amd", "--m", "2", "--objective", str(objective)])
    assert code2 == 0
    assert report2["result"]["amd"]["mechanism_table"]["m"] == 2


def test_amd_out_mechanism_file_is_the_embedded_table(tmp_path):
    objective = tmp_path / "objective.json"
    blob = objective_to_json(3, random_objective(3, random.Random(3)))
    objective.write_text(json.dumps(blob))
    argv = ["amd", "--m", "3", "--objective", str(objective)]
    out_mech = tmp_path / "designed.json"
    code, _, _ = run_cli([*argv, "--out-mechanism", str(out_mech)])
    assert code == 0
    code, report, _ = run_cli(argv)
    assert code == 0
    embedded = report["result"]["amd"]["mechanism_table"]
    assert saved_layout_fault(out_mech, embedded) is None


def test_amd_m5(tmp_path):
    objective = tmp_path / "objective.json"
    blob = objective_to_json(5, random_objective(5, random.Random(0)))
    objective.write_text(json.dumps(blob))
    code, report, _ = run_cli(["amd", "--m", "5", "--objective", str(objective)])
    assert code == 0
    amd_report = report["result"]["amd"]
    assert amd_report["solution"]["objective_value"] == "402"
    assert amd_report["sp_check"]["pass"] is True
    assert amd_report["summary"]["g_variables"] == 30
    assert amd_report["summary"]["g_rows"] == 85


def test_amd_bad_inputs(tmp_path):
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"sense": "max", "terms": []}))
    code, _, err = run_cli(["amd", "--m", "7", "--objective", str(objective)])
    assert code == 3
    assert "m=6" in json.loads(err)["error"]
    objective.write_text("{")
    code, _, _ = run_cli(["amd", "--m", "2", "--objective", str(objective)])
    assert code == 3


def test_zoo_list_and_emit(tmp_path):
    code, report, _ = run_cli(["zoo", "list"])
    assert code == 0
    names = report["result"]["zoo"]["mechanisms"]
    assert names == sorted(names)
    assert "rank_score" in names

    out = tmp_path / "rank_score.json"
    code, report, _ = run_cli(
        ["zoo", "emit", "--name", "rank_score", "--m", "3", "--out-mechanism", str(out)]
    )
    assert code == 0
    assert report["result"]["zoo"]["entries"] == 13
    written = json.loads(out.read_text())
    assert written["m"] == 3

    code, _, err = run_cli(["zoo", "emit", "--name", "nonsense", "--m", "2"])
    assert code == 3
    assert "unknown mechanism" in json.loads(err)["error"]
    code, _, _ = run_cli(["zoo", "emit", "--m", "2"])
    assert code == 3


def test_report_shape_and_out_file(tmp_path, zoo_files):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(
        ["check", "--mechanism", zoo_files["uniform_lottery"], "--mode", "sp",
         "--out", str(out)]
    )
    assert code == 0
    assert list(report) == ["command", "workers", "result", "timing_s"]
    assert report["workers"] == 1
    on_disk = json.loads(out.read_text())
    assert on_disk == report


def test_unwritable_out_reports_nothing(tmp_path):
    out = tmp_path / "missing" / "report.json"
    code, report, err = run_cli(["enumerate", "--m", "2", "--out", str(out)])
    assert code == 3
    assert report is None
    assert str(out) in json.loads(err)["error"]


def test_out_onto_a_directory_names_the_target(tmp_path):
    # the temporary file is made and the rename fails; the error names --out
    out = tmp_path / "outdir"
    out.mkdir()
    code, report, err = run_cli(["enumerate", "--m", "2", "--out", str(out)])
    assert code == 3
    assert report is None
    message = json.loads(err)["error"]
    assert str(out) in message
    assert ".tmp" not in message
    assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
    assert not list(out.iterdir())


def test_out_not_written_on_input_error(tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["check", "--mechanism", str(tmp_path / "missing.json"), "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_reports_reproducible_modulo_timing(zoo_files):
    _, first, _ = run_cli(
        ["check", "--mechanism", zoo_files["k_sensitive_boost"], "--mode", "theorem1"]
    )
    _, second, _ = run_cli(
        ["check", "--mechanism", zoo_files["k_sensitive_boost"], "--mode", "theorem1"]
    )
    first.pop("timing_s")
    second.pop("timing_s")
    assert first == second


def test_workers_env_fallback(zoo_files, monkeypatch):
    # scans are serial: SEPAX_WORKERS is unread, whatever it holds
    for value in ("3", "zero", "0"):
        monkeypatch.setenv("SEPAX_WORKERS", value)
        code, report, _ = run_cli(
            ["check", "--mechanism", zoo_files["uniform_lottery"], "--mode", "sp"]
        )
        assert code == 0
        assert report["workers"] == 1


def test_workers_flag_overrides_env(zoo_files, monkeypatch):
    # --workers is an unknown flag, with or without SEPAX_WORKERS set
    monkeypatch.setenv("SEPAX_WORKERS", "3")
    code, report, err = run_cli(
        ["check", "--mechanism", zoo_files["uniform_lottery"], "--mode", "sp",
         "--workers", "2"]
    )
    assert code == 3
    assert report is None
    assert "--workers" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["enumerate", "--m", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--mechanism", "x.json", "--mode", "nope"], "invalid choice"),
        (["check", "--mode", "sp"], "--mechanism"),
        (
            ["amd", "--m", "2", "--objective", "objective.json",
             "--include-lowered-inequality"],
            "unrecognized arguments: --include-lowered-inequality",
        ),
        *(
            (argv + extra, "unrecognized arguments: " + " ".join(extra))
            for argv in (
                ["check", "--mechanism", "x.json"],
                ["enumerate", "--m", "2"],
                ["path", "--from", "0>1", "--to", "1>0"],
                ["amd", "--m", "2", "--objective", "objective.json"],
                ["zoo", "list"],
            )
            for extra in (["--seed", "7"], ["--summary"])
        ),
    ],
)
def test_bad_flags_exit_3(argv, fragment):
    # argparse would exit 2, the code reserved for internal disagreements
    code, report, err = run_cli(argv)
    assert code == 3
    assert report is None
    assert fragment in json.loads(err)["error"]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _src_env() -> dict[str, str]:
    """The environment with ``src`` first on PYTHONPATH, so a subprocess
    imports this checkout's sepax however pytest was started."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sepax", "enumerate", "--m", "3"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["enumerate"]["orders"] == 13


def _loaded_by_cli_import(modules: set[str]) -> str:
    """Which of ``modules`` ``import sepax.cli`` loads, printed as a sorted
    list; -S keeps site hooks out, so only what sepax imports counts."""
    code = f"import sys, sepax.cli; print(sorted({modules!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI job starts with this import; records are plain classes, so
    # it never pays for importing dataclasses and generating record code.
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_import_loads_neither_typing_nor_tempfile():
    # annotations name collections.abc types, and tempfile is imported only
    # when a file is written
    assert _loaded_by_cli_import({"typing", "tempfile"}) == "[]"


def test_internal_fault_exits_2_without_traceback(monkeypatch):
    def boom(args):
        raise RuntimeError("simulated fault")

    monkeypatch.setitem(cli._COMMANDS, "zoo", (cli._zoo_parser, boom))
    code, report, err = run_cli(["zoo", "list"])
    assert code == 2
    assert report is None
    fault = json.loads(err)
    assert fault["error"] == "internal error: RuntimeError: simulated fault"
    assert fault["at"].startswith("test_cli.py:") and fault["at"].endswith(" in boom")


def test_inexact_lp_division_exits_2(tmp_path, monkeypatch):
    # a solver whose common denominator is off must stop, not report
    import sepax.lp as lp

    real_init = lp._Tableau.__init__

    def wrong_det(self, rows, basis):
        real_init(self, rows, basis)
        self.det = 7

    monkeypatch.setattr(lp._Tableau, "__init__", wrong_det)
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"sense": "max", "terms": []}))
    code, report, err = run_cli(["amd", "--m", "3", "--objective", str(objective)])
    assert code == 2
    assert report is None
    fault = json.loads(err)
    assert fault["error"].startswith("internal error: InexactDivisionError")
    assert fault["at"].startswith("lp.py:")


def test_non_optimal_design_program_exits_2(tmp_path, monkeypatch):
    # the upper-set program is always feasible and bounded, so any other
    # status is a solver fault, never a verdict on the design
    import sepax.amd as amd
    from sepax.lp import LPSolution

    monkeypatch.setattr(amd, "solve_lp", lambda lp: LPSolution("infeasible"))
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"sense": "max", "terms": []}))
    code, report, err = run_cli(["amd", "--m", "3", "--objective", str(objective)])
    assert code == 2
    assert report is None
    fault = json.loads(err)
    assert fault["error"].startswith("internal error: RuntimeError: ")
    assert fault["at"].startswith("amd.py:")


def test_amd_objective_order_not_text(tmp_path):
    objective = tmp_path / "objective.json"
    objective.write_text(
        json.dumps({"sense": "max", "terms": [{"order": 5, "alt": 0, "coef": "1"}]})
    )
    code, report, err = run_cli(["amd", "--m", "2", "--objective", str(objective)])
    assert code == 3
    assert report is None
    assert "order" in json.loads(err)["error"]


def test_enumerate_counts_cap():
    code, report, err = run_cli(["enumerate", "--m", "2000"])
    assert code == 3
    assert report is None
    assert f"m={cli.COUNTS_MAX_M}" in json.loads(err)["error"]
    code, report, _ = run_cli(["enumerate", "--m", str(cli.COUNTS_MAX_M)])
    assert code == 0
    assert report["result"]["enumerate"]["orders"] == weak_order_count(cli.COUNTS_MAX_M)


def test_check_rejects_large_m_before_enumerating(tmp_path, monkeypatch):
    # m=9 has 7,087,261 orders: the size check must come before any of them
    def refuse(m):
        raise AssertionError(f"enumerated the orders at m={m}")

    for name in ("mechanisms.enumerate_weak_orders", "mechanisms.order_classes"):
        monkeypatch.setattr(f"sepax.{name}", refuse)
    for name in ("enumerate_weak_orders", "order_classes", "_ordered_partitions"):
        monkeypatch.setattr(f"sepax.core.{name}", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"m": 9, "entries": []}))
    code, report, err = run_cli(["check", "--mechanism", str(path)])
    assert code == 3
    assert report is None
    assert f"m=9, not in 1..{ENUMERATION_MAX_M}" in json.loads(err)["error"]


def test_path_rejects_large_m_before_walking(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked a path past the size cap")

    monkeypatch.setattr("sepax.paths.refinement_path", refuse)
    m = cli.PATH_MAX_M + 1
    start = ">".join(map(str, range(m)))
    end = ">".join(map(str, reversed(range(m))))
    code, report, err = run_cli(["path", "--from", start, "--to", end])
    assert code == 3
    assert report is None
    assert f"capped at m={cli.PATH_MAX_M}" in json.loads(err)["error"]


@pytest.mark.parametrize("content", sorted(UNREADABLE_FILES))
@pytest.mark.parametrize("reader", READERS)
def test_unreadable_input_file_exits_3(tmp_path, reader, content):
    # bytes that are not UTF-8, JSON nested past the parser's depth, a
    # leading byte order mark and an empty file are bad input, not
    # internal faults
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE_FILES[content])
    code, report, err = run_cli(reader_argv(reader, str(path)))
    assert code == 3
    assert report is None
    assert err.count("\n") == 1
    assert "not valid JSON" in json.loads(err)["error"]


@pytest.mark.parametrize("case", sorted(LONG_LITERAL_FILES))
def test_integer_literal_past_the_digit_limit_exits_3(tmp_path, case):
    # bad input in sepax's own words, the same on every interpreter, not an
    # internal fault carrying the interpreter's message
    argv, text = LONG_LITERAL_FILES[case]
    path = tmp_path / argv[-1]
    path.write_text(text, encoding="utf-8")
    code, report, err = run_cli(argv[:-1] + [str(path)])
    assert code == 3
    assert report is None
    assert err.count("\n") == 1
    assert json.loads(err)["error"].endswith(
        "not valid JSON: an integer literal has too many digits"
    )


@pytest.mark.parametrize("case", sorted(CRAFTED_FILES))
def test_crafted_input_file_exits_3(tmp_path, case):
    # a file text of None passes a directory where the file goes
    reader, text = CRAFTED_FILES[case]
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text, encoding="utf-8")
    code, report, err = run_cli(reader_argv(reader, str(path)))
    assert code == 3
    assert report is None
    assert err.count("\n") == 1
    assert json.loads(err)["error"]


@pytest.mark.parametrize("case", sorted(RESPELLED_FILES))
def test_respelled_valid_file_keeps_its_verdict(tmp_path, case):
    reader, crafted, plain = RESPELLED_FILES[case]
    reports = []
    for text in (crafted, plain):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, report, err = run_cli(reader_argv(reader, str(path)))
        assert (code, err) == (0, "")
        del report["timing_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_closed_stdout_exits_3():
    # a reader that stops early is an OSError on stdout, which main reports
    # as bad input; the 3.4 MB report outgrows any pipe buffer
    with subprocess.Popen(
        [sys.executable, "-m", "sepax", "enumerate", "--m", "6", "--what", "separations"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (3, b'{"error": "[Errno 32] Broken pipe"}\n')


def test_zoo_rejects_large_m_before_building(monkeypatch):
    def refuse(m):
        raise AssertionError(f"built a zoo table at m={m}")

    monkeypatch.setitem(mechanisms.ZOO, "rank_score", refuse)
    code, report, err = run_cli(
        ["zoo", "emit", "--name", "rank_score", "--m", str(ENUMERATION_MAX_M + 1)]
    )
    assert code == 3
    assert report is None
    assert json.loads(err)["error"] == "zoo tables beyond m=7 are unreasonably large"


def test_zoo_emits_at_the_enumeration_cap(tmp_path):
    out = tmp_path / "k_sensitive_boost.json"
    code, report, _ = run_cli(
        ["zoo", "emit", "--name", "k_sensitive_boost", "--m", str(ENUMERATION_MAX_M),
         "--out-mechanism", str(out)]
    )
    assert code == 0
    assert report["result"]["zoo"]["entries"] == weak_order_count(ENUMERATION_MAX_M)
    assert mechanisms.load_mechanism(out) == k_sensitive_boost(ENUMERATION_MAX_M)


@pytest.mark.parametrize("name, code", [("rank_score", 0), ("k_sensitive_boost", 1)])
def test_local_checks_at_the_enumeration_cap(tmp_path, monkeypatch, name, code):
    # rank_score passes the upper-set verdict, which settles both modes with
    # no walk; k_sensitive_boost fails it, so each mode walks. The verdict
    # is then held to the separation walk run with the verdict switched off
    path = str(tmp_path / f"{name}.json")
    m = str(ENUMERATION_MAX_M)
    assert run_cli(["zoo", "emit", "--name", name, "--m", m, "--out-mechanism", path])[0] == 0
    for mode in ("axioms", "multisep"):
        exit_code, _, err = run_cli(["check", "--mechanism", path, "--mode", mode])
        assert (exit_code, err) == (code, ""), mode
    mech = mechanisms.load_mechanism(path)
    verdict = axioms._upper_set_verdict(mech)
    monkeypatch.setattr(axioms, "_upper_set_verdict", lambda mech: False)
    assert verdict == (not any(axioms.find_violations(mech).values())) == (code == 0)


def test_table_over_the_size_bound_exits_3(tmp_path, monkeypatch):
    # 13 rows x 3 entries, each row over its own 10-bit prime: the common
    # denominator passes 40 bits at the fifth row, long before all 13 fold
    # into its 131 bits
    primes = [p for p in range(1009, 2000) if all(p % q for q in range(2, 45))][:13]
    rows = [(p, (1, 1, p - 2)) for p in primes]
    path = tmp_path / "wide.json"
    save_mechanism(mechanisms.MechanismTable(3, rows), path)
    monkeypatch.setattr(mechanisms, "TABLE_MAX_BITS", 13 * 3 * 40)
    code, report, err = run_cli(["check", "--mechanism", str(path)])
    assert code == 3
    assert report is None
    assert json.loads(err)["error"] == (
        f"bad mechanism file {path}: 13 rows x 3 entries x 50 bits of common"
        f" denominator = 1950 bits, over the bound of 1560"
    )


def _exact(text: str) -> Fraction:
    # Decimal reads and converts ints of any length; int(text) stops at 4,300 digits
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


@pytest.mark.parametrize(
    "u_values, v_values",
    [
        (["7" * 4000, "1", "0"], ["0", "1", "3" * 3999]),
        (["1" + "0" * 4200, "1", "0"], None),
    ],
)
def test_path_prints_alphas_past_the_int_digit_limit(tmp_path, u_values, v_values):
    # each value parses, but the path's alphas have 16,000 digits and more
    argv = ["path", "--from", "0>1>2", "--to", "2>1>0"]
    u = UtilityFn(3, tuple(Fraction(int(x)) for x in u_values))
    (tmp_path / "u.json").write_text(json.dumps({"values": u_values}))
    argv += ["--utilities-from", str(tmp_path / "u.json")]
    v = None
    if v_values is not None:
        v = UtilityFn(3, tuple(Fraction(int(x)) for x in v_values))
        (tmp_path / "v.json").write_text(json.dumps({"values": v_values}))
        argv += ["--utilities-to", str(tmp_path / "v.json")]
    code, report, err = run_cli(argv)
    assert (code, err) == (0, "")
    path = report["result"]["path"]
    expected = refinement_path(WeakOrder.parse("0>1>2"), WeakOrder.parse("2>1>0"), u, v)
    assert [_exact(a) for a in path["alphas"]] == list(expected.alphas)
    assert [_exact(b) for b in path["breakpoints"]] == list(expected.segment.breakpoints)
    assert max(map(len, path["alphas"])) > 16_000


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("sepax ")
    ]


def test_readme_examples_parse(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv in commands:
        cli.build_parser().parse_args(argv)
        if argv[0] in ("enumerate", "path") or argv[:2] == ["zoo", "list"]:
            code, report, err = run_cli(argv)
            assert (code, err) == (0, ""), argv
            assert report["command"] == argv[0]
            ran += 1
    assert ran >= 4


# command lines that start with a command's name, each parsed, shown help
# or refused; none of them runs a command
ONE_COMMAND_ARGVS = [
    ["check", "--help"],
    ["enumerate", "-h"],
    ["path", "--help"],
    ["amd", "--help"],
    ["zoo", "--help"],
    ["check", "--mechanism", "x", "-h"],
    ["check"],
    ["check", "--mechanism"],
    ["check", "--mechanism", "x", "--mode", "bogus"],
    ["check", "--mechanism", "x", "--seed", "7"],
    ["check", "--mechanism", "x", "extra"],
    ["check", "--mech", "x", "--emit"],
    ["check", "--mechanism", "a", "--", "b"],
    ["check", "--mechanism", "x", "--mode", "sp", "--out", "r.json"],
    ["enumerate", "--m", "x"],
    ["enumerate", "--what", "orders"],
    ["enumerate", "--m", "3", "--what", "separations", "--summary"],
    ["path", "--from", "0>1"],
    ["path", "--from", "0>1", "--to", "1>0", "--utilities-from"],
    ["amd", "--m", "3"],
    ["amd", "--m", "3", "--objective", "o.json", "--out-mechanism", "t.json"],
    ["zoo"],
    ["zoo", "show"],
    ["zoo", "emit", "--m", "3", "--name"],
    ["zoo", "list", "--summary"],
    ["zoo", "list", "--out", "r.json"],
]


def _parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except cli._InputError as exc:
            result = ("input error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ONE_COMMAND_ARGVS, ids=" ".join)
def test_one_subparser_parses_as_all_five(argv):
    # a run builds only its command's subparser: the namespace, the help
    # text and every refusal are those of the parser with all five
    assert _parse_outcome(cli.build_parser(argv[0]), argv) == _parse_outcome(
        cli.build_parser(), argv
    )
