"""Digests of the CLI's reports over one fixed sweep of command lines.

Each command line runs in-process through `sepax.cli.main` with its
streams redirected, inside a temporary directory that holds the input
files under relative names, so no report or message carries a temporary
path. Per command line the digest keeps the exit code and the sha256 of
the exact stdout and stderr bytes, with the ``timing_s`` value replaced
by a fixed token. A change to any report byte, its formatting included,
moves an entry.

    python -m tests.report_sweep --check   # name every entry that moved
    python -m tests.report_sweep --write   # regenerate the digest file

A change that moves report bytes on purpose regenerates the file and
names the moved entries in its description. The crafted input files of
the sweep's last entries, and its files holding an over-long integer
literal, are defined here, and `tests/test_cli.py` runs them too. Only
the stdlib, sepax and `tests.oracles` are used, so the check runs on an
interpreter with no third-party package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from sepax import cli
from sepax.amd import random_objective, top_class_welfare_objective
from sepax.mechanisms import (
    ZOO,
    random_deterministic_mechanism,
    random_mechanism,
    rank_score,
    save_mechanism,
    top_class_uniform,
)
from tests.oracles import objective_to_json, perturbed

DIGESTS = Path(__file__).with_name("report_digests.json")

_TIMING = re.compile(rb'"timing_s": [^,\n}]+')
_TIMING_TOKEN = b'"timing_s": "<timing>"'


# crafted input files

READERS = ("mechanism", "objective", "utilities")


def reader_argv(reader: str, path: str) -> list[str]:
    """A command line that reads ``path`` as a file of kind ``reader``."""
    return {
        "mechanism": ["check", "--mechanism", path],
        "objective": ["amd", "--m", "2", "--objective", path],
        "utilities": ["path", "--from", "0>1", "--to", "1>0", "--utilities-from", path],
    }[reader]


# bytes that no reader takes for JSON
UNREADABLE_FILES = {
    "not_utf8": b'\xff\xfe{"m":2}',
    "nested_too_deep": b"[" * 100_000,
    "utf8_bom": b'\xef\xbb\xbf{"m": 1, "entries": []}',
    "empty": b"",
}

# each file kind's fields that take an int in range or a string, with @
# where the value goes; json reads 1e999999 and Infinity as float("inf"),
# NaN as float("nan") and -0 as 0
NUMBER_FIELDS = {
    "mechanism-m": ("mechanism", '{"m": @, "entries": []}'),
    "mechanism-entry": ("mechanism", '{"m": 1, "entries": [{"order": "0", "lottery": [@]}]}'),
    "objective-alt": ("objective", '{"terms": [{"order": "0>1", "alt": @, "coef": "1"}]}'),
    "objective-coef": ("objective", '{"terms": [{"order": "0>1", "alt": 0, "coef": @}]}'),
    "utility-value": ("utilities", '{"values": [@, "0"]}'),
}

# JSON files that are not valid input, as (reader, text); a text of None
# puts a directory where the file goes
CRAFTED_FILES = {
    f"{field}={number}": (reader, template.replace("@", number))
    for field, (reader, template) in NUMBER_FIELDS.items()
    for number in ("1e999999", "NaN", "Infinity", "-0")
    # alternative -0 is alternative 0: a valid file, in RESPELLED_FILES
    if (field, number) != ("objective-alt", "-0")
}
CRAFTED_FILES |= {
    # a lone surrogate escape decodes to a str that no order text matches
    "mechanism-surrogate": (
        "mechanism", '{"m": 1, "entries": [{"order": "\\ud800", "lottery": ["1"]}]}'
    ),
    "objective-surrogate": (
        "objective", '{"terms": [{"order": "\\udc00>1", "alt": 0, "coef": "1"}]}'
    ),
}
CRAFTED_FILES |= {f"{reader}-directory": (reader, None) for reader in READERS}

# one digit past the interpreter's default limit on turning text into an
# int, which json applies to every integer literal it reads
LONG_LITERAL = "9" * 4301

# JSON files holding that literal, as (command line, text); each command
# line ends with the name it reads the file by
LONG_LITERAL_FILES = {
    "mechanism-m": (
        ["check", "--mechanism", "long-m.json"], f'{{"m": {LONG_LITERAL}, "entries": []}}'
    ),
    "mechanism-entry": (
        ["check", "--mechanism", "long-entry.json"],
        f'{{"m": 1, "entries": [{{"order": "0", "lottery": [{LONG_LITERAL}]}}]}}',
    ),
    "mechanism-extra-key": (
        ["check", "--mechanism", "long-extra-key.json"],
        f'{{"m": 3, "entries": [], "pad": {LONG_LITERAL}}}',
    ),
    "objective-term": (
        ["amd", "--m", "3", "--objective", "long-term.json"],
        f'{{"terms": [{{"order": "0>1>2", "alt": {LONG_LITERAL}, "coef": "1"}}]}}',
    ),
    "utility-value": (
        reader_argv("utilities", "long-value.json"), f'{{"values": [{LONG_LITERAL}, "0"]}}'
    ),
}

# valid files in a crafted spelling, as (reader, text, plain spelling): a
# repeated key keeps its last value, and -0 reads as 0
RESPELLED_FILES = {
    "repeated-key": (
        "mechanism",
        '{"m": 9, "m": 1, "entries": [{"order": "0", "lottery": ["1"]}]}',
        '{"m": 1, "entries": [{"order": "0", "lottery": ["1"]}]}',
    ),
    "alt-minus-zero": (
        "objective",
        '{"terms": [{"order": "0>1", "alt": -0, "coef": "1"}]}',
        '{"terms": [{"order": "0>1", "alt": 0, "coef": "1"}]}',
    ),
}


def _crafted_argvs() -> list[list[str]]:
    """Write every crafted file into the current directory and return the
    command lines that read them."""
    argvs = []
    for content, data in sorted(UNREADABLE_FILES.items()):
        for reader in READERS:
            name = f"unreadable-{content}-{reader}.json"
            Path(name).write_bytes(data)
            argvs.append(reader_argv(reader, name))
    texts = {case: (reader, text) for case, (reader, text, _) in RESPELLED_FILES.items()}
    for case, (reader, text) in sorted((CRAFTED_FILES | texts).items()):
        name = f"crafted-{case}.json"
        if text is None:
            os.mkdir(name)
        else:
            Path(name).write_text(text, encoding="utf-8")
        argvs.append(reader_argv(reader, name))
    return argvs


def _write_json(name: str, data: object) -> str:
    Path(name).write_text(json.dumps(data), encoding="utf-8")
    return name


def _tables() -> list:
    """The checked tables: the zoo at m=1..5, then seeded random, random
    deterministic and perturbed tables at m=3 and 4."""
    tables = [factory(m) for m in range(1, 6) for _, factory in sorted(ZOO.items())]
    rng = random.Random(2027)
    for m in (3, 4):
        tables += [random_mechanism(m, rng, name=f"random-{m}-{i}") for i in range(3)]
        tables += [
            random_deterministic_mechanism(m, rng, name=f"random-deterministic-{m}-{i}")
            for i in range(3)
        ]
        tables += [perturbed(factory(m), rng) for factory in (rank_score, top_class_uniform)]
    return tables


def sweep_argvs() -> list[list[str]]:
    """Write every input file into the current directory, under a relative
    name, and return the sweep's command lines in run order."""
    argvs = []
    for mech in _tables():
        name = f"{mech.name}-m{mech.m}.json"
        save_mechanism(mech, name)
        for mode in cli.CHECK_MODES:
            base = ["check", "--mechanism", name, "--mode", mode]
            argvs += [base, base + ["--emit-all-certificates"]]
    for m in range(1, 5):
        for what in ("orders", "separations"):
            argvs.append(["enumerate", "--m", str(m), "--what", what])
    for m in (1, 5, 7, 50):
        argvs.append(["enumerate", "--m", str(m), "--what", "counts"])
    for start, end in (
        ("0", "0"),
        ("0>1>2", "2>1>0"),
        ("0,1>2", "2>0,1"),
        ("0>1,2>3", "3,2>1>0"),
        ("0,1,2,3", "3>2>1>0"),
    ):
        argvs.append(["path", "--from", start, "--to", end])
    u = _write_json("u-from.json", {"values": ["3", "2", "1", "0"]})
    v = _write_json("u-to.json", {"values": ["1/2", "1/3", "5", "7/4"]})
    argvs.append(
        ["path", "--from", "0>1>2>3", "--to", "2>3>0>1", "--utilities-from", u, "--utilities-to", v]
    )
    for m in (2, 3, 4):
        objectives = {"welfare": top_class_welfare_objective(m)}
        for seed in (0, 1):
            objectives[f"random{seed}"] = random_objective(m, random.Random(seed))
        for label, coeffs in objectives.items():
            name = _write_json(f"objective-{label}-m{m}.json", objective_to_json(m, coeffs))
            argvs.append(["amd", "--m", str(m), "--objective", name])
    argvs.append(["zoo", "list"])
    for name in sorted(ZOO):
        argvs.append(["zoo", "emit", "--name", name, "--m", "3"])
    # bad input whose message sepax itself words (exit 3)
    Path("bad-json.json").write_text('{"m": 1, "entries": [', encoding="utf-8")
    _write_json("bad-token.json", {"m": 1, "entries": [{"order": "0", "lottery": ["x"]}]})
    _write_json("too-large.json", {"m": 8, "entries": []})
    for argv, text in LONG_LITERAL_FILES.values():
        Path(argv[-1]).write_text(text, encoding="utf-8")
    argvs += [
        ["check", "--mechanism", "missing.json"],
        ["check", "--mechanism", "bad-json.json"],
        ["check", "--mechanism", "bad-token.json"],
        ["check", "--mechanism", "too-large.json"],
        ["path", "--from", "0>1", "--to", "0>1>2"],
        ["enumerate", "--m", "8", "--what", "orders"],
        ["enumerate", "--m", "501", "--what", "counts"],
        ["amd", "--m", "7", "--objective", "objective-welfare-m2.json"],
        ["zoo", "emit", "--name", "nonesuch", "--m", "3"],
    ]
    argvs += [argv for argv, _ in LONG_LITERAL_FILES.values()]
    return argvs + _crafted_argvs()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = _TIMING.sub(_TIMING_TOKEN, out.getvalue().encode("utf-8"))
    return {
        "exit": code,
        "stdout": _digest(stdout),
        "stderr": _digest(err.getvalue().encode("utf-8")),
    }


def run_sweep() -> dict[str, dict]:
    """Each command line of the sweep, joined by spaces, mapped to its exit
    code and stream digests."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            return {" ".join(argv): _run(argv) for argv in sweep_argvs()}
        finally:
            os.chdir(cwd)


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def moved_entries(expected: dict[str, dict], actual: dict[str, dict]) -> list[str]:
    """Every command line whose entry differs, is missing or is new, in
    sweep order with the missing ones last."""
    moved = [key for key, entry in actual.items() if expected.get(key) != entry]
    return moved + [key for key in expected if key not in actual]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.report_sweep")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare with the digest file")
    action.add_argument("--write", action="store_true", help="regenerate the digest file")
    args = parser.parse_args(argv)
    actual = run_sweep()
    if args.write:
        DIGESTS.write_text(json.dumps(actual, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} entries to {DIGESTS.name}")
        return 0
    moved = moved_entries(load_digests(), actual)
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(moved)} of {len(actual)} entries moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
