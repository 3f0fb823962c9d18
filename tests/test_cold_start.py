"""What a cold `congrlab` process loads, and how it reads and writes
non-ASCII text whatever the locale.

`import congrlab.cli` loads only the stdlib modules that a run executes:
none of dataclasses (with inspect, ast, dis and tokenize), typing,
importlib.resources, pathlib or argparse.  argparse is imported by
make_parser alone, which main calls only for help, usage and errors.
Each check runs in a fresh `python -I -S` child, so neither site nor the
test runner has loaded anything first; the child inherits -X dev and -W.

Spec files are UTF-8 (RFC 8259) and --out files are written as UTF-8, under
any locale.  Output that stdout's encoding cannot write exits 2 with one
error line, not a traceback; JSON output is ASCII-escaped, so it exits 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
FLAGS = [*(["-X", "dev"] if sys.flags.dev_mode else []), *(f"-W{w}" for w in sys.warnoptions)]

# the stdlib modules congrlab does use; the child imports them first, so
# what congrlab.cli adds on top is congrlab's own doing
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import json, collections, functools, itertools, operator, math, os, types
base = set(sys.modules)
from congrlab import cli
added = sorted(m for m in set(sys.modules) - base if m != "congrlab" and not m.startswith("congrlab."))
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"added": added, "code": code, "argparse": "argparse" in sys.modules}))
"""
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "importlib.resources", "pathlib", "argparse"}
# all that congrlab adds to the baseline, on Python 3.10 to 3.13
ADDED = {"__future__", "collections.abc"}


def cold(*argv):
    """(added modules, exit code, argparse loaded) of a fresh child that
    imports congrlab.cli and runs main(argv)."""
    r = subprocess.run([sys.executable, "-I", "-S", *FLAGS, "-c", CHILD, SRC, *argv], capture_output=True, text=True)
    assert "Traceback" not in r.stderr, r.stderr
    got = json.loads(r.stdout.splitlines()[-1])
    return set(got["added"]), got["code"], got["argparse"]


def test_a_plain_argv_loads_only_what_it_runs():
    added, code, argparse = cold("con", "--fixture", "X")
    assert not added & UNUSED, added & UNUSED
    assert added <= ADDED, added - ADDED
    assert (code, argparse) == (0, False)


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["con", "--help"], 0), (["con", "--form", "json"], 2)], ids=["help", "con-help", "usage"]
)
def test_help_and_usage_errors_import_argparse(argv, code):
    added, got, argparse = cold(*argv)
    assert not added & UNUSED
    assert (got, argparse) == (code, True)


# -- non-ASCII labels under an ASCII locale ----------------------------------------

ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "chain.json"
    doc = {"name": "Cé", "kind": "lattice", "elements": ["0", "é", "1"], "cover": [["0", "é"], ["é", "1"]]}
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    return path


def ascii_run(*argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(ASCII_LOCALE, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *FLAGS, "-m", "congrlab.cli", *argv], capture_output=True, env=env)


def test_a_utf8_spec_reads_under_an_ascii_locale(spec):
    r = ascii_run("con", "--file", str(spec), "--format", "json")
    assert (r.returncode, r.stderr) == (0, b"")
    doc = json.loads(r.stdout.decode("ascii"))
    assert doc["algebra"] == "Cé" and doc["rows"][0]["congruence"] == "0|é|1"


@pytest.mark.parametrize("fmt", ["table", "dot"])
def test_output_stdout_cannot_encode_is_one_error_line(spec, fmt):
    r = ascii_run("con", "--file", str(spec), "--format", fmt)
    assert (r.returncode, r.stdout) == (2, b"")
    assert b"Traceback" not in r.stderr
    assert r.stderr.startswith(b"error: ") and r.stderr.count(b"\n") == 1, r.stderr
    assert b"can't encode" in r.stderr, r.stderr  # the spec itself was read


def test_out_files_are_utf8_under_an_ascii_locale(spec, tmp_path):
    out = tmp_path / "con.txt"
    r = ascii_run("con", "--file", str(spec), "--out", str(out))
    assert (r.returncode, r.stdout, r.stderr) == (0, b"", b"")
    assert "0|é|1" in out.read_bytes().decode("utf-8")
