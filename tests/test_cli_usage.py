"""The command-line contract around the computations: start-up cost,
usage errors, help, the in-process entry point, how a process ends, and
the root cap."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import petcalc
from conftest import run_cli
from petcalc import element_from_word, root_system_from_label, schubert_class
from petcalc.cache import BilleyDiskCache
from petcalc.cli import UsageError, main, parse_job

SRC = str(Path(petcalc.__file__).resolve().parents[1])

COMMON_OPTIONS = ["--type", "--cartan", "--out", "--cache", "--jobs",
                  "--max-weyl"]
OWN_OPTIONS = {
    "restrict": ["--class", "--at"],
    "mult": ["--u", "--v"],
    "expand": ["--values"],
    "peterson-mult": ["--I", "--J", "--coxeter-order"],
    "pullback": ["--w", "--coxeter-order"],
    "table": ["--kind", "--coxeter-order"],
    "verify": ["--suite", "--coxeter-order"],
}
RESTRICT = ["restrict", "A3", "--class", "2 1", "--at", "1 2 1"]


def _python(*args, timeout=120, stdout=subprocess.PIPE):
    # stdout block-buffered, as from a shell, whatever the environment of
    # the test run says: what is left in the buffer at exit must arrive
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=timeout)


# what the command line once imported and no command needs: the
# argument parser with the gettext and locale lookups it makes, and the
# __future__ module that a dead annotations import loaded
UNUSED = ("argparse", "gettext", "locale", "__future__")


def test_importing_the_cli_loads_no_heavy_module():
    # start-up is paid by every single query: keep click, dataclasses,
    # inspect (which dataclasses pulls in) and UNUSED out of it
    heavy = {"click", "dataclasses", "inspect", *UNUSED}
    result = _python("-c", (
        "import sys, petcalc.cli; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().strip() == "[]"


# runs one command line and reports, after it exits, which of the lazily
# imported modules it loaded
_LOADED_AFTER = f"""
import sys
from petcalc.cli import main
try:
    main(sys.argv[1:], prog_name="petcalc")
except SystemExit as exc:
    code = exc.code
lazy = ("csv", "decimal", "fractions", "json", "petcalc.cache", *{UNUSED!r})
print(code, *[name for name in lazy if name in sys.modules], file=sys.stderr)
"""


def _b3_class_file(tmp_path, denominator):
    # the B3 product of the Schubert classes of s2 s1 and s3 s2, each
    # value divided by ``denominator``
    rs = root_system_from_label("B3")
    product = (schubert_class(rs, element_from_word(rs, (2, 1)))
               * schubert_class(rs, element_from_word(rs, (3, 2))))
    payload = product.to_json()
    payload["values"] = {
        word: [[exps, num, den * denominator] for exps, num, den in terms]
        for word, terms in payload["values"].items()
    }
    path = tmp_path / f"class-{denominator}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["restrict", "A3", "--class", "e", "--at", "e"], []),
        (["table", "A3", "--kind", "peterson", "--out", "csv"], ["csv"]),
        (["peterson-mult", "A3", "--I", "1,2", "--J", "2,3"], []),
        (["pullback", "A3", "--w", "1 2 3 2"], []),
        (["mult", "A3", "--u", "1 2", "--v", "2 3"], []),
        (["expand", "B3", "--values", 1], ["json"]),
        (["expand", "B3", "--values", 2], ["decimal", "fractions", "json"]),
        (["table", "G2", "--out", "csv"], ["csv"]),
        (["verify", "B3", "--suite", "gkm"], []),
    ],
    ids=["restrict", "table-peterson-csv", "peterson-mult", "pullback",
         "mult", "expand", "expand-halves", "table-g2-csv", "verify-gkm"],
)
def test_commands_load_only_the_modules_they_use(args, loaded, tmp_path):
    # fractions (which imports decimal), json, csv and the disk cache
    # are imported where they are used: whole-number output, no JSON and
    # no cache load none of them, and only --out csv loads csv; exact
    # division keeps integral quotients in ints, so only a class with a
    # coefficient 1/2 loads fractions; no command loads any of UNUSED.
    # An int argument n stands for a class file divided by n.
    args = [_b3_class_file(tmp_path, arg) if type(arg) is int else arg
            for arg in args]
    result = _python("-c", _LOADED_AFTER, *args)
    assert result.stdout, result.stderr
    assert result.stderr.decode().split() == ["0", *loaded]


@pytest.mark.parametrize(
    "args",
    [
        ["restrict", "A3", "--at", "e"],
        [*RESTRICT, "--bogus"],
        ["restrict", "A3", "--cla", "2 1", "--at", "e"],
        [*RESTRICT, "--ca", "cache"],
        [*RESTRICT, "--max", "5"],
        [*RESTRICT, "--out", "xml"],
        ["table", "A2", "--kind", "affine"],
        ["verify", "A2", "--suite", "everything"],
        [*RESTRICT, "--max-weyl", "many"],
        [*RESTRICT, "--max-weyl", "-1"],
        ["no-such-command", "A2"],
        [*RESTRICT, "B3"],
        ["restrict", "A3", "--class", "--at", "1"],
        [*RESTRICT, "--class"],
        [*RESTRICT, "--jobs", "2.5"],
        ["table", "A2", "--kind=affine"],
        [],
        ["A2", "restrict", "--class", "e", "--at", "e"],
    ],
    ids=["missing-option", "unknown-option", "abbreviated-class",
         "abbreviated-ca", "abbreviated-max-weyl", "bad-out", "bad-kind",
         "bad-suite", "non-integer-max-weyl", "negative-max-weyl",
         "unknown-command", "extra-argument", "missing-value",
         "missing-last-value", "non-integer-jobs", "bad-kind-after-equals",
         "no-command", "command-not-first"],
)
def test_usage_error_contract(args):
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("Usage: ")
    assert sum(line.startswith("Error:") for line in lines) == 1
    assert lines[-1].startswith("Error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["A3", "--class=1", "--at=1"],
        ["A3", "--class", "2 1", "--class", "1", "--at", "1"],
        ["--class", "1", "--at", "1", "A3"],
        ["--class", "1", "A3", "--at=1"],
        ["--type", "A3", "--at", "1", "--class", "1"],
    ],
    ids=["equals", "repeated-class", "root-system-last",
         "root-system-between", "type-flag"],
)
def test_equivalent_command_lines_give_the_same_job(args):
    expected = vars(parse_job("restrict", ["A3", "--class", "1", "--at", "1"]))
    assert vars(parse_job("restrict", args)) == expected


@pytest.mark.parametrize("value", ["-", "-1", "-2.5", "-s1 s2"])
def test_a_dash_that_is_no_flag_is_a_value(value):
    # "-" (stdin), a negative number and text with a space
    config = parse_job("restrict", ["A3", "--class", value, "--at", "e"])
    assert config.params["class_spec"] == value


@pytest.mark.parametrize("flag", ["--at", "--bogus", "-x"])
def test_a_flag_is_never_taken_as_a_value(flag):
    with pytest.raises(UsageError) as error:
        parse_job("restrict", ["A3", "--class", flag, "--at", "e"])
    assert str(error.value) == "argument --class: expected one argument"


@pytest.mark.parametrize("args", [[], ["restrict"], RESTRICT,
                                  [*RESTRICT, "--bogus"]],
                         ids=["group", "command", "command-line",
                              "after-an-error"])
def test_short_help_flag_anywhere_prints_the_help(args):
    # -h is --help wherever it stands, and wins over any error
    code, short, err = run_cli([*args, "-h"])
    assert code == 0
    assert err == ""
    assert short == run_cli([*args[:1], "--help"])[1]
    assert short.startswith("Usage: petcalc ")


def test_group_help_names_every_command():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    for command in OWN_OPTIONS:
        assert command in out


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_command_help_names_every_option(command):
    code, out, _ = run_cli([command, "--help"])
    assert code == 0
    named = set(re.findall(r"--[\w-]+", out))
    assert set(COMMON_OPTIONS + OWN_OPTIONS[command]) <= named


@pytest.mark.parametrize(
    "args, code",
    [
        ([*RESTRICT, "--out", "json"], 0),
        (["mult", "A5", "--u", "1 2 3", "--v", "3 2 1", "--max-weyl", "100"],
         3),
        (["mult", "B3", "--u", "4", "--v", "1"], 2),
    ],
    ids=["ok", "resource-cap", "usage-error"],
)
def test_in_process_entry_matches_a_subprocess(args, code, capsys):
    # the call an in-process driver makes: main.main(...) exits with the
    # job's code and writes the bytes that a separate process writes
    with pytest.raises(SystemExit) as exit_info:
        main.main(args=args, prog_name="petcalc", standalone_mode=True)
    assert exit_info.value.code == code
    in_process = capsys.readouterr()
    child = _python("-m", "petcalc.cli", *args)
    assert child.returncode == code
    assert in_process.out.encode() == child.stdout
    assert in_process.err.count("Error:") == child.stderr.count(b"Error:")


# -- how a process ends: flushed, then os._exit without teardown ----------


@pytest.mark.parametrize("args", [RESTRICT, ["table", "A3", "--out", "csv"]],
                         ids=["small", "large"])
def test_a_closed_stdout_exits_one_quietly(args):
    # the reader is gone before the child writes: a small output fails at
    # the final flush, a large one (57 KB) at a write inside main
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _python("-m", "petcalc.cli", *args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""


def test_a_process_flushes_a_large_stdout_in_full():
    result = _python("-m", "petcalc.cli", "table", "B3", "--out", "csv")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "7e85acb639c250ad986562e6454669b13a3ba763ba8b5899ce5a95eff53372dc")


def test_a_process_keeps_its_error_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"type": "A1", "degree": 0, "values": {"e": [[[0], 1, 1]]}}))
    result = _python("-m", "petcalc.cli", "expand", "A1", "--values", str(path))
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == [
        "error: residual at s1 is not a multiple of the diagonal "
        "restriction; the input is not in the span"
    ]


def test_a_process_leaves_a_whole_disk_cache(tmp_path):
    result = _python("-m", "petcalc.cli", "table", "A3", "--cache",
                     str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["billey-cache.jsonl"]
    assert BilleyDiskCache(tmp_path).load(root_system_from_label("A3")) > 0


# runs one job of each command through main in a fresh interpreter, and
# reports after each the atexit callbacks registered since before petcalc
# was imported, and the threads alive
_EXIT_HOOKS_AFTER = """
import atexit, json, sys, threading
before = atexit._ncallbacks()
from petcalc.cli import main
seen = []
for args in json.loads(sys.argv[1]):
    try:
        main(args, prog_name="petcalc")
    except SystemExit as exc:
        seen.append([args[0], exc.code, atexit._ncallbacks() - before,
                     threading.active_count()])
print(json.dumps(seen), file=sys.stderr)
"""


def test_no_job_leaves_work_for_interpreter_teardown(tmp_path):
    # a process ends through os._exit, which runs no atexit callback and
    # waits for no thread: a job that left either would lose its work
    good = tmp_path / "class.json"
    good.write_text(json.dumps({"type": "A2", "degree": 2, "values": {
        "s1": [[[1, 1], -1, 1]], "s1 s2": [[[1, 1], -1, 1]]}}))
    jobs = [
        [*RESTRICT, "--cache", str(tmp_path / "cache")],
        ["mult", "A3", "--u", "1 2", "--v", "2 3"],
        ["expand", "A2", "--values", str(good), "--out", "json"],
        ["peterson-mult", "A3", "--I", "1,2", "--J", "2,3"],
        ["pullback", "A3", "--w", "1 2 3 2"],
        ["table", "A2", "--out", "csv"],
        ["table", "A3", "--kind", "peterson"],
        ["verify", "A2", "--suite", "all"],
    ]
    result = _python("-c", _EXIT_HOOKS_AFTER, json.dumps(jobs))
    seen = json.loads(result.stderr.decode().splitlines()[-1])
    assert seen == [[args[0], 0, 0, 1] for args in jobs]
    assert {args[0] for args in jobs} == set(OWN_OPTIONS)


def test_a_type_label_over_the_root_cap_is_a_resource_cap(tmp_path):
    # A62 has 1,953 positive roots and A63 has 2,016, over the cap of 2,000
    code, out, _ = run_cli(["restrict", "A62", "--class", "e", "--at", "e"])
    assert code == 0
    assert out == "1\n"
    code, out, err = run_cli(["restrict", "A63", "--class", "e", "--at", "e"])
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "resource cap: A63 has more than 2000 positive roots"
    ]
    # an affine matrix has infinitely many roots: that is a usage error
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]]}))
    code, out, err = run_cli(["restrict", "--cartan", str(path),
                              "--class", "e", "--at", "e"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "Error: the Cartan matrix is not of finite type"
    )


@pytest.mark.parametrize("label", ["A300", "D500"])
def test_a_large_type_label_fails_before_its_matrix_is_built(label):
    # the closed-form root count is checked first: A300 once took 22 s to
    # exit, building its Cartan matrix and listing roots up to the cap
    result = _python("-m", "petcalc.cli", "restrict", label, "--class", "e",
                     "--at", "e", timeout=10)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == [
        f"resource cap: {label} has more than 2000 positive roots"
    ]


def _errors(err):
    return [line for line in err.splitlines() if line.startswith("Error:")]


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"],
                         ids=["missing", "not-json", "not-utf8"])
def test_an_unreadable_cartan_file_is_a_usage_error(tmp_path, content):
    path = tmp_path / "cartan.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(["restrict", "--cartan", str(path),
                              "--class", "e", "--at", "e"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    errors = _errors(err)
    assert len(errors) == 1
    assert errors[0].startswith("Error: cannot read Cartan file: ")


@pytest.mark.parametrize("content", ["{not json", ""], ids=["bad", "empty"])
def test_an_unreadable_class_file_is_a_usage_error(tmp_path, content):
    path = tmp_path / "class.json"
    path.write_text(content)
    code, out, err = run_cli(["expand", "A2", "--values", str(path)])
    assert code == 2
    assert out == ""
    errors = _errors(err)
    assert len(errors) == 1
    assert errors[0].startswith("Error: cannot read class JSON: ")
    code, _, err = run_cli(["expand", "A2", "--values", "-"], input=content)
    assert code == 2
    assert _errors(err)[0].startswith("Error: cannot read class JSON: ")


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--cartan", "SHAPE"], 2, "Error: SHAPE must be JSON of the form "),
        (["--cartan", "CARTAN"], 2, "Error: "),
        (["Z2"], 2, "Error: "),
        (["A63"], 3, "resource cap: A63 has more than 2000 positive roots"),
    ],
    ids=["payload-shape", "bad-matrix", "unknown-label", "label-over-cap"],
)
def test_every_exit_from_root_system_resolution_keeps_its_code(
        tmp_path, args, code, message):
    # each raises inside the try that reads the Cartan file, the label
    # paths included: an except clause there must not fail in turn (for
    # one naming a module that only the file path imports)
    shape, cartan = tmp_path / "shape.json", tmp_path / "cartan.json"
    shape.write_text("[[2, -1], [-1, 2]]")
    cartan.write_text(json.dumps({"cartan": [[2, 1], [-1, 2]]}))
    paths = {"SHAPE": str(shape), "CARTAN": str(cartan)}
    args = [paths.get(arg, arg) for arg in args]
    # an exception such as a NameError would propagate out of run_cli
    exit_code, out, err = run_cli(["restrict", *args, "--class", "e",
                                   "--at", "e"])
    assert exit_code == code, err
    assert out == ""
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith(message.replace("SHAPE", str(shape)))
