"""The command-line contract around the computations: start-up cost,
usage errors, help, the in-process entry point, and the root cap."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import petcalc
from petcalc.cli import main

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


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_importing_the_cli_loads_no_heavy_module():
    # start-up is paid by every single query: keep click, dataclasses and
    # inspect (which dataclasses pulls in) out of it
    result = _python("-c", (
        "import sys, petcalc.cli; "
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().strip() == "[]"


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
    ],
    ids=["missing-option", "unknown-option", "abbreviated-class",
         "abbreviated-ca", "abbreviated-max-weyl", "bad-out", "bad-kind",
         "bad-suite", "non-integer-max-weyl", "negative-max-weyl",
         "unknown-command", "extra-argument"],
)
def test_usage_error_contract(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[0].startswith("Usage: ")
    assert sum(line.startswith("Error:") for line in lines) == 1
    assert lines[-1].startswith("Error: ")
    assert "Traceback" not in result.stderr


def test_group_help_names_every_command():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in OWN_OPTIONS:
        assert command in result.stdout


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_command_help_names_every_option(command):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0
    named = set(re.findall(r"--[\w-]+", result.stdout))
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


def test_a_type_label_over_the_root_cap_is_a_resource_cap(tmp_path):
    # A62 has 1,953 positive roots and A63 has 2,016, over the cap of 2,000
    runner = CliRunner()
    below = runner.invoke(main, ["restrict", "A62", "--class", "e",
                                 "--at", "e"])
    assert below.exit_code == 0
    assert below.stdout == "1\n"
    over = runner.invoke(main, ["restrict", "A63", "--class", "e",
                                "--at", "e"])
    assert over.exit_code == 3
    assert over.stdout == ""
    assert over.stderr.splitlines() == [
        "resource cap: A63 has more than 2000 positive roots"
    ]
    # an affine matrix has infinitely many roots: that is a usage error
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]]}))
    affine = runner.invoke(main, ["restrict", "--cartan", str(path),
                                  "--class", "e", "--at", "e"])
    assert affine.exit_code == 2
    assert affine.stdout == ""
    assert affine.stderr.splitlines()[-1] == (
        "Error: more than 2000 positive roots; "
        "the Cartan matrix is not of finite type"
    )
