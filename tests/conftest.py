import contextlib
import io
import sys

import pytest

from petcalc import root_system_from_label
from petcalc.cli import main


def run_cli(args, input=None):
    """Run ``petcalc`` on ``args`` in-process, with ``input`` as the text
    on stdin: the exit code, stdout and stderr. An exception other than
    SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args, prog_name="petcalc")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def a1():
    return root_system_from_label("A1")


@pytest.fixture(scope="session")
def a2():
    return root_system_from_label("A2")


@pytest.fixture(scope="session")
def a3():
    return root_system_from_label("A3")


@pytest.fixture(scope="session")
def a4():
    return root_system_from_label("A4")


@pytest.fixture(scope="session")
def b2():
    return root_system_from_label("B2")
