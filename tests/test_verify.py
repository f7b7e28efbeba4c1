import json

import pytest
from click.testing import CliRunner

from petcalc import (
    build_root_system,
    element_from_word,
    gkm,
    root_system_from_label,
)
from petcalc import verify
from petcalc.cli import main
from petcalc.verify import Check, Unsupported, run_suite

B2 = [[2, -1], [-2, 2]]


def test_run_suite_matches_verify_json():
    result = CliRunner().invoke(
        main, ["verify", "A2", "--suite", "all", "--out", "json"]
    )
    checks = run_suite(root_system_from_label("A2"), "all")
    assert [check.to_json() for check in checks] == (
        json.loads(result.stdout)["checks"]
    )


def test_unsupported_sweep_is_skipped_within_a_suite():
    checks = run_suite(build_root_system(B2), "all")
    assert [check.status for check in checks] == [
        "pass", "pass", "pass", "pass", "pass", "skipped", "pass"
    ]
    assert checks[5].to_json() == {
        "name": "closed-form-cross-validation",
        "checked": 0,
        "failures": [],
        "skipped": "the closed form applies to type A only",
    }
    assert "skipped" not in checks[0].to_json()


def test_unsupported_sweep_alone_raises():
    with pytest.raises(Unsupported,
                       match="^the closed-form suite needs a type A system$"):
        run_suite(build_root_system(B2), "closed-form")


def test_failed_check_status():
    assert Check("sweep", 3, ["one bad entry"]).status == "fail"


def test_structure_sweep_labels_only_failing_rows(monkeypatch):
    a2 = root_system_from_label("A2")
    table = gkm.structure_table(a2)
    s1 = element_from_word(a2, (1,))
    table.entries[s1, s1, s1] = -table.entries[s1, s1, s1]
    monkeypatch.setattr(verify, "structure_table", lambda rs: table)
    structure = run_suite(a2, "positivity")[1]
    assert structure.checked == len(table.entries)
    assert structure.failures == ["(s1, s1, s1): negative coefficient -a1"]
