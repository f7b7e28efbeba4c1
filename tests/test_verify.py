import json

import pytest

from conftest import run_cli
from petcalc import (
    PolyT,
    RootSystem,
    element_from_word,
    gkm,
    root_system_from_label,
)
from petcalc import peterson, verify
from petcalc.verify import Check, Unsupported, run_suite

B2 = [[2, -1], [-2, 2]]


def test_run_suite_matches_verify_json():
    _, out, _ = run_cli(["verify", "A2", "--suite", "all", "--out", "json"])
    checks = run_suite(root_system_from_label("A2"), "all")
    assert [check.to_json() for check in checks] == (
        json.loads(out)["checks"]
    )


def test_unsupported_sweep_is_skipped_within_a_suite():
    checks = run_suite(RootSystem(B2), "all")
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
        run_suite(RootSystem(B2), "closed-form")


def test_failed_check_status():
    assert Check("sweep", 3, ["one bad entry"]).status == "fail"


def test_structure_sweep_labels_only_failing_rows(monkeypatch):
    a2 = root_system_from_label("A2")
    s1 = element_from_word(a2, (1,))
    rows = [(u, v, w, -c if u == v == w == s1 else c)
            for u, v, w, c in gkm.structure_table(a2)]
    monkeypatch.setattr(verify, "structure_table", lambda rs: iter(rows))
    structure = run_suite(a2, "positivity")[1]
    assert structure.checked == len(rows)
    assert structure.failures == ["(s1, s1, s1): negative coefficient -a1"]


def test_closed_form_failure_names_the_triple(monkeypatch):
    formula = peterson.closed_form_coefficient

    def wrong_at_one(i, j, k):
        value = formula(i, j, k)
        return value + value if i == j == k == {1} else value

    monkeypatch.setattr(peterson, "closed_form_coefficient", wrong_at_one)
    (check,) = run_suite(root_system_from_label("A2"), "closed-form")
    assert check.failures == [
        "I={1} J={1} K={1}: computed t^1, formula 2*t^1"
    ]


def test_consistency_failure_names_the_pair(monkeypatch):
    a2 = root_system_from_label("A2")  # fresh: no pullback memoised yet
    build = peterson.peterson_class

    def broken(rs, members, order="increasing"):
        cls = build(rs, members, order)
        if frozenset(members) == {1, 2}:
            cls[frozenset({1, 2})] += 1
        return cls

    monkeypatch.setattr(peterson, "peterson_class", broken)
    (check,) = run_suite(a2, "consistency")
    assert check.checked == 16
    assert check.failures == [
        "I={} J={1,2}", "I={1} J={1,2}", "I={2} J={1,2}", "I={1,2} J={}",
        "I={1,2} J={1}", "I={1,2} J={2}", "I={1,2} J={1,2}",
    ]


def test_consistency_sweep_reports_a_pullback_of_the_wrong_power(monkeypatch):
    pullback = peterson.pullback_expansion

    def one_power_too_many(rs, w, order="increasing"):
        expansion = pullback(rs, w, order)
        if w.length == 2:
            t = PolyT.monomial(1, 1)
            return {members: poly * t for members, poly in expansion.items()}
        return expansion

    monkeypatch.setattr(peterson, "pullback_expansion", one_power_too_many)
    a2 = root_system_from_label("A2")
    assert peterson.flag_consistency_report(a2) == (16, [
        "I={} J={1,2}", "I={1} J={1}", "I={1} J={2}", "I={1} J={1,2}",
        "I={2} J={1}", "I={2} J={2}", "I={2} J={1,2}", "I={1,2} J={}",
        "I={1,2} J={1}", "I={1,2} J={2}", "I={1,2} J={1,2}",
    ])
    code, out, err = run_cli(["verify", "A2", "--suite", "consistency"])
    assert (code, out) == (1, "FAIL flag-variety-consistency: 11 of 16 "
                               "checks failed\nFAIL A2 suite=consistency\n")
    assert "Traceback" not in err


def test_closed_form_sweep_follows_the_coxeter_order(monkeypatch):
    orders = set()
    constants = peterson.peterson_structure_constants

    def recording(rs, members_i, members_j, order="increasing"):
        orders.add(order)
        return constants(rs, members_i, members_j, order)

    monkeypatch.setattr(peterson, "peterson_structure_constants", recording)
    (check,) = run_suite(root_system_from_label("A3"), "closed-form",
                         "decreasing")
    assert orders == {"decreasing"}
    assert check.status == "pass"
