import csv
import hashlib
import io
import json
import os
import tracemalloc
import warnings

import pytest

import oracles
from conftest import run_cli
from petcalc import (
    NonPolynomialResult,
    NotInSpan,
    Polynomial,
    RootSystem,
    element_from_word,
    gkm,
    one_line,
    peterson,
    root_system_from_label,
    weyl_enumerate,
    word_text,
)
from petcalc import cache as cache_module
from petcalc.cache import BilleyDiskCache, _signed_line
from petcalc import cli as cli_module
from petcalc.rootsys import cartan_matrix_for_label


def test_restrict_golden_text():
    assert run_cli(["restrict", "A2", "--class", "231", "--at", "321"]) == (
        0, "a1*a2 + a1^2\n", "")


def test_restrict_accepts_words():
    by_line = run_cli(["restrict", "A2", "--class", "231", "--at", "321"])
    by_word = run_cli(
        ["restrict", "A2", "--class", "s1 s2", "--at", "s1 s2 s1"])
    assert by_word == by_line


def test_restrict_csv():
    args = ["restrict", "A2", "--class", "231", "--at", "321", "--out", "csv"]
    assert run_cli(args) == (
        0, "v,w,restriction\ns1 s2,s1 s2 s1,a1*a2 + a1^2\n", "")


def test_restrict_json():
    _, out, _ = run_cli(
        ["restrict", "A2", "--class", "231", "--at", "321", "--out", "json"])
    payload = json.loads(out)
    assert payload["restriction_text"] == "a1*a2 + a1^2"
    assert payload["restriction"] == [[[1, 1], 1, 1], [[2, 0], 1, 1]]


def test_type_flag_equivalent_to_positional():
    positional = run_cli(["restrict", "A2", "--class", "e", "--at", "e"])
    flagged = run_cli(
        ["restrict", "--type", "A2", "--class", "e", "--at", "e"])
    assert positional == flagged == (0, "1\n", "")


def test_mult_golden():
    assert run_cli(
        ["mult", "A2", "--u", "213", "--v", "213", "--out", "csv"]) == (
        0, "u,v,w,coefficient\ns1,s1,s1,a1\ns1,s1,s2 s1,1\n", "")


def test_peterson_mult_golden():
    assert run_cli(
        ["peterson-mult", "A2", "--I", "1", "--J", "2", "--out", "csv"]) == (
        0, 'I,J,K,coefficient\n1,2,"1,2",2\n', "")


def test_peterson_mult_empty_subset():
    assert run_cli(
        ["peterson-mult", "A2", "--I", "", "--J", "2", "--out", "csv"]) == (
        0, "I,J,K,coefficient\n,2,2,1\n", "")


def test_pullback():
    assert run_cli(["pullback", "A2", "--w", "321", "--out", "csv"]) == (
        0, 'w,K,coefficient\ns1 s2 s1,"1,2",t^1\n', "")


def test_expand_golden(tmp_path):
    payload = {
        "type": "A2",
        "degree": 2,
        "values": {
            "s1": [[[1, 1], -1, 1]],
            "s1 s2": [[[1, 1], -1, 1]],
        },
    }
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(payload))
    assert run_cli(
        ["expand", "A2", "--values", str(path), "--out", "csv"]) == (
        0, "w,coefficient\ns1,-a2\ns2 s1,1\n", "")


def test_expand_rejects_non_gkm_with_exit_one(tmp_path):
    payload = {"type": "A1", "degree": 0, "values": {"e": [[[0], 1, 1]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, _ = run_cli(["expand", "A1", "--values", str(path)])
    assert code == 1


@pytest.mark.parametrize(
    "payload",
    [
        "values degree",
        {"type": "A2", "degree": 1, "values": []},
        {"type": "A2", "degree": 1, "values": {"s1": [[[1, 0], 1]]}},
        {"type": "A2", "degree": 1, "values": {"s1": [[[1, 0], 1, 0]]}},
        {"type": "A2", "degree": 1, "values": {"s1": 5}},
        {"degree": 1, "values": {"s1": [[[1, 0], 1, 1]]}, "cartan": 3},
    ],
    ids=["top-level-string", "values-list", "short-term", "zero-denominator",
         "value-not-a-list", "cartan-not-a-matrix"],
)
def test_expand_rejects_malformed_class_json(tmp_path, payload):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["expand", "A2", "--values", str(path)])
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1


_A2_CLASS_OF_S1 = {
    "s1": [[[1, 0], 1, 1]],
    "s1 s2": [[[1, 0], 1, 1]],
    "s2 s1": [[[0, 1], 1, 1], [[1, 0], 1, 1]],
    "s1 s2 s1": [[[0, 1], 1, 1], [[1, 0], 1, 1]],
}


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "A2", "degree": 1, "values": {
            w: [[exps, num * 1.5, den] for exps, num, den in terms]
            for w, terms in _A2_CLASS_OF_S1.items()}},
        {"degree": 1, "values": _A2_CLASS_OF_S1,
         "cartan": [[2, -1.5], [-1, 2]]},
        {"type": "A2", "degree": 1.5, "values": _A2_CLASS_OF_S1},
    ],
    ids=["fractional-coefficients", "fractional-cartan", "fractional-degree"],
)
def test_expand_rejects_fractional_numbers(tmp_path, payload):
    # int() would truncate 1.5 to 1 and expand these as the class of s1
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["expand", "A2", "--values", str(path)])
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: malformed class JSON: ")


def test_expand_rejects_a_fixed_point_named_twice(tmp_path):
    # s1 s2 s1 and s2 s1 s2 are one element of A2: a wrong value under the
    # first name must not be overwritten by the right one under the second
    values = {w: terms for w, terms in _A2_CLASS_OF_S1.items()
              if w != "s1 s2 s1"}
    values["s1 s2 s1"] = [[[0, 1], 5, 1], [[1, 0], 5, 1]]
    values["s2 s1 s2"] = _A2_CLASS_OF_S1["s1 s2 s1"]
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"type": "A2", "degree": 1, "values": values}))
    code, out, err = run_cli(["expand", "A2", "--values", str(path)])
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: malformed class JSON: ")


def test_expand_rejects_an_exponent_vector_named_twice(tmp_path):
    # the second [1] entry must not replace the first: a1 + a1 is not the
    # class of s1, and no reading of the file should expand it as one
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"type": "A1", "degree": 1, "values": {
        "s1": [[[1], 1, 1], [[1], 1, 1]]}}))
    code, out, err = run_cli(["expand", "A1", "--values", str(path)])
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("Error:")]
    assert errors == [
        "Error: malformed class JSON: exponent vector [1] appears twice"
    ]


@pytest.mark.parametrize(
    "cartan, message",
    [
        ("x", "Cartan entries must be integers"),
        (5, "Cartan matrix must be a list of rows"),
        ([[2, "a"], [-1, 2]], "Cartan entries must be integers"),
        ([[2, -1.5], [-1, 2]], "Cartan entries must be integers"),
    ],
    ids=["string", "number", "string-entry", "fractional-entry"],
)
def test_malformed_cartan_file_is_a_usage_error(tmp_path, cartan, message):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": cartan}))
    code, out, err = run_cli(
        ["verify", "--cartan", str(path), "--suite", "positivity"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"Error: {message}"


def test_verify_suites_pass():
    for suite in ("positivity", "gkm", "billey", "closed-form", "consistency"):
        code, out, err = run_cli(["verify", "A2", "--suite", suite])
        assert code == 0, out + err


def test_verify_positivity_sweep_a3():
    code, out, _ = run_cli(["verify", "A3", "--suite", "positivity"])
    assert code == 0
    assert "ok A3 suite=positivity" in out
    code, out, _ = run_cli(
        ["verify", "A2", "--suite", "all", "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 7


def test_verify_closed_form_requires_type_a(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]]}))
    code, _, err = run_cli(
        ["verify", "--cartan", str(path), "--suite", "closed-form"])
    assert code == 2
    assert err.splitlines()[-1] == (
        "Error: the closed-form suite needs a type A system"
    )


def test_consistency_suite_beyond_its_size_is_a_usage_error():
    code, out, err = run_cli(["verify", "A5", "--suite", "consistency"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "Error: the consistency sweep multiplies Schubert classes over all "
        "of W; 720 elements is beyond the supported size"
    )


@pytest.mark.parametrize(
    "args", [["A8"], ["A4", "--max-weyl", "100"]], ids=["A8", "A4-cap-100"]
)
def test_verify_cap_comes_before_any_sweep(args):
    # the closed form itself never enumerates W
    code, out, err = run_cli(["verify", *args, "--suite", "closed-form"])
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap: ")


def _chain(n):
    return [[2 if i == j else -(abs(i - j) == 1) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize(
    "cartan",
    [[[2, -2], [-2, 2]], [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]],
    ids=["affine", "hyperbolic"],
)
def test_infinite_type_cartan_file_is_a_usage_error(tmp_path, cartan):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": cartan}))
    code, out, err = run_cli(
        ["restrict", "--cartan", str(path), "--class", "e", "--at", "e"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "Error: the Cartan matrix is not of finite type"
    )


def test_finite_type_past_the_root_cap_is_a_resource_cap(tmp_path):
    # A63 has 2,016 positive roots: finite, but over the cap of 2,000,
    # from a file as from its label
    path = tmp_path / "a63.json"
    path.write_text(json.dumps({"cartan": _chain(63)}))
    for source in (["--cartan", str(path)], ["A63"]):
        code, out, err = run_cli(
            ["restrict", *source, "--class", "e", "--at", "e"])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("resource cap: ")
        assert err.endswith("has more than 2000 positive roots\n")


def test_cartan_file_input(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]]}))
    code, _, _ = run_cli(
        ["verify", "--cartan", str(path), "--suite", "positivity"])
    assert code == 0


def test_usage_errors_exit_two():
    for args in (
        ["restrict", "Q7", "--class", "1", "--at", "1"],
        ["restrict", "--class", "1", "--at", "1"],
        ["restrict", "A2", "--type", "A3", "--class", "1", "--at", "1"],
        ["restrict", "A2", "--class", "9999", "--at", "1"],
        ["peterson-mult", "A2", "--I", "7", "--J", "1"],
        ["restrict", "A2", "--class", "1", "--at", "1", "--jobs", "0"],
    ):
        assert run_cli(args)[0] == 2, args


@pytest.mark.parametrize("args", [
    ["restrict", "A10", "--class", "{}", "--at", "{}"],
    ["restrict", "D10", "--class", "{}", "--at", "{}"],
    ["pullback", "A10", "--w", "{}"],
], ids=["restrict-A10", "restrict-D10", "pullback-A10"])
def test_a_lone_letter_past_nine_is_a_word(args):
    # one-line notation of A10 has 11 digits, and D10 has none, so "10"
    # can only be the letter s10
    by_letter = run_cli([a.format("10") for a in args])
    by_word = run_cli([a.format("s10") for a in args])
    assert by_letter == by_word
    assert by_letter[0] == 0


def test_a_lone_token_too_short_for_one_line_is_still_refused():
    # "12" is not one-line notation of A2 (3 digits), and s12 is no letter
    code, out, _ = run_cli(["restrict", "A2", "--class", "12", "--at", "321"])
    assert code == 2
    assert out == ""


def test_subsets_may_be_braced():
    plain = run_cli(["peterson-mult", "A3", "--I", "1,2", "--J", "3"])
    braced = run_cli(["peterson-mult", "A3", "--I", "{1,2}", "--J", "{3}"])
    assert braced[0] == 0
    assert braced == plain
    empty = run_cli(["peterson-mult", "A3", "--I", "{}", "--J", "{3}"])
    assert empty == run_cli(["peterson-mult", "A3", "--I", "", "--J", "3"])
    assert run_cli(
        ["peterson-mult", "A3", "--I", "{{1}}", "--J", "3"])[0] == 2


def test_resource_cap_exit_three():
    assert run_cli(["table", "A4", "--max-weyl", "50"])[0] == 3


@pytest.mark.parametrize("cap", [[], ["--max-weyl", "100"]],
                         ids=["default-cap", "cap-100"])
def test_peterson_mult_needs_no_weyl_group(cap):
    # E6 has 51,840 Weyl group elements, above both caps
    code, out, err = run_cli(
        ["peterson-mult", "E6", "--I", "1", "--J", "2", *cap])
    assert code == 0
    assert out == "1 2 1,2 1\n"
    assert err == ""


MULT_123_321 = ["--u", "1 2 3", "--v", "3 2 1"]


def test_mult_cap_counts_the_fixed_points_it_walks():
    # l(u) + l(v) = 6, and A5 has 259 elements of length at most 6
    args = ["mult", "A5", *MULT_123_321, "--out", "json", "--max-weyl"]
    code, out, err = run_cli([*args, "258"])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("resource cap: ")
    code, out, err = run_cli([*args, "259"])
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8a0b1f3a23877760055e93e02c13db338585eba973830c87e7fb00e7d9e27e69"
    )
    a5 = root_system_from_label("A5")
    got = {
        one_line(element_from_word(a5, [int(s[1:]) for s in label.split()])):
        oracles.roots_in_y(Polynomial.from_json(a5.rank, data), 6)
        for label, data in json.loads(out)["coefficients"].items()
    }
    u, v = (one_line(element_from_word(a5, word))
            for word in ((1, 2, 3), (3, 2, 1)))
    zero = Polynomial.zero(6)
    for w, expected in oracles.double_structure_constants(u, v).items():
        assert got.get(w, zero) == expected


def test_mult_walks_only_short_elements_of_e6_and_e7():
    # |W(E6)| = 51,840 is above the default cap; E6 sits in E7 as a
    # parabolic subsystem with the same numbering, so the products agree
    outputs = []
    for label in ("E6", "E7"):
        code, out, err = run_cli(["mult", label, *MULT_123_321])
        assert code == 0
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_weyl_below_one_is_a_usage_error(cap):
    code, out, err = run_cli(
        ["mult", "A2", "--u", "213", "--v", "213", "--max-weyl", cap])
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("Error:")]
    assert errors == ["Error: --max-weyl must be at least 1"]


def _b3_longest_word():
    b3 = root_system_from_label("B3")
    return " ".join(str(i) for i in weyl_enumerate(b3)[-1].word)


@pytest.mark.parametrize(
    "args, message",
    [(["pullback", "B3", "--w", "{w0}"], "Billey sum at "),
     (["restrict", "B3", "--class", "{w0}", "--at", "{w0}"],
      "Billey sum for a class of length 9 ")],
    ids=["pullback", "restrict"],
)
def test_billey_sum_counts_its_states_against_the_cap(args, message):
    # both walk every prefix of w_0, and B3 has 48 of them; restrict
    # walks the prefixes of its class, whatever the fixed point
    w0 = _b3_longest_word()
    args = [arg.format(w0=w0) for arg in args] + ["--max-weyl"]
    for cap in ("10", "47"):
        code, out, err = run_cli([*args, cap])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("resource cap: " + message)
    code, out, err = run_cli([*args, "48"])
    assert code == 0
    assert err == ""


RESTRICT_231_AT_321 = ["restrict", "A2", "--class", "231", "--at", "321"]


def _expand_a2_class_of_s1(tmp_path):
    """An ``expand`` command line for the A2 class of s1, of degree 1."""
    path = tmp_path / "class-of-s1.json"
    path.write_text(json.dumps(
        {"type": "A2", "degree": 1, "values": _A2_CLASS_OF_S1}))
    return ["expand", "A2", "--values", str(path)]


class _LoadReached(Exception):
    pass


def _refuse_load(self, rs):
    raise _LoadReached


def _refuse_save(self, rs):
    raise AssertionError("the cache was saved")


@pytest.mark.parametrize(
    "args",
    [
        ["peterson-mult", "D4", "--I", "1", "--J", "2"],
        ["pullback", "D4", "--w", "2 1 3 2 1 4 2 1"],
        ["table", "A2", "--kind", "peterson"],
        ["mult", "D4", "--u", "1 2 4", "--v", "3 4"],
        ["restrict", "D4", "--class", "1 2 4", "--at", "2 1 3 2 1 4 2 1"],
    ],
    ids=["peterson-mult", "pullback", "table-peterson", "mult", "restrict"],
)
def test_peterson_jobs_do_not_load_the_cache(tmp_path, monkeypatch, args):
    # mult reads Billey rows, but only on the short fixed points: cheaper
    # to compute than to load from a cache of whole-W rows; restrict reads
    # no whole row at all
    cache = tmp_path / "cache"
    expected = run_cli(args)[1]
    monkeypatch.setattr(BilleyDiskCache, "load", _refuse_load)
    monkeypatch.setattr(BilleyDiskCache, "save", _refuse_save)
    code, out, err = run_cli([*args, "--cache", str(cache)])
    assert code == 0
    assert out == expected
    assert not cache.exists()


def test_schubert_jobs_still_load_the_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(BilleyDiskCache, "load", _refuse_load)
    for args in (_expand_a2_class_of_s1(tmp_path),
                 ["table", "A2", "--kind", "schubert"],
                 ["verify", "A2", "--suite", "gkm"]):
        with pytest.raises(_LoadReached):
            run_cli([*args, "--cache", str(tmp_path)])


@pytest.mark.parametrize("nested", [False, True],
                         ids=["regular-file", "path-under-a-file"])
@pytest.mark.parametrize(
    "args", [RESTRICT_231_AT_321, ["mult", "A2", "--u", "213", "--v", "213"],
             "expand"],
    ids=["restrict", "mult", "expand"],
)
def test_jobs_without_the_cache_ignore_a_path_that_cannot_be_one(tmp_path,
                                                                 args, nested):
    # no save, so neither a file at the path nor one above it matters;
    # expand loads, finds no file there, and adds no row to write
    if args == "expand":
        args = _expand_a2_class_of_s1(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = blocker / "sub" if nested else blocker
    expected = run_cli(args)
    assert expected[0] == 0
    assert run_cli([*args, "--cache", str(cache)]) == expected
    assert blocker.read_text() == ""


def test_table_deterministic_across_jobs():
    outputs = [
        run_cli(["table", "A2", "--out", "csv", "--jobs", str(jobs)])[1]
        for jobs in (1, 2, 4)
    ]
    assert outputs[0] == outputs[1] == outputs[2]
    header, *rows = outputs[0].splitlines()
    assert header == "u,v,w,coefficient"
    assert len(rows) == 44
    assert "\r" not in outputs[0]  # LF line endings, not CRLF


@pytest.mark.parametrize(
    "args, digest",
    [
        (["table", "A2", "--out", "json"],
         "d9117abf4193ccaffd1249f2becb453eaadc0b13ff49ba86235d135e272e194b"),
        (["table", "B3", "--out", "csv"],
         "7e85acb639c250ad986562e6454669b13a3ba763ba8b5899ce5a95eff53372dc"),
        (["table", "C3", "--out", "csv"],
         "668af9ecd9242629d257f0dc53a2057e1389da789252f310d4bf1495f10813cd"),
        (["table", "A3", "--out", "csv"],
         "47000225a9c33153b1526366f316fe0121f2e11bb40ab5ae989ed43eb3adfa5e"),
        (["table", "A4", "--out", "csv"],
         "d84a61e8ee24fa8706dd0fc850e8fe265a86ee6270c623239b12a597c43f658e"),
        (["table", "G2", "--out", "json"],
         "1a728da6c4164239a2cc322d5e22f1c32774e9c8887acc9410fe5b4242be75aa"),
        (["table", "B2"],
         "2bbab12e2d5aadba5d3707f8223fc976b81fae232a14f2efb5b7662cda619f9f"),
        (["table", "A2", "--kind", "peterson", "--out", "json"],
         "34630c2472e4fd9ef96fa79210c1d5df3c1627ea61e95fa63c929683148b2d30"),
        (["table", "A3", "--kind", "peterson"],
         "af87e5d711530707fce72734100c78cc0f136aaaeece682bb65f6b67f9fd05fc"),
        (["table", "F4", "--kind", "peterson", "--out", "csv"],
         "eb1c621e1347da3661a0a5f98d1e46c382bc4efa8dbb9d8a9040b15ab7bc0648"),
        (["table", "A5", "--kind", "peterson", "--out", "csv"],
         "c32b53ad0ee43e2ea30616ca14b5deef48fcd7960b8117f115e631128fb66b3f"),
        (["table", "B3", "--kind", "peterson", "--out", "csv"],
         "7abd329a89d012e663cd1cd54fe75925628b9d09e291af2b28dc4c790c36a284"),
        (["table", "C4", "--kind", "peterson", "--out", "csv"],
         "84615649503306624e18325b197d39e0cb9e9262f71636360f5afb88937de6fa"),
        (["table", "D5", "--kind", "peterson", "--out", "csv"],
         "a5909be6b32ba22b7f4eda5678acf0fe3a4aac98bf8aae3f8a0599b832abdbf4"),
        (["table", "G2", "--kind", "peterson", "--out", "json"],
         "b1436a61d0e8c19885115497a68c4c3870d726ff9c5b5f597d21c5c92dc7c994"),
        (["table", "E7", "--kind", "peterson", "--out", "csv"],
         "75aba14ff4647340dc9c940b86c3922fe33a4c2a9d020e10c0fd03f945679ad5"),
        (["table", "E8", "--kind", "peterson", "--out", "csv"],
         "992f34bf3f3a92c7678d00a702d64c096f3e821ced6639750660c0b306af8447"),
        (["table", "E6", "--kind", "peterson", "--out", "json"],
         "9156a63ebbe03c6d9c2836b5e5122941c63524b43b24f971cdaf41a05cdd00b0"),
        (["table", "D5", "--kind", "peterson"],
         "ce7802166ec19f1e4565ca0c9c2ed055bd089f0001888e87a6511b9dc9133bb5"),
        (["pullback", "E6", "--w", "1,3,4,2,5,4,6", "--out", "json"],
         "3c976c50a16ef6fc68c11e50f4001cbc594b8c80a7761a4be557985d9201cff4"),
        (["table", "B3", "--out", "json"],
         "d664fcd30dc9d361e4bf267483b4349c56d2e99c2cff4a36c3cb0c14f3111a0f"),
        (["verify", "A3", "--suite", "all"],
         "d2cc0b8cbad21e60151dad97202e586dfc32a1bc6d03d7fa1f8fcf23511b369c"),
        (["verify", "A3", "--suite", "all", "--out", "csv"],
         "949ed6e4aaed58f9e282abb16e05d93ae8e266dcf1c62e0bcda5b65aaa053ae5"),
        (["verify", "A3", "--suite", "all", "--out", "json"],
         "d135089d9c3b27e31b64d5960d7fb6ac5ebd163ed7abb54100bfbde4966de475"),
        (["verify", "G2", "--suite", "all", "--out", "json"],
         "39f284172ee9d2547a8c260a822255e1feb2a68bcd4b1d9fd5966fb6b06956a1"),
        (["verify", "B3", "--suite", "billey", "--out", "json"],
         "47cf0d3f3df43e39a0a05c68911f6b8dfb655a77e05fb85e647cd649a9255a9c"),
    ],
    ids=["schubert-json", "schubert-b3-csv", "schubert-c3-csv",
         "schubert-a3-csv", "schubert-a4-csv", "schubert-g2-json",
         "schubert-b2-text",
         "peterson-json", "peterson-text", "peterson-f4-csv",
         "peterson-a5-csv", "peterson-b3-csv", "peterson-c4-csv",
         "peterson-d5-csv", "peterson-g2-json", "peterson-e7-csv",
         "peterson-e8-csv",
         "peterson-e6-json", "peterson-d5-text", "pullback-e6-json",
         "schubert-b3-json", "verify-a3-text", "verify-a3-csv",
         "verify-a3-json", "verify-g2-json", "verify-b3-billey-json"],
)
def test_table_output_bytes_pinned(args, digest):
    code, out, err = run_cli(args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args,digest",
    [
        (["mult", "E7", "--u", "1 3 4 5", "--v", "7 6 5 4"],
         "83f0bf46d45b30056d28a55f736bcef177a03426f79b3dfa6191808fb6116b80"),
        (["mult", "E6", "--u", "1 3 4 2 5", "--v", "6 5 4 3 1"],
         "50a6caa9a5e569d23da6f061a6ed601461b8d3f766c2b623ee7d14226001cf57"),
    ],
    ids=["e7-4x4", "e6-5x5"],
)
def test_mult_output_bytes_pinned(args, digest, monkeypatch):
    # the product is solved on its support from stepped rows, so the
    # memo of the root system stays empty
    systems = []
    resolve = cli_module._resolve_root_system
    monkeypatch.setattr(cli_module, "_resolve_root_system",
                        lambda config: systems.append(resolve(config))
                        or systems[-1])
    code, out, err = run_cli(args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(systems) == 1 and not systems[0]._billey


@pytest.mark.parametrize(
    "system", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "reversed-C3"]
)
def test_table_rows_follow_enumeration_rank_and_labels_word_text(tmp_path,
                                                                 system):
    # table order is enumeration rank, and each label, rendered once per
    # element, must match word_text
    if system == "reversed-C3":
        cartan = [row[::-1] for row in cartan_matrix_for_label("C3")[::-1]]
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"cartan": cartan}))
        rs, source = RootSystem(cartan), ["--cartan", str(path)]
    else:
        rs, source = root_system_from_label(system), [system]
    expected = list(gkm.structure_table(rs))
    rank = {x: k for k, x in enumerate(weyl_enumerate(rs))}
    ranks = [(rank[u], rank[v], rank[w]) for u, v, w, _ in expected]
    # strictly increasing, so each triple once, and every mirrored
    # entry (v, u, w) is a row with the same coefficient
    assert ranks == sorted(set(ranks))
    entries = {(u, v, w): poly for u, v, w, poly in expected}
    assert all(entries.get((v, u, w)) == poly
               for (u, v, w), poly in entries.items())
    code, out, err = run_cli(["table", *source, "--out", "csv"])
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["u", "v", "w", "coefficient"],
        *([word_text(u), word_text(v), word_text(w), poly.text()]
          for u, v, w, poly in expected),
    ]


def test_peterson_table_csv():
    _, out, _ = run_cli(["table", "A2", "--kind", "peterson", "--out", "csv"])
    lines = out.splitlines()
    assert lines[0] == "I,J,K,coefficient"
    assert ',,"",1' not in lines  # empty subsets render as empty fields
    assert '1,2,"1,2",2' in lines


def test_cache_identical_bytes(tmp_path):
    cache = tmp_path / "cache"
    without = run_cli(["table", "A2", "--out", "csv"])
    first = run_cli(["table", "A2", "--out", "csv", "--cache", str(cache)])
    second = run_cli(["table", "A2", "--out", "csv", "--cache", str(cache)])
    assert without == first == second
    assert (cache / "billey-cache.jsonl").exists()


def test_corrupt_cache_is_ignored(tmp_path):
    cache = tmp_path / "cache"
    args = TABLE_A2 + ["--cache", str(cache)]
    baseline = run_cli(args)
    path = cache / "billey-cache.jsonl"
    content = path.read_text().splitlines()
    content.insert(1, "not json at all")
    content.insert(2, _signed_line({"rs": "A2", "w": [1], "row": [[[99], []]]}))
    content.insert(3, "[1]")
    path.write_text("\n".join(content) + "\n")
    assert run_cli(args) == baseline


def test_cache_row_with_a_zero_denominator_is_skipped(tmp_path):
    # the digest holds, so only the coefficient's parse can reject it
    row = {"rs": "A2", "w": [1], "row": [[[1], [[[1, 0], 1, 0]]]]}
    (tmp_path / "billey-cache.jsonl").write_text(
        '{"format": 3}\n' + _signed_line(row) + "\n"
    )
    assert BilleyDiskCache(tmp_path).load(root_system_from_label("A2")) == 0


def test_cache_save_survives_a_squatted_temp_name(tmp_path):
    cache = tmp_path / "cache"
    (cache / "billey-cache.tmp").mkdir(parents=True)
    code, out, _ = run_cli(TABLE_A2 + ["--cache", str(cache)])
    assert code == 0
    assert out == run_cli(TABLE_A2)[1]
    assert sorted(os.listdir(cache)) == ["billey-cache.jsonl",
                                         "billey-cache.tmp"]


def test_cache_save_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    rs = root_system_from_label("A1")
    gkm.billey_row(rs, rs.simple_reflection(1))
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        BilleyDiskCache(tmp_path).save(rs)
    assert os.listdir(tmp_path) == []


FORMAT_1_A2 = (
    '{"format": 1}\n'
    '{"rs":"A2","v":[],"w":[1,2,1],"poly":[[[0,0],1,1]]}\n'
    '{"rs":"A2","w":[1,2,1],"row_complete":true}\n'
)


@pytest.mark.parametrize("nested", [False, True],
                         ids=["regular-file", "path-under-a-file"])
def test_cache_path_that_cannot_be_a_directory(tmp_path, nested):
    # the job's output stands; the failed save is one line and exit 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = blocker / "sub" if nested else blocker
    reason = "Not a directory" if nested else "File exists"
    code, out, err = run_cli(["table", "A1", "--cache", str(cache)])
    assert code == 2
    assert out == run_cli(["table", "A1"])[1]
    assert err == f"cache: cannot write {cache}: {reason}\n"
    assert blocker.read_text() == ""


def test_positivity_violation_outranks_a_blocked_cache(monkeypatch,
                                                       tmp_path):
    # a failed verification is exit 1 even when the cache save fails too
    monkeypatch.setattr(gkm, "is_graham_positive", lambda p: False)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run_cli(["table", "A2", "--cache", str(blocker)])
    assert code == 1
    assert out
    lines = err.splitlines()
    assert lines[-1] == f"cache: cannot write {blocker}: File exists"
    assert all(line.startswith("positivity violation: ")
               for line in lines[:-1]) and len(lines) > 1


@pytest.mark.parametrize(
    "stale", ['{"format": 99}\n{"rs": "A2"}\n', FORMAT_1_A2],
    ids=["format-99", "format-1"],
)
def test_stale_cache_format_is_ignored(tmp_path, stale):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "billey-cache.jsonl").write_text(stale)
    assert run_cli(TABLE_A2 + ["--cache", str(cache)]) == run_cli(TABLE_A2)
    assert (cache / "billey-cache.jsonl").read_text().startswith(
        '{"format": 3}\n'
    )


EMPTY_A2_ROW = '{"rs":"A2","w":[1,2,1],"row":[]}\n'


@pytest.mark.parametrize("header", ['{"format": 3}\n', '{"format": 2}\n'],
                         ids=["unsigned", "format-2"])
def test_well_formed_but_wrong_cache_row_is_rejected(tmp_path, header):
    # parses as a complete row in which every class restricts to zero
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "billey-cache.jsonl").write_text(header + EMPTY_A2_ROW)
    assert BilleyDiskCache(cache).load(root_system_from_label("A2")) == 0
    assert run_cli(TABLE_A2 + ["--cache", str(cache)]) == run_cli(TABLE_A2)


def test_clean_cache_is_not_rewritten(tmp_path):
    cache = tmp_path / "cache"
    args = TABLE_A2 + ["--cache", str(cache)]
    expected = run_cli(TABLE_A2)
    assert run_cli(args) == expected
    before = os.stat(cache / "billey-cache.jsonl")
    assert run_cli(args) == expected
    after = os.stat(cache / "billey-cache.jsonl")
    assert (after.st_ino, after.st_mtime_ns) == (
        before.st_ino, before.st_mtime_ns
    )


def test_cache_parses_only_the_rows_of_its_root_system(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ["--cache", str(cache)]
    run_cli(["table", "G2", *args])
    # the A2 rows of length at most 1, saved next to the G2 ones
    short = root_system_from_label("A2")
    for x in weyl_enumerate(short, 1):
        gkm.billey_row(short, x)
    BilleyDiskCache(cache).save(short)
    lines = (cache / "billey-cache.jsonl").read_text().splitlines()
    own = [line for line in lines if line.startswith('{"rs":"A2",')]
    assert len(own) == 3 and len(own) < len(lines) - 1
    parsed = []
    loads = cache_module.json.loads
    monkeypatch.setattr(cache_module.json, "loads",
                        lambda text: parsed.append(text) or loads(text))
    rs = root_system_from_label("A2")
    store = BilleyDiskCache(cache)
    assert store.load(rs) > 0
    assert parsed == [lines[0], *own]
    gkm.billey_row(rs, weyl_enumerate(rs)[-1])
    parsed.clear()
    store.save(rs)  # a new row, so the file is rewritten
    assert parsed == [lines[0]]
    kept = (cache / "billey-cache.jsonl").read_text().splitlines()
    assert [line for line in kept if line.startswith('{"rs":"G2",')] == [
        line for line in lines if line.startswith('{"rs":"G2",')
    ]


def test_cache_streams_the_lines_of_other_root_systems(tmp_path):
    # 2.4 MB of D4 lines: skipped by load and copied by save a line at a
    # time, never held whole
    cache = tmp_path / "cache"
    cache.mkdir()
    other = '{"rs":"D4","w":[%d],"row":"' + "x" * 1000 + '"}\n'
    with open(cache / "billey-cache.jsonl", "w", encoding="utf-8") as handle:
        handle.write('{"format": 3}\n')
        for k in range(2400):
            handle.write(other % k)
    rs = root_system_from_label("A2")
    store = BilleyDiskCache(cache)
    gkm.billey_row(rs, rs.simple_reflection(1))
    tracemalloc.start()
    try:
        assert store.load(rs) == 0
        store.save(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    lines = (cache / "billey-cache.jsonl").read_text().splitlines()
    assert lines[1:2401] == [(other % k).rstrip() for k in range(2400)]
    assert [line[:19] for line in lines[2401:]] == ['{"rs":"A2","w":[1],']


TABLE_A2 = ["table", "A2", "--out", "csv"]


def _cached_row_lines(cache):
    """The lines of the A2 cache after ``TABLE_A2``, and the index of the
    row of s1 s2 s1 among them."""
    lines = (cache / "billey-cache.jsonl").read_text().splitlines()
    assert lines[0] == '{"format": 3}'
    (index,) = [i for i, line in enumerate(lines) if '"w":[1,2,1]' in line]
    return lines, index


def test_truncated_cache_row_is_recomputed_whole(tmp_path):
    cache = tmp_path / "cache"
    args = TABLE_A2 + ["--cache", str(cache)]
    run_cli(args)
    lines, index = _cached_row_lines(cache)
    whole = lines[index]
    # cut the line before the (v = s1 s2) entry, which the table reads
    lines[index] = whole[: whole.index("[[1,2],")]
    (cache / "billey-cache.jsonl").write_text("\n".join(lines) + "\n")
    assert run_cli(args) == run_cli(TABLE_A2)
    assert _cached_row_lines(cache)[0][index] == whole


def test_cache_row_with_a_non_reduced_word_is_rejected(tmp_path):
    cache = tmp_path / "cache"
    args = TABLE_A2 + ["--cache", str(cache)]
    baseline = run_cli(args)
    lines, index = _cached_row_lines(cache)
    whole = lines[index]
    entry = json.loads(whole)
    del entry["digest"]
    entry["row"][3][0] = [1, 1, 2]  # s1 s1 s2 is not reduced
    lines[index] = _signed_line(entry)  # only the word check can reject it
    (cache / "billey-cache.jsonl").write_text("\n".join(lines) + "\n")
    rs = root_system_from_label("A2")
    BilleyDiskCache(cache).load(rs)
    w0 = weyl_enumerate(rs)[-1]
    assert len(rs._billey) == 5 and w0 not in rs._billey
    assert run_cli(args) == baseline
    assert _cached_row_lines(cache)[0][index] == whole


def test_verify_reports_failures_loudly(monkeypatch):
    from petcalc import verify

    monkeypatch.setattr(verify, "is_graham_positive", lambda p: False)
    code, out, err = run_cli(["verify", "A1", "--suite", "positivity"])
    assert code == 1
    assert "restriction-positivity" in out


def _negated(solve):
    # every Peterson pair is solved by forward_substitute: negate its result
    def negated(*args):
        return {k: -c for k, c in solve(*args).items()}

    return negated


@pytest.mark.parametrize(
    "args, module, attr, fake",
    [
        (["mult", "A2", "--u", "213", "--v", "213"],
         gkm, "is_graham_positive", lambda expand: lambda p: False),
        (["table", "A2"],
         gkm, "is_graham_positive", lambda expand: lambda p: False),
        (["peterson-mult", "A2", "--I", "1", "--J", "2"],
         peterson, "forward_substitute", _negated),
    ],
    ids=["mult", "table", "peterson-mult"],
)
def test_positivity_violation_exits_one(monkeypatch, args, module, attr,
                                        fake):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    code, out, err = run_cli(args)
    assert code == 1
    assert out  # the honest value is still printed
    assert err.startswith("positivity violation: ")


@pytest.mark.parametrize(
    "error", [NotInSpan("injected: not in the span"),
              NonPolynomialResult("injected: not a polynomial")],
    ids=["not-in-span", "non-polynomial"],
)
@pytest.mark.parametrize(
    "args, attr",
    [
        (["mult", "A2", "--u", "213", "--v", "213"], "structure_constants"),
        (["table", "A2"], "structure_table"),
        (["table", "A2", "--kind", "peterson"], "peterson_table"),
        (["peterson-mult", "A2", "--I", "1", "--J", "2"],
         "peterson_structure_constants"),
        (["pullback", "A2", "--w", "321"], "pullback_expansion"),
    ],
    ids=["mult", "table", "table-peterson", "peterson-mult", "pullback"],
)
def test_a_maths_error_is_one_error_line(monkeypatch, args, attr, error):
    # the handler in run() that expand's non-GKM input reaches, for every
    # command: one line on stderr and exit 1, never a traceback
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_module, attr, fail)
    code, out, err = run_cli(args)
    assert code == 1
    assert out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "out, written",
    [("text", ["s1 s1 s1 a1\n"]),
     ("csv", ["u,v,w,coefficient\n", "s1,s1,s1,a1\n"]),
     ("json", [])],
)
@pytest.mark.parametrize("rows_before", [0, 1])
def test_a_maths_error_while_the_table_streams(monkeypatch, out, written,
                                               rows_before):
    # text and csv rows are written as the table yields them, the csv
    # header with the first row: a failure in the stream leaves the rows
    # written before it, then one error line and exit 1; json writes
    # nothing until its list is whole
    error = NotInSpan("injected: not in the span")

    def failing_stream(rs):
        s1 = rs.simple_reflection(1)
        for _ in range(rows_before):
            yield s1, s1, s1, Polynomial.linear_form(rs.rank, (1,))
        raise error

    monkeypatch.setattr(cli_module, "structure_table", failing_stream)
    code, stdout, err = run_cli(["table", "A2", "--out", out])
    assert code == 1
    assert stdout == ("".join(written) if rows_before else "")
    assert err == f"error: {error}\n"


def test_other_warnings_are_shown(monkeypatch):
    restriction = cli_module.billey_restriction

    def noisy(*args, **kwargs):
        warnings.warn("something odd", RuntimeWarning)
        return restriction(*args, **kwargs)

    monkeypatch.setattr(cli_module, "billey_restriction", noisy)
    # re-shown through warnings.showwarning, which prints to stderr outside
    # of pytest and records the warning here
    with pytest.warns(RuntimeWarning, match="something odd"):
        code, out, _ = run_cli(RESTRICT_231_AT_321)
    assert code == 0
    assert out == "a1*a2 + a1^2\n"
