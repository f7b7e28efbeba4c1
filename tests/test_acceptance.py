"""Acceptance criteria, one test per criterion.

Every check is exact (integer/rational arithmetic); the timed criteria
use fresh root systems so no work is hidden in warmed caches. Run with
``pytest tests/test_acceptance.py -s`` to see one status line each.
"""

import time

from conftest import run_cli
from petcalc import (
    LocalizedClass,
    Polynomial,
    PolyT,
    all_subsets,
    billey_restriction,
    closed_form_coefficient,
    cross_validate,
    element_from_one_line,
    expand_in_schubert_basis,
    flag_consistency_report,
    gkm_verify,
    integrate,
    is_graham_positive,
    one_line,
    peterson_class,
    peterson_structure_constants,
    peterson_table,
    pullback_expansion,
    reduced_words,
    root_system_from_label,
    schubert_class,
    structure_table,
    weyl_enumerate,
)


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_restriction_golden():
    start = time.monotonic()
    rs = root_system_from_label("A2")
    v = element_from_one_line(rs, (2, 3, 1))
    a1 = Polynomial.linear_form(2, (1, 0))
    a2 = Polynomial.linear_form(2, (0, 1))
    expected = a1 * (a1 + a2)  # a1 * a3 with a3 = a1 + a2
    for w in weyl_enumerate(rs):
        value = billey_restriction(rs, v, w)
        if one_line(w) in ((2, 3, 1), (3, 2, 1)):
            assert value == expected
        else:
            assert value.is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "restriction golden test")


def test_criterion_2_product_golden():
    rs = root_system_from_label("A2")
    s = element_from_one_line(rs, (2, 1, 3))
    product = schubert_class(rs, s) * schubert_class(rs, s)
    coeffs = expand_in_schubert_basis(product)
    a1 = Polynomial.linear_form(2, (1, 0))
    assert coeffs == {
        element_from_one_line(rs, (2, 1, 3)): a1,
        element_from_one_line(rs, (3, 1, 2)): Polynomial.one(2),
    }
    _report(2, "product golden test")


def test_criterion_3_expansion_golden():
    rs = root_system_from_label("A2")
    minus_a1a2 = Polynomial(2, {(1, 1): -1})
    gamma = LocalizedClass(
        rs,
        {
            element_from_one_line(rs, (2, 1, 3)): minus_a1a2,
            element_from_one_line(rs, (2, 3, 1)): minus_a1a2,
        },
        2,
    )
    coeffs = expand_in_schubert_basis(gamma)
    minus_a2 = Polynomial.linear_form(2, (0, -1))
    assert coeffs == {
        element_from_one_line(rs, (2, 1, 3)): minus_a2,
        element_from_one_line(rs, (3, 1, 2)): Polynomial.one(2),
    }
    product = gamma * schubert_class(rs, element_from_one_line(rs, (2, 3, 1)))
    assert integrate(product) == Polynomial.linear_form(2, (1, 0))
    _report(3, "expansion golden test")


def test_criterion_4_integration_of_top_class():
    for label in ("A1", "A2", "A3"):
        rs = root_system_from_label(label)
        w0 = weyl_enumerate(rs)[-1]
        assert integrate(schubert_class(rs, w0)) == Polynomial.one(rs.rank)
    _report(4, "pushforward sanity")


def test_criterion_5_closed_form_cross_validation():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        _, failures = cross_validate(root_system_from_label(f"A{n}"))
        assert not failures, f"A{n}: {len(failures)} mismatching triples"
    assert closed_form_coefficient({1}, {1}, {1}) == PolyT.monomial(1, 1)
    assert closed_form_coefficient({1}, {2}, {1, 2}) == PolyT.monomial(2, 0)
    assert closed_form_coefficient({1}, {1}, {1, 2}) == PolyT.monomial(1, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(5, "closed-form cross-validation")


def test_criterion_6a_restriction_positivity():
    for label in ("A2", "A3"):
        rs = root_system_from_label(label)
        for v in weyl_enumerate(rs):
            for w in weyl_enumerate(rs):
                assert is_graham_positive(billey_restriction(rs, v, w))
    _report("6a", "restriction positivity")


def test_criterion_6b_structure_constant_positivity():
    for label in ("A2", "A3"):
        rs = root_system_from_label(label)
        for _, _, _, poly in structure_table(rs):
            assert is_graham_positive(poly)
    _report("6b", "structure constant positivity")


def test_criterion_6c_peterson_positivity_grading_support():
    for n in (1, 2, 3, 4):
        rs = root_system_from_label(f"A{n}")
        subsets = all_subsets(rs)
        for members_i in subsets:
            for members_j in subsets:
                coeffs = peterson_structure_constants(
                    rs, members_i, members_j
                )
                for members_k, poly in coeffs.items():
                    assert poly.c >= 0
                    assert poly.degree() == (
                        len(members_i) + len(members_j) - len(members_k)
                    )
                    assert (members_i | members_j) <= members_k
                    assert len(members_k) <= len(members_i) + len(members_j)
    _report("6c", "Peterson constant positivity")


def test_criterion_6d_pullback_coefficients_are_monomials():
    for n in (1, 2, 3):
        rs = root_system_from_label(f"A{n}")
        for w in weyl_enumerate(rs):
            for members_k, poly in pullback_expansion(rs, w).items():
                # a PolyT is a monomial by construction; its power is fixed
                assert poly.degree() == w.length - len(members_k)
                assert poly.c >= 0
    _report("6d", "pullback coefficients are monomials")


def test_criterion_7_structural_invariants():
    rs3 = root_system_from_label("A3")
    for w in weyl_enumerate(rs3):
        words = reduced_words(w)
        for v in weyl_enumerate(rs3):
            reference = billey_restriction(rs3, v, w)
            for word in words:
                assert billey_restriction(rs3, v, w, word=word) == reference
    for label in ("A2", "A3"):
        rs = root_system_from_label(label)
        for v in weyl_enumerate(rs):
            assert gkm_verify(schubert_class(rs, v))
            assert expand_in_schubert_basis(schubert_class(rs, v)) == {
                v: Polynomial.one(rs.rank)
            }
    for n in (1, 2, 3, 4):
        rs = root_system_from_label(f"A{n}")
        for members in all_subsets(rs):
            cls = peterson_class(rs, members)
            for subset in all_subsets(rs):
                if members <= subset:
                    assert cls[subset] > 0
                else:
                    assert subset not in cls
    _report(7, "structural invariants")


def test_criterion_8_consistency_with_flag_variety():
    for label in ("A2", "A3"):
        rs = root_system_from_label(label)
        checked, failures = flag_consistency_report(rs)
        assert not failures, failures
        assert checked == 4 ** rs.rank
    _report(8, "consistency identity")


def test_criterion_9_performance_and_determinism():
    start = time.monotonic()
    rs = root_system_from_label("A3")
    table = list(structure_table(rs))
    elapsed_table = time.monotonic() - start
    assert elapsed_table < 10.0, f"A3 table took {elapsed_table:.1f}s"
    pair_count = len({(u, v) for (u, v, _, _) in table})
    assert pair_count == 24 * 24

    start = time.monotonic()
    rows = peterson_table(root_system_from_label("A5"))
    elapsed_peterson = time.monotonic() - start
    assert elapsed_peterson < 60.0, f"A5 table took {elapsed_peterson:.1f}s"
    pair_count = len({(mi, mj) for (mi, mj, _, _) in rows})
    assert pair_count == 32 * 32

    outputs = [
        run_cli(["table", "A3", "--out", "csv", "--jobs", str(jobs)])
        for jobs in (1, 4)
    ]
    assert outputs[0] == outputs[1]
    _report(9, "performance and determinism")
