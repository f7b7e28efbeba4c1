import random
from math import prod

import pytest

import oracles
from petcalc import (
    LocalizedClass,
    NonPolynomialResult,
    NotInSpan,
    Polynomial,
    PositivityViolation,
    ResourceCapError,
    RootSystem,
    billey_restriction,
    bruhat_leq,
    element_from_one_line,
    element_from_word,
    expand_in_schubert_basis,
    forget_to_ordinary,
    gkm_verify,
    integrate,
    inversions,
    is_graham_positive,
    longest_element,
    one_line,
    reduced_words,
    root_system_from_label,
    schubert_class,
    structure_constants,
    structure_table,
    weyl_enumerate,
)
from petcalc import gkm
from petcalc.rootsys import cartan_matrix_for_label
from petcalc.verify import run_suite


def alpha(rs, i):
    coeffs = [0] * rs.rank
    coeffs[i - 1] = 1
    return Polynomial.linear_form(rs.rank, coeffs)


def _power(p, n):
    return prod([p] * n, start=Polynomial.one(p.rank))


def test_restriction_golden_example(a2):
    # the rank-2 worked example: nonzero exactly at [231] and [321],
    # both values a1*(a1+a2)
    v = element_from_one_line(a2, (2, 3, 1))
    expected = alpha(a2, 1) * (alpha(a2, 1) + alpha(a2, 2))
    values = {
        one_line(w): billey_restriction(a2, v, w) for w in weyl_enumerate(a2)
    }
    assert values[(2, 3, 1)] == expected
    assert values[(3, 2, 1)] == expected
    for line in [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2)]:
        assert values[line].is_zero()


def test_restriction_of_identity_class(a2):
    for w in weyl_enumerate(a2):
        assert billey_restriction(a2, a2.identity(), w) == Polynomial.one(2)


def test_restriction_simple_at_long_word(a2):
    v = a2.simple_reflection(1)
    w0 = weyl_enumerate(a2)[-1]
    assert billey_restriction(a2, v, w0) == alpha(a2, 1) + alpha(a2, 2)


def test_restriction_matches_naive_oracle(a2, a3):
    for rs in (a2, a3):
        for v in weyl_enumerate(rs):
            for w in weyl_enumerate(rs):
                expected = oracles.naive_billey(
                    one_line(v), one_line(w), rs.rank
                )
                assert billey_restriction(rs, v, w) == expected


def test_restriction_word_independence(a2):
    for w in weyl_enumerate(a2):
        for v in weyl_enumerate(a2):
            reference = billey_restriction(a2, v, w)
            for word in reduced_words(w):
                assert billey_restriction(a2, v, w, word=word) == reference


def test_restriction_rejects_non_reduced_word(a2):
    w = a2.simple_reflection(1)
    with pytest.raises(ValueError):
        billey_restriction(a2, w, w, word=(1, 1, 1))
    with pytest.raises(ValueError):
        gkm.billey_row(a2, w, (1, 1, 1))


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
def test_billey_row_holds_every_restriction_along_every_word(label):
    rs = root_system_from_label(label)
    elements = weyl_enumerate(rs)
    for w in elements:
        row = gkm.billey_row(rs, w)
        restrictions = {v: billey_restriction(rs, v, w) for v in elements}
        assert row == {v: p for v, p in restrictions.items() if p}
        for word in reduced_words(w):
            assert gkm.billey_row(rs, w, word) == row


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_kostant_kumar_oracle_matches_naive_billey(label):
    # two oracles that share nothing but polynomial arithmetic
    rs = root_system_from_label(label)
    classes = oracles.kostant_kumar_classes(rs)
    zero = Polynomial.zero(rs.rank)
    for v in weyl_enumerate(rs):
        for w in weyl_enumerate(rs):
            assert classes[v].get(w, zero) == oracles.naive_billey(
                one_line(v), one_line(w), rs.rank
            )


@pytest.mark.parametrize(
    "name", ["B2", "B3", "C3", "G2", "A4", "A1xG2", "reversed-C3"]
)
def test_billey_rows_match_the_kostant_kumar_oracle(name):
    # off type A the table's base entries c(u, v, v) are Billey rows, and
    # this oracle is what checks them independently
    rs = _system(name)
    classes = oracles.kostant_kumar_classes(rs)
    elements = weyl_enumerate(rs)
    for w in elements:
        assert gkm.billey_row(rs, w) == {
            v: classes[v][w] for v in elements if w in classes[v]
        }


def test_billey_rows_match_the_kostant_kumar_oracle_on_long_d4_classes():
    # the whole descent from w_0 takes about 20 s on D4; the 53 classes
    # of length at least 8 come down in a small part of that
    rs = root_system_from_label("D4")
    classes = oracles.kostant_kumar_classes(rs, min_length=8)
    assert len(classes) == 53
    for w in weyl_enumerate(rs):
        row = gkm.billey_row(rs, w)
        assert {v: p for v, p in row.items() if v.length >= 8} == {
            v: values[w] for v, values in classes.items() if w in values
        }


@pytest.mark.parametrize(
    "name", ["G2", "B2", "B3", "C3", "A4", "D4", "A1xG2", "reversed-C3"]
)
def test_diagonal_and_chevalley_restrictions_have_closed_forms(name):
    # billey_row(rs, w)[w] is the product of the positive roots that w
    # sends a positive root to minus, read off w.perm; the row values at
    # the simple reflections sum to the roots that x^-1 sends negative
    rs = _system(name)
    rank = rs.rank
    zero = Polynomial.zero(rank)
    roots = [Polynomial.linear_form(rank, r) for r in rs.positive_roots]
    simples = [rs.simple_reflection(i) for i in range(1, rank + 1)]
    for x in weyl_enumerate(rs):
        row = gkm.billey_row(rs, x)
        diagonal = Polynomial.one(rank)
        for image in x.perm:
            if image < 0:
                diagonal = diagonal * roots[-image - 1]
        assert row[x] == diagonal
        sent_negative = [roots[m] for m, image in enumerate(x.inverse().perm)
                         if image < 0]
        assert sum((row.get(s, zero) for s in simples), zero) == sum(
            sent_negative, zero
        )


def test_support_iff_bruhat():
    # structure_table reads u <= w off the Billey row of w
    for name in ("A2", "A3", "B3", "C3", "G2", "A1xG2", "reversed-C3"):
        rs = _system(name)
        for v in weyl_enumerate(rs):
            for w in weyl_enumerate(rs):
                zero = billey_restriction(rs, v, w).is_zero()
                assert zero == (not bruhat_leq(v, w))


def test_diagonal_is_product_of_inverse_inversions(a2, a3):
    for rs in (a2, a3):
        for w in weyl_enumerate(rs):
            expected = Polynomial.one(rs.rank)
            for root in inversions(w.inverse()):
                expected = expected * Polynomial.linear_form(rs.rank, root)
            assert billey_restriction(rs, w, w) == expected


def test_restriction_positivity(a2, a3):
    for rs in (a2, a3):
        for v in weyl_enumerate(rs):
            for w in weyl_enumerate(rs):
                assert is_graham_positive(billey_restriction(rs, v, w))


def test_schubert_class_top(a2):
    w0 = weyl_enumerate(a2)[-1]
    cls = schubert_class(a2, w0)
    expected = (
        alpha(a2, 1)
        * alpha(a2, 2)
        * (alpha(a2, 1) + alpha(a2, 2))
    )
    assert cls.values == {w0: expected}
    assert cls.degree == 3


def test_schubert_class_identity_is_constant_one(a2):
    cls = schubert_class(a2, a2.identity())
    assert set(cls.values) == set(weyl_enumerate(a2))
    assert all(p == Polynomial.one(2) for p in cls.values.values())


def test_gkm_verify_all_schubert_classes(a2, a3):
    for rs in (a2, a3):
        for v in weyl_enumerate(rs):
            assert gkm_verify(schubert_class(rs, v))


def test_gkm_verify_constant_class(a2):
    constant = LocalizedClass(
        a2, {w: Polynomial.constant(2, 5) for w in weyl_enumerate(a2)}, 0
    )
    assert gkm_verify(constant)


def test_gkm_verify_rejects_a_class_perturbed_at_any_fixed_point(a3):
    # each edge is checked from one end only; a bump at any single point
    # must still be caught, whether its edges reach it from above or below
    v = element_from_word(a3, [2, 1])
    f = schubert_class(a3, v)
    bump = _power(alpha(a3, 1), v.length)
    for w in weyl_enumerate(a3):
        values = dict(f.values)
        values[w] = f.value(w) + bump
        assert not gkm_verify(LocalizedClass(a3, values, f.degree))


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, s, f: weyl_enumerate(rs),
        lambda rs, s, f: schubert_class(rs, s),
        lambda rs, s, f: structure_constants(rs, s, s),
        lambda rs, s, f: expand_in_schubert_basis(f),
        lambda rs, s, f: structure_table(rs),
        lambda rs, s, f: gkm_verify(f),
        lambda rs, s, f: integrate(f),
        lambda rs, s, f: run_suite(rs, "gkm"),
    ],
    ids=["weyl_enumerate", "schubert_class", "structure_constants",
         "expand_in_schubert_basis", "structure_table", "gkm_verify",
         "integrate", "run_suite"],
)
def test_weyl_cap_on_the_root_system_holds_on_every_call(call):
    rs = root_system_from_label("A3", max_weyl=5)
    s1 = rs.simple_reflection(1)
    f = LocalizedClass(rs, {rs.identity(): Polynomial.one(3)}, 0)
    for _ in range(2):
        with pytest.raises(ResourceCapError):
            call(rs, s1, f)


def test_gkm_verify_rejects_indicator(a1):
    bad = LocalizedClass(a1, {a1.identity(): Polynomial.one(1)}, 0)
    assert not gkm_verify(bad)


def test_class_product_with_one(a2):
    f = schubert_class(a2, element_from_one_line(a2, (2, 3, 1)))
    unit = schubert_class(a2, a2.identity())
    assert f * unit == f


def test_classes_of_different_root_systems_neither_add_nor_multiply(a2, b2):
    # a zero summand used to be returned before the root systems were
    # compared
    zero = LocalizedClass(a2, {}, 5)
    other = schubert_class(b2, b2.simple_reflection(1))
    for left, right in ((zero, other), (other, zero)):
        with pytest.raises(ValueError, match="different flag varieties"):
            left + right
        with pytest.raises(ValueError, match="different flag varieties"):
            left * right


def test_product_golden_class_identity(a2):
    # the square of the class of [213] agrees pointwise with
    # a1 * (class of [213]) + (class of [312])
    s = element_from_one_line(a2, (2, 1, 3))
    lhs = schubert_class(a2, s) * schubert_class(a2, s)
    rhs = alpha(a2, 1) * schubert_class(a2, s) + schubert_class(
        a2, element_from_one_line(a2, (3, 1, 2))
    )
    assert lhs == rhs


def test_expand_round_trip(a2, a3):
    for rs in (a2, a3):
        for v in weyl_enumerate(rs):
            coeffs = expand_in_schubert_basis(schubert_class(rs, v))
            assert coeffs == {v: Polynomial.one(rs.rank)}


def test_expand_golden_gamma(a2):
    neg = Polynomial(2, {(1, 1): -1})
    gamma = LocalizedClass(
        a2,
        {
            element_from_one_line(a2, (2, 1, 3)): neg,
            element_from_one_line(a2, (2, 3, 1)): neg,
        },
        2,
    )
    coeffs = expand_in_schubert_basis(gamma)
    assert coeffs == {
        element_from_one_line(a2, (2, 1, 3)): -1 * alpha(a2, 2),
        element_from_one_line(a2, (3, 1, 2)): Polynomial.one(2),
    }


def test_expand_golden_square(a2):
    s = element_from_one_line(a2, (2, 1, 3))
    product = schubert_class(a2, s) * schubert_class(a2, s)
    coeffs = expand_in_schubert_basis(product)
    assert coeffs == {
        element_from_one_line(a2, (2, 1, 3)): alpha(a2, 1),
        element_from_one_line(a2, (3, 1, 2)): Polynomial.one(2),
    }


def test_expand_rejects_non_gkm(a1):
    bad = LocalizedClass(a1, {a1.identity(): Polynomial.one(1)}, 0)
    with pytest.raises(NotInSpan):
        expand_in_schubert_basis(bad)


def test_inhomogeneous_class_rejected(a2):
    with pytest.raises(ValueError):
        LocalizedClass(
            a2, {a2.identity(): Polynomial.one(2) + alpha(a2, 1)}, 1
        )


def test_structure_constants_identity_row(a2):
    e = a2.identity()
    for v in weyl_enumerate(a2):
        assert structure_constants(a2, e, v) == {v: Polynomial.one(2)}


def test_structure_constants_golden(a2):
    s = element_from_one_line(a2, (2, 1, 3))
    coeffs = structure_constants(a2, s, s)
    assert coeffs[s] == alpha(a2, 1)
    assert coeffs[element_from_one_line(a2, (3, 1, 2))] == Polynomial.one(2)
    assert len(coeffs) == 2


def test_structure_constants_rank_one_products(a2):
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    coeffs = structure_constants(a2, s1, s2)
    s1s2 = element_from_word(a2, (1, 2))
    s2s1 = element_from_word(a2, (2, 1))
    assert coeffs[s1s2] == Polynomial.one(2)
    assert coeffs[s2s1] == Polynomial.one(2)


def test_structure_constants_symmetric(a2):
    for u in weyl_enumerate(a2):
        for v in weyl_enumerate(a2):
            assert structure_constants(a2, u, v) == structure_constants(
                a2, v, u
            )


def test_structure_constants_degree_support_positivity(a2, a3, b2):
    for rs in (a2, a3, b2):
        for u, v, w, poly in structure_table(rs):
            assert poly.is_homogeneous(u.length + v.length - w.length)
            assert bruhat_leq(u, w) and bruhat_leq(v, w)
            assert is_graham_positive(poly)


# The per-pair localization solve stays as an oracle for the table:
# reducible Cartan matrices included, as the table reads multiplicities
# off restrictions rather than a symmetriser.
_REDUCIBLE = {
    "A1xA1": [[2, 0], [0, 2]],
    "B2xA1": [[2, -1, 0], [-2, 2, 0], [0, 0, 2]],
    "A1xG2": [[2, 0, 0], [0, 2, -1], [0, -3, 2]],
}


def _system(name):
    if name in _REDUCIBLE:
        return RootSystem(_REDUCIBLE[name])
    if name == "reversed-C3":
        c3 = cartan_matrix_for_label("C3")
        return RootSystem([row[::-1] for row in c3[::-1]])
    return root_system_from_label(name)


def _table(rs):
    """The rows of ``structure_table`` as {(u, v, w): coefficient}."""
    return {(u, v, w): c for u, v, w, c in structure_table(rs)}


def _assert_pair_matches(table, rs, u, v):
    coeffs = structure_constants(rs, u, v)
    for w, poly in coeffs.items():
        assert table.get((u, v, w)) == poly
    nonzero = {w for (uu, vv, w) in table if (uu, vv) == (u, v)}
    assert nonzero == set(coeffs)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "G2", *_REDUCIBLE]
)
def test_structure_table_matches_per_pair(name):
    rs = _system(name)
    table = _table(rs)
    for u in weyl_enumerate(rs):
        for v in weyl_enumerate(rs):
            _assert_pair_matches(table, rs, u, v)


@pytest.mark.parametrize("label", ["B3", "C3", "reversed-C3"])
def test_structure_table_matches_per_pair_on_sampled_pairs(label):
    # the index-reversed C3 matrix puts the long simple root first, so a
    # coordinate slip in D|_x or the multiplicities shows here
    rs = _system(label)
    table = _table(rs)
    elements = weyl_enumerate(rs)
    rng = random.Random(label)
    for _ in range(40):
        _assert_pair_matches(table, rs, rng.choice(elements),
                             rng.choice(elements))


def _assert_block_solve_matches_full_solve(rs, u, v):
    # structure_constants solves on the fixed points of length at most
    # l(u) + l(v), and expand_in_schubert_basis solves there and checks
    # the longer ones on pruned rows; the oracle divides at every point
    # of W, on whole rows
    product = schubert_class(rs, u) * schubert_class(rs, v)
    full = oracles.triangular_solve(product)
    assert structure_constants(rs, u, v) == full
    assert expand_in_schubert_basis(product) == full


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "G2", *_REDUCIBLE]
)
def test_block_solve_matches_full_solve(name):
    rs = _system(name)
    for u in weyl_enumerate(rs):
        for v in weyl_enumerate(rs):
            _assert_block_solve_matches_full_solve(rs, u, v)


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "reversed-C3", "A4"])
def test_block_solve_matches_full_solve_on_sampled_pairs(label):
    # the index-reversed C3 matrix puts the long simple root first
    rs = _system(label)
    elements = weyl_enumerate(rs)
    rng = random.Random(label)
    for _ in range(40):
        _assert_block_solve_matches_full_solve(rs, rng.choice(elements),
                                               rng.choice(elements))


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_structure_table_matches_double_schubert_polynomials(label):
    # independent of the localization code: coefficients of products of
    # double Schubert polynomials, compared on every triple, zeros included
    rs = root_system_from_label(label)
    table = _table(rs)
    zero = Polynomial.zero(rs.rank)
    elements = weyl_enumerate(rs)
    n_letters = rs.rank + 1
    for i, u in enumerate(elements):
        for v in elements[i:]:
            expected = oracles.double_structure_constants(
                one_line(u), one_line(v)
            )
            for w in elements:
                for a, b in ((u, v), (v, u)):
                    got = table.get((a, b, w), zero)
                    assert oracles.roots_in_y(got, n_letters) == expected[
                        one_line(w)
                    ]


def test_structure_constants_match_double_schubert_polynomials_on_a4(a4):
    elements = weyl_enumerate(a4)
    rng = random.Random(4)
    zero = Polynomial.zero(a4.rank)
    for _ in range(20):
        u, v = rng.choice(elements), rng.choice(elements)
        coeffs = structure_constants(a4, u, v)
        expected = oracles.double_structure_constants(one_line(u), one_line(v))
        for w in elements:
            got = oracles.roots_in_y(coeffs.get(w, zero), a4.rank + 1)
            assert got == expected[one_line(w)]


def test_structure_table_independent_of_memo_state(a3):
    # a fresh root system fills its Billey rows inside the first pair
    fresh = structure_table(root_system_from_label("A3"))
    assert list(fresh) == list(structure_table(a3))


def test_positivity_violation_is_loud(a2, monkeypatch):
    monkeypatch.setattr(gkm, "is_graham_positive", lambda p: False)
    with pytest.warns(PositivityViolation):
        structure_constants(a2, a2.identity(), a2.identity())


def test_integrate_top_class():
    for label in ("A1", "A2", "A3"):
        rs = root_system_from_label(label)
        w0 = weyl_enumerate(rs)[-1]
        assert integrate(schubert_class(rs, w0)) == Polynomial.one(rs.rank)


def test_integrate_golden_gamma_product(a2):
    neg = Polynomial(2, {(1, 1): -1})
    gamma = LocalizedClass(
        a2,
        {
            element_from_one_line(a2, (2, 1, 3)): neg,
            element_from_one_line(a2, (2, 3, 1)): neg,
        },
        2,
    )
    product = gamma * schubert_class(a2, element_from_one_line(a2, (2, 3, 1)))
    assert integrate(product) == alpha(a2, 1)


def test_integrate_low_degree_vanishes(a1):
    assert integrate(schubert_class(a1, a1.identity())).is_zero()


def test_integrate_drops_degree_by_dimension(a2):
    w0 = weyl_enumerate(a2)[-1]
    s1 = a2.simple_reflection(1)
    result = integrate(schubert_class(a2, s1) * schubert_class(a2, w0))
    assert result == alpha(a2, 1) + alpha(a2, 2)
    assert result.degree() == (1 + 3) - len(a2.positive_roots)


def test_integrate_rejects_non_gkm(a1):
    bad = LocalizedClass(a1, {a1.identity(): Polynomial.one(1)}, 0)
    with pytest.raises(NonPolynomialResult):
        integrate(bad)


def test_ordinary_constants_match_schubert_polynomials(a2, a3):
    # fully independent route: classical Schubert polynomials multiplied
    # in coordinates, coefficients extracted by divided differences
    for rs in (a2, a3):
        ordinary = forget_to_ordinary(structure_table(rs))
        elements = weyl_enumerate(rs)
        for u in elements:
            for v in elements:
                for w in elements:
                    if u.length + v.length != w.length:
                        continue
                    expected = oracles.ordinary_structure_constant(
                        one_line(u), one_line(v), one_line(w)
                    )
                    assert ordinary.get((u, v, w), 0) == expected


def test_forget_to_ordinary_golden(a2):
    table = structure_table(a2)
    ordinary = forget_to_ordinary(table)
    s = element_from_one_line(a2, (2, 1, 3))
    s2s1 = element_from_one_line(a2, (3, 1, 2))
    assert ordinary[(s, s, s2s1)] == 1
    assert (s, s, s) not in ordinary
    e = a2.identity()
    for v in weyl_enumerate(a2):
        assert ordinary[(e, v, v)] == 1
    assert all(isinstance(c, int) and c > 0 for c in ordinary.values())


def test_localized_class_json_round_trip(a2):
    from petcalc.cli import localized_class_from_json

    cls = schubert_class(a2, element_from_one_line(a2, (2, 3, 1)))
    payload = cls.to_json()
    assert payload["type"] == "A2"
    rebuilt = localized_class_from_json(a2, payload)
    assert rebuilt == cls


def _other_word(w):
    # a reduced word of w other than its canonical one, where there is one
    return reduced_words(w)[-1]


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A1xG2"])
def test_stepped_and_cut_rows_match_billey_row(name):
    rs = _system(name)
    elements = weyl_enumerate(rs)
    expected = {w: gkm.billey_row(rs, w, _other_word(w)) for w in elements}
    assert not rs._billey
    for w in elements:  # in order, so every row but e is one step
        assert gkm._fill_billey_row(rs, w) == expected[w]
    # rows pruned to sets closed under right-weak prefixes: the elements
    # up to each length, and the prefixes of a few sampled supports
    rng = random.Random(name)
    prunings = [{x for x in elements if x.length <= cut}
                for cut in range(elements[-1].length + 1)]
    prunings += [gkm._right_weak_prefixes(rng.sample(elements, k))
                 for k in (1, 2, 3, 5)]
    for within in prunings:
        rows = {rs.identity(): {rs.identity(): Polynomial.one(rs.rank)}}
        for w in elements[1:]:
            parent, letter = gkm._parent(w)
            want = {v: p for v, p in expected[w].items() if v in within}
            rows[w] = gkm._billey_step(rs, rows[parent], parent, letter,
                                       within=within)
            assert rows[w] == want
            # a pruned step from the whole parent row gives the same row
            assert gkm._billey_step(rs, rs._billey[parent], parent, letter,
                                    within=within) == want


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A1xG2"])
def test_times_linear_matches_the_product_on_every_row_and_root(name):
    rs = _system(name)
    polys = {id(p): p for w in weyl_enumerate(rs)
             for p in gkm._fill_billey_row(rs, w).values()}
    forms = [(root, Polynomial.linear_form(rs.rank, root))
             for root in rs.positive_roots]
    for p in polys.values():
        for coeffs, form in forms:
            assert p.times_linear(coeffs) == p * form


def test_whole_b3_rows_store_each_exponent_vector_once():
    # the rows are built by times_linear, whose exponent vectors are shared
    # tuples, and by sums, which keep their operands' keys
    rs = root_system_from_label("B3")
    for w in weyl_enumerate(rs):
        gkm._fill_billey_row(rs, w)
    keys = [e for row in rs._billey.values() for p in row.values()
            for e in p.terms]
    assert len(keys) > 10 * len(set(keys))
    assert len({id(e) for e in keys}) == len(set(keys))


def _on_fresh_system(f):
    # the same class on a copy of its root system with an empty memo
    rs = RootSystem(f.rs.cartan, type_label=f.rs.type_label)
    return LocalizedClass(
        rs, {rs.element(w.perm): p for w, p in f.values.items()}, f.degree
    )


def _by_perm(coeffs):
    return {w.perm: c for w, c in coeffs.items()}


@pytest.mark.parametrize("name,u,v", [
    ("B3", (1, 2, 3), (2, 3)),
    ("B3", (3, 2), (3, 2, 1)),
    ("G2", (2, 1), (1, 2, 1)),
    ("A1xG2", (1, 2), (3, 2)),
    ("A3", (2,), (1, 3, 2)),
])
def test_expand_is_the_same_on_a_cold_and_a_warm_memo(name, u, v):
    warm = _system(name)
    for x in weyl_enumerate(warm):
        gkm.billey_row(warm, x)
    u, v = (element_from_word(warm, word) for word in (u, v))
    product = schubert_class(warm, u) * schubert_class(warm, v)
    assert len(warm._billey) == len(weyl_enumerate(warm))
    cold = _on_fresh_system(product)
    got = _by_perm(expand_in_schubert_basis(cold))
    assert got == _by_perm(expand_in_schubert_basis(product))
    assert got == _by_perm(structure_constants(warm, u, v))
    # pruned rows stay out of the memo
    assert cold.rs._billey
    assert all(x.length <= product.degree for x in cold.rs._billey)


def _perturbed(rs, u, x):
    # the class of u plus a1^length(u) at the fixed point x
    f = schubert_class(rs, u)
    bump = _power(alpha(rs, 1), u.length)
    values = dict(f.values)
    values[x] = f.value(x) + bump
    return LocalizedClass(rs, values, f.degree), bump


@pytest.mark.parametrize("name", ["B3", "A1xG2"])
def test_non_gkm_residual_above_the_degree_still_raises(name):
    # a residual at x longer than the degree fails its division by the
    # diagonal restriction at x, on a cold memo as on a warm one
    rs = _system(name)
    elements = weyl_enumerate(rs)
    u = elements[3]
    for x in (elements[-1], next(y for y in elements if y.length > u.length)):
        f, bump = _perturbed(rs, u, x)
        for g in (f, _on_fresh_system(f)):
            with pytest.raises(NotInSpan) as caught:
                expand_in_schubert_basis(g)
            assert str(caught.value) == (
                f"residual at {gkm.word_text(x)} is not a multiple of the "
                "diagonal restriction; the input is not in the span"
            )
            assert caught.value.element.perm == x.perm
            assert caught.value.remainder == bump


@pytest.mark.parametrize("name,u,v", [
    ("A3", (1, 2), (2, 3)),
    ("B3", (2, 3), (3, 2)),
    ("G2", (1, 2), (2, 1)),
    ("A1xG2", (2, 3), (3, 2)),
])
def test_a_residual_at_every_longer_fixed_point_raises(name, u, v):
    # expand solves only on the fixed points of length at most the degree
    # and checks the longer ones on rows pruned to the prefixes of the
    # solved classes; a bump at any longer point must still fail there,
    # with the element, message and remainder of the full solve's division
    warm = _system(name)
    u, v = (element_from_word(warm, word) for word in (u, v))
    product = schubert_class(warm, u) * schubert_class(warm, v)
    degree = product.degree
    assert len(expand_in_schubert_basis(product)) >= 3
    bump = (_power(alpha(warm, 1), degree - 1)
            * alpha(warm, warm.rank) * 2)
    longer = [x for x in weyl_enumerate(warm) if x.length > degree]
    assert len(longer) >= 3
    for x in longer:
        values = dict(product.values)
        values[x] = product.value(x) + bump
        f = LocalizedClass(warm, values, degree)
        cold = _on_fresh_system(f)
        for g in (f, cold):
            with pytest.raises(NotInSpan) as caught:
                expand_in_schubert_basis(g)
            assert str(caught.value) == (
                f"residual at {gkm.word_text(x)} is not a multiple of the "
                "diagonal restriction; the input is not in the span"
            )
            assert caught.value.element.perm == x.perm
            assert caught.value.remainder == bump
        # pruned rows stay out of the memo
        assert all(y.length <= degree for y in cold.rs._billey)


def test_non_gkm_residual_outside_the_fixed_points_survives(a3):
    elements = weyl_enumerate(a3)
    u = elements[2]
    x = elements[-1]
    f, bump = _perturbed(a3, u, x)
    g = _on_fresh_system(f)
    with pytest.raises(NotInSpan, match="nonzero residual survived") as caught:
        expand_in_schubert_basis(g, weyl_enumerate(g.rs, x.length - 1))
    assert caught.value.element.perm == x.perm
    assert caught.value.remainder == f.value(x)


def _assert_pruned_restrictions_match_rows(name, pairs):
    # billey_restriction walks only the prefixes of v on a cold memo, and
    # keeps no row; the whole rows come from a second, separate system
    rs, reference = _system(name), _system(name)
    zero = Polynomial.zero(rs.rank)
    for v, w in pairs(weyl_enumerate(rs)):
        row = gkm.billey_row(reference, reference.element(w.perm))
        got = billey_restriction(rs, v, w)
        assert got == row.get(reference.element(v.perm), zero)
    assert not rs._billey


@pytest.mark.parametrize(
    "name", ["A3", "B3", "C3", "G2", "A1xG2", "reversed-C3"]
)
def test_pruned_restriction_matches_the_whole_row(name):
    _assert_pruned_restrictions_match_rows(
        name, lambda elements: [(v, w) for w in elements for v in elements])


@pytest.mark.parametrize("name", ["A4", "D4", "F4"])
def test_pruned_restriction_matches_the_whole_row_on_sampled_pairs(name):
    # 100 pairs on 10 fixed points, so that only 10 whole rows are filled
    rng = random.Random(name)
    _assert_pruned_restrictions_match_rows(
        name, lambda elements: [(v, w) for w in rng.sample(elements, 10)
                                for v in rng.sample(elements, 10)])


def test_pruned_restriction_reads_a_memoised_row():
    rs = root_system_from_label("A2")
    w0 = weyl_enumerate(rs)[-1]
    row = gkm.billey_row(rs, w0)
    rs._billey[w0] = {v: p * 2 for v, p in row.items()}  # marks a memo read
    for v, poly in row.items():
        assert billey_restriction(rs, v, w0) == poly * 2


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_simple_classes_at_the_longest_element_sum_to_the_positive_roots(
        label):
    # D|_(w_0) = rho - w_0 rho, the sum of all positive roots; the pruned
    # walk keeps two states a letter, so it needs no enumeration of W
    rs = root_system_from_label(label)
    w0 = longest_element(rs, range(1, rs.rank + 1))
    zero = Polynomial.zero(rs.rank)
    total = sum((billey_restriction(rs, rs.simple_reflection(i), w0)
                 for i in range(1, rs.rank + 1)), zero)
    assert total == sum((Polynomial.linear_form(rs.rank, root)
                         for root in rs.positive_roots), zero)
    assert not rs._billey


@pytest.mark.parametrize("cap, fits", [(3, True), (2, False)])
def test_right_weak_prefixes_count_against_the_cap(cap, fits):
    # s1 s2 in A2 has the prefixes e, s1 and s1 s2
    rs = root_system_from_label("A2", max_weyl=cap)
    v = element_from_word(rs, [1, 2])
    if fits:
        assert gkm._right_weak_prefixes([v]) == {
            rs.identity(), rs.simple_reflection(1), v}
        assert billey_restriction(rs, v, v) == billey_restriction(
            root_system_from_label("A2"), v, v)
    else:
        with pytest.raises(ResourceCapError, match="cap of 2 "):
            gkm._right_weak_prefixes([v])
        with pytest.raises(ResourceCapError, match="cap of 2 "):
            billey_restriction(rs, v, v)


def _assert_pruned_columns_match_rows(name, classes, points=None):
    # schubert_class walks rows pruned to the prefixes of v on a cold memo,
    # and keeps none; the whole rows come from a second, separate system,
    # at every fixed point or at the sampled ``points``
    rs, reference = _system(name), _system(name)
    elements = weyl_enumerate(rs)
    xs = elements if points is None else points(elements)
    rows = {x.perm: gkm.billey_row(reference, reference.element(x.perm))
            for x in xs}
    for v in classes(elements):
        key = reference.element(v.perm)
        f = schubert_class(rs, v)
        assert not rs._billey
        assert f.degree == v.length
        want = {x.perm: rows[x.perm][key] for x in xs if key in rows[x.perm]}
        assert {x.perm: p for x, p in f.values.items()
                if x.perm in rows} == want
        if points is None:
            assert len(f.values) == len(want)


@pytest.mark.parametrize(
    "name", ["A3", "B3", "C3", "G2", "A1xG2", "reversed-C3"]
)
def test_pruned_column_matches_the_whole_rows(name):
    _assert_pruned_columns_match_rows(name, lambda elements: elements)


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_pruned_column_matches_the_whole_rows_on_sampled_classes(name):
    rng = random.Random(name)
    _assert_pruned_columns_match_rows(
        name, lambda elements: rng.sample(elements, 12))


def test_pruned_column_matches_whole_rows_at_sampled_f4_points():
    # whole F4 rows at every fixed point take about half a minute and
    # 3 GB, so the rows are read at 8 points, for 4 classes of length at
    # most 9 (the walk for a class of length 17 already takes 2 s)
    rng = random.Random("F4")
    _assert_pruned_columns_match_rows(
        "F4",
        lambda elements: rng.sample(
            [v for v in elements if 2 <= v.length <= 9], 4),
        lambda elements: rng.sample(elements, 8),
    )


def test_schubert_class_reads_a_memoised_row():
    rs = root_system_from_label("A2")
    elements = weyl_enumerate(rs)
    w0 = elements[-1]
    row = gkm.billey_row(rs, w0)
    rs._billey[w0] = {v: p * 2 for v, p in row.items()}  # marks a memo read
    for v in elements:
        f = schubert_class(rs, v)
        assert f.value(w0) == row[v] * 2
        assert list(rs._billey) == [w0]


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_schubert_class_counts_its_prefixes_against_the_cap(name):
    # the class of w_0 walks every element as a prefix
    fits = _system(name)
    w0 = weyl_enumerate(fits)[-1]
    count = len(gkm._right_weak_prefixes([w0]))
    assert count == len(weyl_enumerate(fits))
    for cap in (count - 1, count):
        rs = _system(name)
        rs.max_weyl = cap
        v = rs.element(w0.perm)
        if cap < count:
            with pytest.raises(ResourceCapError, match=f"cap of {cap} "):
                schubert_class(rs, v)
        else:
            assert _by_perm(schubert_class(rs, v).values) == _by_perm(
                schubert_class(fits, w0).values)


@pytest.mark.parametrize("name", ["A4", "B3", "G2"])
def test_a_pruned_column_holds_only_the_prefixes_of_its_class(name):
    # on a list of fixed points made before the cap is lowered, a column
    # fits in a cap of its class's prefix count, and not one below it
    rng = random.Random(name)
    reference = _system(name)
    for w in rng.sample(weyl_enumerate(reference)[1:-1], 5):
        count = len(gkm._right_weak_prefixes([w]))
        for cap in (count - 1, count):
            rs = _system(name)
            points = weyl_enumerate(rs)
            rs.max_weyl = cap
            v = rs.element(w.perm)
            if cap < count:
                with pytest.raises(ResourceCapError,
                                   match=f"prefixes, more than the cap of "
                                         f"{cap} "):
                    gkm._billey_column(rs, v, points)
            else:
                got = gkm._billey_column(rs, v, points)
                assert [(x.perm, p) for x, p in got] == [
                    (x.perm, p) for x, p in gkm._billey_column(
                        reference, w, weyl_enumerate(reference))]
            assert not rs._billey


def test_the_class_of_a_short_d5_element_needs_no_whole_row():
    # whole-W rows made this class take minutes and gigabytes
    rs = root_system_from_label("D5")
    v = element_from_word(rs, [1, 2, 3])
    f = schubert_class(rs, v)
    assert not rs._billey
    elements = weyl_enumerate(rs)
    assert set(f.values) == {x for x in elements if bruhat_leq(v, x)}
    rng = random.Random("D5")
    reference = root_system_from_label("D5")
    for x in rng.sample(elements, 20):
        assert f.value(x) == billey_restriction(
            reference, reference.element(v.perm), reference.element(x.perm))
