from fractions import Fraction

import pytest

import oracles
from petcalc import (
    NotInSpan,
    PolyT,
    all_subsets,
    billey_restriction,
    closed_form_coefficient,
    coxeter_element,
    cross_validate,
    element_from_word,
    expand_in_peterson_basis,
    flag_consistency_report,
    longest_element,
    one_line,
    peterson_class,
    peterson_structure_constants,
    peterson_table,
    pullback_expansion,
    root_system_from_label,
    specialize_to_t,
    subset_text,
    weyl_enumerate,
)
from petcalc.peterson import _product


def t_mono(c, k):
    return PolyT.monomial(c, k)


def test_fixed_points(a2, a3):
    assert longest_element(a2, frozenset()) == a2.identity()
    assert longest_element(a2, {1, 2}) == element_from_word(a2, (1, 2, 1))
    assert longest_element(a3, {2}) == a3.simple_reflection(2)


def test_class_values_a1(a1):
    assert peterson_class(a1, {1}) == {frozenset({1}): 1}


def test_class_values_a2(a2):
    p1 = peterson_class(a2, {1})
    assert p1 == {frozenset({1}): 1, frozenset({1, 2}): 2}
    p12 = peterson_class(a2, {1, 2})
    assert p12 == {frozenset({1, 2}): 2}


def test_empty_subset_gives_constant_one(a2):
    cls = peterson_class(a2, frozenset())
    assert set(cls) == set(all_subsets(a2))
    assert all(v == 1 for v in cls.values())


def test_triangularity_up_to_rank_four():
    for n in (1, 2, 3, 4):
        rs = root_system_from_label(f"A{n}")
        for members in all_subsets(rs):
            if not members:
                continue
            cls = peterson_class(rs, members)
            for subset in all_subsets(rs):
                value = cls.get(subset, 0)
                if members <= subset:
                    assert isinstance(value, int) and value > 0
                else:
                    assert value == 0


def test_class_values_match_naive_restriction_oracle(a2, a3):
    for rs in (a2, a3):
        for members in all_subsets(rs):
            if not members:
                continue
            cls = peterson_class(rs, members)
            v = coxeter_element(rs, members)
            for subset in all_subsets(rs):
                w = longest_element(rs, subset)
                expected = specialize_to_t(
                    oracles.naive_billey(one_line(v), one_line(w), rs.rank)
                )
                assert t_mono(cls.get(subset, 0), len(members)) == expected


def _polynomial_route_values(rs, v):
    """Values of the Schubert class of v at the Peterson fixed points by
    the multivariate Billey restriction specialised to t."""
    values = {}
    for subset in all_subsets(rs):
        poly = specialize_to_t(
            billey_restriction(rs, v, longest_element(rs, subset))
        )
        if poly:
            values[subset] = poly
    return values


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "A5", "B3", "C3", "D4", "G2"]
)
def test_basis_classes_match_polynomial_route(label, order):
    rs = root_system_from_label(label)
    for members in all_subsets(rs):
        v = coxeter_element(rs, members, order) if members else rs.identity()
        cls = peterson_class(rs, members, order)
        as_polys = {m: t_mono(c, len(members)) for m, c in cls.items()}
        assert as_polys == _polynomial_route_values(rs, v), subset_text(
            members
        )


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_pullbacks_match_polynomial_route(label):
    rs = root_system_from_label(label)
    for w in weyl_enumerate(rs):
        route = _polynomial_route_values(rs, w)
        scalars = {m: poly.c for m, poly in route.items()}
        # every value of the route is the monomial its scalar stands for
        assert route == {m: t_mono(c, w.length) for m, c in scalars.items()}
        assert pullback_expansion(rs, w) == expand_in_peterson_basis(
            rs, scalars, w.length
        )


def test_changing_a_result_leaves_the_memo_alone():
    # the basis classes and the pullbacks are memoised with the root
    # system; a caller that changes what it got must not change the
    # next call's result
    rs = root_system_from_label("A3")
    w = element_from_word(rs, (1, 2, 1, 3))
    expansion = pullback_expansion(rs, w)
    pullback_expansion(rs, w).clear()
    assert pullback_expansion(rs, w) == expansion != {}
    values = peterson_class(rs, {1, 2})
    peterson_class(rs, {1, 2}).clear()
    assert peterson_class(rs, {1, 2}) == values != {}


def test_peterson_path_needs_no_weyl_group_or_billey_rows():
    f4 = root_system_from_label("F4")
    peterson_table(f4)
    e6 = root_system_from_label("E6")
    peterson_class(e6, {1, 2, 3, 4, 5, 6})
    pullback_expansion(e6, coxeter_element(e6, {1, 2}))
    for rs in (f4, e6):
        assert rs._billey == {}
        assert rs._weyl_list is None


def test_expand_round_trip(a2, a3):
    for rs in (a2, a3):
        for members in all_subsets(rs):
            expansion = expand_in_peterson_basis(
                rs, peterson_class(rs, members), len(members)
            )
            assert expansion == {frozenset(members): PolyT.one()}


def test_expansion_golden_p1_squared(a2):
    p1 = peterson_class(a2, {1})
    expansion = expand_in_peterson_basis(a2, _product(p1, p1), 2)
    assert expansion == {
        frozenset({1}): t_mono(1, 1),
        frozenset({1, 2}): PolyT.one(),
    }


def test_expansion_golden_p1_p2(a2):
    p1 = peterson_class(a2, {1})
    p2 = peterson_class(a2, {2})
    expansion = expand_in_peterson_basis(a2, _product(p1, p2), 2)
    assert expansion == {frozenset({1, 2}): t_mono(2, 0)}


def test_structure_constants_a1(a1):
    expansion = peterson_structure_constants(a1, {1}, {1})
    assert expansion[frozenset({1})] == t_mono(1, 1)


def test_structure_constants_identity(a2):
    for members in all_subsets(a2):
        expansion = peterson_structure_constants(a2, frozenset(), members)
        assert expansion == {frozenset(members): PolyT.one()}


def test_structure_constants_properties():
    for n in (2, 3, 4):
        rs = root_system_from_label(f"A{n}")
        subsets = all_subsets(rs)
        seen = {}
        for members_i in subsets:
            for members_j in subsets:
                expansion = peterson_structure_constants(
                    rs, members_i, members_j
                )
                seen[(members_i, members_j)] = expansion
                assert list(expansion) == [
                    m for m in subsets if m in expansion
                ]  # subset order
                for members_k, poly in expansion.items():
                    assert poly.c >= 0
                    expected = len(members_i) + len(members_j) - len(members_k)
                    assert poly.degree() == expected
                    assert (members_i | members_j) <= members_k
                    assert len(members_k) <= len(members_i) + len(members_j)
        for (members_i, members_j), coeffs in seen.items():
            assert coeffs == seen[(members_j, members_i)]


def test_ordinary_part_needs_full_degree(a3):
    # the t -> 0 limit survives only when the index size adds up
    subsets = all_subsets(a3)
    for members_i in subsets:
        for members_j in subsets:
            expansion = peterson_structure_constants(a3, members_i, members_j)
            for members_k, poly in expansion.items():
                constant = 0 if poly.k else poly.c
                if len(members_k) != len(members_i) + len(members_j):
                    assert constant == 0
                elif not poly.is_zero():
                    assert constant != 0


def test_pullback_of_coxeter_element_is_indicator(a2, a3):
    for rs in (a2, a3):
        for members in all_subsets(rs):
            if not members:
                continue
            v = coxeter_element(rs, members)
            expansion = pullback_expansion(rs, v)
            assert expansion == {frozenset(members): PolyT.one()}


def test_pullback_of_identity(a2):
    expansion = pullback_expansion(a2, a2.identity())
    assert expansion == {frozenset(): PolyT.one()}


def test_pullback_golden_w0(a2):
    w0 = weyl_enumerate(a2)[-1]
    expansion = pullback_expansion(a2, w0)
    assert expansion == {frozenset({1, 2}): t_mono(1, 1)}


def test_pullback_coefficients_are_monomials(a2, a3):
    for rs in (a2, a3):
        for w in weyl_enumerate(rs):
            expansion = pullback_expansion(rs, w)
            for members_k, poly in expansion.items():
                assert poly.c >= 0
                assert poly.degree() == w.length - len(members_k)


def test_closed_form_spot_values():
    assert closed_form_coefficient({1}, {1}, {1}) == t_mono(1, 1)
    assert closed_form_coefficient({1}, {2}, {1, 2}) == t_mono(2, 0)
    assert closed_form_coefficient({1}, {1}, {1, 2}) == t_mono(1, 0)


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        closed_form_coefficient({1, 3}, {1}, {1, 2, 3})  # I not consecutive
    with pytest.raises(ValueError):
        closed_form_coefficient({1}, {1}, {1, 3})  # K not consecutive
    with pytest.raises(ValueError):
        closed_form_coefficient({1}, {2}, {2, 3})  # K misses I
    with pytest.raises(ValueError):
        closed_form_coefficient({1}, {1}, {1, 2, 3})  # |K| too large
    with pytest.raises(ValueError):
        closed_form_coefficient(set(), {1}, {1})  # empty interval


def test_cross_validate_a1(a1):
    assert cross_validate(a1) == (1, [])


def test_cross_validate_small_ranks(a2, a3):
    for rs in (a2, a3):
        _, failures = cross_validate(rs)
        assert not failures, failures


def test_cross_validate_gating(b2):
    with pytest.raises(ValueError):
        cross_validate(b2)


def test_flag_consistency(a2):
    assert flag_consistency_report(a2) == (16, [])


def test_peterson_class_runs_for_other_types(b2):
    # no closed form outside type A, but classes and expansions work
    for members in all_subsets(b2):
        if not members:
            continue
        assert peterson_class(b2, members)[members] > 0
    expansion = peterson_structure_constants(b2, {1}, {2})
    for poly in expansion.values():
        assert poly.c >= 0


def test_alternate_coxeter_order_round_trips(a3):
    for members in all_subsets(a3):
        if not members:
            continue
        cls = peterson_class(a3, members, order="decreasing")
        expansion = expand_in_peterson_basis(
            a3, cls, len(members), order="decreasing"
        )
        assert expansion == {frozenset(members): PolyT.one()}


def test_peterson_table_rows_sorted(a2):
    rows = peterson_table(a2)
    keys = [
        (tuple(sorted(mi)), tuple(sorted(mj)), tuple(sorted(mk)))
        for mi, mj, mk, _ in rows
    ]
    pair_keys = [
        ((len(mi), sorted(mi)), (len(mj), sorted(mj)), (len(mk), sorted(mk)))
        for mi, mj, mk, _ in rows
    ]
    assert pair_keys == sorted(pair_keys)
    assert len(keys) == len(set(keys))


def test_expand_rejects_non_multiple_of_diagonal(a2):
    # the constant 1 at {1} is no multiple of the diagonal value t there:
    # its coefficient would be t^-1
    with pytest.raises(NotInSpan, match="survived") as caught:
        expand_in_peterson_basis(a2, {frozenset({1}): 1}, 0)
    assert caught.value.element == frozenset({1})


def test_expand_rejects_residual_above_the_degree(a2):
    # t at {1,2} alone: the coefficient there would be t^-1
    with pytest.raises(NotInSpan, match="survived") as caught:
        expand_in_peterson_basis(a2, {frozenset({1, 2}): 1}, 1)
    assert caught.value.element == frozenset({1, 2})
    assert caught.value.remainder == 1


def test_expand_rejects_residual_outside_the_subsets(a2):
    # {5} is no subset of A2's simple roots, so no basis class reaches it
    with pytest.raises(NotInSpan, match="survived") as caught:
        expand_in_peterson_basis(a2, {frozenset({5}): 1}, 1)
    assert caught.value.element == frozenset({5})


def test_zero_values_are_dropped(a2):
    # three times the basis class of {2}, with a zero at {1} and keys
    # that are not frozensets
    values = {(1,): 0, (2,): 3, (2, 1): 6}
    assert expand_in_peterson_basis(a2, values, 1) == {
        frozenset({2}): PolyT.monomial(3, 0)
    }


def test_subset_text():
    assert subset_text(frozenset()) == ""
    assert subset_text({2, 1}) == "1,2"


def test_division_in_expansion_can_be_fractional(a2):
    # scaling a basis class by a non-unit constant still expands exactly
    p1 = peterson_class(a2, {1})
    tripled = {k: v * 3 for k, v in p1.items()}
    expansion = expand_in_peterson_basis(a2, tripled, 1)
    assert expansion[frozenset({1})] == PolyT.monomial(3, 0)
    halved = {k: v * Fraction(1, 2) for k, v in p1.items()}
    expansion = expand_in_peterson_basis(a2, halved, 1)
    assert expansion[frozenset({1})] == PolyT.monomial(Fraction(1, 2), 0)
