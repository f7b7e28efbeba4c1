"""The Peterson structure table against independent routes.

The table is the certificate of Peterson positivity that ``table --kind
peterson`` prints, so its rows are checked exhaustively against the
route through the flag variety (Schubert structure constants of the two
Coxeter elements, each term pulled back), against the Peterson Monk
recurrence (``oracles.peterson_monk_table``, which runs no triangular
solve) and against the per-pair ``peterson_structure_constants``, row
order included. Its failure paths
(a negative coefficient, a residual left at a larger subset) are pinned
too, and single queries are checked not to build basis classes their
solve never reads.
"""

import warnings

import pytest

import oracles
from conftest import run_cli
from petcalc import (
    NotInSpan,
    PositivityViolation,
    RootSystem,
    all_subsets,
    coxeter_element,
    peterson,
    peterson_structure_constants,
    peterson_table,
    pullback_expansion,
    root_system_from_label,
    specialize_to_t,
    structure_constants,
)

_REDUCIBLE = {
    "B2xA1": [[2, -1, 0], [-2, 2, 0], [0, 0, 2]],
    "A2xG2": [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]],
}


def _system(name):
    if name in _REDUCIBLE:
        return RootSystem(_REDUCIBLE[name])
    return root_system_from_label(name)


def _rows(rs, pair_coeffs):
    """Table rows from ``pair_coeffs(I, J) -> {K: PolyT}``, every ordered
    pair computed on its own, in subset order."""
    subsets = all_subsets(rs)
    rows = []
    for members_i in subsets:
        for members_j in subsets:
            coeffs = pair_coeffs(members_i, members_j)
            rows.extend(
                (members_i, members_j, members_k, coeffs[members_k])
                for members_k in subsets
                if members_k in coeffs
            )
    return rows


def _flag_route(rs, order):
    """Multiply the two Schubert classes of the Coxeter elements in the
    flag variety, specialise each constant to t and pull every Schubert
    class back."""

    def coxeter(members):
        if not members:
            return rs.identity()
        return coxeter_element(rs, members, order)

    def pair_coeffs(members_i, members_j):
        via = {}
        pair = coxeter(members_i), coxeter(members_j)
        for w, c in structure_constants(rs, *pair).items():
            ct = specialize_to_t(c)
            for members_k, b in pullback_expansion(rs, w, order).items():
                term = ct * b
                via[members_k] = via[members_k] + term if members_k in via else term
        return {k: p for k, p in via.items() if not p.is_zero()}

    return pair_coeffs


@pytest.mark.parametrize(
    "label, order",
    [("G2", "increasing"), ("A3", "increasing"), ("A3", "decreasing"),
     ("B3", "increasing"), ("C3", "increasing")],
)
def test_table_matches_flag_variety_route(label, order):
    rs = root_system_from_label(label)
    assert peterson_table(rs, order) == _rows(rs, _flag_route(rs, order))


@pytest.mark.parametrize("label", ["A4", "B4", "D4", "F4", "A2xG2", "A3"])
def test_table_matches_per_pair_constants(label):
    rs = _system(label)
    orders = ["increasing", "decreasing"] if label == "A3" else ["increasing"]
    for order in orders:
        expected = _rows(
            rs, lambda mi, mj: peterson_structure_constants(rs, mi, mj, order)
        )
        assert peterson_table(rs, order) == expected


@pytest.mark.parametrize(
    "label, order",
    [("B4", "increasing"), ("D4", "increasing"), ("F4", "increasing"),
     ("D5", "increasing"), ("E6", "increasing"), ("E7", "increasing"),
     ("A2xG2", "increasing"), ("A5", "increasing"), ("A5", "decreasing")],
)
def test_table_matches_the_peterson_monk_recurrence(label, order):
    # the recurrence shares only the basis values with the table: no
    # back-substitution, and E6 and E7 are checked against it alone
    rs = _system(label)
    assert peterson_table(rs, order) == oracles.peterson_monk_table(rs, order)


def test_table_rejects_an_explicit_order_like_a_single_pair():
    # an explicit order names the members of one subset, so it cannot
    # serve every subset of the table; both paths refuse it the same way
    rs = root_system_from_label("A3")
    order = (2, 1, 3)
    with pytest.raises(ValueError, match="exactly once") as per_pair:
        peterson_structure_constants(rs, {1}, {2}, order)
    with pytest.raises(ValueError, match="exactly once") as table:
        peterson_table(rs, order)
    assert str(table.value) == str(per_pair.value)
    # on the full set alone the explicit order is valid, and agrees with
    # the route through the flag variety
    full = frozenset({1, 2, 3})
    expected = _flag_route(rs, order)(full, frozenset())
    assert peterson_structure_constants(rs, full, (), order) == expected


def _negating(back_substitute):
    def negated(*args, **kwargs):
        return {k: -c for k, c in back_substitute(*args, **kwargs).items()}

    return negated


# every coefficient of the A2 table, each unordered pair once, negated
_A2_NEGATIVE = [
    "coefficient at {} for {} * {} is negative: -1",
    "coefficient at {1} for {} * {1} is negative: -1",
    "coefficient at {2} for {} * {2} is negative: -1",
    "coefficient at {1,2} for {} * {1,2} is negative: -1",
    "coefficient at {1} for {1} * {1} is negative: -t^1",
    "coefficient at {1,2} for {1} * {1} is negative: -1",
    "coefficient at {1,2} for {1} * {2} is negative: -2",
    "coefficient at {1,2} for {1} * {1,2} is negative: -2*t^1",
    "coefficient at {2} for {2} * {2} is negative: -t^1",
    "coefficient at {1,2} for {2} * {2} is negative: -1",
    "coefficient at {1,2} for {2} * {1,2} is negative: -2*t^1",
    "coefficient at {1,2} for {1,2} * {1,2} is negative: -2*t^2",
]


def test_negative_table_coefficient_is_a_positivity_violation(monkeypatch):
    monkeypatch.setattr(
        peterson, "back_substitute", _negating(peterson.back_substitute)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PositivityViolation)
        rows = peterson_table(root_system_from_label("A2"))
    assert [str(w.message) for w in caught] == _A2_NEGATIVE
    assert all(w.category is PositivityViolation for w in caught)
    assert all(poly.c < 0 for *_, poly in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityViolation)
        with pytest.raises(PositivityViolation, match=r"^coefficient at \{\} "):
            peterson_table(root_system_from_label("A2"))


_A2_NEGATED_CSV = """\
I,J,K,coefficient
,,,-1
,1,1,-1
,2,2,-1
,"1,2","1,2",-1
1,,1,-1
1,1,1,-t^1
1,1,"1,2",-1
1,2,"1,2",-2
1,"1,2","1,2",-2*t^1
2,,2,-1
2,1,"1,2",-2
2,2,2,-t^1
2,2,"1,2",-1
2,"1,2","1,2",-2*t^1
"1,2",,"1,2",-1
"1,2",1,"1,2",-2*t^1
"1,2",2,"1,2",-2*t^1
"1,2","1,2","1,2",-2*t^2
"""


def test_negative_table_coefficient_exits_one(monkeypatch):
    monkeypatch.setattr(
        peterson, "back_substitute", _negating(peterson.back_substitute)
    )
    code, out, err = run_cli(
        ["table", "A2", "--kind", "peterson", "--out", "csv"])
    assert code == 1
    assert out == _A2_NEGATED_CSV  # the honest value is printed
    lines = err.splitlines()
    assert lines == [f"positivity violation: {m}" for m in _A2_NEGATIVE]


def test_residual_at_a_larger_subset_is_not_in_span(monkeypatch):
    rs = root_system_from_label("A3")
    build = peterson.peterson_class

    def broken(rs, members, order="increasing"):
        cls = build(rs, members, order)
        if frozenset(members) == {1, 2}:
            cls[frozenset({1, 2, 3})] += 1
        return cls

    monkeypatch.setattr(peterson, "peterson_class", broken)
    with pytest.raises(NotInSpan, match=r"survived at \{1,2,3\}") as caught:
        peterson_table(rs)
    assert caught.value.element == frozenset({1, 2, 3})
    assert caught.value.remainder == -1


def _memo_classes(rs):
    return sorted(
        (len(key[2]), sorted(key[2]))
        for key in peterson._memo[rs]
        if key[0] == "class"
    )


def test_single_queries_build_only_the_classes_they_read():
    # the table builds every basis class up front; a single product or
    # pullback on E8 (256 subsets) must still build only what it reads
    e8 = root_system_from_label("E8")
    peterson_structure_constants(e8, {1}, {2})
    assert _memo_classes(e8) == [(1, [1]), (1, [2]), (2, [1, 2])]
    assert len(peterson._memo[e8]) == 3
    pullback_expansion(e8, coxeter_element(e8, {3, 4}))
    assert _memo_classes(e8) == [
        (1, [1]), (1, [2]), (2, [1, 2]), (2, [3, 4]),
    ]
    assert len(peterson._memo[e8]) == 5  # four classes and the pullback
