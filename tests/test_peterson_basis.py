"""Peterson restrictions from shared height walks, against a subword
sum per fixed point.

``peterson_class`` and ``pullback_expansion`` walk each fixed point's
height sequence over the steps between the weak-order prefixes of one
Schubert class v. The oracle, ``oracles.peterson_values``, runs one
height-weighted Billey sum per (v, J) along the reduced word of w_J,
kept to the weak-order prefixes of v: every value and every
resource-cap threshold must agree with it.
"""

import pytest

import oracles
from conftest import run_cli
from petcalc import (
    ResourceCapError,
    RootSystem,
    all_subsets,
    coxeter_element,
    expand_in_peterson_basis,
    inversions,
    peterson_class,
    pullback_expansion,
    root_system_from_label,
    weyl_enumerate,
)
from petcalc.peterson import _fixed_point_values

_SYSTEMS = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
            "C4", "D4", "D5", "F4", "G2", "E6", "A1xG2"]
_A1_X_G2 = [[2, 0, 0], [0, 2, -1], [0, -3, 2]]


def _root_system(label, max_weyl=None):
    if label == "A1xG2":
        return RootSystem(_A1_X_G2, max_weyl=max_weyl)
    return root_system_from_label(label, max_weyl=max_weyl)


def _oracle(rs, members, order="increasing"):
    """{J: N} for the basis class of K, by one subword sum per fixed
    point J."""
    if members:
        v = coxeter_element(rs, members, order)
    else:
        v = rs.identity()
    return oracles.peterson_values(rs, v)


@pytest.mark.parametrize("label", _SYSTEMS)
@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_basis_matches_the_subword_sum_oracle(label, order):
    rs = _root_system(label)
    for members in all_subsets(rs):
        assert peterson_class(rs, members, order) == _oracle(
            rs, members, order
        ), (label, order, sorted(members))


@pytest.mark.parametrize("label", _SYSTEMS)
def test_basis_matches_the_oracle_under_an_explicit_order(label):
    # an explicit order names every member of the one subset it serves;
    # an interleaved one makes a Coxeter element of neither direction
    rs = _root_system(label)
    full = frozenset(range(1, rs.rank + 1))
    order = [*range(2, rs.rank + 1, 2), *range(1, rs.rank + 1, 2)]
    assert peterson_class(rs, full, order) == _oracle(rs, full, order)


def _threshold(succeeds):
    """The smallest cap of at least 1 at which ``succeeds(cap)`` holds,
    every cap below it raising ResourceCapError."""
    cap = 1
    while True:
        try:
            succeeds(cap)
            return cap
        except ResourceCapError:
            cap += 1
        assert cap < 1000


@pytest.mark.parametrize("label", ["B3", "A4"])
def test_cap_threshold_matches_the_oracle(label):
    # each attempt takes a fresh root system, so no memo skips the cap
    for members in all_subsets(_root_system(label)):
        ours = _threshold(
            lambda cap: peterson_class(_root_system(label, cap), members)
        )
        oracle = _threshold(
            lambda cap: _oracle(_root_system(label, cap), members)
        )
        assert ours == oracle, sorted(members)
        # p_K times p_{} is p_K: the product builds the classes of K and
        # of the empty set, and reads the column of K alone
        args = ["peterson-mult", label, "--I",
                ",".join(str(i) for i in sorted(members)), "--J", ""]
        code, out, err = run_cli([*args, "--max-weyl", str(ours)])
        assert code == 0, err
        if ours == 1:
            continue  # no cap lies below 1
        code, out, err = run_cli([*args, "--max-weyl", str(ours - 1)])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("resource cap: Billey sum at ")


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xG2"])
def test_pullback_values_match_the_oracle_on_every_element(label):
    rs = _root_system(label)
    for w in weyl_enumerate(rs):
        values = oracles.peterson_values(rs, w)
        assert _fixed_point_values(rs, w) == values, w
        assert pullback_expansion(rs, w) == expand_in_peterson_basis(
            rs, values, w.length
        ), w


def _prefix_count(w):
    """The weak-order prefixes of w, counted over W: u is one exactly
    when every root that u^-1 sends negative, w^-1 sends negative too."""
    inverted = set(inversions(w.inverse()))
    return sum(
        1 for u in weyl_enumerate(w.rs)
        if inverted.issuperset(inversions(u.inverse()))
    )


@pytest.mark.parametrize("label", ["B3", "A4"])
def test_pullback_cap_threshold_is_the_prefix_count(label):
    # each attempt takes a fresh root system, so no memo skips the cap
    for w in weyl_enumerate(_root_system(label)):
        cap = _prefix_count(w)
        rs = _root_system(label, cap)
        pullback_expansion(rs, rs.element(w.perm))
        rs = _root_system(label, cap - 1)
        with pytest.raises(ResourceCapError):
            pullback_expansion(rs, rs.element(w.perm))


def test_cap_zero_refuses_the_empty_class_and_the_pullback_of_e():
    rs = _root_system("A2", 0)
    with pytest.raises(ResourceCapError, match="^Billey sum at an element"):
        peterson_class(rs, ())
    with pytest.raises(ResourceCapError, match="^Billey sum at an element"):
        pullback_expansion(rs, rs.identity())
