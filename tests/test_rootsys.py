from itertools import permutations, product
from math import factorial

import pytest

import oracles
import petcalc
from conftest import run_cli
from petcalc import (
    CartanError,
    NotFiniteTypeError,
    ResourceCapError,
    RootSystem,
    act_on_root,
    bruhat_leq,
    coxeter_element,
    element_from_one_line,
    element_from_word,
    inversions,
    longest_element,
    one_line,
    reduced_words,
    root_system_from_label,
    weyl_enumerate,
    word_text,
)
from petcalc.rootsys import (
    DEFAULT_MAX_ROOTS,
    _is_finite_type,
    cartan_matrix_for_label,
    positive_root_count,
)


def test_a1_single_positive_root():
    rs = RootSystem([[2]])
    assert list(rs.positive_roots) == [(1,)]


def test_a2_positive_roots_exact(a2):
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_a3_positive_root_count_matches_oracle(a3):
    # type A_n has one positive root per pair i < j in 1..n+1
    n = a3.rank
    assert len(a3.positive_roots) == n * (n + 1) // 2 == 6


def test_positive_roots_have_uniform_sign(a3, b2):
    for rs in (a3, b2):
        for root in rs.positive_roots:
            assert any(root) and min(root) >= 0


def test_positive_root_order_is_height_then_lex(a3, b2):
    for rs in (a3, b2):
        keys = [(sum(r), r) for r in rs.positive_roots]
        assert keys == sorted(keys)


def test_root_orbit_bound_is_configurable(a2):
    # A2 is of finite type: three roots over a cap of two is a resource
    # cap, not a verdict on the matrix
    with pytest.raises(ResourceCapError, match="more than 2 positive roots"):
        RootSystem([[2, -1], [-1, 2]], max_positive_roots=2)
    with pytest.raises(ResourceCapError, match="^A3 has more than 5 "):
        root_system_from_label("A3", max_positive_roots=5)


def test_a_root_cap_of_zero_is_a_cap():
    # None means DEFAULT_MAX_ROOTS; 0, as for max_weyl, caps at zero
    with pytest.raises(ResourceCapError, match="more than 0 positive roots"):
        RootSystem([[2]], max_positive_roots=0)
    with pytest.raises(ResourceCapError, match="^A3 has more than 0 "):
        root_system_from_label("A3", max_positive_roots=0)


def _closes(cartan, cap):
    """The old test of finiteness: the reflection orbit of the simple
    roots closes within ``cap`` positive roots."""
    n = len(cartan)
    seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for vec in frontier:
            for i in range(n):
                img = list(vec)
                img[i] -= sum(cartan[i][j] * vec[j] for j in range(n))
                img = tuple(img)
                if min(img) >= 0 and img not in seen:
                    seen.add(img)
                    new.append(img)
        if len(seen) > cap:
            return False
        frontier = new
    return True


def _small_cartan_matrices(rank, bonds):
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for choice in product([(0, 0), *product(bonds, bonds)],
                          repeat=len(pairs)):
        matrix = [[2 if i == j else 0 for j in range(rank)]
                  for i in range(rank)]
        for (i, j), (a, b) in zip(pairs, choice):
            matrix[i][j], matrix[j][i] = a, b
        yield matrix


def test_finite_type_matches_root_orbit_closure():
    # every finite root system of rank at most 3 has at most 9 positive
    # roots, and an infinite type has infinitely many
    checked = 0
    for rank, bonds in ((2, (-1, -2, -3, -4, -5)), (3, (-1, -2, -3))):
        for matrix in _small_cartan_matrices(rank, bonds):
            finite = _closes(matrix, 40)
            assert _is_finite_type(matrix) == finite, matrix
            if not finite:
                with pytest.raises(NotFiniteTypeError):
                    RootSystem(matrix)
            checked += 1
    assert checked == 26 + 10 ** 3


def test_non_symmetrisable_cartan_is_not_finite():
    # a cycle whose bond ratios do not multiply to one
    cartan = [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]
    assert not _is_finite_type(cartan)
    with pytest.raises(NotFiniteTypeError, match="not of finite type"):
        RootSystem(cartan)


def _block_sum(*matrices):
    size = sum(len(m) for m in matrices)
    out = [[0] * size for _ in range(size)]
    at = 0
    for m in matrices:
        for i, row in enumerate(m):
            out[at + i][at:at + len(row)] = row
        at += len(m)
    return out


def _roots_by_formula(family, n):
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[family]


def _supported_labels(top):
    ranks = {"A": range(1, top + 1), "B": range(2, top + 1),
             "C": range(2, top + 1), "D": range(3, top + 1),
             "E": range(6, 9), "F": [4], "G": [2]}
    return [f"{family}{n}" for family, span in ranks.items() for n in span]


def test_every_supported_label_builds():
    for label in _supported_labels(8):
        rs = root_system_from_label(label)
        assert len(rs.positive_roots) == _roots_by_formula(label[0],
                                                           int(label[1:]))
    # past rank 8, the finiteness test alone, up to the root cap
    for label in _supported_labels(44):
        assert _is_finite_type(cartan_matrix_for_label(label)), label


def test_closed_form_root_count_matches_the_built_system():
    # built up to rank 16: the largest labels under the cap take seconds
    # each (the command-line tests build A62)
    for label in _supported_labels(16):
        rs = root_system_from_label(label)
        assert positive_root_count(label) == len(rs.positive_roots), label
    # the count is checked against the cap before any matrix is built, so
    # a cap one below it raises at once for every label under the default
    for label in _supported_labels(62):
        count = positive_root_count(label)
        if not 1 < count <= DEFAULT_MAX_ROOTS:
            continue
        with pytest.raises(ResourceCapError, match=(
                f"^{label} has more than {count - 1} positive roots$")):
            root_system_from_label(label, max_positive_roots=count - 1)


@pytest.mark.parametrize(
    "labels", [("A1", "A1"), ("B2", "A1"), ("A1", "G2"), ("A2", "E6"),
               ("F4", "D4", "A1")],
    ids=lambda labels: "x".join(labels),
)
def test_reducible_cartan_matrices_build(labels):
    cartan = _block_sum(*(cartan_matrix_for_label(l) for l in labels))
    rs = RootSystem(cartan)
    assert len(rs.positive_roots) == sum(
        _roots_by_formula(l[0], int(l[1:])) for l in labels
    )


def test_positive_root_counts_by_type():
    expected = {
        "A5": 15, "B3": 9, "C3": 9, "D4": 12, "D5": 20,
        "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
    }
    for label, count in expected.items():
        rs = root_system_from_label(label)
        assert len(rs.positive_roots) == count, label


def test_bad_cartan_rejected():
    with pytest.raises(CartanError):
        RootSystem([[1]])  # bad diagonal
    with pytest.raises(CartanError):
        RootSystem([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(CartanError):
        RootSystem([[2, -1]])  # not square
    with pytest.raises(CartanError):
        RootSystem([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(CartanError):
        root_system_from_label("Z9")
    with pytest.raises(CartanError):
        root_system_from_label("E9")
    for bad in ("x", 5, [5], [[2, "a"], [-1, 2]], [[2, -1.5], [-1, 2]],
                [[2, True], [-1, 2]]):
        with pytest.raises(CartanError):
            RootSystem(bad)  # not a matrix of integers


def test_whole_float_cartan_entries_accepted():
    rs = RootSystem([[2.0, -1], [-1.0, 2]])
    assert rs.cartan == ((2, -1), (-1, 2))
    assert all(isinstance(a, int) for row in rs.cartan for a in row)


def test_affine_cartan_rejected():
    with pytest.raises(NotFiniteTypeError):
        RootSystem([[2, -2], [-2, 2]])


def test_weyl_sizes_and_lengths():
    for n in (1, 2, 3, 4):
        rs = root_system_from_label(f"A{n}")
        elements = weyl_enumerate(rs)
        assert len(elements) == factorial(n + 1)
        got = sorted(w.length for w in elements)
        want = sorted(
            oracles.inversion_count(p)
            for p in permutations(range(1, n + 2))
        )
        assert got == want


def test_a2_length_profile(a2):
    assert [w.length for w in weyl_enumerate(a2)] == [0, 1, 1, 2, 2, 3]


def test_enumeration_graded_and_stable(a3):
    elements = weyl_enumerate(a3)
    keys = [w.sort_key() for w in elements]
    assert keys == sorted(keys)
    assert elements[0] == a3.identity()
    assert elements[-1].length == len(a3.positive_roots)
    assert weyl_enumerate(a3) == elements


def test_weyl_cap():
    a3 = root_system_from_label("A3", max_weyl=5)
    with pytest.raises(ResourceCapError):
        weyl_enumerate(a3)


def test_weyl_cap_of_zero_is_a_cap():
    # 0 must not fall back to the default cap, on any call
    a2 = RootSystem([[2, -1], [-1, 2]], max_weyl=0)
    for _ in range(2):
        with pytest.raises(ResourceCapError):
            weyl_enumerate(a2)


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_bounded_enumeration_is_a_prefix_of_the_full_list(label):
    rs = root_system_from_label(label)
    walked = [weyl_enumerate(rs, n) for n in range(12)]  # walks, then memo
    elements = weyl_enumerate(rs)
    for n, bounded in enumerate(walked):
        prefix = [w for w in elements if w.length <= n]
        assert bounded == prefix == weyl_enumerate(rs, n)


def test_weyl_cap_counts_the_elements_walked():
    # A5 has 720 elements, 259 of them of length at most 6
    for cap, raises in ((258, True), (259, False)):
        a5 = root_system_from_label("A5", max_weyl=cap)
        for _ in range(2):
            if raises:
                with pytest.raises(ResourceCapError, match="up to length 6"):
                    weyl_enumerate(a5, 6)
            else:
                assert len(weyl_enumerate(a5, 6)) == 259
        with pytest.raises(ResourceCapError):
            weyl_enumerate(a5)


def _negated(root):
    return tuple(-c for c in root)


def test_simple_reflection_negates_own_root(a2):
    s1 = a2.simple_reflection(1)
    alpha1 = a2.simple_roots[0]
    assert act_on_root(s1, alpha1) == _negated(alpha1)


def test_reflection_formula_example(a2):
    s1 = a2.simple_reflection(1)
    alpha2 = a2.simple_roots[1]
    assert act_on_root(s1, alpha2) == (1, 1)


def test_composed_action_example(a2):
    s1s2 = element_from_word(a2, (1, 2))
    alpha1 = a2.simple_roots[0]
    assert act_on_root(s1s2, alpha1) == (0, 1)


def test_action_is_a_homomorphism(a2):
    elements = weyl_enumerate(a2)
    roots = list(a2.positive_roots) + [_negated(r) for r in a2.positive_roots]
    for u in elements:
        for v in elements:
            uv = u * v
            for r in roots:
                assert act_on_root(uv, r) == act_on_root(u, act_on_root(v, r))


def test_act_on_non_root_rejected(a2):
    with pytest.raises(ValueError):
        act_on_root(a2.identity(), (1, -1))


def test_length_is_inversion_count():
    for label in ("A2", "A3", "A4", "B2", "G2"):
        rs = root_system_from_label(label)
        for w in weyl_enumerate(rs):
            negated = [r for r in rs.positive_roots
                       if min(act_on_root(w, r)) < 0]
            assert len(negated) == w.length
            assert inversions(w) == negated


def test_one_line_round_trip(a3):
    for w in weyl_enumerate(a3):
        line = one_line(w)
        assert element_from_one_line(a3, line) == w
        assert oracles.inversion_count(line) == w.length


def test_one_line_rejects_non_permutation(a2):
    with pytest.raises(ValueError):
        element_from_one_line(a2, (1, 1, 2))


def test_canonical_word_is_lex_minimal(a3):
    for w in weyl_enumerate(a3):
        words = reduced_words(w)
        assert w.word == min(words)
        assert all(len(word) == w.length for word in words)
        assert all(element_from_word(a3, word) == w for word in words)


@pytest.mark.parametrize("letter", [0, -1, 4])
def test_element_from_word_rejects_letters_out_of_range(letter):
    a3 = root_system_from_label("A3")
    for word in ((letter,), (1, letter), (3, 2, letter)):
        with pytest.raises(ValueError, match="out of range"):
            element_from_word(a3, word)


def test_reduced_word_counts(a2, a3):
    w0 = weyl_enumerate(a2)[-1]
    assert set(reduced_words(w0)) == {(1, 2, 1), (2, 1, 2)}
    assert len(reduced_words(weyl_enumerate(a3)[-1])) == 16


def test_bruhat_examples(a2):
    elements = weyl_enumerate(a2)
    e, s1, s2 = elements[0], elements[1], elements[2]
    w0 = elements[-1]
    assert all(bruhat_leq(e, w) for w in elements)
    assert not bruhat_leq(s1, s2)
    assert bruhat_leq(s1, w0)


def test_bruhat_matches_subword_oracle(a2, a3):
    for rs in (a2, a3):
        elements = weyl_enumerate(rs)
        for u in elements:
            for w in elements:
                assert bruhat_leq(u, w) == oracles.naive_bruhat_leq(
                    one_line(u), one_line(w)
                )


def test_bruhat_matches_reflection_closure(a3):
    closure = oracles.bruhat_by_reflection_closure(4)
    for u in weyl_enumerate(a3):
        for w in weyl_enumerate(a3):
            assert bruhat_leq(u, w) == ((one_line(u), one_line(w)) in closure)


@pytest.mark.parametrize("label", ["B3", "C3", "G2", "A1xG2"])
def test_bruhat_matches_the_reflection_chain_oracle(label):
    # the one-line oracles above cover type A only
    if label == "A1xG2":
        rs = RootSystem([[2, 0, 0], [0, 2, -1], [0, -3, 2]])
    else:
        rs = root_system_from_label(label)
    order = oracles.bruhat_by_reflection_chains(rs)
    elements = weyl_enumerate(rs)
    for u in elements:
        for w in elements:
            assert bruhat_leq(u, w) == ((u, w) in order), (u, w)


def test_bruhat_is_a_partial_order(a2, a3):
    for rs in (a2, a3):
        elements = weyl_enumerate(rs)
        w0 = elements[-1]
        for u in elements:
            assert bruhat_leq(u, u)
            assert bruhat_leq(u, w0)
        for u in elements:
            for v in elements:
                if bruhat_leq(u, v) and bruhat_leq(v, u):
                    assert u == v
                for w in elements:
                    if bruhat_leq(u, v) and bruhat_leq(v, w):
                        assert bruhat_leq(u, w)


def test_longest_element_empty_subset(a2):
    assert longest_element(a2, frozenset()) == a2.identity()


def test_longest_element_full_a2(a2):
    w = longest_element(a2, {1, 2})
    assert w.length == 3
    assert w == element_from_word(a2, (1, 2, 1))


def test_longest_element_commuting_factors(a3):
    w = longest_element(a3, {1, 3})
    assert w.length == 2
    assert w == element_from_word(a3, (1, 3))


def test_longest_element_properties(a3, b2):
    for rs in (a3, b2):
        subsets = [
            frozenset(s)
            for s in [
                (),
                *[(i,) for i in range(1, rs.rank + 1)],
                *[
                    (i, j)
                    for i in range(1, rs.rank + 1)
                    for j in range(i + 1, rs.rank + 1)
                ],
                tuple(range(1, rs.rank + 1)),
            ]
        ]
        for members in subsets:
            w = longest_element(rs, members)
            supported = [
                r
                for r in rs.positive_roots
                if {i + 1 for i, c in enumerate(r) if c} <= members
            ]
            assert w.length == len(supported)
            assert w * w == rs.identity()
            assert w.support() == members


def test_longest_element_bad_subset(a2):
    with pytest.raises(ValueError):
        longest_element(a2, {3})


def test_coxeter_element_basics(a2, a3):
    assert coxeter_element(a2, {1}) == a2.simple_reflection(1)
    assert coxeter_element(a2, {1, 2}) == element_from_word(a2, (1, 2))
    assert coxeter_element(a3, {1, 2, 3}) == element_from_word(a3, (1, 2, 3))
    with pytest.raises(ValueError):
        coxeter_element(a2, frozenset())


def test_coxeter_element_properties(a3):
    subsets = [
        frozenset(s)
        for s in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    ]
    for members in subsets:
        v = coxeter_element(a3, members)
        assert v.length == len(members)
        assert v.support() == members
        assert bruhat_leq(v, longest_element(a3, members))


def test_coxeter_element_alternate_orders(a3):
    decreasing = coxeter_element(a3, {1, 2}, order="decreasing")
    assert decreasing == element_from_word(a3, (2, 1))
    explicit = coxeter_element(a3, {1, 2, 3}, order=(2, 1, 3))
    assert explicit == element_from_word(a3, (2, 1, 3))
    with pytest.raises(ValueError):
        coxeter_element(a3, {1, 2}, order=(1, 1))


def test_word_text(a2):
    assert word_text(a2.identity()) == "e"
    assert word_text(element_from_word(a2, (1, 2, 1))) == "s1 s2 s1"


def test_reflections_negate_their_roots():
    for label in ("A3", "B2", "G2"):
        rs = root_system_from_label(label)
        for k, root in enumerate(rs.positive_roots):
            refl = rs.reflection(k)
            assert act_on_root(refl, root) == _negated(root)
            assert refl * refl == rs.identity()
            assert refl.length % 2 == 1


def _cartan_of_c4_reversed():
    # C4 with its nodes numbered from the other end: a --cartan matrix
    # that no label builds
    c4 = cartan_matrix_for_label("C4")
    return [list(reversed(row)) for row in reversed(c4)]


@pytest.mark.parametrize(
    "label", [*_supported_labels(8), "cartan"],
)
def test_reflections_built_on_first_use_match_the_eager_construction(label):
    if label == "cartan":
        rs = RootSystem(_cartan_of_c4_reversed())
    else:
        rs = root_system_from_label(label)
    expected = oracles.eager_reflections(rs)
    assert rs._reflections is None
    for k, root in enumerate(rs.positive_roots):
        refl = rs.reflection(k)
        assert refl == expected[k]
        assert refl * refl == rs.identity()
        assert act_on_root(refl, root) == _negated(root)


def test_restrict_leaves_the_reflections_unbuilt(monkeypatch):
    built = []
    build = RootSystem._build_reflections
    monkeypatch.setattr(RootSystem, "_build_reflections",
                        lambda rs: built.append(rs) or build(rs))
    code, out, err = run_cli(
        ["restrict", "D5", "--class", "1 2 3", "--at", "3 2 1 4 3 2"])
    assert code == 0, out + err
    assert built == []
    rs = root_system_from_label("D5")
    rs.reflection(3)
    rs.reflection(4)
    assert built == [rs]


def test_highest_root_reflection_a2(a2):
    k = a2.root_index((1, 1))
    assert a2.reflection(k) == element_from_word(a2, (1, 2, 1))


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its definition goes fails the import
    namespace = {}
    exec("from petcalc import *", namespace)
    assert set(petcalc.__all__) <= set(namespace)
    for gone in ("Root", "build_root_system", "peterson_fixed_point"):
        assert gone not in namespace
