"""Peterson Schubert calculus via restriction to Peterson fixed points.

The circle-equivariant cohomology of the Peterson variety has one fixed
point per subset J of the simple roots, namely the longest element w_J
of the parabolic subgroup on J. Every simple root restricts to the
common parameter t there, so a positive root restricts to its height
times t, and the Schubert class of v restricts at w_J to N t^length(v)
for an integer N: Billey's subword sum along a reduced word of w_J with
each root replaced by its height. The sum is nonzero exactly when the
support of v lies in J, and it runs over integers on the weak-order
prefixes of v alone, so no Weyl group is enumerated and no polynomial
restriction is formed. One walk serves every class v, a basis class
(the class of a Coxeter element for K) and a pulled-back Schubert class
alike: the prefixes of v are numbered once, with one Weyl group product
a step between them, and each fixed point's height sequence, computed
once per root system, runs over those steps.

A class of degree d takes the value c t^d at every fixed point, so it
is stored by the rationals c alone, as a dict {J: c} over the fixed
points where it is nonzero. Everything else (expansions,
structure constants, pullbacks of general Schubert classes) is
inclusion-triangular forward substitution over those rationals, by the
loop the Schubert basis uses (``gkm.forward_substitute``), and the
grading fixes the power of t: the coefficient at K is c_K t^(d - |K|).
That power is attached here, once per coefficient; no polynomial in t
is divided.
"""

import warnings
import weakref
from collections import defaultdict
from itertools import combinations
from math import factorial

from .gkm import PositivityViolation, forward_substitute, structure_constants
from .poly import PolyT, specialize_to_t
from .rootsys import (
    ResourceCapError,
    coxeter_element,
    is_type_a,
    longest_element,
)

# root system -> {J: height walk of w_J, or None until first read}, over
# every subset J in ``all_subsets`` order
_walks = weakref.WeakKeyDictionary()


def subset_text(members):
    """Canonical rendering of a subset of simple indices: "1,3" or ""."""
    return ",".join(str(i) for i in sorted(members))


def all_subsets(rs):
    """Every subset of the simple roots, ordered by size then indices."""
    out = []
    for size in range(rs.rank + 1):
        for combo in combinations(range(1, rs.rank + 1), size):
            out.append(frozenset(combo))
    return out


def _height_walk(rs, members):
    """The letters of the canonical word of w_J, each with the height of
    the root its simple root is sent to by the word before it: the
    weights of the height-weighted Billey sum at the fixed point J."""
    prefix = rs.identity()
    walk = []
    for letter in longest_element(rs, members).word:
        root = rs.positive_roots[prefix.perm[rs.simple_index(letter)] - 1]
        walk.append((letter, sum(root)))
        prefix = prefix * rs.simple_reflection(letter)
    return walk


def _fixed_point_values(rs, v):
    """The Schubert class of v at every Peterson fixed point, as {J: N}
    for the value N t^length(v), over the subsets J containing the
    support of v (elsewhere v is not below w_J and the value is zero).

    The weak-order prefixes of v are numbered once, breadth first (0 the
    identity, v the last), with the steps u -> u s between them: u s is
    a longer prefix exactly when u sends alpha_s to a positive root that
    v^-1 sends negative. Each fixed point's height walk, computed once
    per root system, then runs the height-weighted Billey sum over those
    steps in integers. The sum at J holds one state per prefix, so
    ResourceCapError is raised when the prefixes outnumber
    ``rs.max_weyl``, naming the length of the first prefix past it.
    """
    targets = {k + 1 for k, x in enumerate(v.inverse().perm) if x < 0}
    prefixes = []
    index = {}
    steps = [[] for _ in range(rs.rank + 1)]

    def number(u):
        k = index.get(u)
        if k is None:
            if len(prefixes) >= rs.max_weyl:
                raise ResourceCapError(
                    f"Billey sum at an element of length {u.length} holds "
                    f"more than the cap of {rs.max_weyl} Weyl group elements"
                )
            k = index[u] = len(prefixes)
            prefixes.append(u)
        return k

    number(rs.identity())
    for k, u in enumerate(prefixes):  # grows while read: breadth first
        for letter in range(1, rs.rank + 1):
            if u.perm[rs.simple_index(letter)] in targets:
                us = u * rs.simple_reflection(letter)
                steps[letter].append((k, number(us)))
    walks = _walks.get(rs)
    if walks is None:
        walks = _walks[rs] = dict.fromkeys(all_subsets(rs))
    # the support of v: the letters of its prefix steps
    support = {letter for letter, found in enumerate(steps) if found}
    values = {}
    for subset, walk in walks.items():
        if not support <= subset:
            continue
        if walk is None:
            walk = walks[subset] = _height_walk(rs, subset)
        acc = [1] + [0] * (len(prefixes) - 1)
        for letter, height in walk:
            # a step's target sends alpha_letter negative, so it is never
            # the source of a step of that letter: updating in place never
            # chains two of them
            for u, us in steps[letter]:
                a = acc[u]
                if a:
                    acc[us] += a * height
        values[subset] = acc[-1]
    return values


def peterson_class(rs, members, order="increasing"):
    """The basis class for a subset K of the simple roots.

    Its value at the fixed point for J is the Schubert class of the
    Coxeter element v_K restricted there: the height-weighted Billey sum
    along a reduced word of w_J, kept to the weak-order prefixes of v_K,
    times t^|K|. Values vanish unless K is contained in J (support
    triangularity), and the value at K itself is positive. Returns the
    values as {J: c} for c t^|K| at J, over the J where they are nonzero.
    Each call builds the class; solves read it through ``_basis_rows``,
    which builds each class once.
    """
    members = frozenset(int(i) for i in members)
    v = coxeter_element(rs, members, order) if members else rs.identity()
    return _fixed_point_values(rs, v)


def _label(members):
    return f"{{{subset_text(members)}}}"


def _basis_rows(rs, order):
    """The basis by fixed point, the one store of its values: the row at J
    maps K to the value at J of the class for K, over the classes entered
    so far. Reading a class that is not there builds it by
    ``peterson_class`` and enters it in every row, so a solve builds only
    the classes it reads, each once; the class is 0 in a row it misses.
    There is a row for every subset of the simple roots."""

    class Row(dict):
        def __missing__(self, members):
            for point, c in peterson_class(rs, members, order).items():
                rows[point][members] = c
            return self.setdefault(members, 0)

    rows = {members: Row() for members in all_subsets(rs)}
    return rows


def expand_in_peterson_basis(rs, values, degree, order="increasing"):
    """Coefficients d_K with the class f equal to the sum of d_K times
    the basis class for K, as {K: PolyT} over the nonzero d_K in subset
    order.

    f has degree ``degree`` and is given by its ``values``: c at J
    stands for the value c t^degree at the fixed point J. Keys may be
    any iterables of simple indices; zero values are dropped.

    Basis classes vanish outside the subsets containing their index, so
    ``forward_substitute`` solves over the rationals along every subset
    in subset order, the class for K having degree |K|. A coefficient c
    at K stands for c t^(degree - |K|), so a residual at a subset larger
    than ``degree`` raises NotInSpan.
    """
    values = {frozenset(m): c for m, c in values.items() if c}
    rows = _basis_rows(rs, order)
    coeffs = forward_substitute(values, all_subsets(rs), degree, len,
                                lambda x, _: rows[x], _label)
    return {m: PolyT.monomial(c, degree - len(m)) for m, c in coeffs.items()}


def _pair_constants(members_i, members_j, points, rows):
    """The structure constants of the basis classes for I and J, as
    {K: coefficient} in subset order.

    ``points`` are the supersets of the union of I and J in subset order,
    of every size: off them the product and every class it can carry
    vanish. The product is read off ``rows``, the ``_basis_rows`` of the
    basis, at each of them and solved by ``forward_substitute`` along
    them. Past d = |I| + |J| the residual must vanish; the rational c at
    K becomes the monomial c t^(d - |K|). A negative coefficient is
    diagnosed with a PositivityViolation warning (it would falsify the
    implementation).
    """
    product = {}
    for point in points:
        at = rows[point]
        product[point] = at[members_i] * at[members_j]
    degree = len(members_i) + len(members_j)
    coeffs = {}
    solved = forward_substitute(product, points, degree, len,
                                lambda x, _: rows[x], _label)
    for members, c in solved.items():
        poly = coeffs[members] = PolyT.monomial(c, degree - len(members))
        if c < 0:
            warnings.warn(
                PositivityViolation(
                    f"coefficient at {_label(members)} for "
                    f"{_label(members_i)} * {_label(members_j)} "
                    f"is negative: {poly.text()}"
                )
            )
    return coeffs


def _solve_pairs(rs, pairs, order):
    """Solve each pair (I, J) of ``pairs``, frozensets, in turn against
    one ``_basis_rows``, yielding (I, J, constants) with the constants as
    ``_pair_constants`` returns them. Each basis class is built when a
    solve first reads it, and the supersets of each union are listed
    once."""
    subsets = all_subsets(rs)
    rows = _basis_rows(rs, order)
    supersets = {}
    for members_i, members_j in pairs:
        union = members_i | members_j
        points = supersets.get(union)
        if points is None:
            points = supersets[union] = [m for m in subsets if union <= m]
        yield members_i, members_j, _pair_constants(
            members_i, members_j, points, rows
        )


def peterson_structure_constants(rs, members_i, members_j, order="increasing"):
    """Structure constants of the product of two basis classes, as
    {K: PolyT} over the nonzero coefficients in subset order.

    Each coefficient should be a nonnegative monomial in t, homogeneous
    of degree |I| + |J| - |K|; a negative coefficient is diagnosed with a
    PositivityViolation warning (it would falsify the implementation).
    Only the basis classes the solve reads are built, and none is kept
    for the next call: ``peterson_table`` solves every pair at once.
    """
    pair = (frozenset(int(i) for i in members_i),
            frozenset(int(i) for i in members_j))
    ((_, _, coeffs),) = _solve_pairs(rs, [pair], order)
    return coeffs


def pullback_expansion(rs, w, order="increasing"):
    """Expansion of the pullback of the Schubert class of w, as {K: PolyT}
    in subset order, as ``expand_in_peterson_basis`` returns it.

    Restricts the class at every Peterson fixed point by the
    height-weighted Billey sum, kept to the weak-order prefixes of w, and
    expands in the basis. Each coefficient is a single monomial in t of
    degree length(w) - |K| with nonnegative coefficient. Each call builds
    the basis classes its solve reads.
    """
    return expand_in_peterson_basis(
        rs, _fixed_point_values(rs, w), w.length, order
    )


def _is_interval(members):
    if not members:
        return False
    lo, hi = min(members), max(members)
    return len(members) == hi - lo + 1


def _multinomial(n, parts):
    if n < 0 or any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    value = factorial(n)
    for p in parts:
        value //= factorial(p)
    return value


def closed_form_coefficient(members_i, members_j, members_k):
    """Closed-form structure constant for consecutive intervals in type A.

    With a = |I| + |J| - |K|, head H and tail T the largest and smallest
    members of an interval, the coefficient is

        a! * multi(H_I - T_J + 1; a, T_I - T_K, H_K - H_J)
           * multi(H_J - T_I + 1; a, T_J - T_K, H_K - H_I) * t^a,

    where a multinomial with parts that are negative or do not sum to
    the top argument is zero. Preconditions (nonempty consecutive
    intervals, K containing both, |K| at most |I| + |J|) are rejected,
    not silently zeroed.
    """
    I = frozenset(int(i) for i in members_i)
    J = frozenset(int(i) for i in members_j)
    K = frozenset(int(i) for i in members_k)
    for name, members in (("I", I), ("J", J), ("K", K)):
        if not _is_interval(members):
            raise ValueError(
                f"{name} = {{{subset_text(members)}}} is not a nonempty "
                "consecutive interval"
            )
    if not (I | J) <= K:
        raise ValueError("K must contain the union of I and J")
    a = len(I) + len(J) - len(K)
    if a < 0:
        raise ValueError("|K| must be at most |I| + |J|")
    head_i, tail_i = max(I), min(I)
    head_j, tail_j = max(J), min(J)
    head_k, tail_k = max(K), min(K)
    m1 = _multinomial(
        head_i - tail_j + 1, (a, tail_i - tail_k, head_k - head_j)
    )
    m2 = _multinomial(
        head_j - tail_i + 1, (a, tail_j - tail_k, head_k - head_i)
    )
    return PolyT.monomial(factorial(a) * m1 * m2, a)


def _consecutive_intervals(rank):
    return [
        frozenset(range(lo, hi + 1))
        for lo in range(1, rank + 1)
        for hi in range(lo, rank + 1)
    ]


def cross_validate(rs, order="increasing"):
    """Compare localization-computed structure constants against the
    closed form on every admissible consecutive triple (I, J, K).

    Type A only. Returns the number of triples checked and one line per
    mismatch, ``I={..} J={..} K={..}: computed .., formula ..``.
    """
    if not is_type_a(rs):
        raise ValueError("the closed form applies to type A root systems")
    intervals = _consecutive_intervals(rs.rank)
    checked = 0
    failures = []
    pairs = ((i, j) for i in intervals for j in intervals)
    for members_i, members_j, coeffs in _solve_pairs(rs, pairs, order):
        union = members_i | members_j
        for members_k in intervals:
            if not union <= members_k:
                continue
            if len(members_k) > len(members_i) + len(members_j):
                continue
            checked += 1
            computed = coeffs.get(members_k, PolyT.zero())
            formula = closed_form_coefficient(members_i, members_j, members_k)
            if computed != formula:
                failures.append(
                    f"I={_label(members_i)} J={_label(members_j)} "
                    f"K={_label(members_k)}: computed {computed.text()}, "
                    f"formula {formula.text()}"
                )
    return checked, failures


def peterson_table(rs, order="increasing"):
    """Structure constants for every pair of subsets, as rows
    (I, J, K, coefficient) in subset order.

    Every pair (I, J) with J not before I is solved by one pair driver
    against one ``_basis_rows``, which builds each basis class once, and
    its coefficients are shared with the mirrored pair (J, I): row I
    opens, at the pair (I, I), with the pairs (I, H) for every H before
    I. The solve reports K in subset order, so the rows come out sorted.
    """
    subsets = all_subsets(rs)
    upper = ((i, j) for a, i in enumerate(subsets) for j in subsets[a:])
    waiting = defaultdict(list)  # J -> [(I, constants of (I, J))], I before J
    rows = []
    for members_i, members_j, coeffs in _solve_pairs(rs, upper, order):
        if members_i == members_j:
            for members_h, mirror in waiting.pop(members_i, ()):
                for members_k, poly in mirror.items():
                    rows.append((members_i, members_h, members_k, poly))
        else:
            waiting[members_j].append((members_i, coeffs))
        for members_k, poly in coeffs.items():
            rows.append((members_i, members_j, members_k, poly))
    return rows


def flag_consistency_report(rs, order="increasing"):
    """Check that Peterson structure constants agree with the route
    through the ambient flag variety: multiply the two Schubert classes
    there, expand, pull every term back, and collect coefficients.

    Returns the number of pairs (I, J) checked and one line
    ``I={..} J={..}`` per pair whose two routes disagree.
    """
    checked = 0
    failures = []
    subsets = all_subsets(rs)
    coxeter = {
        members: coxeter_element(rs, members, order) if members else rs.identity()
        for members in subsets
    }
    pullbacks = {}
    pairs = ((i, j) for i in subsets for j in subsets)
    for members_i, members_j, direct in _solve_pairs(rs, pairs, order):
        via = {}  # (K, power) -> coefficient: a stray power stays apart
        pair = coxeter[members_i], coxeter[members_j]
        for w, c in structure_constants(rs, *pair).items():
            ct = specialize_to_t(c)
            expansion = pullbacks.get(w)
            if expansion is None:
                expansion = pullbacks[w] = pullback_expansion(rs, w, order)
            for members_k, b in expansion.items():
                term = ct * b
                key = members_k, term.k
                via[key] = term + via.get(key, 0)
        checked += 1
        if {key: p for key, p in via.items() if p} != {
            (members_k, p.k): p for members_k, p in direct.items()
        }:
            failures.append(f"I={_label(members_i)} J={_label(members_j)}")
    return checked, failures
