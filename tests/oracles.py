"""Independent type-A oracles used to cross-check the library.

Everything here works directly in the symmetric-group model: group
elements are one-line permutation tuples acting on coordinates, roots
are differences e_a - e_b, and formulas are evaluated by brute force
(subsequence enumeration, transitive closures). Only the library's
polynomial arithmetic is reused, and, by the one oracle here that holds
for every root system (``triangular_solve``), its whole Billey rows.

Six references for any root system close the file: the polynomial
division that takes every quotient term through ``Fraction``, the
reflections over all positive roots built at once by conjugation,
Bruhat order as chains of length-raising reflections, the
height-weighted subword sum at one Peterson fixed point, every
Schubert class by divided differences from the top class, and the
Peterson structure table by the Peterson Monk recurrence.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from operator import add

from petcalc import (
    DivisionByZero,
    NotDivisible,
    Polynomial,
    PolyT,
    ResourceCapError,
    act_on_root,
    all_subsets,
    divide_exact,
    inversions,
    longest_element,
    peterson_class,
    weyl_enumerate,
)
from petcalc.gkm import billey_row


def identity_perm(n_letters):
    return tuple(range(1, n_letters + 1))


def compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def adjacent_transposition(n_letters, i):
    line = list(range(1, n_letters + 1))
    line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def transposition(n_letters, a, b):
    line = list(range(1, n_letters + 1))
    line[a - 1], line[b - 1] = line[b - 1], line[a - 1]
    return tuple(line)


def inversion_count(line):
    n = len(line)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if line[a] > line[b]
    )


def reduced_word(line):
    """One reduced word, by repeatedly removing the smallest descent."""
    work = list(line)
    letters = []
    while True:
        for i in range(1, len(work)):
            if work[i - 1] > work[i]:
                work[i - 1], work[i] = work[i], work[i - 1]
                letters.append(i)
                break
        else:
            break
    return tuple(reversed(letters))


def diff_to_coeffs(a, b, rank):
    """e_a - e_b in simple-root coordinates."""
    if a < b:
        return tuple(1 if a <= k <= b - 1 else 0 for k in range(1, rank + 1))
    return tuple(-c for c in diff_to_coeffs(b, a, rank))


def naive_billey(v_line, w_line, rank):
    """Subword-sum restriction by direct subsequence enumeration."""
    n_letters = rank + 1
    word = reduced_word(w_line)
    prefixes = [identity_perm(n_letters)]
    for i in word:
        prefixes.append(
            compose(prefixes[-1], adjacent_transposition(n_letters, i))
        )
    k = inversion_count(v_line)
    total = Polynomial.zero(rank)
    for positions in combinations(range(len(word)), k):
        prod = identity_perm(n_letters)
        for j in positions:
            prod = compose(prod, adjacent_transposition(n_letters, word[j]))
        if prod != v_line:
            continue
        poly = Polynomial.one(rank)
        for j in positions:
            p = prefixes[j]
            a, b = p[word[j] - 1], p[word[j]]
            poly = poly * Polynomial.linear_form(
                rank, diff_to_coeffs(a, b, rank)
            )
        total = total + poly
    return total


def naive_bruhat_leq(u_line, w_line):
    """Subword criterion by enumerating subsequences of a reduced word."""
    word = reduced_word(w_line)
    k = inversion_count(u_line)
    if k > len(word):
        return False
    if k == 0:
        return True
    n_letters = len(u_line)
    for positions in combinations(range(len(word)), k):
        prod = identity_perm(n_letters)
        for j in positions:
            prod = compose(prod, adjacent_transposition(n_letters, word[j]))
        if prod == u_line:
            return True
    return False


def _divided_difference_terms(terms, i):
    # {exponents: coefficient} in, the same out, zeros dropped
    out = {}
    for exps, c in terms.items():
        a, b = exps[i - 1], exps[i]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail = exps[: i - 1], exps[i + 1 :]
        for k in range(a - b):
            image = head + (a - 1 - k, b + k) + tail
            out[image] = out.get(image, 0) + c
    return {exps: c for exps, c in out.items() if c}


def divided_difference(poly, i):
    """(P - s_i P) / (x_i - x_{i+1}), where x_j is variable j - 1.

    Computed monomial by monomial, with no polynomial division: with
    a > b, x_i^a x_{i+1}^b goes to x_i^b x_{i+1}^b times the geometric
    sum of x_i^(a-b-1-k) x_{i+1}^k over 0 <= k < a - b; with a < b the
    roles swap and the sign flips, and with a == b the monomial is
    symmetric and goes to zero.
    """
    return Polynomial(poly.rank, _divided_difference_terms(poly.terms, i))


def _peel_longest(top, line):
    """The polynomial of w from that of the longest element w0, by the
    divided differences of a reduced word of w0 * w."""
    w0 = tuple(range(len(line), 0, -1))
    for i in reduced_word(compose(w0, line)):
        top = divided_difference(top, i)
    return top


def schubert_polynomial(line):
    """Classical Schubert polynomial of a permutation, from the staircase
    monomial of the longest element by divided differences."""
    n_letters = len(line)
    staircase = tuple(n_letters - k - 1 for k in range(n_letters))
    return _peel_longest(Polynomial(n_letters, {staircase: 1}), line)


@cache
def double_schubert_polynomial(line):
    """Double Schubert polynomial S_w(x; y) of a permutation, with x_i in
    slot i - 1 and y_j in slot n + j - 1 for n letters.

    Lascoux-Schuetzenberger: the longest element gets the product of
    x_i - y_j over i + j <= n, and divided differences in x peel it
    down exactly as for the single Schubert polynomial.
    """
    n_letters = len(line)
    top = Polynomial.one(2 * n_letters)
    for i in range(1, n_letters):
        for j in range(1, n_letters + 1 - i):
            coeffs = [0] * (2 * n_letters)
            coeffs[i - 1], coeffs[n_letters + j - 1] = 1, -1
            top = top * Polynomial.linear_form(2 * n_letters, coeffs)
    return _peel_longest(top, line)


def _at_x_equals_y(terms, n_letters):
    out = {}
    for exps, c in terms.items():
        image = tuple(map(add, exps[:n_letters], exps[n_letters:]))
        out[image] = out.get(image, 0) + c
    return Polynomial(n_letters, out)


def double_structure_constants(u_line, v_line):
    """Equivariant structure constants c_{uv}^w(y) for every permutation
    w, as {w: polynomial in y_1..y_n}, zeros included.

    S_u S_v is the sum of c_{uv}^w(y) S_w(x; y). The divided difference
    along w sends S_x to S_{x w^-1} when lengths add and to 0 otherwise,
    and S_x(y; y) vanishes unless x is the identity, so c_{uv}^w is
    P_w = (divided difference along w)(S_u S_v) at x = y. P_w is
    memoised by length through P_w = divided difference i of P_{s_i w},
    for a left descent i of w.
    """
    n_letters = len(u_line)
    product = double_schubert_polynomial(u_line) * double_schubert_polynomial(
        v_line
    )
    derived = {identity_perm(n_letters): product.terms}
    for w in sorted(permutations(range(1, n_letters + 1)), key=inversion_count):
        if w in derived:
            continue
        # i is a left descent of w when i + 1 comes before i in one-line form
        i = next(k for k in range(1, n_letters) if w.index(k + 1) < w.index(k))
        shorter = compose(adjacent_transposition(n_letters, i), w)
        derived[w] = _divided_difference_terms(derived[shorter], i)
    return {w: _at_x_equals_y(p, n_letters) for w, p in derived.items()}


def roots_in_y(poly, n_letters):
    """A polynomial in the simple roots a_1..a_{n-1} of type A_{n-1},
    rewritten in y_1..y_n by a_i = y_{i+1} - y_i. That is the value of
    S_{s_i}(x; y) at the fixed point s_i, where x_k becomes y_{s_i(k)},
    as the restriction of the class of s_i at s_i is a_i."""
    forms = []
    for i in range(1, n_letters):
        coeffs = [0] * n_letters
        coeffs[i - 1], coeffs[i] = -1, 1
        forms.append(Polynomial.linear_form(n_letters, coeffs))
    total = Polynomial.zero(n_letters)
    for exps, c in poly.terms.items():
        term = Polynomial.constant(n_letters, c)
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = term * form
        total = total + term
    return total


def ordinary_structure_constant(u_line, v_line, w_line):
    """Coefficient of the Schubert polynomial of w in the product for u
    and v, extracted by divided differences along a reversed reduced
    word of w; nonzero only in the degree-matched case."""
    if inversion_count(u_line) + inversion_count(v_line) != inversion_count(
        w_line
    ):
        raise ValueError("only the degree-matched coefficient is constant")
    poly = schubert_polynomial(u_line) * schubert_polynomial(v_line)
    for i in reversed(reduced_word(w_line)):
        poly = divided_difference(poly, i)
        if poly.is_zero():
            return 0
    constant = poly.terms.get((0,) * len(w_line), 0)
    assert set(poly.terms) <= {(0,) * len(w_line)}
    return constant


def bruhat_by_reflection_closure(n_letters):
    """Bruhat order as the transitive closure of length-increasing
    multiplications by reflections (all transpositions)."""
    perms = sorted(permutations(range(1, n_letters + 1)))
    reflections = [
        transposition(n_letters, a, b)
        for a in range(1, n_letters + 1)
        for b in range(a + 1, n_letters + 1)
    ]
    leq = {p: {p} for p in perms}
    edges = {p: set() for p in perms}
    for p in perms:
        for t in reflections:
            q = compose(p, t)
            if inversion_count(q) > inversion_count(p):
                edges[p].add(q)
    changed = True
    while changed:
        changed = False
        for p in perms:
            grown = set(leq[p])
            for q in edges[p]:
                grown |= leq[q]
            if grown != leq[p]:
                leq[p] = grown
                changed = True
    # leq[p] = everything above p; invert into pairs (u <= w)
    return {(u, w) for u in perms for w in leq[u]}


def triangular_solve(f):
    """Schubert-basis coefficients of the localized class f, by a plain
    triangular solve over the whole Weyl group.

    At each fixed point x in enumeration order, the residual f|_x minus
    the sum of the coefficients found so far times their classes at x is
    divided by the diagonal restriction, the class of x at x. Every
    restriction is read from the whole row ``billey_row(rs, x)``; there is
    no block, no pruning and no ``back_substitute``. A failed division
    raises ``NotDivisible``.
    """
    rs = f.rs
    coeffs = {}
    for x in weyl_enumerate(rs):
        row = billey_row(rs, x)
        residual = f.value(x)
        for w, d in coeffs.items():
            restriction = row.get(w)
            if restriction is not None:
                residual = residual - d * restriction
        if residual:
            coeffs[x] = divide_exact(residual, row[x])
    return coeffs


def fraction_divide(num, den):
    """``num / den`` by graded-lex leading-term reduction, every quotient
    term computed as ``Fraction(rc) / Fraction(lead_c)``.

    Raises ``NotDivisible`` with the remainder at the first leading term
    that ``den``'s leading term does not divide, as ``divide_exact`` does.
    """
    def leading(terms):
        exps = max(terms, key=lambda e: (sum(e), e))
        return exps, terms[exps]

    if not den.terms:
        raise DivisionByZero("division by the zero polynomial")
    lead_e, lead_c = leading(den.terms)
    quot = {}
    rem = dict(num.terms)
    while rem:
        rpoly = Polynomial(num.rank, rem)
        re, rc = leading(rpoly.terms)
        diff = tuple(a - b for a, b in zip(re, lead_e))
        if any(d < 0 for d in diff):
            raise NotDivisible(rpoly)
        qc = Fraction(rc) / Fraction(lead_c)
        qc = qc.numerator if qc.denominator == 1 else qc
        quot[diff] = quot.get(diff, 0) + qc
        for e, c in den.terms.items():
            shifted = tuple(a + b for a, b in zip(e, diff))
            new = rem.get(shifted, 0) - qc * c
            if new:
                rem[shifted] = new
            else:
                rem.pop(shifted, None)
    return Polynomial(num.rank, quot)


def eager_reflections(rs):
    """The reflection over every positive root of ``rs``, in root order.

    Walks up from the simple roots: the reflection over s_i(beta) is
    s_i t_beta s_i, for each positive s_i(beta) not reached before.
    """
    reflection = {root: rs.simple_reflection(i)
                  for i, root in enumerate(rs.simple_roots, 1)}
    frontier = list(reflection)
    while frontier:
        reached = []
        for root in frontier:
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                image = act_on_root(s, root)
                if min(image) >= 0 and image not in reflection:
                    reflection[image] = s * reflection[root] * s
                    reached.append(image)
        frontier = reached
    return tuple(reflection[root] for root in rs.positive_roots)


def bruhat_by_reflection_chains(rs):
    """Bruhat order on the Weyl group of any root system, as the pairs
    (u, w) with u <= w.

    u <= w when a chain of right multiplications by reflections, each
    raising the length, joins u to w. Elements are taken by decreasing
    length, so the elements above each one's neighbours are known.
    """
    reflections = [rs.reflection(k) for k in range(len(rs.positive_roots))]
    above = {}
    for u in sorted(weyl_enumerate(rs), key=lambda x: -x.length):
        above[u] = {u}
        for t in reflections:
            y = u * t
            if y.length > u.length:
                above[u] |= above[y]
    return {(u, w) for u, ws in above.items() for w in ws}


def height_subword_sum(rs, v, w):
    """The Schubert class of v at w with every root replaced by its
    height: the integer N of N t^length(v) when w is a Peterson fixed
    point.

    Billey's subword sum along the canonical word of w, one dict of
    states per letter, kept to the weak-order prefixes of v: u s is one
    exactly when u sends the letter's simple root to a positive root
    that v^-1 sends negative. Raises ResourceCapError when the states
    outnumber ``rs.max_weyl``.
    """
    targets = {k + 1 for k, x in enumerate(v.inverse().perm) if x < 0}
    states = {rs.identity(): 1}
    prefix = rs.identity()
    for letter in w.word:
        index = rs.simple_index(letter)
        s = rs.simple_reflection(letter)
        height = sum(rs.positive_roots[prefix.perm[index] - 1])
        grown = dict(states)
        for u, acc in states.items():
            if u.perm[index] in targets:
                us = u * s
                grown[us] = grown.get(us, 0) + acc * height
        if len(grown) > rs.max_weyl:
            raise ResourceCapError(
                f"{len(grown)} states outnumber the cap of {rs.max_weyl}"
            )
        states = grown
        prefix = prefix * s
    return states.get(v, 0)


def peterson_values(rs, v):
    """{J: N} for the class of v at every Peterson fixed point w_J where
    it is nonzero, one ``height_subword_sum`` each."""
    values = {}
    for subset in all_subsets(rs):
        n = height_subword_sum(rs, v, longest_element(rs, subset))
        if n:
            values[subset] = n
    return values


def _reflect_variables(poly, images):
    """``poly`` with each variable a_j replaced by the polynomial
    ``images[j - 1]``."""
    total = Polynomial.zero(poly.rank)
    for exps, c in poly.terms.items():
        term = Polynomial.constant(poly.rank, c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


def _lower_variable(poly, i):
    """``poly / a_i``, one exponent lowered per term; a term without a_i
    raises ``NotDivisible``."""
    terms = {}
    for exps, c in poly.terms.items():
        if not exps[i - 1]:
            raise NotDivisible(poly)
        terms[exps[: i - 1] + (exps[i - 1] - 1,) + exps[i:]] = c
    return Polynomial(poly.rank, terms)


def kostant_kumar_classes(rs, min_length=0):
    """Every Schubert class of ``rs`` of length at least ``min_length``
    as {v: {w: restriction}}, zeros left out, by the Kostant-Kumar left
    divided differences (Kostant and Kumar 1986) from the class of the
    longest element w_0; the descent from w_0 stops at ``min_length``.

    The class of w_0 is the product of all positive roots at w_0 and zero
    elsewhere. For s_i v < v the class of v is ``delta_i`` of the class
    f of s_i v: (delta_i f)(w) = (f(w) - s_i.f(s_i w)) / a_i, where s_i
    acts on the variables by a_j -> a_j - C[i][j] a_i, its action on
    the simple root alpha_j. There is no Billey formula and no division
    but the lowering of one exponent by ``_lower_variable``.
    """
    rank = rs.rank
    order = weyl_enumerate(rs)
    top = Polynomial.one(rank)
    for root in rs.positive_roots:
        top = top * Polynomial.linear_form(rank, root)
    classes = {order[-1]: {order[-1]: top}}
    zero = Polynomial.zero(rank)
    images = {
        i: [Polynomial.linear_form(rank, [
            (j == k) - (k == i - 1) * rs.cartan[i - 1][j]
            for k in range(rank)
        ]) for j in range(rank)]
        for i in range(1, rank + 1)
    }
    for v in reversed(order[:-1]):
        if v.length < min_length:
            break
        i = next(i for i in range(1, rank + 1)
                 if (rs.simple_reflection(i) * v).length > v.length)
        s = rs.simple_reflection(i)
        f = classes[s * v]
        values = {}
        for w in set(f) | {s * x for x in f}:
            diff = f.get(w, zero) - _reflect_variables(
                f.get(s * w, zero), images[i])
            if diff:
                values[w] = _lower_variable(diff, i)
        classes[v] = values
    return classes


def peterson_monk_table(rs, order="increasing"):
    """The Peterson structure table as ``peterson_table`` returns it, rows
    (I, J, K, PolyT) over the nonzero coefficients in subset order, by
    the Peterson Monk recurrence (Harada-Tymoczko 2011; Drellich 2015).

    D, the sum of the basis classes p_i, restricts to a_J t at the fixed
    point J, a_J the sum of the heights of the positive roots that w_J
    sends negative. The Monk rule D p_K = a_K t p_K + sum over j not in K
    of m(K, j) p_(K+j), localized at K+j, gives
    m(K, j) = (a_(K+j) - a_K) p_K|_(K+j) / p_(K+j)|_(K+j). Expanding
    D p_I p_J both ways gives, in rationals, for K above J,

        (a_K - a_J) c(I,J,K) = sum over j not in J of m(J,j) c(I,J+j,K)
                             - sum over k in K of m(K-k,k) c(I,J,K-k),

    from c(I,J,J) = p_I|_J; J runs by decreasing size and K, which holds
    I and J and has at most |I| + |J| members, by increasing size. As
    a_K > a_J for J inside K, no division is by zero. Only the basis
    values and the inversion sets are read: no ``back_substitute``.
    """
    subsets = all_subsets(rs)
    position = {m: n for n, m in enumerate(subsets)}
    simples = range(1, rs.rank + 1)
    values = {m: peterson_class(rs, m, order) for m in subsets}
    a = {m: sum(sum(root) for root in inversions(longest_element(rs, m)))
         for m in subsets}
    monk = {}
    for m in subsets:
        for j in simples:
            if j not in m:
                up = m | {j}
                monk[m, j] = (Fraction(a[up] - a[m]) * values[m].get(up, 0)
                              / values[up][up])
    rows = []
    for members_i in subsets:
        known = {}  # (J, K) -> c(I, J, K), nonzero only
        for members_j in reversed(subsets):
            base = values[members_i].get(members_j)
            if base:
                known[members_j, members_j] = Fraction(base)
            for members_k in subsets:
                if len(members_k) > len(members_i) + len(members_j):
                    break
                if not (members_j < members_k and members_i <= members_k):
                    continue
                rhs = sum(monk[members_j, j]
                          * known.get((members_j | {j}, members_k), 0)
                          for j in simples if j not in members_j)
                rhs -= sum(monk[members_k - {k}, k]
                           * known.get((members_j, members_k - {k}), 0)
                           for k in members_k)
                if rhs:
                    known[members_j, members_k] = rhs / (a[members_k]
                                                         - a[members_j])
        degree = len(members_i)
        rows.extend(
            (members_i, members_j, members_k,
             PolyT.monomial(c, degree + len(members_j) - len(members_k)))
            for (members_j, members_k), c in sorted(
                known.items(), key=lambda item: (position[item[0][0]],
                                                 position[item[0][1]]))
        )
    return rows
