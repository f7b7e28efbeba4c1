"""Equivariant Schubert calculus on the flag variety via localization.

A cohomology class is presented by its vector of restrictions at the
torus fixed points, which are indexed by Weyl group elements. Schubert
class restrictions come from Billey's subword formula; products are
pointwise; expansion in the Schubert basis is Bruhat-triangular forward
substitution (``forward_substitute``, which the Peterson basis shares);
the full structure-constant table comes from the equivariant Chevalley
recurrence instead; pushforward to a point is the fixed-point sum with
inverse Euler classes.
"""

import warnings

from .poly import (
    NotDivisible,
    Polynomial,
    divide_exact,
    is_graham_positive,
)
from .rootsys import (
    ResourceCapError,
    element_from_word,
    inversions,
    weyl_enumerate,
    word_text,
)


class NotInSpan(ArithmeticError):
    """The class is not a Schubert-basis combination (non-GKM input)."""

    def __init__(self, message, element=None, remainder=None):
        super().__init__(message)
        self.element = element
        self.remainder = remainder


class NonPolynomialResult(ArithmeticError):
    """Fixed-point integration did not cancel denominators."""


class PositivityViolation(UserWarning):
    """A computed constant failed its positivity certificate.

    This would falsify the implementation, not the underlying theorems,
    so it is surfaced loudly instead of being swallowed.
    """


class LocalizedClass:
    """A class in equivariant cohomology, stored by fixed-point values.

    ``values`` maps Weyl elements to polynomial restrictions; absent
    entries are zero. Every stored value must be homogeneous of the
    common degree, which makes inhomogeneous inputs fail at construction
    instead of producing garbage expansions later.
    """

    __slots__ = ("rs", "degree", "values")

    def __init__(self, rs, values, degree):
        self.rs = rs
        self.degree = degree
        clean = {}
        for w, poly in values.items():
            if w.rs is not rs and w.rs.cartan != rs.cartan:
                raise ValueError("fixed point from a different root system")
            if poly.rank != rs.rank:
                raise ValueError("restriction rank differs from root system")
            if poly.is_zero():
                continue
            if not poly.is_homogeneous(degree):
                raise ValueError(
                    f"restriction at {word_text(w)} is not homogeneous "
                    f"of degree {degree}"
                )
            clean[w] = poly
        self.values = clean

    def value(self, w):
        poly = self.values.get(w)
        if poly is None:
            return Polynomial.zero(self.rs.rank)
        return poly

    def support(self):
        return sorted(self.values, key=lambda w: w.sort_key())

    def is_zero(self):
        return not self.values

    def __mul__(self, other):
        if isinstance(other, LocalizedClass):
            if self.rs.cartan != other.rs.cartan:
                raise ValueError("classes live on different flag varieties")
            values = {}
            for w, poly in self.values.items():
                q = other.values.get(w)
                if q is not None:
                    values[w] = poly * q
            return LocalizedClass(self.rs, values, self.degree + other.degree)
        if isinstance(other, Polynomial):
            if other.is_zero():
                return LocalizedClass(self.rs, {}, self.degree)
            if not other.is_homogeneous():
                raise ValueError("scaling by an inhomogeneous polynomial")
            values = {w: poly * other for w, poly in self.values.items()}
            return LocalizedClass(
                self.rs, values, self.degree + other.degree()
            )
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        if self.rs.cartan != other.rs.cartan:
            raise ValueError("classes live on different flag varieties")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("adding classes of different degrees")
        values = dict(self.values)
        for w, poly in other.values.items():
            cur = values.get(w)
            values[w] = poly if cur is None else cur + poly
        return LocalizedClass(self.rs, values, self.degree)

    def __eq__(self, other):
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        return self.rs.cartan == other.rs.cartan and self.values == other.values

    def __repr__(self):
        return (
            f"LocalizedClass(degree={self.degree}, "
            f"support={len(self.values)})"
        )

    def to_json(self):
        payload = {
            "degree": self.degree,
            "values": {
                word_text(w): self.value(w).to_json() for w in self.support()
            },
        }
        if self.rs.type_label:
            payload["type"] = self.rs.type_label
        else:
            payload["cartan"] = [list(row) for row in self.rs.cartan]
        return payload


def _billey_step(rs, states, prefix, letter, within=None):
    """One letter of the subword sum: the sums along a word of ``prefix``
    extended by ``letter``, as a new map sharing the unchanged values.

    The chosen letter weighs the root ``prefix(alpha_letter)`` as a
    linear form, which ``Polynomial.times_linear`` multiplies in so that
    the terms share their exponent vectors. ``within``, a set closed
    under right-weak prefixes, drops every u outside it; a state u only
    grows to u s, of which u is a prefix, so the sums kept are exact.
    Raises ResourceCapError when the map outgrows ``rs.max_weyl``.
    """
    index = rs.simple_index(letter)
    s = rs.simple_reflection(letter)
    form = rs.positive_roots[prefix.perm[index] - 1]
    if within is not None:
        states = {u: acc for u, acc in states.items() if u in within}
    out = dict(states)
    for u, acc in states.items():
        # u s is longer than u iff u sends the simple root positive
        if u.perm[index] < 0:
            continue
        u2 = u * s
        if within is not None and u2 not in within:
            continue
        add = acc.times_linear(form)
        cur = out.get(u2)
        out[u2] = add if cur is None else cur + add
    if len(out) > rs.max_weyl:
        raise ResourceCapError(
            f"Billey sum at an element of length {prefix.length + 1} holds "
            f"more than the cap of {rs.max_weyl} Weyl group elements"
        )
    return out


def _billey_dp(rs, word):
    """Run the subword sum along a reduced word, one ``_billey_step`` a
    letter.

    Returns the map u -> sum over subsequences of the word that multiply
    to u (necessarily reduced) of the product of the chosen letters'
    roots, a letter's root being the image of its simple root under the
    preceding partial product.
    """
    states = {rs.identity(): Polynomial.one(rs.rank)}
    prefix = rs.identity()
    for letter in word:
        states = _billey_step(rs, states, prefix, letter)
        prefix = prefix * rs.simple_reflection(letter)
    return states


def _parent(w):
    """(w s, s) for the last letter s of the canonical word of w; the
    canonical word of w s is that word without its last letter, since a
    prefix of a lexicographically smallest reduced word is one too."""
    letter = w.word[-1]
    return w * w.rs.simple_reflection(letter), letter


def _stepped_row(rs, w, within=None, pruned=None):
    """The Billey row of w, exact at the elements of ``within`` (a set
    closed under right-weak prefixes; every element when None).

    The row is read from the memo ``rs._billey`` or from ``pruned`` when
    either holds it; otherwise it is one ``_billey_step``, pruned to
    ``within``, from the row of the parent w s (s the last letter of
    ``w.word``), found the same way, down to the identity. The rows made
    are kept in ``pruned`` when it is a dict, and never in the memo, so
    walking fixed points in ``weyl_enumerate`` order with one ``pruned``
    dict costs one step a fixed point.
    """
    row = rs._billey.get(w)
    if row is None and pruned is not None:
        row = pruned.get(w)
    if row is None:
        if w.length:
            parent, letter = _parent(w)
            row = _billey_step(rs, _stepped_row(rs, parent, within, pruned),
                               parent, letter, within)
        else:
            row = {w: Polynomial.one(rs.rank)}
        if pruned is not None:
            pruned[w] = row
    return row


def _fill_billey_row(rs, w):
    """``billey_row(rs, w)``, computed whole and memoised on ``rs._billey``
    (so a row in the memo is complete).

    The row is ``_stepped_row`` unpruned: stepped along ``w.word`` from
    the nearest memoised row on the way, sharing its restrictions, and
    only the row of w is memoised. Filling rows in ``weyl_enumerate``
    order therefore costs one step a fixed point. Restrictions are sums
    of products of positive roots, so none is zero and the row needs no
    pruning.
    """
    row = rs._billey.get(w)
    if row is None:
        row = rs._billey[w] = _stepped_row(rs, w)
    return row


def billey_rows(rs):
    """The memoised Billey rows of rs, as (w, {v: restriction}) pairs."""
    return list(rs._billey.items())


def adopt_billey_row(rs, w, row):
    """Memoise a complete row {v: restriction} computed elsewhere.

    A row already in the memo is kept.
    """
    rs._billey.setdefault(w, row)


def billey_row(rs, w, word=None):
    """The restriction of every Schubert class at w, as {v: restriction};
    a class absent from the row restricts to zero at w.

    Billey's formula: fix a reduced word for w; the restriction of the
    class of v sums, over subsequences that form a reduced word of v, the
    product of the roots obtained by applying the preceding partial
    product to each chosen letter. The result does not depend on the
    chosen word; passing ``word`` runs the sum along that word (bypassing
    the memo) so independence is testable.
    """
    if word is None:
        # a memo hit skips the call: this lookup is hot in the Schubert solve
        return rs._billey.get(w) or _fill_billey_row(rs, w)
    word = tuple(int(i) for i in word)
    if len(word) != w.length or element_from_word(rs, word) != w:
        raise ValueError(f"{word} is not a reduced word for {w!r}")
    return _billey_dp(rs, word)


def billey_restriction(rs, v, w, word=None):
    """Restriction of the Schubert class of v at the fixed point w.

    With ``word``, the entry at v of ``billey_row(rs, w, word)``. Without
    it, the entry of the memoised row of w when there is one; otherwise
    the subword sum along ``w.word`` pruned to the right-weak prefixes of
    v (``_stepped_row``), which is exact at v and memoises nothing. For
    many classes at one fixed point, ``billey_row`` fills the row once.
    """
    if word is not None:
        row = billey_row(rs, w, word)
    else:
        row = rs._billey.get(w) or _stepped_row(
            rs, w, _right_weak_prefixes([v]))
    poly = row.get(v)
    return Polynomial.zero(rs.rank) if poly is None else poly


def _billey_column(rs, w, fixed_points=None):
    """The fixed points x (all of W by default, in ``weyl_enumerate``
    order) where the Schubert class of w restricts nonzero, as
    (x, restriction) pairs.

    A row the memo holds is read whole; any other is stepped from its
    parent's row by ``_stepped_row``, pruned to the right-weak prefixes
    of w: a Billey state grows only into longer states of which it is a
    prefix, so the entry at w is exact. A row is read only by the
    children one length above it, so the pruned rows are dropped once
    the walk is more than one length past them; the memo is left as it
    was.
    """
    points = weyl_enumerate(rs) if fixed_points is None else fixed_points
    within = _right_weak_prefixes([w])
    pruned = {}
    length = 0
    col = []
    for x in points:
        if x.length > length:
            length = x.length
            pruned = {y: row for y, row in pruned.items()
                      if y.length == length - 1}
        poly = _stepped_row(rs, x, within, pruned).get(w)
        if poly is not None:
            col.append((x, poly))
    return col


def schubert_class(rs, v):
    """The equivariant Schubert class of v as a localized class.

    Its values come from ``_billey_column``: the memoised rows where
    there are some, and otherwise rows pruned to the right-weak prefixes
    of v, so the memo stays as it was and the walk holds states for those
    prefixes only. For every class of W, fill the rows once first
    (``billey_row`` at every fixed point).
    """
    values = dict(_billey_column(rs, v))
    return LocalizedClass(rs, values, v.length)


def gkm_verify(f):
    """Check the divisibility conditions cutting out the image of
    localization: for every fixed point w and positive root b, the
    difference of values at w and at w*r_b must be divisible by the
    linear form w(b). As (w r_b)(b) = -w(b), both ends of an edge state
    the same condition, so it is checked once, where w(b) is positive.
    """
    rs = f.rs
    order = weyl_enumerate(rs)
    n = rs.num_positive_roots()
    for w in order:
        fw = f.value(w)
        for k in range(n):
            signed = w.perm[k]
            if signed < 0:
                continue
            diff = fw - f.value(w * rs.reflection(k))
            if diff.is_zero():
                continue
            root = rs.positive_roots[signed - 1]
            form = Polynomial.linear_form(rs.rank, root)
            try:
                divide_exact(diff, form)
            except NotDivisible:
                return False
    return True


def _off_diagonal(k, remainder, label):
    return NotInSpan(
        f"residual at {label(k)} is not a multiple of the diagonal "
        "restriction; the input is not in the span",
        element=k,
        remainder=remainder,
    )


def forward_substitute(values, points, degree, grade, row, label):
    """Coefficients d_k with ``values`` equal to the sum of d_k times the
    basis class of k, for a basis that is triangular along ``points``:
    the class of k vanishes at the points before k and has degree
    ``grade(k)``.

    One forward pass. At each point x the residual, values[x] minus the
    sum of d_k times the class of k at x over the keys solved so far, has
    only the class of x left to carry it. Where grade(x) is at most
    ``degree`` a nonzero residual is divided by the diagonal value, the
    class of x at x (the division must be exact); past it the residual
    must vanish. Either way NotInSpan names x with the remainder. A value
    at a key off ``points`` raises NotInSpan as a residual that survived.

    ``row(x, solved)`` gives the basis classes at x as a mapping, read
    with ``get`` (None for zero) at the keys of ``solved``, the
    coefficients found so far, and with ``[x]`` for the diagonal where a
    residual is divided. ``label(k)`` renders a key for error messages.
    Values are polynomials or rationals, whatever ``divide_exact`` takes;
    a zero value is falsy.
    """
    coeffs = {}
    found = 0
    for x in points:
        at_x = row(x, coeffs)
        residual = values.get(x, 0)
        found += x in values
        for k, d in coeffs.items():
            value = at_x.get(k)
            if value is not None:
                residual = residual - d * value
        if not residual:
            continue
        if grade(x) > degree:
            raise _off_diagonal(x, residual, label)
        try:
            coeffs[x] = divide_exact(residual, at_x[x])
        except NotDivisible as exc:
            raise _off_diagonal(x, exc.remainder, label) from exc
    if found == len(values):
        return coeffs
    points = set(points)
    for k, r in values.items():
        if r and k not in points:
            raise NotInSpan(
                f"nonzero residual survived at {label(k)}",
                element=k,
                remainder=r,
            )
    return coeffs


def _right_weak_prefixes(elements):
    """The right-weak prefixes of ``elements``: every u with u y = w and
    length(u) + length(y) = length(w) for some w among them, reached from
    w by removing right descents.

    Raises ResourceCapError when they outnumber ``rs.max_weyl``.
    """
    found = set()
    todo = list(elements)
    while todo:
        u = todo.pop()
        if u not in found:
            found.add(u)
            if len(found) > u.rs.max_weyl:
                raise ResourceCapError(
                    f"Billey sum for a class of length "
                    f"{max(x.length for x in elements)} walks its right-weak "
                    f"prefixes, more than the cap of {u.rs.max_weyl} Weyl "
                    "group elements"
                )
            todo.extend(u * u.rs.simple_reflection(i)
                        for i in u.right_descents())
    return found


def expand_in_schubert_basis(f, fixed_points=None):
    """Coefficients d_w with f equal to the sum of d_w times the Schubert
    class of w.

    ``fixed_points`` is the list to solve over, in ``weyl_enumerate``
    order (all of W by default). It must hold every point where f is
    nonzero and every w with a nonzero d_w, of degree ``f.degree`` -
    length(w): ``weyl_enumerate(rs, L)`` with L at least the degree d
    qualifies when it holds the support of f, and so does the support of
    a product of the classes of u and v, whose coefficients are nonzero
    only at w above u and v.

    Solved by ``forward_substitute`` along the list, the class of w
    having degree length(w): up to length d a nonzero residual is divided
    by the diagonal restriction at x, and past it the residual must
    vanish. The Billey row at x is read from the memo when it has it, and
    otherwise stepped from the row of the parent by ``_stepped_row``:
    whole up to length d, and past it pruned to the right-weak prefixes
    of the solved classes (a Billey state grows only to longer states of
    which it is a prefix, so the pruned row is exact at those classes).
    The stepped rows stay out of the memo and are dropped once the walk
    is more than one length past them.
    """
    rs = f.rs
    if fixed_points is None:
        fixed_points = weyl_enumerate(rs)
    degree = f.degree
    within = None
    pruned = {}
    length = 0

    def row(x, solved):
        nonlocal within, pruned, length
        if x.length > length:
            length = x.length
            pruned = {y: kept for y, kept in pruned.items()
                      if y.length == length - 1}
            if length > degree and within is None:
                within = _right_weak_prefixes(solved)
        return _stepped_row(rs, x, within, pruned)

    return forward_substitute(f.values, fixed_points, degree,
                              lambda x: x.length, row, word_text)


def _certify(u, v, w, c):
    """Warn with a PositivityViolation if c fails the certificate."""
    if not is_graham_positive(c):
        warnings.warn(
            PositivityViolation(
                f"coefficient at {word_text(w)} for the product of "
                f"{word_text(u)} and {word_text(v)} has a negative "
                f"monomial: {c.text()}"
            )
        )


def structure_constants(rs, u, v):
    """Expansion coefficients of the product of two Schubert classes.

    Only the fixed points of length at most L = length(u) + length(v)
    are used, since a nonzero coefficient at w has length(w) <= L; the
    ``rs.max_weyl`` cap bounds that block, not W. The classes of u and v
    are restricted there on rows pruned to their prefixes
    (``_billey_column``), and their product is expanded over its support
    alone, the x above both u and v, which holds every w with a nonzero
    coefficient. No row is memoised.

    Each coefficient is checked against the simple-root positivity
    certificate; a failure raises a PositivityViolation warning rather
    than an exception, since the honest value is still returned.
    """
    block = weyl_enumerate(rs, u.length + v.length)
    xi_u, xi_v = (
        LocalizedClass(rs, dict(_billey_column(rs, x, block)), x.length)
        for x in (u, v)
    )
    product = xi_u * xi_v
    coeffs = expand_in_schubert_basis(
        product, [x for x in block if x in product.values])
    for w, c in coeffs.items():
        _certify(u, v, w, c)
    return coeffs


def structure_table(rs):
    """The full structure-constant table, as rows (u, v, w, coefficient)
    over the nonzero coefficients, in table order: by the enumeration
    rank of u, then of v, then of w.

    Built by the equivariant Chevalley recurrence (Kostant-Kumar 1986;
    Mihalcea 2007), with no class products and no triangular solve. Let
    D be the sum of the Schubert classes of the simple reflections;
    D|_x = rho - x rho is the linear form summing the positive roots
    that x^-1 sends negative (``inversions(x.inverse())``), distinct at
    distinct fixed points. Comparing the two ways of expanding D times
    the product of the classes of u and v gives

        (D|_w - D|_v) c(u,v,w) = sum over covers v' of v of m c(u,v',w)
                               - sum over w' covered by w of m c(u,v,w'),

    with c(u,v,v) the restriction of the class of u at v. The covers of
    x are the x r_b one longer than x, and the Chevalley multiplicity m
    of such a cover is <rho, b^vee>: as D|_(r_b) = <rho, b^vee> b, it is
    one nonzero coordinate of D|_(r_b) over the same coordinate of b.
    Neither reads a Billey row or divides a polynomial.

    The set-up (W, the Billey rows, D|_x, the multiplicities and the
    covers) runs at the call, so a cap raises before any row; the rows
    then come from a generator, one u at a time in enumeration order.
    For each u, the v at or after u are taken in decreasing length, and
    for each the w above v with u <= w by cover distance 1..length(u) (a
    nonzero c(u,v,w) has length(w) at most length(u) + length(v)).
    Whether u <= w is read from the Billey row of w, which holds u
    exactly then (Kostant-Kumar 1986; Billey 1999). The v at or after u
    are closed upwards under covers, so every value read is already
    known, and it is one of u's own entries: those are kept only while
    u runs. Each mirrored row (v, u, w) waits for v; when u is done its
    rows, its own and those that waited for it, are sorted by the ranks
    of v and w, yielded and dropped. Each entry is one exact division by
    a linear form, and carries the same positivity certificate as
    ``structure_constants``.
    """
    order = weyl_enumerate(rs)
    rank = rs.rank
    zero = Polynomial.zero(rank)
    rows = {x: _fill_billey_row(rs, x) for x in order}
    # x -> D|_x in simple-root coordinates ([] at the identity: zero)
    coordinates = {x: [sum(c) for c in zip(*inversions(x.inverse()))]
                   for x in order}
    chevalley = {x: Polynomial.linear_form(rank, d)
                 for x, d in coordinates.items()}

    multiplicity = []  # positive root number k -> <rho, b_k^vee>
    for k, root in enumerate(rs.positive_roots):
        j = next(j for j, c in enumerate(root) if c)  # D|_(r_b) = m b
        multiplicity.append(coordinates[rs.reflection(k)][j] // root[j])

    up = {x: [] for x in order}  # x -> [(cover, multiplicity)]
    down = {x: [] for x in order}  # x -> [(covered, multiplicity)]
    for x in order:
        for k, m in enumerate(multiplicity):
            y = x * rs.reflection(k)
            if y.length == x.length + 1:
                up[x].append((y, m))
                down[y].append((x, m))

    def table_rows():
        position = {x: k for k, x in enumerate(order)}
        waiting = {x: [] for x in order}  # v -> rows (v, u, w, c), u before v
        for index, u in enumerate(order):
            known = {}  # (v, w) -> c(u, v, w)
            for v in reversed(order[index:]):
                base = rows[v].get(u)
                if base is not None:
                    _certify(u, v, v, base)
                    known[(v, v)] = base
                at_v = chevalley[v]
                level = [v]
                for _ in range(u.length):
                    level = list(dict.fromkeys(
                        y for x in level for y, _ in up[x]))
                    for w in level:
                        if u not in rows[w]:
                            continue
                        rhs = zero
                        for v2, m in up[v]:
                            c = known.get((v2, w))
                            if c is not None:
                                rhs = rhs + c * m
                        for w2, m in down[w]:
                            c = known.get((v, w2))
                            if c is not None:
                                rhs = rhs - c * m
                        if not rhs:
                            continue
                        try:
                            c = divide_exact(rhs, chevalley[w] - at_v)
                        except NotDivisible as exc:
                            raise NotInSpan(
                                f"Chevalley recurrence at {word_text(w)} for "
                                f"{word_text(u)} and {word_text(v)} is not a "
                                "multiple of D|_w - D|_v",
                                element=w,
                                remainder=exc.remainder,
                            ) from exc
                        _certify(u, v, w, c)
                        known[(v, w)] = c
            out = waiting.pop(u)
            for (v, w), c in known.items():
                out.append((u, v, w, c))
                if v is not u:
                    waiting[v].append((v, u, w, c))
            out.sort(key=lambda row: (position[row[1]], position[row[2]]))
            yield from out

    return table_rows()


def integrate(f):
    """Pushforward to a point by the fixed-point localization formula.

    The Euler class at w is the product of -w(b) over positive roots b,
    which is the sign (-1)^(length of w) times the fixed product of all
    positive roots, up to the global sign (-1)^(number of positive
    roots). The sum over fixed points therefore reduces to one exact
    division of the alternating sum of restrictions by the product of
    all positive roots; failure of that division signals non-GKM input.
    """
    rs = f.rs
    order = weyl_enumerate(rs)
    total = Polynomial.zero(rs.rank)
    for w in order:
        poly = f.values.get(w)
        if poly is None:
            continue
        total = total + (poly if w.length % 2 == 0 else -poly)
    if total.is_zero():
        return total
    denominator = Polynomial.one(rs.rank)
    for root in rs.positive_roots:
        denominator = denominator * Polynomial.linear_form(rs.rank, root)
    try:
        quotient = divide_exact(total, denominator)
    except NotDivisible as exc:
        raise NonPolynomialResult(
            "fixed-point sum is not a polynomial; the input does not "
            "satisfy the localization conditions"
        ) from exc
    if rs.num_positive_roots() % 2:
        quotient = -quotient
    return quotient


def forget_to_ordinary(rows):
    """Degree-zero part of the structure table given by its ``rows``
    (u, v, w, coefficient), as ``structure_table`` yields them: the
    ordinary-cohomology structure constants, as nonnegative integers
    keyed by (u, v, w)."""
    out = {}
    for u, v, w, poly in rows:
        if u.length + v.length != w.length:
            continue
        origin = (0,) * poly.rank
        extra = [e for e in poly.terms if e != origin]
        if extra:
            raise ValueError(
                f"degree-zero entry at ({word_text(u)}, {word_text(v)}, "
                f"{word_text(w)}) is not constant"
            )
        c = poly.terms.get(origin, 0)
        if not isinstance(c, int):
            raise ValueError(
                f"ordinary structure constant at ({word_text(u)}, "
                f"{word_text(v)}, {word_text(w)}) is not an integer: {c}"
            )
        if c:
            out[(u, v, w)] = c
    return out
