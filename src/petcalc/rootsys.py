"""Finite root systems from Cartan matrices and their Weyl groups.

Roots live in the simple-root coordinate basis, so a root is an integer
vector of length ``rank`` and the simple reflections act through the
Cartan matrix. Weyl group elements are canonicalised by their action on
the positive-root list (a signed permutation), which gives cheap
equality, hashing and length.
"""

from math import lcm

from .poly import whole_number

DEFAULT_MAX_WEYL = 50_000  # covers A7
DEFAULT_MAX_ROOTS = 2_000


class CartanError(ValueError):
    """Input matrix violates the Cartan sign/diagonal pattern."""


class NotFiniteTypeError(CartanError):
    """The Cartan matrix is not of finite type."""


class ResourceCapError(RuntimeError):
    """An enumeration exceeded its configured size cap."""


def _negated(root):
    return tuple(-c for c in root)


class WeylElt:
    """A Weyl group element, canonicalised by its signed action.

    ``perm[k] = +/-(m+1)`` records that the element sends positive root
    number k to plus or minus positive root number m. ``length`` is the
    inversion count, i.e. the number of positive roots sent negative.
    The canonical reduced word (lexicographically smallest) is derived
    lazily; it exists purely as display/derived data, never as identity.
    """

    __slots__ = ("rs", "perm", "length", "_word", "_hash")

    def __init__(self, rs, perm):
        self.rs = rs
        self.perm = perm
        self.length = sum(1 for v in perm if v < 0)
        self._word = None
        self._hash = hash(perm)

    def __eq__(self, other):
        if not isinstance(other, WeylElt):
            return NotImplemented
        if self.rs is not other.rs and self.rs.cartan != other.rs.cartan:
            return False
        return self.perm == other.perm

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElt({word_text(self)})"

    def __mul__(self, other):
        if not isinstance(other, WeylElt):
            return NotImplemented
        sperm = self.perm
        out = []
        for v in other.perm:
            if v > 0:
                out.append(sperm[v - 1])
            else:
                out.append(-sperm[-v - 1])
        return self.rs.element(tuple(out))

    def inverse(self):
        inv = [0] * len(self.perm)
        for k, v in enumerate(self.perm):
            if v > 0:
                inv[v - 1] = k + 1
            else:
                inv[-v - 1] = -(k + 1)
        return self.rs.element(tuple(inv))

    def right_descents(self):
        """Simple indices i with length(w s_i) < length(w)."""
        rs = self.rs
        return [
            i
            for i in range(1, rs.rank + 1)
            if self.perm[rs.simple_index(i)] < 0
        ]

    @property
    def word(self):
        """The lexicographically smallest reduced word, as a tuple.

        Computed greedily: the first letter of any reduced word is a left
        descent, so repeatedly stripping the smallest left descent yields
        the lex-min word.
        """
        if self._word is None:
            rs = self.rs
            letters = []
            y = self.inverse()  # tracks x^{-1} while x walks down to e
            for _ in range(self.length):
                for i in range(1, rs.rank + 1):
                    if y.perm[rs.simple_index(i)] < 0:
                        letters.append(i)
                        y = y * rs.simple_reflection(i)
                        break
            self._word = tuple(letters)
        return self._word

    def support(self):
        """Simple indices appearing in any reduced word."""
        return frozenset(self.word)

    def sort_key(self):
        return (self.length, self.word)


def word_text(w):
    """Canonical display form of an element: "e" or "s1 s2 s1"."""
    if w.length == 0:
        return "e"
    return " ".join(f"s{i}" for i in w.word)


def _validate_cartan(cartan):
    """The matrix as a tuple of integer rows, or CartanError."""
    try:
        rows = [tuple(row) for row in cartan]
    except TypeError:
        raise CartanError("Cartan matrix must be a list of rows") from None
    n = len(rows)
    if n == 0:
        raise CartanError("empty Cartan matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise CartanError("Cartan matrix must be square")
        try:
            row = rows[i] = tuple(whole_number(a) for a in row)
        except ValueError:
            raise CartanError("Cartan entries must be integers") from None
        for j, a in enumerate(row):
            if i == j and a != 2:
                raise CartanError("Cartan diagonal entries must equal 2")
            if i != j and a > 0:
                raise CartanError("off-diagonal Cartan entries must be <= 0")
    for i in range(n):
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise CartanError("Cartan zero pattern must be symmetric")
    return tuple(rows)


def _is_finite_type(cartan):
    """True when a generalised Cartan matrix is of finite type.

    A matrix is of finite type exactly when it is symmetrisable, with
    d_i a_ij = d_j a_ji for positive d, and diag(d) times it is positive
    definite. The d are fixed component by component of the Dynkin
    diagram and scaled to integers; Sylvester's criterion then asks for
    positive leading principal minors, which fraction-free (Bareiss)
    elimination yields as its pivots. Exact integers throughout, and no
    root is enumerated.
    """
    n = len(cartan)
    num, den = [0] * n, [0] * n  # d_i = num[i] / den[i]
    for start in range(n):
        if num[start]:
            continue
        num[start] = den[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or not cartan[i][j]:
                    continue
                # d_j = d_i a_ij / a_ji, both entries negative
                p, q = -num[i] * cartan[i][j], -den[i] * cartan[j][i]
                if not num[j]:
                    num[j], den[j] = p, q
                    stack.append(j)
                elif num[j] * q != p * den[j]:
                    return False  # not symmetrisable
    scale = lcm(*den)
    m = [[num[i] * scale // den[i] * a for a in row]
         for i, row in enumerate(cartan)]
    previous = 1
    for k in range(n):
        minor = m[k][k]  # the leading principal minor of order k + 1
        if minor <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (minor * m[i][j] - m[i][k] * m[k][j]) // previous
        previous = minor
    return True


class RootSystem:
    """A finite root system with its Weyl group machinery.

    Positive roots are generated as the closure of the simple roots under
    the simple reflections and stored in a fixed order graded by height,
    then lexicographic on coordinates, so all derived enumerations are
    reproducible byte for byte. A root is a tuple of integer simple-root
    coordinates: ``positive_roots`` and ``simple_roots`` hold them, and
    a negative root is a negated tuple. The object is immutable apart
    from internal memo tables. ``max_weyl`` caps the Weyl group for
    ``weyl_enumerate`` and the states of every Billey subword sum (None
    means ``DEFAULT_MAX_WEYL``; 0 is a cap).

    Raises CartanError for a bad sign/diagonal pattern,
    NotFiniteTypeError when the matrix is not of finite type, and
    ResourceCapError for a finite type with more than
    ``max_positive_roots`` positive roots (None means
    ``DEFAULT_MAX_ROOTS``; 0 is a cap).
    """

    def __init__(self, cartan, type_label=None, max_positive_roots=None,
                 max_weyl=None):
        cartan = _validate_cartan(cartan)
        self.cartan = cartan
        self.rank = len(cartan)
        # row i - 1 of the Cartan matrix as its nonzero (j, a): a simple
        # reflection pairs a root with at most four simple roots
        self._cartan_support = [
            tuple((j, a) for j, a in enumerate(row) if a) for row in cartan
        ]
        self.type_label = type_label
        self.max_weyl = DEFAULT_MAX_WEYL if max_weyl is None else max_weyl
        if not _is_finite_type(cartan):
            raise NotFiniteTypeError("the Cartan matrix is not of finite type")
        cap = (DEFAULT_MAX_ROOTS if max_positive_roots is None
               else max_positive_roots)

        vectors, provenance = self._generate_positive_roots(cap)
        order = sorted(vectors, key=lambda v: (sum(v), v))
        self.positive_roots = tuple(order)
        self._index = {v: k for k, v in enumerate(order)}
        # simple root i sits at _simple_index[i - 1]
        self._simple_index = []
        for i in range(self.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.rank))
            self._simple_index.append(self._index[unit])
        self.simple_roots = tuple(
            self.positive_roots[k] for k in self._simple_index
        )

        self._elements = {}
        n = len(order)
        self._identity = self.element(tuple(range(1, n + 1)))
        self._simples = [None] * (self.rank + 1)
        for i in range(1, self.rank + 1):
            perm = []
            for vec in order:
                img = self._reflect_vector(i, vec)
                if min(img) >= 0:
                    perm.append(self._index[img] + 1)
                else:
                    perm.append(-(self._index[_negated(img)] + 1))
            self._simples[i] = self.element(tuple(perm))

        # reflections over every positive root, built on first use
        self._provenance = provenance
        self._reflections = None

        # memo tables (idempotent writes; safe under the GIL)
        self._weyl_list = None
        self._billey = {}  # w -> complete row {v: restriction}, owned by gkm

    # -- construction helpers -------------------------------------------

    def _reflect_vector(self, i, vec):
        # s_i(v) = v - <v, alpha_i^vee> alpha_i, in simple-root coordinates
        pairing = 0
        for j, a in self._cartan_support[i - 1]:
            pairing += a * vec[j]
        out = list(vec)
        out[i - 1] -= pairing
        return tuple(out)

    def _generate_positive_roots(self, cap):
        provenance = {}
        frontier = []
        for i in range(self.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.rank))
            provenance[unit] = None
            frontier.append(unit)
        while frontier:
            new = []
            for vec in frontier:
                for i in range(1, self.rank + 1):
                    img = self._reflect_vector(i, vec)
                    if min(img) < 0:
                        continue  # only s_i(alpha_i) leaves the positives
                    if img not in provenance:
                        provenance[img] = (i, vec)
                        new.append(img)
            if len(provenance) > cap:
                raise ResourceCapError(
                    f"{self.type_label or 'the root system'} has more "
                    f"than {cap} positive roots"
                )
            frontier = new
        return list(provenance), provenance

    def _build_reflections(self):
        # the reflection over s_i(beta) is s_i t_beta s_i; provenance lists
        # every root after the root it was reflected from
        reflection = {}
        for vec, source in self._provenance.items():
            if source is None:
                reflection[vec] = self._simples[vec.index(1) + 1]
            else:
                i, parent = source
                s = self._simples[i]
                reflection[vec] = s * reflection[parent] * s
        return tuple(reflection[root] for root in self.positive_roots)

    # -- element access --------------------------------------------------

    def element(self, perm):
        """Intern a signed permutation as a WeylElt."""
        elt = self._elements.get(perm)
        if elt is None:
            elt = WeylElt(self, perm)
            self._elements[perm] = elt
        return elt

    def identity(self):
        return self._identity

    def simple_reflection(self, i):
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simples[i]

    def simple_index(self, i):
        """Position of the simple root alpha_i in the positive-root list."""
        return self._simple_index[i - 1]

    def reflection(self, k):
        """The reflection over positive root number k."""
        if self._reflections is None:
            self._reflections = self._build_reflections()
        return self._reflections[k]

    def root_index(self, root):
        idx = self._index.get(root)
        if idx is None:
            raise ValueError(f"{root} is not a positive root of this system")
        return idx

    def num_positive_roots(self):
        return len(self.positive_roots)

    def __repr__(self):
        label = self.type_label or f"rank-{self.rank} Cartan"
        return f"RootSystem({label})"


def _family_and_rank(label):
    """The family letter and rank of a type label such as "A3", or
    CartanError."""
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG":
        raise CartanError(f"unknown root system label {label!r}")
    family = label[0]
    try:
        n = int(label[1:])
    except ValueError:
        raise CartanError(f"unknown root system label {label!r}") from None
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
    maximum = {"E": 8, "F": 4, "G": 2}
    if n < minimum[family] or n > maximum.get(family, 10**9):
        raise CartanError(f"rank {n} is not valid for type {family}")
    return family, n


def positive_root_count(label):
    """The number of positive roots of a type label, in closed form."""
    family, n = _family_and_rank(label)
    if family == "A":
        return n * (n + 1) // 2
    if family in "BC":
        return n * n
    if family == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[f"{family}{n}"]


def cartan_matrix_for_label(label):
    """Standard Cartan matrix for a type label such as "A3" or "B2"."""
    family, n = _family_and_rank(label)
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain_link(i, j):
        matrix[i][j] = -1
        matrix[j][i] = -1

    if family in "ABCF":
        for i in range(n - 1):
            chain_link(i, i + 1)
        if family == "B" and n >= 2:
            matrix[n - 1][n - 2] = -2  # alpha_n short
        if family == "C" and n >= 2:
            matrix[n - 2][n - 1] = -2  # alpha_n long
        if family == "F":
            matrix[1][2] = -2
    elif family == "D":
        for i in range(n - 2):
            chain_link(i, i + 1)
        chain_link(n - 3, n - 1)
    elif family == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4 (Bourbaki numbering)
        chain_link(0, 2)
        chain_link(1, 3)
        for i in range(2, n - 1):
            chain_link(i, i + 1)
    elif family == "G":
        matrix[0][1] = -1
        matrix[1][0] = -3
    return matrix


def root_system_from_label(label, max_positive_roots=None, max_weyl=None):
    """The root system of a type label such as "A3" or "E6"; the caps are
    those of ``RootSystem``. A label over the root cap raises
    ResourceCapError from its closed-form root count, before its Cartan
    matrix is built."""
    type_label = label.strip().upper()
    cap = (DEFAULT_MAX_ROOTS if max_positive_roots is None
           else max_positive_roots)
    if positive_root_count(type_label) > cap:
        raise ResourceCapError(
            f"{type_label} has more than {cap} positive roots"
        )
    return RootSystem(
        cartan_matrix_for_label(type_label),
        type_label=type_label,
        max_positive_roots=max_positive_roots,
        max_weyl=max_weyl,
    )


def is_type_a(rs):
    """True when the Cartan matrix is the standard type-A chain."""
    return rs.cartan == tuple(
        tuple(cartan_matrix_for_label(f"A{rs.rank}")[i])
        for i in range(rs.rank)
    )


def weyl_enumerate(rs, max_length=None):
    """The Weyl group elements of length at most ``max_length`` (all of
    W when None), graded by length then canonical word: sorted by
    ``WeylElt.sort_key``. An element's position in the full list is its
    enumeration rank; ``structure_table`` yields the table in the order
    of those ranks, and the ``table`` command labels each element once
    from this list.

    A breadth-first walk by length that stops after level
    ``max_length``. These elements form a Bruhat lower set. Raises
    ResourceCapError when more than ``rs.max_weyl`` elements (default
    50,000, enough for A7) are walked, on every call. Only the full list
    is cached on the root system, after the first walk that reaches the
    longest element; a bounded call reads its prefix.
    """
    cap = rs.max_weyl
    elements = rs._weyl_list
    if elements is None:
        seen = {rs.identity()}
        level = [rs.identity()]
        depth = 0
        while level and len(seen) <= cap and (max_length is None
                                              or depth < max_length):
            nxt = set()
            for w in level:
                for i in range(1, rs.rank + 1):
                    if w.perm[rs.simple_index(i)] > 0:  # ascent: length grows
                        ws = w * rs.simple_reflection(i)
                        if ws not in seen:
                            nxt.add(ws)
            seen.update(nxt)
            level = list(nxt)
            depth += 1
        if len(seen) <= cap:
            elements = sorted(seen, key=WeylElt.sort_key)
            if not level:
                rs._weyl_list = elements
    elif max_length is not None:
        elements = [w for w in elements if w.length <= max_length]
    if elements is None or len(elements) > cap:
        scope = "" if max_length is None else f" up to length {max_length}"
        raise ResourceCapError(
            f"Weyl group{scope} larger than the cap of {cap} elements"
        )
    return elements


def act_on_root(w, root):
    """Image of a root, a tuple of simple-root coordinates, under a Weyl
    group element."""
    rs = w.rs
    k = rs._index.get(root)
    if k is not None:
        signed = w.perm[k]
    else:
        k = rs._index.get(_negated(root))
        if k is None:
            raise ValueError(f"{root} is not a root of this system")
        signed = -w.perm[k]
    image = rs.positive_roots[abs(signed) - 1]
    return image if signed > 0 else _negated(image)


def element_from_word(rs, word):
    """Product of simple reflections; the word need not be reduced."""
    w = rs.identity()
    for i in word:
        w = w * rs.simple_reflection(i)
    return w


def reduced_words(w):
    """All reduced words of w, in lexicographic order."""
    if w.length == 0:
        return [()]
    out = []
    for i in w.right_descents():
        shorter = w * w.rs.simple_reflection(i)
        out.extend(tail + (i,) for tail in reduced_words(shorter))
    out.sort()
    return out


def bruhat_leq(u, w):
    """Bruhat order test via the lifting property.

    Peels the smallest right descent s of w, one letter at a time: if u
    also descends by s the question reduces to (us, ws), otherwise to
    (u, ws). This consumes one fixed reduced word of w; nothing is
    memoised.
    """
    rs = u.rs
    while 0 < u.length < w.length:
        s = rs.simple_reflection(w.right_descents()[0])
        us = u * s
        if us.length < u.length:
            u = us
        w = w * s
    return u.length == 0 or u == w


def _check_subset(rs, members):
    members = frozenset(int(i) for i in members)
    if not members <= frozenset(range(1, rs.rank + 1)):
        raise ValueError(
            f"subset {sorted(members)} is not within 1..{rs.rank}"
        )
    return members


def longest_element(rs, members):
    """Longest element of the parabolic subgroup on the given simples.

    Greedy ascent: starting from the identity, repeatedly multiply by a
    simple reflection in the subset that increases length. The unique
    element of the parabolic with no ascent left is its longest element.
    """
    members = _check_subset(rs, members)
    w = rs.identity()
    progressed = True
    while progressed:
        progressed = False
        for i in sorted(members):
            if w.perm[rs.simple_index(i)] > 0:
                w = w * rs.simple_reflection(i)
                progressed = True
                break
    return w


def coxeter_element(rs, members, order="increasing"):
    """Product of one simple reflection per subset member.

    The canonical choice multiplies in increasing index order; pass
    order="decreasing" or an explicit sequence of the members to
    experiment with other choices (no invariance of downstream tables is
    claimed for those).
    """
    members = _check_subset(rs, members)
    if not members:
        raise ValueError("a Coxeter element needs a nonempty subset")
    if order == "increasing":
        word = sorted(members)
    elif order == "decreasing":
        word = sorted(members, reverse=True)
    else:
        word = tuple(int(i) for i in order)
        if frozenset(word) != members or len(word) != len(members):
            raise ValueError(
                "explicit order must list each subset member exactly once"
            )
    return element_from_word(rs, word)


def inversions(w):
    """Positive roots sent negative by w, as coordinate tuples in root
    order; their number is length(w)."""
    rs = w.rs
    return [
        rs.positive_roots[k]
        for k, v in enumerate(w.perm)
        if v < 0
    ]


# -- type A one-line notation -------------------------------------------


def one_line(w):
    """One-line permutation form of a type A element.

    The Weyl group of A_n is the symmetric group on n+1 letters with s_i
    acting as the adjacent transposition (i, i+1); products compose as
    functions, so the word is folded left to right by swapping entries.
    """
    rs = w.rs
    if not is_type_a(rs):
        raise ValueError("one-line notation applies to type A only")
    line = list(range(1, rs.rank + 2))
    for i in w.word:
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def element_from_one_line(rs, line):
    """Type A element from one-line notation such as (2, 3, 1)."""
    if not is_type_a(rs):
        raise ValueError("one-line notation applies to type A only")
    n = rs.rank + 1
    line = tuple(int(v) for v in line)
    if sorted(line) != list(range(1, n + 1)):
        raise ValueError(
            f"{line} is not a permutation of 1..{n}"
        )
    work = list(line)
    letters = []
    progressed = True
    while progressed:
        progressed = False
        for i in range(1, n):
            if work[i - 1] > work[i]:
                work[i - 1], work[i] = work[i], work[i - 1]
                letters.append(i)
                progressed = True
                break
    return element_from_word(rs, reversed(letters))
