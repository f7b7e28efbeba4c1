"""Exact sparse polynomial arithmetic for root-system calculations.

Two kinds of coefficient appear throughout: multivariate polynomials in
the simple-root symbols a1..ad with rational coefficients, and monomials
c*t^k in t, the common restriction of every simple root to the
one-dimensional subtorus used in Peterson calculus (every Peterson
coefficient is homogeneous, so one monomial is all it takes). All
arithmetic is exact; no floating point enters anywhere.

``Polynomial.times_linear`` multiplies by a linear form in one pass over
the terms. It raises exponent slots through a table kept per rank, so
every exponent vector it makes is one shared tuple: the Billey rows,
which hold hundreds of thousands of terms over a few thousand vectors,
store each vector once.
"""

import sys
from operator import add


class DivisionByZero(ZeroDivisionError):
    """Exact division by zero: the zero polynomial or the rational 0."""


class NotDivisible(ArithmeticError):
    """Exact division failed; ``remainder`` holds the nonzero remainder."""

    def __init__(self, remainder, message="exact division left a remainder"):
        super().__init__(message)
        self.remainder = remainder


def _norm(c):
    # plain ints are much faster than Fraction; downgrade whenever exact
    if type(c) is not int and _is_rational(c) and c.denominator == 1:
        return int(c)
    return c


def _num_den(c):
    if type(c) is not int and _is_rational(c):
        return c.numerator, c.denominator
    return c, 1


def _is_rational(c):
    """True for an int or a Fraction.

    ``fractions`` is imported only by the code that makes a Fraction, so
    one exists only once it is loaded, and this test never loads it.
    Ints come first, and no abstract base class is consulted.
    """
    if isinstance(c, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def whole_number(a):
    """``a`` (an int or a whole float such as 2.0) as an int, or ValueError."""
    if type(a) is int:  # the common case, checked first: caches load many
        return a
    if not isinstance(a, float) or a % 1:
        raise ValueError(f"{a!r} is not an integer")
    return int(a)


_RAISED = {}  # rank -> {exponent vector: (it with slot 0 raised, ...)}
_SHARED = {}  # rank -> {exponent vector: the one tuple shared for it}


def _raise_slots(rank, exps):
    """The vectors ``exps`` with one slot raised by one, one per slot, as
    shared tuples; memoised in ``_RAISED[rank]``, which must exist."""
    shared = _SHARED.setdefault(rank, {})
    ups = []
    for i in range(rank):
        up = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
        ups.append(shared.setdefault(up, up))
    ups = _RAISED[rank][exps] = tuple(ups)
    return ups


def _coeff_from_pair(num, den):
    num, den = whole_number(num), whole_number(den)
    if den == 1:
        return num
    if not den:
        raise ValueError(f"zero denominator under {num}")
    from fractions import Fraction

    return Fraction(num, den)


class Polynomial:
    """Sparse multivariate polynomial in the simple-root symbols a1..ad.

    ``terms`` maps exponent vectors (tuples of nonnegative ints, one slot
    per simple root) to nonzero rational coefficients. Instances are
    treated as immutable values; all operations return fresh objects.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _norm(c)
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def constant(cls, rank, c):
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def one(cls, rank):
        return cls.constant(rank, 1)

    @classmethod
    def linear_form(cls, rank, coeffs):
        """The linear combination sum(coeffs[i] * a_{i+1})."""
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = [0] * rank
                exps[i] = 1
                terms[tuple(exps)] = c
        return cls(rank, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree=None):
        """True if all monomials share one total degree (zero counts)."""
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise ValueError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not _is_rational(other):
                return NotImplemented
            other = Polynomial.constant(self.rank, other)
        self._check_rank(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            cur = terms.get(exps)
            if cur is None:
                terms[exps] = c
            else:
                new = cur + c
                if new:
                    terms[exps] = new
                else:
                    del terms[exps]
        out = Polynomial.__new__(Polynomial)
        out.rank = self.rank
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.rank = self.rank
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if not _is_rational(other):
                return NotImplemented
            other = Polynomial.constant(self.rank, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if type(other) is not int and not _is_rational(other):
                return NotImplemented
            other = _norm(other)
            if not other:
                return Polynomial.zero(self.rank)
            out = Polynomial.__new__(Polynomial)
            out.rank = self.rank
            out.terms = {e: _norm(c * other) for e, c in self.terms.items()}
            return out
        self._check_rank(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                cur = terms.get(exps)
                if cur is None:
                    terms[exps] = c1 * c2
                else:
                    new = cur + c1 * c2
                    if new:
                        terms[exps] = new
                    else:
                        del terms[exps]
        out = Polynomial.__new__(Polynomial)
        out.rank = self.rank
        out.terms = {e: _norm(c) for e, c in terms.items()}
        return out

    __rmul__ = __mul__

    def times_linear(self, coeffs):
        """``self * sum(coeffs[i] * a_{i+1})``, in one pass over the terms.

        ``coeffs`` are integers, one per simple root. Equal to the generic
        product with ``Polynomial.linear_form(rank, coeffs)``, but every
        exponent vector it makes is the shared tuple of ``_raise_slots``.
        """
        rank = self.rank
        if len(coeffs) != rank:
            raise ValueError(f"rank mismatch: {rank} vs {len(coeffs)}")
        terms = {}
        form = [(i, k) for i, k in enumerate(coeffs) if k]
        raised = _RAISED.setdefault(rank, {})
        get = terms.get
        for e, c in self.terms.items():
            ups = raised.get(e) or _raise_slots(rank, e)
            for i, k in form:
                up = ups[i]
                cur = get(up)
                if cur is None:
                    terms[up] = c * k
                else:
                    new = cur + c * k
                    if new:
                        terms[up] = new
                    else:
                        del terms[up]
        if not {int}.issuperset(map(type, terms.values())):
            terms = {e: _norm(c) for e, c in terms.items()}
        out = Polynomial.__new__(Polynomial)
        out.rank = rank
        out.terms = terms
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not _is_rational(other):
                return NotImplemented
            other = Polynomial.constant(self.rank, other)
        return self.rank == other.rank and self.terms == other.terms

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

    def text(self):
        """Canonical rendering, e.g. "a1*a2 + a1^2".

        Monomials are ordered by ascending lexicographic exponent vector;
        the rendering is bit-identical across runs.
        """
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(
                f"a{i + 1}" if p == 1 else f"a{i + 1}^{p}"
                for i, p in enumerate(exps)
                if p
            )
            parts.append((c, mono))
        pieces = []
        for k, (c, mono) in enumerate(parts):
            neg = c < 0
            mag = -c if neg else c
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if k == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def to_json(self):
        """JSON form: [[exponent vector, numerator, denominator], ...]."""
        out = []
        for exps in sorted(self.terms):
            num, den = _num_den(self.terms[exps])
            out.append([list(exps), num, den])
        return out

    @classmethod
    def from_json(cls, rank, data):
        terms = {}
        for entry in data:
            exps, num, den = entry
            exps = tuple(whole_number(e) for e in exps)
            if len(exps) != rank or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for rank {rank}")
            if exps in terms:
                # a later entry would silently replace the first
                raise ValueError(f"exponent vector {list(exps)} appears twice")
            terms[exps] = _coeff_from_pair(num, den)
        return cls(rank, terms)


class PolyT:
    """A monomial c*t^k in the Peterson parameter t.

    Every Peterson structure constant, pullback coefficient and
    specialised Schubert structure constant is one: they are homogeneous,
    of a degree fixed by the grading. ``c`` is rational and ``k`` a
    nonnegative power; zero has ``c == 0`` and ``k == 0``.
    """

    __slots__ = ("c", "k")

    def __init__(self, c, k):
        self.c = c = _norm(c)
        self.k = k if c else 0

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def monomial(cls, c, k):
        return cls(c, k)

    @property
    def coeffs(self):
        """``(0,) * k + (c,)``, empty for zero; ``bench/tracing.py`` reads it."""
        return (0,) * self.k + (self.c,) if self.c else ()

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def degree(self):
        """The power k; -1 for zero."""
        return self.k if self.c else -1

    def __add__(self, other):
        """The sum of two monomials of one power, or with zero; two
        nonzero monomials of different powers raise ValueError."""
        if not isinstance(other, PolyT):
            if not _is_rational(other):
                return NotImplemented
            other = PolyT(other, 0)
        if not other.c:
            return self
        if not self.c:
            return other
        if self.k != other.k:
            raise ValueError(f"{self.text()} and {other.text()} do not add")
        return PolyT(self.c + other.c, self.k)

    __radd__ = __add__

    def __neg__(self):
        return PolyT(-self.c, self.k)

    def __sub__(self, other):
        if not isinstance(other, PolyT) and not _is_rational(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PolyT):
            return PolyT(self.c * other.c, self.k + other.k)
        if not _is_rational(other):
            return NotImplemented
        return PolyT(self.c * other, self.k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyT):
            if not _is_rational(other):
                return NotImplemented
            other = PolyT(other, 0)
        return self.c == other.c and self.k == other.k

    def __repr__(self):
        return f"PolyT({self.text()!r})"

    def text(self):
        """Canonical rendering, e.g. "2*t^1", "t^2", "-1/2" or "0"."""
        c, k = self.c, self.k
        if not k:
            return str(c)
        body = f"t^{k}" if abs(c) == 1 else f"{abs(c)}*t^{k}"
        return f"-{body}" if c < 0 else body

    def to_json(self):
        """JSON form: [[power, numerator, denominator]], or [] for zero."""
        if not self.c:
            return []
        num, den = _num_den(self.c)
        return [[self.k, num, den]]

    @classmethod
    def from_json(cls, data):
        if not data:
            return cls.zero()
        if len(data) > 1:
            raise ValueError(f"{len(data)} terms are not a monomial")
        ((k, num, den),) = data
        k = whole_number(k)
        if k < 0:
            raise ValueError(f"negative power {k}")
        return cls(_coeff_from_pair(num, den), k)


def _leading(poly):
    # graded-lex leading term: max total degree, then max exponent vector
    exps = max(poly.terms, key=lambda e: (sum(e), e))
    return exps, poly.terms[exps]


def _divide_poly(num, den):
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    num._check_rank(den)
    if num.is_zero():
        return Polynomial.zero(num.rank)
    lead_e, lead_c = _leading(den)
    int_lead = type(lead_c) is int
    quot = {}
    rem = dict(num.terms)
    while rem:
        rpoly = Polynomial(num.rank, rem)
        re, rc = _leading(rpoly)
        diff = tuple(a - b for a, b in zip(re, lead_e))
        if any(d < 0 for d in diff):
            raise NotDivisible(rpoly)
        if int_lead and type(rc) is int and not rc % lead_c:
            qc = rc // lead_c  # the integral quotients of the Schubert side
        else:
            from fractions import Fraction

            qc = _norm(Fraction(rc) / Fraction(lead_c))
        quot[diff] = quot.get(diff, 0) + qc
        for e, c in den.terms.items():
            shifted = tuple(a + b for a, b in zip(e, diff))
            cur = rem.get(shifted, 0)
            new = cur - qc * c
            if new:
                rem[shifted] = new
            else:
                rem.pop(shifted, None)
    return Polynomial(num.rank, quot)


def divide_exact(num, den):
    """Exact quotient with q * den == num, or raise NotDivisible.

    Works for Polynomial (leading-term reduction under graded-lex order)
    and for rationals (int or Fraction, always exact unless den is 0);
    the two operands must be of the same kind.
    """
    if isinstance(num, Polynomial) and isinstance(den, Polynomial):
        return _divide_poly(num, den)
    if _is_rational(num) and _is_rational(den):
        if not den:
            raise DivisionByZero("division by zero")
        if type(num) is int and type(den) is int and not num % den:
            return num // den
        from fractions import Fraction

        return _norm(Fraction(num, den))
    raise TypeError("operands must both be Polynomial or both be rational")


def specialize_to_t(poly):
    """Substitute every simple-root symbol by t.

    This is the ring map induced by restricting the torus action to the
    one-dimensional subtorus on which all simple roots agree. ``poly``
    must be homogeneous, as every restriction and structure constant is,
    so its image is a monomial; an inhomogeneous one raises ValueError.
    """
    degrees = {sum(exps) for exps in poly.terms}
    if len(degrees) > 1:
        raise ValueError(f"{poly.text()} is not homogeneous")
    return PolyT(sum(poly.terms.values()), degrees.pop() if degrees else 0)


def is_graham_positive(poly):
    """True iff every monomial coefficient is nonnegative.

    For restriction polynomials and structure constants this certifies
    Graham positivity: the simple roots are positive roots, and every
    positive root is a nonnegative combination of them.
    """
    if isinstance(poly, PolyT):
        return poly.c >= 0
    return all(c >= 0 for c in poly.terms.values())
