import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from petcalc import (
    DivisionByZero,
    NotDivisible,
    Polynomial,
    PolyT,
    divide_exact,
    gkm,
    is_graham_positive,
    root_system_from_label,
    specialize_to_t,
    structure_table,
)


def a(i, rank=2):
    # the simple-root symbol a_i, 1-indexed
    coeffs = [0] * rank
    coeffs[i - 1] = 1
    return Polynomial.linear_form(rank, coeffs)


def test_product_with_non_simple_root():
    # a1 * (a1 + a2), the restriction value from the rank-2 worked example
    a3 = a(1) + a(2)
    assert a(1) * a3 == Polynomial(2, {(2, 0): 1, (1, 1): 1})


def test_multiplicative_identity():
    p = a(1) * a(1) + 3 * a(2)
    assert p * Polynomial.one(2) == p


def test_difference_of_squares():
    assert (a(1) + a(2)) * (a(1) - a(2)) == a(1) * a(1) - a(2) * a(2)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        a(1, rank=2) * a(1, rank=3)
    with pytest.raises(ValueError):
        a(1, rank=2) + a(1, rank=3)


def test_zero_terms_dropped():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    assert (a(1) - a(1)).is_zero()


def test_specialize_simple_cases():
    assert specialize_to_t(a(1)) == PolyT.monomial(1, 1)
    assert specialize_to_t(a(1) + a(2)) == PolyT.monomial(2, 1)
    assert specialize_to_t(a(1) * (a(1) + a(2))) == PolyT.monomial(2, 2)
    assert specialize_to_t(Polynomial.zero(2)).is_zero()
    assert specialize_to_t(a(1) - a(2)).is_zero()
    with pytest.raises(ValueError, match="not homogeneous"):
        specialize_to_t(a(1) * a(2) + a(1))


def test_graham_positive():
    assert is_graham_positive(a(1) + a(2))
    assert not is_graham_positive(a(1) - a(2))
    assert is_graham_positive(Polynomial.zero(2))
    assert is_graham_positive(PolyT.monomial(2, 1))
    assert not is_graham_positive(PolyT.monomial(-2, 1))
    assert is_graham_positive(PolyT.zero())


def test_divide_exact_factor():
    num = a(1) * a(1) + a(1) * a(2)
    assert divide_exact(num, a(1)) == a(1) + a(2)


def test_divide_exact_rationals():
    q = divide_exact(6, 3)
    assert q == 2 and type(q) is int
    assert divide_exact(2, 4) == Fraction(1, 2)
    q = divide_exact(Fraction(3, 2), Fraction(3, 4))
    assert q == 2 and type(q) is int


def test_divide_not_divisible_carries_remainder():
    with pytest.raises(NotDivisible) as info:
        divide_exact(a(1) * a(1), a(2))
    assert not info.value.remainder.is_zero()


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        divide_exact(a(1), Polynomial.zero(2))
    with pytest.raises(DivisionByZero):
        divide_exact(1, 0)
    with pytest.raises(DivisionByZero):
        divide_exact(Fraction(1, 2), Fraction(0))


def test_divide_produces_fractions():
    q = divide_exact(a(1), a(1) * 2)
    assert q == Polynomial.constant(2, Fraction(1, 2))
    assert q.text() == "1/2"


def test_mixed_kind_division_rejected():
    with pytest.raises(TypeError):
        divide_exact(a(1), PolyT.monomial(1, 1))
    with pytest.raises(TypeError):
        divide_exact(a(1), 2)
    with pytest.raises(TypeError):
        divide_exact(2, a(1))
    with pytest.raises(TypeError):
        divide_exact(PolyT.monomial(2, 1), PolyT.monomial(1, 1))


def test_text_rendering():
    assert Polynomial.zero(2).text() == "0"
    assert (a(1) * a(2) + a(1) * a(1)).text() == "a1*a2 + a1^2"
    assert (a(1) - 2 * a(2)).text() == "-2*a2 + a1"
    assert Polynomial.constant(2, Fraction(1, 2)).text() == "1/2"
    assert PolyT.zero().text() == "0"
    assert PolyT.monomial(2, 1).text() == "2*t^1"
    assert PolyT.monomial(3, 0).text() == "3"
    assert PolyT.monomial(1, 2).text() == "t^2"
    assert PolyT.monomial(-1, 1).text() == "-t^1"
    assert PolyT.monomial(Fraction(-1, 2), 0).text() == "-1/2"
    assert PolyT.monomial(Fraction(2, 5), 3).text() == "2/5*t^3"


def test_json_round_trip():
    p = a(1) * a(2) * 3 - a(2) * a(2) * Fraction(1, 3)
    data = p.to_json()
    assert data == sorted(data)
    assert Polynomial.from_json(2, data) == p
    q = PolyT.monomial(Fraction(-2, 5), 1)
    assert q.to_json() == [[1, -2, 5]]
    assert PolyT.from_json(q.to_json()) == q
    assert PolyT.zero().to_json() == []
    assert PolyT.from_json([]) == PolyT.zero()


@pytest.mark.parametrize(
    "entry",
    [[[1, 0], 1.5, 1], [[1, 0], 1, 0.5], [[1.5, 0], 1, 1], [[1, 0], True, 1],
     [[1, 0], "1", 1], [["1", 0], 1, 1]],
    ids=["fractional-numerator", "fractional-denominator",
         "fractional-exponent", "bool", "string", "string-exponent"],
)
def test_from_json_rejects_non_integers(entry):
    with pytest.raises(ValueError):
        Polynomial.from_json(2, [entry])


def test_from_json_accepts_whole_floats():
    assert Polynomial.from_json(2, [[[1.0, 0], 4.0, 2.0]]) == a(1) * 2


def test_from_json_rejects_a_repeated_exponent_vector_or_power():
    with pytest.raises(ValueError, match=r"exponent vector \[1, 0\] appears"):
        Polynomial.from_json(2, [[[1, 0], 1, 1], [[0, 1], 2, 1],
                                 [[1.0, 0], 3, 1]])
    with pytest.raises(ValueError, match="3 terms are not a monomial"):
        PolyT.from_json([[2, 1, 1], [0, 1, 1], [2, 1, 1]])


@pytest.mark.parametrize(
    "data",
    [[[-1, 1, 1]], [[1, 1, 0]], [[1, 1, 1], [2, 1, 1]]],
    ids=["negative-power", "zero-denominator", "two-terms"],
)
def test_polyt_from_json_rejects_what_is_not_a_monomial(data):
    with pytest.raises(ValueError):
        PolyT.from_json(data)


def test_polyt_trim_and_degree():
    # a zero coefficient drops the power, so zero is one value
    assert PolyT.monomial(0, 3) == PolyT.zero()
    assert (PolyT.monomial(0, 3).c, PolyT.monomial(0, 3).k) == (0, 0)
    assert PolyT.monomial(Fraction(4, 2), 1).c == 2
    assert type(PolyT.monomial(Fraction(4, 2), 1).c) is int
    assert PolyT.zero().degree() == -1
    assert PolyT.monomial(1, 1).degree() == 1
    # the dense view the benchmark's tracer counts terms by
    assert PolyT.monomial(3, 2).coeffs == (0, 0, 3)
    assert PolyT.zero().coeffs == ()


def test_polyt_arithmetic_stays_monomial():
    t = PolyT.monomial(1, 1)
    assert t + t == PolyT.monomial(2, 1)
    assert t - t == PolyT.zero() == 0
    assert t + PolyT.zero() == t == PolyT.zero() + t
    assert 3 * t * t == PolyT.monomial(3, 2) == t * PolyT.monomial(3, 1)
    assert 1 - PolyT.one() == 0
    assert PolyT.one() + Fraction(1, 2) == Fraction(3, 2)
    assert -t == PolyT.monomial(-1, 1)
    assert t * 0 == PolyT.zero()
    with pytest.raises(ValueError, match=r"t\^1 and 1 do not add"):
        t + 1
    with pytest.raises(ValueError):
        PolyT.monomial(1, 2) - t


# -- property tests -------------------------------------------------------

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def polynomials(draw, rank, coefficients=coefficients):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, 2)) for _ in range(rank)
        )
        terms[exps] = draw(coefficients)
    return Polynomial(rank, terms)


@st.composite
def poly_triples(draw):
    rank = draw(st.integers(1, 4))
    return (
        draw(polynomials(rank)),
        draw(polynomials(rank)),
        draw(polynomials(rank)),
    )


def _part(p, degree):
    """The terms of ``p`` of total degree ``degree``."""
    return Polynomial(p.rank, {e: c for e, c in p.terms.items()
                               if sum(e) == degree})


@settings(max_examples=150, deadline=None)
@given(poly_triples())
def test_ring_laws(triple):
    p, q, r = triple
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=150, deadline=None)
@given(poly_triples())
def test_specialize_is_ring_map(triple):
    # on homogeneous polynomials: the top-degree part of p, and the part
    # of q of that same degree or of its own top degree
    p, q, _ = triple
    p = _part(p, p.degree())
    q_same, q_top = _part(q, p.degree()), _part(q, q.degree())
    assert specialize_to_t(p * q_top) == (
        specialize_to_t(p) * specialize_to_t(q_top)
    )
    assert specialize_to_t(p + q_same) == (
        specialize_to_t(p) + specialize_to_t(q_same)
    )


@settings(max_examples=150, deadline=None)
@given(poly_triples())
def test_division_inverts_multiplication(triple):
    p, q, _ = triple
    if q.is_zero():
        return
    assert divide_exact(p * q, q) == p


@st.composite
def linear_products(draw):
    rank = draw(st.integers(1, 4))
    integers = st.integers(-9, 9)
    p = draw(polynomials(rank, integers))
    coeffs = tuple(draw(integers) for _ in range(rank))
    return p, coeffs


@settings(max_examples=200, deadline=None)
@given(linear_products())
def test_times_linear_is_the_product_with_the_linear_form(case):
    p, coeffs = case
    got = p.times_linear(coeffs)
    assert got == p * Polynomial.linear_form(p.rank, coeffs)
    assert all(type(c) is int and c for c in got.terms.values())


def test_times_linear_cancels_and_keeps_rationals_canonical():
    p = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    got = p.times_linear((2, -2))  # (a1 + a2) / 2 times 2 (a1 - a2)
    assert got == a(1) * a(1) - a(2) * a(2)
    assert got.terms == {(2, 0): 1, (0, 2): -1}
    assert all(type(c) is int for c in got.terms.values())


def test_times_linear_shares_equal_exponent_vectors():
    # a1 * a2 reached as a1 * (a2) and as a2 * (a1) is one tuple
    left = a(2).times_linear((1, 0))
    right = a(1).times_linear((0, 1))
    (e1,), (e2,) = left.terms, right.terms
    assert e1 == (1, 1) and e1 is e2
    with pytest.raises(ValueError):
        left.times_linear((1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(poly_triples())
def test_product_of_homogeneous_is_homogeneous(triple):
    p, q, _ = triple
    dp, dq = p.degree(), q.degree()
    top_p, top_q = _part(p, dp), _part(q, dq)
    product = top_p * top_q
    if top_p.is_zero() or top_q.is_zero():
        assert product.is_zero()
    else:
        assert product.is_homogeneous(dp + dq)


# -- exact division against the Fraction-per-term reference ---------------


@contextmanager
def _within(seconds):
    # a division that stops removing its leading term loops for ever; fail
    # it instead of hanging the run
    def expire(signum, frame):
        raise TimeoutError(f"division still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(divide, num, den):
    """What ``divide(num, den)`` gives: ("quotient", terms with their
    coefficient types) or ("remainder", the same of the remainder)."""
    def typed(poly):
        return {e: (c, type(c)) for e, c in poly.terms.items()}

    try:
        with _within(5):
            return "quotient", typed(divide(num, den))
    except NotDivisible as exc:
        return "remainder", typed(exc.remainder)


@st.composite
def divisors(draw, rank):
    """A product of one to three nonzero linear forms with coefficients
    in -3..3, or any small nonzero polynomial."""
    if draw(st.booleans()):
        forms = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
        den = Polynomial.one(rank)
        for coeffs in draw(st.lists(forms.filter(any), min_size=1,
                                    max_size=3)):
            den = den * Polynomial.linear_form(rank, coeffs)
        return den
    return draw(polynomials(rank).filter(bool))


@st.composite
def division_cases(draw):
    rank = draw(st.integers(1, 4))
    integral = draw(st.booleans())
    p = draw(polynomials(rank, st.integers(-9, 9) if integral
                         else coefficients))
    return integral, p, draw(divisors(rank)), draw(polynomials(rank))


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_division_agrees_with_the_fraction_reference(case):
    integral, p, d, r = case
    product = p * d
    with _within(5):
        q = divide_exact(product, d)
    assert q == p == oracles.fraction_divide(product, d)
    if integral:
        assert all(type(c) is int for c in q.terms.values())
    # p * d + r: the same quotient or the same remainder, types included
    num = product + r
    assert (_outcome(divide_exact, num, d)
            == _outcome(oracles.fraction_divide, num, d))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_structure_table_divisions_agree_with_the_fraction_reference(
        label, monkeypatch):
    # every division the Chevalley recurrence makes, and the same
    # numerator over twice and three times the divisor, whose quotients
    # are rational where a coefficient is odd or not a multiple of 3
    divisions = []

    def compare(num, den):
        for k in (1, 2, 3):
            assert (_outcome(divide_exact, num, den * k)
                    == _outcome(oracles.fraction_divide, num, den * k))
        divisions.append(num)
        return divide_exact(num, den)

    monkeypatch.setattr(gkm, "divide_exact", compare)
    rows = list(structure_table(root_system_from_label(label)))
    assert divisions and rows
