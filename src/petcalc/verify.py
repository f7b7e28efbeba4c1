"""Verification sweeps over the positivity claims and their certificates.

Each sweep checks one family of certificates over a whole root system
and returns one ``Check``. ``SUITES`` names the sweeps each suite runs,
in order; ``run_suite`` runs one suite.
"""

from .gkm import (
    billey_row,
    forget_to_ordinary,
    gkm_verify,
    schubert_class,
    structure_table,
)
from .peterson import (
    _solve_pairs,
    all_subsets,
    cross_validate,
    flag_consistency_report,
    pullback_expansion,
    subset_text,
)
from .poly import Polynomial, is_graham_positive
from .rootsys import bruhat_leq, is_type_a, reduced_words, weyl_enumerate, word_text

_HEAVY_SWEEP_LIMIT = 48  # Weyl group size above which the full table is skipped
_CONSISTENCY_LIMIT = 130  # covers A4; the sweep squares the subset lattice


class Check:
    """Outcome of one sweep: how many certificates it checked, a line per
    failure, and the reason it did not run (None if it ran)."""

    def __init__(self, name, checked=0, failures=None, skipped=None):
        self.name = name
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.skipped = skipped

    @property
    def status(self):
        if self.skipped:
            return "skipped"
        return "fail" if self.failures else "pass"

    def to_json(self):
        payload = {"name": self.name, "checked": self.checked,
                   "failures": list(self.failures)}
        if self.skipped is not None:
            payload["skipped"] = self.skipped
        return payload


class Unsupported(Exception):
    """Sweep ``name`` cannot run on this root system. Within a suite of
    several sweeps it is skipped with ``reason``; as the whole suite it
    is an error whose message is ``alone`` (default ``reason``)."""

    def __init__(self, name, reason, alone=None):
        super().__init__(alone or reason)
        self.name, self.reason = name, reason


def _restriction_positivity(rs, elements, coxeter_order):
    zero = Polynomial.zero(rs.rank)
    check = Check("restriction-positivity")
    for w in elements:
        row = billey_row(rs, w)
        for v in elements:
            check.checked += 1
            if not is_graham_positive(row.get(v, zero)):
                check.failures.append(
                    f"restriction of {word_text(v)} at {word_text(w)}"
                )
    return check


def _structure(rs, elements, coxeter_order):
    if len(elements) > _HEAVY_SWEEP_LIMIT:
        raise Unsupported(
            "structure-constant-positivity",
            f"Weyl group has {len(elements)} elements; run 'table' "
            "directly for the full sweep",
        )
    rows = list(structure_table(rs))
    check = Check("structure-constant-positivity")
    failures = check.failures
    for u, v, w, poly in rows:
        check.checked += 1
        problems = []
        if not is_graham_positive(poly):
            problems.append(f"negative coefficient {poly.text()}")
        if not poly.is_homogeneous(u.length + v.length - w.length):
            problems.append(f"wrong degree {poly.text()}")
        if not (bruhat_leq(u, w) and bruhat_leq(v, w)):
            problems.append("support outside the Bruhat interval")
        if problems:  # the row's label is built only when it fails
            label = f"({word_text(u)}, {word_text(v)}, {word_text(w)})"
            failures.extend(f"{label}: {problem}" for problem in problems)
    try:
        if any(c < 0 for c in forget_to_ordinary(rows).values()):
            failures.append("a degree-zero constant is negative")
    except ValueError as exc:
        failures.append(str(exc))
    return check


def _peterson(rs, elements, coxeter_order):
    subsets = all_subsets(rs)
    check = Check("peterson-positivity")
    failures = check.failures
    expansions = {}
    pairs = ((i, j) for i in subsets for j in subsets)  # both orders
    for members_i, members_j, coeffs in _solve_pairs(rs, pairs, coxeter_order):
        expansions[(members_i, members_j)] = coeffs
        label_ij = f"({{{subset_text(members_i)}}}, {{{subset_text(members_j)}}})"
        for members_k, poly in coeffs.items():
            check.checked += 1
            label = f"{label_ij} -> {{{subset_text(members_k)}}}"
            if poly.c < 0:
                failures.append(f"{label}: negative {poly.text()}")
            expected = len(members_i) + len(members_j) - len(members_k)
            if poly.degree() != expected:
                failures.append(f"{label}: degree is not {expected}")
            if not members_i | members_j <= members_k:
                failures.append(f"{label}: support misses the union")
            if len(members_k) > len(members_i) + len(members_j):
                failures.append(f"{label}: index larger than the degrees allow")
    for (members_i, members_j), coeffs in expansions.items():
        if coeffs != expansions[(members_j, members_i)]:
            failures.append(
                f"asymmetric constants for {{{subset_text(members_i)}}}, "
                f"{{{subset_text(members_j)}}}"
            )
    for w in elements:
        for members_k, poly in pullback_expansion(rs, w, coxeter_order).items():
            check.checked += 1
            if poly.c < 0:  # a PolyT is a monomial by construction
                failures.append(
                    f"pullback of {word_text(w)} at "
                    f"{{{subset_text(members_k)}}}: {poly.text()}"
                )
    return check


def _gkm(rs, elements, coxeter_order):
    for w in elements:  # fill whole rows, so no class walks W again
        billey_row(rs, w)
    failures = [
        f"class of {word_text(v)}"
        for v in elements
        if not gkm_verify(schubert_class(rs, v))
    ]
    return Check("gkm-divisibility", len(elements), failures)


def _billey_words(rs, elements, coxeter_order):
    """Billey's sum along each reduced word of w (the first two only once
    W has more than 24 elements) agrees with the memoised row at w."""
    check = Check("billey-word-independence")
    for w in elements:
        words = reduced_words(w)[: None if len(elements) <= 24 else 2]
        reference = billey_row(rs, w)
        rows = [(word, billey_row(rs, w, word)) for word in words]
        for v in elements:
            check.checked += 1
            check.failures.extend(
                f"{word_text(v)} at {word_text(w)} via {word}"
                for word, row in rows
                if row.get(v) != reference.get(v)
            )
    return check


def _closed_form(rs, elements, coxeter_order):
    if not is_type_a(rs):
        raise Unsupported("closed-form-cross-validation",
                          "the closed form applies to type A only",
                          "the closed-form suite needs a type A system")
    return Check("closed-form-cross-validation",
                 *cross_validate(rs, coxeter_order))


def _consistency(rs, elements, coxeter_order):
    if len(elements) > _CONSISTENCY_LIMIT:
        raise Unsupported(
            "flag-variety-consistency",
            f"Weyl group has {len(elements)} elements",
            f"the consistency sweep multiplies Schubert classes over all "
            f"of W; {len(elements)} elements is beyond the supported size",
        )
    return Check("flag-variety-consistency",
                 *flag_consistency_report(rs, coxeter_order))


SUITES = {
    "positivity": (_restriction_positivity, _structure, _peterson),
    "gkm": (_gkm,),
    "billey": (_billey_words,),
    "closed-form": (_closed_form,),
    "consistency": (_consistency,),
}
SUITES["all"] = sum(SUITES.values(), ())


def run_suite(rs, suite, coxeter_order="increasing"):
    """Run the sweeps of ``suite`` in order and return their ``Check``s.

    W is enumerated first, so a Weyl group over the root system's cap
    raises ResourceCapError before any sweep runs. A sweep that cannot
    run on rs is a skipped check within a suite of several sweeps; when
    it is the whole suite, its ``Unsupported`` propagates.
    """
    elements = weyl_enumerate(rs)
    sweeps = SUITES[suite]
    checks = []
    for sweep in sweeps:
        try:
            checks.append(sweep(rs, elements, coxeter_order))
        except Unsupported as exc:
            if len(sweeps) == 1:
                raise
            checks.append(Check(exc.name, skipped=exc.reason))
    return checks
