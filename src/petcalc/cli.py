"""Command-line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 a
mathematical verification failed (positivity or localization-condition
violation), 2 usage error, 3 resource cap exceeded. Output bytes are
deterministic for a given job, independent of cache state.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from itertools import islice

import click

from .cache import BilleyDiskCache
from .gkm import (
    LocalizedClass,
    NotInSpan,
    PositivityViolation,
    billey_restriction,
    expand_in_schubert_basis,
    structure_constants,
    structure_table,
)
from .peterson import (
    peterson_structure_constants,
    peterson_table,
    pullback_expansion,
    subset_text,
)
from .poly import Polynomial, whole_number
from .rootsys import (
    DEFAULT_MAX_WEYL,
    CartanError,
    ResourceCapError,
    _validate_cartan,
    build_root_system,
    element_from_one_line,
    element_from_word,
    is_type_a,
    root_system_from_label,
    word_text,
)
from .verify import SUITES, Unsupported, run_suite

EXIT_VERIFY_FAILED = 1
EXIT_RESOURCE = 3


@dataclass
class JobConfig:
    command: str
    root_label: str | None = None
    cartan_path: str | None = None
    out_format: str = "text"
    cache_dir: str | None = None
    max_weyl: int = DEFAULT_MAX_WEYL
    params: dict = field(default_factory=dict)


def _resolve_root_system(config):
    if config.root_label and config.cartan_path:
        raise click.UsageError("give either a type label or --cartan, not both")
    try:
        if config.cartan_path:
            with open(config.cartan_path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or "cartan" not in payload:
                raise click.UsageError(
                    f'{config.cartan_path} must be JSON of the form '
                    '{"cartan": [[2,-1],[-1,2]]}'
                )
            return build_root_system(payload["cartan"],
                                     max_weyl=config.max_weyl)
        if config.root_label:
            return root_system_from_label(config.root_label,
                                          max_weyl=config.max_weyl)
    except CartanError as exc:
        raise click.UsageError(str(exc)) from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read Cartan file: {exc}") from exc
    raise click.UsageError("specify a root system (label, --type or --cartan)")


def parse_element(rs, spec):
    """Weyl element from one-line notation (type A) or a reduced word."""
    spec = spec.strip()
    if spec in ("e", "id", "identity", ""):
        return rs.identity()
    tokens = [t for t in re.split(r"[\s,*]+", spec) if t]
    if len(tokens) == 1 and tokens[0].isdigit():
        token = tokens[0]
        if len(token) == 1:
            return _word_element(rs, [token])
        if is_type_a(rs) and len(token) == rs.rank + 1:
            try:
                return element_from_one_line(rs, [int(ch) for ch in token])
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
        raise click.UsageError(
            f"cannot parse element {spec!r}: use one-line notation with "
            f"{rs.rank + 1} digits (type A) or a word like 's1 s2 s1'"
        )
    return _word_element(rs, tokens)


def _word_element(rs, tokens):
    letters = []
    for token in tokens:
        token = token.lower().lstrip("s")
        if not token.isdigit():
            raise click.UsageError(f"bad word letter {token!r}")
        letters.append(int(token))
    if any(not 1 <= i <= rs.rank for i in letters):
        raise click.UsageError(
            f"word letters must lie in 1..{rs.rank}"
        )
    return element_from_word(rs, letters)


def parse_subset(rs, spec):
    spec = spec.strip()
    if spec in ("", "{}"):
        return frozenset()
    try:
        members = frozenset(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise click.UsageError(f"bad subset {spec!r}: {exc}") from exc
    if not members <= frozenset(range(1, rs.rank + 1)):
        raise click.UsageError(
            f"subset {spec!r} is not within 1..{rs.rank}"
        )
    return members


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(payload):
    # the same bytes as json.dumps, without holding the whole text
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    for batch in iter(lambda: "".join(islice(chunks, 4096)), ""):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _emit_rows(config, header, rows, json_payload):
    # callers build json_payload only for --out json, None otherwise
    if config.out_format == "csv":
        _emit_csv(header, rows)
    elif config.out_format == "json":
        _emit_json(json_payload)
    else:
        for row in rows:
            sys.stdout.write(" ".join(str(cell) for cell in row) + "\n")


def _emit_expansion(config, fixed_labels, key_column, label, ordered_pairs):
    """Emit coefficients (key, poly) in order: a row per pair led by the
    ``fixed_labels`` values, or for JSON those labels plus a
    ``"coefficients"`` object keyed by ``label(key)``."""
    fixed = list(fixed_labels.values())
    rows = [[*fixed, label(k), poly.text()] for k, poly in ordered_pairs]
    payload = {
        **fixed_labels,
        "coefficients": {label(k): poly.to_json() for k, poly in ordered_pairs},
    } if config.out_format == "json" else None
    _emit_rows(config, [*fixed_labels, key_column, "coefficient"], rows,
               payload)


def localized_class_from_json(rs, payload):
    if not isinstance(payload, dict) or not {"values", "degree"} <= set(payload):
        raise click.UsageError(
            'class JSON needs "degree" and "values" fields'
        )
    if payload.get("type") and rs.type_label and payload["type"] != rs.type_label:
        raise click.UsageError(
            f'class JSON is for {payload["type"]}, not {rs.type_label}'
        )
    try:
        if "cartan" in payload:
            if _validate_cartan(payload["cartan"]) != rs.cartan:
                raise click.UsageError(
                    "class JSON carries a different Cartan matrix"
                )
        values = {}
        for word, data in payload["values"].items():
            w = parse_element(rs, word)
            if w in values:
                raise ValueError(
                    f"{word!r} names the fixed point {word_text(w)} "
                    "a second time"
                )
            values[w] = Polynomial.from_json(rs.rank, data)
        return LocalizedClass(rs, values, whole_number(payload["degree"]))
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"malformed class JSON: {exc}") from exc


# -- commands ------------------------------------------------------------


@click.group()
def main():
    """Exact equivariant Schubert and Peterson Schubert calculus."""


def _common_options(fn):
    decorators = [
        click.argument("root_system", required=False),
        click.option("--type", "type_label", default=None,
                     help="Root system label such as A3 or B2."),
        click.option("--cartan", "cartan_path", default=None,
                     help='JSON file {"cartan": [[...]]} with a Cartan matrix.'),
        click.option("--out", "out_format",
                     type=click.Choice(["text", "csv", "json"]),
                     default="text", help="Output format."),
        click.option("--cache", "cache_dir", default=None,
                     help="Directory for the restriction disk cache "
                          "(no effect on mult, peterson-mult, pullback and "
                          "table --kind peterson)."),
        click.option("--jobs", type=int, default=1,
                     help="Accepted for compatibility; has no effect."),
        click.option("--max-weyl", type=int, default=DEFAULT_MAX_WEYL,
                     help="Abort if a command walks more Weyl group "
                          "elements than this (mult walks only those of "
                          "length at most l(u)+l(v))."),
    ]
    for decorator in reversed(decorators):
        fn = decorator(fn)
    return fn


def _make_config(command, root_system, type_label, cartan_path, out_format,
                 cache_dir, jobs, max_weyl, **params):
    if root_system and type_label and root_system != type_label:
        raise click.UsageError(
            "positional root system and --type disagree"
        )
    if jobs < 1:
        raise click.UsageError("--jobs must be at least 1")
    if max_weyl < 1:
        raise click.UsageError("--max-weyl must be at least 1")
    return JobConfig(
        command=command,
        root_label=root_system or type_label,
        cartan_path=cartan_path,
        out_format=out_format,
        cache_dir=cache_dir,
        max_weyl=max_weyl,
        params=params,
    )


_COMMANDS = {}


def _command(name, *options):
    """Register ``body(config, rs)`` as the command ``name``.

    The command takes the common options followed by ``options``, and
    its help is the body's docstring.
    """

    def register(body):
        def callback(**params):
            sys.exit(run(_make_config(name, **params)))

        callback.__doc__ = body.__doc__
        for option in reversed(options):
            callback = option(callback)
        main.command(name)(_common_options(callback))
        _COMMANDS[name] = body
        return body

    return register


_COXETER_ORDER = click.option(
    "--coxeter-order", default="increasing",
    type=click.Choice(["increasing", "decreasing"]),
    help="Order in which Coxeter elements multiply their letters.",
)


@_command(
    "restrict",
    click.option("--class", "class_spec", required=True,
                 help="Schubert class index (one-line such as 231, or a word)."),
    click.option("--at", "at_spec", required=True,
                 help="Fixed point at which to restrict."),
)
def _cmd_restrict(config, rs):
    """Restriction of a Schubert class at a fixed point."""
    v = parse_element(rs, config.params["class_spec"])
    w = parse_element(rs, config.params["at_spec"])
    poly = billey_restriction(rs, v, w)
    if config.out_format == "text":
        sys.stdout.write(poly.text() + "\n")
    else:
        _emit_rows(
            config,
            ["v", "w", "restriction"],
            [[word_text(v), word_text(w), poly.text()]],
            {
                "v": word_text(v),
                "w": word_text(w),
                "restriction": poly.to_json(),
                "restriction_text": poly.text(),
            } if config.out_format == "json" else None,
        )
    return 0


@_command(
    "mult",
    click.option("--u", "u_spec", required=True, help="First Schubert class."),
    click.option("--v", "v_spec", required=True, help="Second Schubert class."),
)
def _cmd_mult(config, rs):
    """Structure constants of a product of two Schubert classes."""
    u = parse_element(rs, config.params["u_spec"])
    v = parse_element(rs, config.params["v_spec"])
    coeffs = structure_constants(rs, u, v)
    ordered = sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())
    _emit_expansion(config, {"u": word_text(u), "v": word_text(v)}, "w",
                    word_text, ordered)
    return 0


@_command(
    "expand",
    click.option("--values", "class_file", required=True,
                 help="JSON file with the class (or - for stdin)."),
)
def _cmd_expand(config, rs):
    """Expand a localized class in the Schubert basis."""
    source = config.params["class_file"]
    try:
        if source == "-":
            payload = json.load(sys.stdin)
        else:
            with open(source, encoding="utf-8") as handle:
                payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read class JSON: {exc}") from exc
    cls = localized_class_from_json(rs, payload)
    try:
        coeffs = expand_in_schubert_basis(cls)
    except NotInSpan as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VERIFY_FAILED
    _emit_expansion(config, {}, "w", word_text,
                    sorted(coeffs.items(), key=lambda kv: kv[0].sort_key()))
    return 0


@_command(
    "peterson-mult",
    click.option("--I", "i_spec", required=True,
                 help='First subset of simple roots, e.g. "1,2" ("" for empty).'),
    click.option("--J", "j_spec", required=True, help="Second subset."),
    _COXETER_ORDER,
)
def _cmd_peterson_mult(config, rs):
    """Structure constants of a product of Peterson basis classes."""
    members_i = parse_subset(rs, config.params["i_spec"])
    members_j = parse_subset(rs, config.params["j_spec"])
    order = config.params.get("coxeter_order", "increasing")
    expansion = peterson_structure_constants(rs, members_i, members_j, order)
    _emit_expansion(
        config, {"I": subset_text(members_i), "J": subset_text(members_j)},
        "K", subset_text,
        [(k, expansion.coeff(k)) for k in expansion.support()],
    )
    return 0


@_command(
    "pullback",
    click.option("--w", "w_spec", required=True,
                 help="Schubert class to pull back."),
    _COXETER_ORDER,
)
def _cmd_pullback(config, rs):
    """Expand the pullback of a Schubert class in the Peterson basis."""
    w = parse_element(rs, config.params["w_spec"])
    order = config.params.get("coxeter_order", "increasing")
    expansion = pullback_expansion(rs, w, order)
    _emit_expansion(config, {"w": word_text(w)}, "K", subset_text,
                    [(k, expansion.coeff(k)) for k in expansion.support()])
    return 0


@_command(
    "table",
    click.option("--kind", type=click.Choice(["schubert", "peterson"]),
                 default="schubert", help="Which structure-constant table."),
    _COXETER_ORDER,
)
def _cmd_table(config, rs):
    """Full structure-constant table."""
    kind = config.params["kind"]
    if kind == "schubert":
        columns, label = ("u", "v", "w"), word_text
        table = structure_table(rs).rows()
    else:
        columns, label = ("I", "J", "K"), subset_text
        table = peterson_table(rs, config.params["coxeter_order"])
    as_json = config.out_format == "json"
    rows, entries = [], []
    for *keys, poly in table:
        labels = [label(key) for key in keys]
        if as_json:
            entries.append(
                {**dict(zip(columns, labels)), "coefficient": poly.to_json()}
            )
        else:
            rows.append(labels + [poly.text()])
    payload = {"kind": kind, "entries": entries}
    _emit_rows(config, [*columns, "coefficient"], rows, payload)
    return 0


@_command(
    "verify",
    click.option("--suite", required=True, type=click.Choice(list(SUITES)),
                 help="Which verification sweep to run."),
    _COXETER_ORDER,
)
def _cmd_verify(config, rs):
    """Run a verification sweep; exits 1 if any check fails."""
    suite = config.params["suite"]
    try:
        checks = run_suite(rs, suite, config.params["coxeter_order"])
    except Unsupported as exc:
        raise click.UsageError(str(exc)) from exc
    ok = all(not check.failures for check in checks)
    label = rs.type_label or "custom"
    if config.out_format == "json":
        _emit_json({"root_system": label, "suite": suite, "ok": ok,
                    "checks": [check.to_json() for check in checks]})
    elif config.out_format == "csv":
        _emit_csv(["check", "checked", "failures", "status"],
                  [[check.name, check.checked, len(check.failures),
                    check.status] for check in checks])
    else:
        for check in checks:
            if check.skipped:
                line = f"skip {check.name}: {check.skipped}"
            elif check.failures:
                line = (f"FAIL {check.name}: {len(check.failures)} of "
                        f"{check.checked} checks failed")
            else:
                line = f"ok   {check.name}: {check.checked} checks"
            sys.stdout.write(line + "\n")
        sys.stdout.write(f"{'ok' if ok else 'FAIL'} {label} suite={suite}\n")
    for check in checks:
        for failure in check.failures:
            click.echo(f"{check.name}: {failure}", err=True)
    return 0 if ok else EXIT_VERIFY_FAILED


def _uses_disk_cache(config):
    """False for the Peterson jobs, which read no Billey row, and for
    ``mult``, whose rows on the short fixed points cost less to compute
    than to load: the disk cache would be wasted work for them."""
    if config.command == "table":
        return config.params["kind"] == "schubert"
    return config.command not in ("mult", "peterson-mult", "pullback")


def run(config):
    """Execute a job: resolve the root system, warm and persist the cache,
    dispatch, and map resource exhaustion to exit code 3 and positivity
    violations (reported after the output) to exit code 1."""
    rs = _resolve_root_system(config)
    cache = None
    if config.cache_dir and _uses_disk_cache(config):
        cache = BilleyDiskCache(config.cache_dir)
        cache.load(rs)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PositivityViolation)
            code = _COMMANDS[config.command](config, rs)
    except ResourceCapError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        return EXIT_RESOURCE
    if cache:
        cache.save(rs)
    for warning in caught:
        if issubclass(warning.category, PositivityViolation):
            click.echo(f"positivity violation: {warning.message}", err=True)
            code = code or EXIT_VERIFY_FAILED
        else:
            warnings.showwarning(warning.message, warning.category,
                                 warning.filename, warning.lineno)
    return code


if __name__ == "__main__":
    main()
