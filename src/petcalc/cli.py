"""Command-line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 a
mathematical verification failed (positivity or localization-condition
violation), 2 usage error (or a ``--cache`` path that is, or lies under,
a regular file, after the output), 3 resource cap exceeded. Output bytes are
deterministic for a given job, independent of cache state.
"""

import os
import re
import sys
import warnings
from itertools import islice

from .gkm import (
    LocalizedClass,
    NonPolynomialResult,
    NotInSpan,
    PositivityViolation,
    billey_restriction,
    expand_in_schubert_basis,
    structure_constants,
    structure_table,
)
from .peterson import (
    all_subsets,
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
    RootSystem,
    _validate_cartan,
    element_from_one_line,
    element_from_word,
    is_type_a,
    root_system_from_label,
    weyl_enumerate,
    word_text,
)
from .verify import SUITES, Unsupported, run_suite

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    """A bad command line or input file: exit 2 under a usage banner."""


class JobConfig:
    """One parsed command line: the command, its root system, its output
    format and cache, and the command's own options in ``params``."""

    def __init__(self, command, root_system, type_label, cartan_path,
                 out_format, cache_dir, jobs, max_weyl, **params):
        if root_system and type_label and root_system != type_label:
            raise UsageError("positional root system and --type disagree")
        if jobs < 1:
            raise UsageError("--jobs must be at least 1")
        if max_weyl < 1:
            raise UsageError("--max-weyl must be at least 1")
        self.command = command
        self.root_label = root_system or type_label
        self.cartan_path = cartan_path
        self.out_format = out_format
        self.cache_dir = cache_dir
        self.max_weyl = max_weyl
        self.params = params


def _read_json(path, what):
    """The JSON document in the file ``path`` (stdin for None), or a
    UsageError ``cannot read <what>: ...``."""
    import json

    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        # ValueError: not JSON, or not UTF-8 text
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _resolve_root_system(config):
    if config.root_label and config.cartan_path:
        raise UsageError("give either a type label or --cartan, not both")
    try:
        if config.cartan_path:
            payload = _read_json(config.cartan_path, "Cartan file")
            if not isinstance(payload, dict) or "cartan" not in payload:
                raise UsageError(
                    f'{config.cartan_path} must be JSON of the form '
                    '{"cartan": [[2,-1],[-1,2]]}'
                )
            return RootSystem(payload["cartan"], max_weyl=config.max_weyl)
        if config.root_label:
            return root_system_from_label(config.root_label,
                                          max_weyl=config.max_weyl)
    except CartanError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError("specify a root system (label, --type or --cartan)")


def parse_element(rs, spec):
    """Weyl element from one-line notation (type A) or a reduced word."""
    spec = spec.strip()
    if spec in ("e", "id", "identity", ""):
        return rs.identity()
    tokens = [t for t in re.split(r"[\s,*]+", spec) if t]
    # a lone token is one-line notation when it can be: type A, with one
    # digit per letter; otherwise it is a word of one letter
    if (len(tokens) == 1 and tokens[0].isdigit() and is_type_a(rs)
            and len(tokens[0]) == rs.rank + 1):
        try:
            return element_from_one_line(rs, [int(ch) for ch in tokens[0]])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return _word_element(rs, tokens)


def _word_element(rs, tokens):
    letters = []
    for token in tokens:
        token = token.lower().lstrip("s")
        if not token.isdigit():
            raise UsageError(f"bad word letter {token!r}")
        letters.append(int(token))
    if any(not 1 <= i <= rs.rank for i in letters):
        raise UsageError(
            f"word letters must lie in 1..{rs.rank}"
        )
    return element_from_word(rs, letters)


def parse_subset(rs, spec):
    """Subset of simple indices such as "1,3", "{1,3}", "" or "{}"."""
    spec = spec.strip()
    inner = spec[1:-1] if spec[:1] == "{" and spec[-1:] == "}" else spec
    try:
        members = frozenset(int(tok) for tok in inner.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad subset {spec!r}: {exc}") from exc
    if not members <= frozenset(range(1, rs.rank + 1)):
        raise UsageError(
            f"subset {spec!r} is not within 1..{rs.rank}"
        )
    return members


def _emit_csv(header, rows):
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    rows = iter(rows)
    # the header waits for the first row: a stream that fails before it
    # writes nothing
    writer.writerows([header, *islice(rows, 1)])
    writer.writerows(rows)


def _emit_json(payload):
    import json

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
        raise UsageError(
            'class JSON needs "degree" and "values" fields'
        )
    if payload.get("type") and rs.type_label and payload["type"] != rs.type_label:
        raise UsageError(
            f'class JSON is for {payload["type"]}, not {rs.type_label}'
        )
    try:
        if "cartan" in payload:
            if _validate_cartan(payload["cartan"]) != rs.cartan:
                raise UsageError(
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
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed class JSON: {exc}") from exc


# -- commands ------------------------------------------------------------


class _Option:
    """One option of a command: its ``--flag``, its help line, the
    JobConfig keyword it fills (``dest``, the flag's name by default) and
    the checks on its value."""

    def __init__(self, flag, dest=None, default=None, choices=None,
                 type=str, required=False, help=""):
        self.flag = flag
        self.help = help
        self.dest = dest or flag.lstrip("-").replace("-", "_")
        self.default = default
        self.choices = choices
        self.type = type
        self.required = required

    def read(self, value):
        """``value`` converted by ``type`` and checked against ``choices``,
        or a UsageError."""
        try:
            value = self.type(value)
        except ValueError:
            raise UsageError(f"argument {self.flag}: invalid "
                             f"{self.type.__name__} value: {value!r}") from None
        if self.choices and value not in self.choices:
            raise UsageError(
                f"argument {self.flag}: invalid choice: {value!r} (choose "
                f"from {', '.join(map(repr, self.choices))})"
            )
        return value

    def help_line(self):
        """The flag, what it takes, the help, and the default or whether
        it is required."""
        takes = ("{" + ",".join(self.choices) + "}" if self.choices
                 else "INTEGER" if self.type is int else "TEXT")
        note = (" [required]" if self.required
                else f" [default: {self.default}]" if self.default is not None
                else "")
        return f"{self.flag} {takes}", self.help + note


_ROOT_SYSTEM_HELP = "Root system label such as A3 or B2."

_COMMON_OPTIONS = (
    _Option("--type", dest="type_label", help=_ROOT_SYSTEM_HELP),
    _Option("--cartan", dest="cartan_path",
            help='JSON file {"cartan": [[...]]} with a Cartan matrix.'),
    _Option("--out", dest="out_format", choices=("text", "csv", "json"),
            default="text", help="Output format."),
    _Option("--cache", dest="cache_dir",
            help="Directory for the restriction disk cache (no effect on "
                 "restrict, mult, peterson-mult, pullback and table --kind "
                 "peterson, which need few or no whole Billey rows)."),
    _Option("--jobs", type=int, default=1,
            help="Accepted for compatibility; has no effect."),
    _Option("--max-weyl", type=int, default=DEFAULT_MAX_WEYL,
            help="Abort if a command walks more Weyl group elements than "
                 "this (mult walks only those of length at most l(u)+l(v), "
                 "restrict only the prefixes of its class)."),
)


_COMMANDS = {}


def _command(name, *options):
    """Register ``body(config, rs)`` as the command ``name``.

    The command takes the common options followed by ``options``, and
    its help is the body's docstring. This table both reads the command
    line (``parse_job``, ``_help``) and dispatches the parsed job.
    """

    def register(body):
        _COMMANDS[name] = body, _COMMON_OPTIONS + options
        return body

    return register


_COXETER_ORDER = _Option(
    "--coxeter-order", default="increasing",
    choices=("increasing", "decreasing"),
    help="Order in which Coxeter elements multiply their letters.",
)


@_command(
    "restrict",
    _Option("--class", dest="class_spec", required=True,
            help="Schubert class index (one-line such as 231, or a word)."),
    _Option("--at", dest="at_spec", required=True,
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
    _Option("--u", dest="u_spec", required=True, help="First Schubert class."),
    _Option("--v", dest="v_spec", required=True, help="Second Schubert class."),
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
    _Option("--values", dest="class_file", required=True,
            help="JSON file with the class (or - for stdin)."),
)
def _cmd_expand(config, rs):
    """Expand a localized class in the Schubert basis."""
    source = config.params["class_file"]
    payload = _read_json(None if source == "-" else source, "class JSON")
    coeffs = expand_in_schubert_basis(localized_class_from_json(rs, payload))
    _emit_expansion(config, {}, "w", word_text,
                    sorted(coeffs.items(), key=lambda kv: kv[0].sort_key()))
    return 0


@_command(
    "peterson-mult",
    _Option("--I", dest="i_spec", required=True,
            help='First subset of simple roots, e.g. "1,2" ("" for empty).'),
    _Option("--J", dest="j_spec", required=True, help="Second subset."),
    _COXETER_ORDER,
)
def _cmd_peterson_mult(config, rs):
    """Structure constants of a product of Peterson basis classes."""
    members_i = parse_subset(rs, config.params["i_spec"])
    members_j = parse_subset(rs, config.params["j_spec"])
    coeffs = peterson_structure_constants(
        rs, members_i, members_j, config.params["coxeter_order"]
    )
    _emit_expansion(
        config, {"I": subset_text(members_i), "J": subset_text(members_j)},
        "K", subset_text, coeffs.items(),
    )
    return 0


@_command(
    "pullback",
    _Option("--w", dest="w_spec", required=True,
            help="Schubert class to pull back."),
    _COXETER_ORDER,
)
def _cmd_pullback(config, rs):
    """Expand the pullback of a Schubert class in the Peterson basis."""
    w = parse_element(rs, config.params["w_spec"])
    coeffs = pullback_expansion(rs, w, config.params["coxeter_order"])
    _emit_expansion(config, {"w": word_text(w)}, "K", subset_text,
                    coeffs.items())
    return 0


@_command(
    "table",
    _Option("--kind", choices=("schubert", "peterson"),
            default="schubert", help="Which structure-constant table."),
    _COXETER_ORDER,
)
def _cmd_table(config, rs):
    """Full structure-constant table."""
    kind = config.params["kind"]
    # each key is rendered once, however many rows name it
    if kind == "schubert":
        columns = ("u", "v", "w")
        table = structure_table(rs)
        label = {x: word_text(x) for x in weyl_enumerate(rs)}
    else:
        columns = ("I", "J", "K")
        label = {m: subset_text(m) for m in all_subsets(rs)}
        table = peterson_table(rs, config.params["coxeter_order"])
    if config.out_format == "json":
        _emit_json({"kind": kind, "entries": [
            {**dict(zip(columns, (label[a], label[b], label[c]))),
             "coefficient": poly.to_json()}
            for a, b, c, poly in table
        ]})
    else:  # text and csv rows are written as the table yields them
        _emit_rows(config, [*columns, "coefficient"],
                   ([label[a], label[b], label[c], poly.text()]
                    for a, b, c, poly in table), None)
    return 0


@_command(
    "verify",
    _Option("--suite", required=True, choices=tuple(SUITES),
            help="Which verification sweep to run."),
    _COXETER_ORDER,
)
def _cmd_verify(config, rs):
    """Run a verification sweep; exits 1 if any check fails."""
    suite = config.params["suite"]
    try:
        checks = run_suite(rs, suite, config.params["coxeter_order"])
    except Unsupported as exc:
        raise UsageError(str(exc)) from exc
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
            print(f"{check.name}: {failure}", file=sys.stderr)
    return 0 if ok else EXIT_VERIFY_FAILED


def _uses_disk_cache(config):
    """False for the Peterson jobs, which read no Billey row; for
    ``restrict``, which walks only the prefixes of its class and neither
    reads nor fills a whole row; and for ``mult``, whose rows on the short
    fixed points cost less to compute than to load: the disk cache would
    be wasted work for them."""
    if config.command == "table":
        return config.params["kind"] == "schubert"
    return config.command not in ("restrict", "mult", "peterson-mult",
                                  "pullback")


def run(config):
    """Execute a job: resolve the root system, warm and persist the cache,
    dispatch, and map resource exhaustion to exit code 3, a maths error
    (a class outside the Schubert span, a non-polynomial integral) to one
    ``error:`` line and exit code 1, positivity violations (reported
    after the output) to exit code 1, and a ``--cache`` path that is, or
    lies under, a regular file to one ``cache:`` line and exit code 2."""
    try:
        rs = _resolve_root_system(config)
        cache = None
        if config.cache_dir and _uses_disk_cache(config):
            from .cache import BilleyDiskCache

            cache = BilleyDiskCache(config.cache_dir)
            cache.load(rs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PositivityViolation)
            try:
                code = _COMMANDS[config.command][0](config, rs)
            except (NotInSpan, NonPolynomialResult) as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = EXIT_VERIFY_FAILED
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    for warning in caught:
        if issubclass(warning.category, PositivityViolation):
            print(f"positivity violation: {warning.message}",
                  file=sys.stderr)
            code = code or EXIT_VERIFY_FAILED
        else:
            warnings.showwarning(warning.message, warning.category,
                                 warning.filename, warning.lineno)
    if cache:
        try:
            cache.save(rs)
        except (FileExistsError, NotADirectoryError) as exc:
            # the --cache path is, or lies under, a regular file
            print(f"cache: cannot write {config.cache_dir}: "
                  f"{exc.strerror}", file=sys.stderr)
            code = code or EXIT_USAGE
    return code


_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(arg):
    """True when ``arg`` reads as an option rather than a value: it starts
    with a dash, and is neither "-" (stdin), a negative number nor text
    with a space (such as the word "-1 2")."""
    return (arg.startswith("-") and arg != "-" and " " not in arg
            and not _NEGATIVE_NUMBER.fullmatch(arg))


def parse_job(command, args):
    """The JobConfig of ``command`` run with the arguments ``args``.

    Reads ``args`` against the command's registry entry: exact flags,
    each as ``--flag value`` or ``--flag=value`` (a repeated flag keeps
    its last value), and at most one positional root system, anywhere
    among them. A flag without its value, an unknown option or extra
    argument, a value that fails its type or choices, and a missing
    required option raise UsageError.
    """
    options = _COMMANDS[command][1]
    by_flag = {option.flag: option for option in options}
    values = {option.dest: option.default for option in options}
    positionals, extra = [], []
    args = iter(args)
    for arg in args:
        flag, given, value = arg.partition("=")
        option = by_flag.get(flag)
        if option is None:
            (extra if _is_flag(arg) else positionals).append(arg)
            continue
        if not given:
            value = next(args, None)
            if value is None or _is_flag(value):
                raise UsageError(f"argument {flag}: expected one argument")
        values[option.dest] = option.read(value)
    extra += positionals[1:]
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    missing = [option.flag for option in options
               if option.required and values[option.dest] is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    return JobConfig(command, positionals[0] if positionals else None,
                     **values)


def _usage(prog, command):
    if command is None:
        return f"{prog} [OPTIONS] COMMAND [ARGS]..."
    return f"{prog} {command} [OPTIONS] [ROOT_SYSTEM]"


def _help(prog, command):
    """The ``--help`` text of the group (``command`` None), which lists
    the commands, or of one command, which lists its options."""
    help_entry = ("-h, --help", "Show this message and exit.")
    if command is None:
        about = main.__doc__.split("\n")[0]
        sections = {"Options": [help_entry], "Commands": [
            (name, body.__doc__.split("\n")[0])
            for name, (body, _) in _COMMANDS.items()
        ]}
    else:
        body, options = _COMMANDS[command]
        about = body.__doc__
        sections = {"Options": [
            ("ROOT_SYSTEM", _ROOT_SYSTEM_HELP),
            *(option.help_line() for option in options), help_entry,
        ]}
    width = 2 + max(len(name) for entries in sections.values()
                    for name, _ in entries)
    lines = [f"Usage: {_usage(prog, command)}", "", f"  {about}"]
    for heading, entries in sections.items():
        lines += ["", f"{heading}:"]
        lines += [f"  {name:<{width}}{text}" for name, text in entries]
    return "\n".join(lines) + "\n"


def _discard_stdout():
    """Send the unflushed rest of stdout nowhere once its reader has left
    (``| head``), so that a later flush fails no second time."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _usage_error(prog, command, message):
    """Exit 2 with a usage line, a pointer to ``--help`` and one
    ``Error:`` line on stderr."""
    named = prog if command is None else f"{prog} {command}"
    sys.stderr.write(f"Usage: {_usage(prog, command)}\nTry '{named} --help' "
                     f"for help.\n\nError: {message}\n")
    sys.exit(EXIT_USAGE)


def _program_name():
    """``python -m petcalc.cli`` when run that way, else the script name."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    return f"python -m {spec.name}" if spec else os.path.basename(sys.argv[0])


def main(args=None, prog_name=None, standalone_mode=True):
    """Exact equivariant Schubert and Peterson Schubert calculus.

    Parses ``args`` (default ``sys.argv[1:]``) with ``parse_job``, runs
    the job and exits with its code; a usage error exits 2, and ``-h`` or
    ``--help`` anywhere prints the help and exits 0. ``main.main`` is
    this same function, the entry that in-process drivers call
    (``standalone_mode`` is accepted, and true is the only behaviour). A
    process runs it through ``process_main``.
    """
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or _program_name()
    command = args[0] if args and args[0] in _COMMANDS else None
    if "-h" in args or "--help" in args:
        sys.stdout.write(_help(prog, command))
        sys.exit(0)
    if command is None:
        _usage_error(prog, None, (
            f"argument COMMAND: invalid choice: {args[0]!r} (choose from "
            f"{', '.join(map(repr, _COMMANDS))})" if args
            else "the following arguments are required: COMMAND"
        ))
    try:
        code = run(parse_job(command, args[1:]))
    except UsageError as exc:
        _usage_error(prog, command, exc)
    except BrokenPipeError:
        _discard_stdout()
        code = 1
    sys.exit(code)


main.main = main


def process_main():
    """Run ``main`` as a whole process and end it without interpreter
    teardown: the one way out of ``python -m petcalc.cli`` and of the
    ``petcalc`` script.

    Nothing here needs teardown (no atexit callback, finalizer or
    thread; ``run`` writes and renames the disk cache itself), so once
    stdout and then stderr are flushed the process leaves through
    ``os._exit`` and skips unloading every module. A reader that left
    before the final flush exits 1 quietly, as in ``main``. Any other
    exception than SystemExit takes the normal path: a traceback, then
    teardown.
    """
    try:
        main()
    except SystemExit as exc:
        code = exc.code or 0
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    process_main()
