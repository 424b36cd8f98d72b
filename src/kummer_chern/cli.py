"""Command-line interface.

compute, hilbert and genus format their numbers once and render them as a
table, JSON records or CSV rows.  A compute JSON record carries the n > 8
"advisories" that its table prints, when there are any.  Each handler
returns (text, exit code); only ``main`` and its ``_run`` write the text and
map errors to codes.

The command line is read from one table, COMMANDS: each subcommand's
options with their converters and defaults.  Options read "--opt value" or
"--opt=value", spelled out in full; -h or --help prints the options.  The
parser is this module's own, so a cold start imports no argparse, and json
and csv are imported only when their format is printed.

Exit codes: 0 success, 1 verification mismatch or a failed internal check
(one "check failed:" line on stderr; the Hilbert Todd and Euler checks are
the library's), 2 invalid configuration (every invalid argument is a usage
error, the usage and one "kummer-chern <command>: error:" line on stderr;
an --out file that cannot be opened is one line; both come before any
computation),
3 genericity failure, from verify and hilbert only (at their --weights a tangent
weight of a localized fixed point vanishes; see localization.is_generic).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Sequence

from .assembly import (
    KummerResult,
    hilbert_chern_numbers,
    kummer_chern_numbers,
    kummer_genus_series,
)
from .localization import (
    SURFACE_NAMES,
    CheckError,
    GenericityError,
    find_generic_model,
    fixed_points,
)
from .reference import REFERENCE_N_MAX, reference_for
from .symfun import (
    GENUS_PRESETS,
    evaluate_genus,
    format_chern_key,
    genus_log_coefficients,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_CONFIG = 2
EXIT_GENERICITY = 3


def _parse_weights(text: str) -> tuple[int, int]:
    try:
        a, b = map(int, text.split(","))
    except ValueError:
        raise ValueError("weights must be two integers: A,B") from None
    return a, b


def _int_in(low: int, high: int | None = None):
    """A converter: an int with low <= value (<= high, if given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise ValueError(f"must be {bound}, got {value}")
        return value

    return parse


def _choice(*names: str):
    """A converter: one of names; its metavar lists them."""

    def parse(text: str) -> str:
        if text not in names:
            listed = ", ".join(map(repr, names))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    parse.metavar = "{" + ",".join(names) + "}"
    return parse


def _render(args, records, header, rows, lines) -> str:
    """The text of ``args.format``: JSON records, CSV rows or table lines."""
    if args.format == "json":
        return render_json(records)
    if args.format == "csv":
        import csv  # about 1 ms of every cold start that prints no CSV
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"


def render_json(records: list[dict]) -> str:
    import json  # about 2 ms of every cold start that prints no JSON

    return json.dumps(records, indent=2) + "\n"


def _chern_strings(table) -> dict[str, str]:
    """Each Chern number of ``table`` as str ("24", "1/2"), keyed by its monomial."""
    return {format_chern_key(mu): str(table[mu]) for mu in table.sorted_keys()}


def _kummer_results(n_max: int, surface: str, weights) -> list[KummerResult]:
    model = find_generic_model(surface, n_max, weights=weights)
    # Assemble through n_max first: every smaller n is then sliced from this
    # series without localizing again.  Asking for n = 2, 3, ... first would
    # localize and take the logarithm again for each longer series.
    kummer_genus_series(model, n_max)
    ns = [1] if n_max == 1 else range(2, n_max + 1)
    return [kummer_chern_numbers(model, n) for n in ns]


def cmd_compute(args) -> tuple[str, int]:
    records, rows, lines = [], [], []
    for r in _kummer_results(args.n_max, "p2", None):
        numbers = _chern_strings(r.chern)
        record = {
            "n": r.n,
            "dimension": r.dimension,
            "surface": "p2",
            "chern_numbers": numbers,
        }
        if r.advisories:
            record["advisories"] = list(r.advisories)
        records.append(record)
        rows.extend((r.n, key, value) for key, value in numbers.items())
        lines.append(f"n={r.n}  dimension={r.dimension}  surface=p2")
        lines.extend(f"  {key} | {value}" for key, value in numbers.items())
        lines.extend(f"  advisory: {note}" for note in r.advisories)
    return _render(args, records, ("n", "partition_key", "value"), rows, lines), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    """The mismatch lines and the count line; exit 1 if anything mismatched."""
    matched = total = 0
    lines: list[str] = []
    for result in _kummer_results(args.n_max, args.surface, args.weights):
        if result.n == 1:  # the point; the reference starts at n = 2
            continue
        n, computed = result.n, result.chern
        expected = reference_for(n)
        for mu in sorted(set(expected) | set(computed.numbers)):
            total += 1
            want = expected.get(mu)
            got = computed.numbers.get(mu)
            if want == got:
                matched += 1
            else:
                lines.append(
                    f"n={n} {format_chern_key(mu)} expected={want} got={got}"
                )
    code = EXIT_MISMATCH if lines else EXIT_OK
    lines.append(f"{matched} of {total} entries match")
    return "\n".join(lines) + "\n", code


def cmd_hilbert(args) -> tuple[str, int]:
    model = find_generic_model(args.surface, args.k, weights=args.weights)
    # the library has checked the Todd genus and Goettsche's Euler number
    table = hilbert_chern_numbers(model, args.k)
    count = len(fixed_points(model, args.k))
    numbers = _chern_strings(table)
    record = {
        "k": args.k,
        "dimension": 2 * args.k,
        "surface": args.surface,
        "fixed_points": count,
        "euler_check": "ok",
        "chern_numbers": numbers,
    }
    rows = [(args.k, key, value) for key, value in numbers.items()]
    lines = [
        f"k={args.k}  dimension={2 * args.k}  surface={args.surface}",
        f"  fixed points: {count} (series predicts {table.top()})",
        f"  euler cross-check: ok (top Chern number {table.top()})",
        *(f"  {key} | {value}" for key, value in numbers.items()),
    ]
    return _render(args, [record], ("k", "partition_key", "value"), rows, lines), EXIT_OK


def cmd_genus(args) -> tuple[str, int]:
    results = _kummer_results(args.n_max, "p2", None)
    ell = genus_log_coefficients(args.name, 2 * (args.n_max - 1))
    values = {str(r.n): str(evaluate_genus(r.chern, ell)) for r in results}
    record = {"genus": args.name, "surface": "p2", "values": values}
    lines = [
        f"{args.name} genus on the Kummer tables, surface p2",
        *(f"  {n} | {value}" for n, value in values.items()),
    ]
    return _render(args, [record], ("n", "value"), values.items(), lines), EXIT_OK


# -- the command line -------------------------------------------------------

PROG = "kummer-chern"
DESCRIPTION = (
    "Exact Chern numbers of the generalised Kummer varieties via torus localization\n"
    "on Hilbert schemes of points."
)
REQUIRED = object()  # the default of an option that must be given

# (option, converter, default, help); the converter's ValueError is the usage error
_SURFACE = ("--surface", _choice(*SURFACE_NAMES), "p2", "toric surface to localize on")
_WEIGHTS = (
    "--weights",
    _parse_weights,
    None,
    "torus parameters instead of the generic default; --weights=A,B lets A be negative",
)
_OUTPUT = (
    ("--format", _choice("table", "json", "csv"), "table", "output format"),
    ("--out", str, None, "write output to this file"),
)

# command -> (handler, help, options); compute and genus run on p2 at default weights
COMMANDS = {
    "compute": (cmd_compute, "Chern numbers of the Kummer varieties", (
        ("--n-max", _int_in(1), REQUIRED, "largest member n, at least 1"),
        *_OUTPUT,
    )),
    "verify": (cmd_verify, "cross-check the Kummer numbers against the reference table", (
        ("--n-max", _int_in(1, REFERENCE_N_MAX), REFERENCE_N_MAX,
         f"largest member n, from 1 to {REFERENCE_N_MAX}"),
        _SURFACE, _WEIGHTS,
    )),
    "hilbert": (cmd_hilbert, "Chern numbers of a Hilbert scheme of points", (
        ("--k", _int_in(0), REQUIRED, "number of points, at least 0"),
        _SURFACE, _WEIGHTS, *_OUTPUT,
    )),
    "genus": (cmd_genus, "evaluate a genus preset on the Kummer tables", (
        ("--name", _choice(*GENUS_PRESETS), REQUIRED, "genus preset"),
        ("--n-max", _int_in(1), REQUIRED, "largest member n, at least 1"),
        *_OUTPUT,
    )),
}
_HELP_ROW = ("-h, --help", "show this help and exit")


def _shown(name: str, convert) -> str:
    # "--n-max N_MAX", or the choices for a _choice: "--surface {p2,p1xp1}"
    return f"{name} {getattr(convert, 'metavar', name[2:].upper().replace('-', '_'))}"


def _usage(prog: str, parts: Sequence[str]) -> str:
    """The usage line of prog, wrapped at 78 columns as argparse wraps it."""
    lines = [f"usage: {prog}"]
    indent = " " * len(lines[0])
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(indent)
        lines[-1] += " " + part
    return "\n".join(lines)


def _columns(title: str, rows: Sequence[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([f"{title}:", *(f"  {left:<{width}}{right}" for left, right in rows)])


def _exit_usage(prog: str, usage: str, message: str):
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_BAD_CONFIG)


def _exit_help(*blocks: str):
    sys.stdout.write("\n\n".join(blocks) + "\n")
    raise SystemExit(EXIT_OK)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The handler and the options of a command line, as attributes.

    A usage error writes the usage and one "error:" line to stderr and
    exits 2; -h or --help writes the help to stdout and exits 0.
    """
    if argv and argv[0] in COMMANDS:
        return _parse_command(argv[0], argv[1:])
    usage = _usage(PROG, ["[-h]", "{" + ",".join(COMMANDS) + "} ..."])
    if not argv:
        _exit_usage(PROG, usage, "the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        commands = _columns("commands", [(name, text) for name, (_, text, _) in COMMANDS.items()])
        _exit_help(usage, DESCRIPTION, commands, _columns("options", [_HELP_ROW]))
    listed = ", ".join(map(repr, COMMANDS))
    message = f"argument command: invalid choice: {argv[0]!r} (choose from {listed})"
    _exit_usage(PROG, usage, message)


def _parse_command(command: str, argv: Sequence[str]) -> SimpleNamespace:
    """Read "--opt value" and "--opt=value"; a repeated option keeps its last value.

    A value that starts with "-" needs the "=" form, unless it is a
    negative integer.  Option names are matched whole: no abbreviation.
    """
    handler, text, options = COMMANDS[command]
    prog = f"{PROG} {command}"
    shown = {name: _shown(name, convert) for name, convert, _, _ in options}
    usage = _usage(prog, ["[-h]", *(
        shown[name] if default is REQUIRED else f"[{shown[name]}]"
        for name, _, default, _ in options
    )])
    converters = {name: convert for name, convert, _, _ in options}
    values = {name: default for name, _, default, _ in options}
    unknown = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            rows = [_HELP_ROW]
            for name, _, default, note in options:
                given = "" if default in (None, REQUIRED) else f" (default {default})"
                rows.append((shown[name], note + given))
            _exit_help(usage, text, _columns("options", rows))
        name, equals, value = token.partition("=")
        if name not in converters:
            unknown.append(token)
            continue
        if not equals:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and not value[1:].isdigit()):
                _exit_usage(prog, usage, f"argument {name}: expected one argument")
        try:
            values[name] = converters[name](value)
        except ValueError as exc:
            _exit_usage(prog, usage, f"argument {name}: {exc}")
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        _exit_usage(prog, usage, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _exit_usage(prog, usage, f"unrecognized arguments: {' '.join(unknown)}")
    dests = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(**{"handler": handler, "out": None, **dests})


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.out is None:
        return _run(args, sys.stdout)
    # --out is opened before any work, so a bad path costs no computation;
    # a run that then fails leaves the file empty, as a shell redirection does
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            return _run(args, out)
    except OSError as exc:
        print(f"cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def _run(args, out) -> int:
    """Run the handler and write its text to out; map errors to exit codes."""
    try:
        text, code = args.handler(args)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    out.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
