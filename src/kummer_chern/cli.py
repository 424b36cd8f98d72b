"""Command-line interface.

compute, hilbert and genus format their numbers once and render them as a
table, JSON records or CSV rows.  A compute JSON record carries the n > 8
"advisories" that its table prints, when there are any.  Each handler
returns (text, exit code); only ``main`` and its ``_run`` write the text and
map errors to codes.

Exit codes: 0 success, 1 verification mismatch or a failed internal check
(one "check failed:" line on stderr; the Hilbert Todd and Euler checks are
the library's), 2 invalid configuration (every invalid argument is the
parser's usage error; an --out file that cannot be opened is one line,
before any computation),
3 genericity failure (at the explicitly requested weights a tangent weight of
a localized fixed point vanishes; see localization.is_generic).
"""

from __future__ import annotations

import argparse
import json
import sys
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
    bits = text.split(",")
    if len(bits) != 2:
        raise argparse.ArgumentTypeError("weights must be two integers: A,B")
    try:
        a, b = int(bits[0]), int(bits[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return a, b


def _int_in(low: int, high: int | None = None):
    """An argparse type: an int with low <= value (<= high, if given)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer-chern",
        description="Exact Chern numbers of the generalised Kummer varieties "
        "via torus localization on Hilbert schemes of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--surface", choices=SURFACE_NAMES, default="p2")
        p.add_argument(
            "--weights",
            type=_parse_weights,
            default=None,
            help="explicit torus parameters; --weights=A,B lets A be negative",
        )
        if with_format:
            p.add_argument(
                "--format", choices=("table", "json", "csv"), default="table"
            )
            p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("compute", help="Chern numbers of the Kummer varieties")
    p.add_argument("--n-max", type=_int_in(1), required=True)
    common(p)
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("verify", help="compare against the embedded reference table")
    p.add_argument("--n-max", type=_int_in(1, REFERENCE_N_MAX), default=REFERENCE_N_MAX)
    common(p, with_format=False)
    p.set_defaults(handler=cmd_verify, out=None)

    p = sub.add_parser("hilbert", help="Chern numbers of a Hilbert scheme of points")
    p.add_argument("--k", type=_int_in(0), required=True)
    common(p)
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("genus", help="evaluate a genus preset on the Kummer tables")
    p.add_argument("--name", choices=GENUS_PRESETS, required=True)
    p.add_argument("--n-max", type=_int_in(1), required=True)
    common(p)
    p.set_defaults(handler=cmd_genus)

    return parser


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
    return json.dumps(records, indent=2) + "\n"


def _chern_strings(table) -> dict[str, str]:
    """Each Chern number of ``table`` as str ("24", "1/2"), keyed by its monomial."""
    return {format_chern_key(mu): str(table[mu]) for mu in table.sorted_keys()}


def _kummer_results(args) -> list[KummerResult]:
    model = find_generic_model(args.surface, args.n_max, weights=args.weights)
    # Assemble through n_max first: every smaller n is then sliced from this
    # series without localizing again.  Asking for n = 2, 3, ... first would
    # localize and take the logarithm again for each longer series.
    kummer_genus_series(model, args.n_max)
    ns = [1] if args.n_max == 1 else range(2, args.n_max + 1)
    return [kummer_chern_numbers(model, n) for n in ns]


def cmd_compute(args) -> tuple[str, int]:
    records, rows, lines = [], [], []
    for r in _kummer_results(args):
        numbers = _chern_strings(r.chern)
        record = {
            "n": r.n,
            "dimension": r.dimension,
            "surface": args.surface,
            "chern_numbers": numbers,
        }
        if r.advisories:
            record["advisories"] = list(r.advisories)
        records.append(record)
        rows.extend((r.n, key, value) for key, value in numbers.items())
        lines.append(f"n={r.n}  dimension={r.dimension}  surface={args.surface}")
        lines.extend(f"  {key} | {value}" for key, value in numbers.items())
        lines.extend(f"  advisory: {note}" for note in r.advisories)
    return _render(args, records, ("n", "partition_key", "value"), rows, lines), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    """The mismatch lines and the count line; exit 1 if anything mismatched."""
    matched = total = 0
    lines: list[str] = []
    for result in _kummer_results(args):
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
    results = _kummer_results(args)
    ell = genus_log_coefficients(args.name, 2 * (args.n_max - 1))
    values = {str(r.n): str(evaluate_genus(r.chern, ell)) for r in results}
    record = {"genus": args.name, "surface": args.surface, "values": values}
    lines = [
        f"{args.name} genus on the Kummer tables, surface {args.surface}",
        *(f"  {n} | {value}" for n, value in values.items()),
    ]
    return _render(args, [record], ("n", "value"), values.items(), lines), EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.out:
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
