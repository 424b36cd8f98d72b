"""Command-line interface.

compute, hilbert and genus format their numbers once and render them as a
table, JSON records or CSV rows.  A compute JSON record carries the n > 8
"advisories" that its table prints, when there are any.

Exit codes: 0 success, 1 verification mismatch or a failed internal check
(one "check failed:" line on stderr), 2 invalid configuration (including
an --out file that cannot be written), 3 genericity failure (the
explicitly requested weights are degenerate).
"""

from __future__ import annotations

import argparse
import csv
import io
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
            help="explicit torus parameters A,B",
        )
        if with_format:
            p.add_argument(
                "--format", choices=("table", "json", "csv"), default="table"
            )
            p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("compute", help="Chern numbers of the Kummer varieties")
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="compare against the embedded reference table")
    p.add_argument("--n-max", type=int, default=REFERENCE_N_MAX)
    common(p, with_format=False)

    p = sub.add_parser("hilbert", help="Chern numbers of a Hilbert scheme of points")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("genus", help="evaluate a genus preset on the Kummer tables")
    p.add_argument("--name", choices=GENUS_PRESETS, required=True)
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    return parser


def _emit(args, records, header, rows, lines, code: int = EXIT_OK) -> int:
    """Write the --format text; return code, or EXIT_BAD_CONFIG if --out fails."""
    if args.format == "json":
        text = render_json(records)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    out = args.out
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write --out {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return code


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


def cmd_compute(args) -> int:
    if args.n_max < 1:
        print("n-max must be at least 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
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
    return _emit(args, records, ("n", "partition_key", "value"), rows, lines)


def cmd_verify(args) -> int:
    if not 1 <= args.n_max <= REFERENCE_N_MAX:
        print(
            f"verify covers 1 <= n-max <= {REFERENCE_N_MAX}, got {args.n_max}",
            file=sys.stderr,
        )
        return EXIT_BAD_CONFIG
    matched = total = 0
    diffs: list[str] = []
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
                diffs.append(
                    f"n={n} {format_chern_key(mu)} expected={want} got={got}"
                )
    for line in diffs:
        print(line)
    print(f"{matched} of {total} entries match")
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_hilbert(args) -> int:
    if args.k < 0:
        print("k must be nonnegative", file=sys.stderr)
        return EXIT_BAD_CONFIG
    model = find_generic_model(args.surface, args.k, weights=args.weights)
    table = hilbert_chern_numbers(model, args.k)
    count = len(fixed_points(model, args.k))
    expected_count = _euler_series_coefficient(model.c2, args.k)
    euler_ok = table.top() == count == expected_count
    check = "ok" if euler_ok else "MISMATCH"
    numbers = _chern_strings(table)
    record = {
        "k": args.k,
        "dimension": 2 * args.k,
        "surface": args.surface,
        "fixed_points": count,
        "euler_check": check,
        "chern_numbers": numbers,
    }
    rows = [(args.k, key, value) for key, value in numbers.items()]
    lines = [
        f"k={args.k}  dimension={2 * args.k}  surface={args.surface}",
        f"  fixed points: {count} (series predicts {expected_count})",
        f"  euler cross-check: {check} (top Chern number {table.top()})",
        *(f"  {key} | {value}" for key, value in numbers.items()),
    ]
    code = EXIT_OK if euler_ok else EXIT_MISMATCH
    return _emit(args, [record], ("k", "partition_key", "value"), rows, lines, code)


def cmd_genus(args) -> int:
    if args.n_max < 1:
        print("n-max must be at least 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
    results = _kummer_results(args)
    ell = genus_log_coefficients(args.name, max(2 * (args.n_max - 1), 1))
    values = {str(r.n): str(evaluate_genus(r.chern, ell)) for r in results}
    record = {"genus": args.name, "surface": args.surface, "values": values}
    lines = [
        f"{args.name} genus on the Kummer tables, surface {args.surface}",
        *(f"  {n} | {value}" for n, value in values.items()),
    ]
    return _emit(args, [record], ("n", "value"), values.items(), lines)


def _euler_series_coefficient(colors: int, k: int) -> int:
    """Coefficient of q^k in prod_m (1 - q^m)^(-colors)."""
    coeffs = [1] + [0] * k
    for m in range(1, k + 1):
        for _ in range(colors):
            for i in range(m, k + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs[k]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "hilbert": cmd_hilbert,
        "genus": cmd_genus,
    }
    try:
        return handlers[args.command](args)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
