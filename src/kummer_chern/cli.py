"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 invalid configuration
(including an --out file that cannot be written), 3 genericity failure
(the torus-parameter schedule was exhausted or the explicitly requested
weights are degenerate).
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
    GenericityError,
    SurfaceModel,
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


def _fmt_value(q) -> str:
    if getattr(q, "denominator", 1) == 1:
        return str(int(q))
    return f"{q.numerator}/{q.denominator}"


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
            help="explicit torus parameters A,B (no retry schedule)",
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


def _model_for(args, depth: int) -> SurfaceModel:
    return find_generic_model(args.surface, depth, weights=args.weights)


def _emit(args, text: str, code: int = EXIT_OK) -> int:
    """Write the output and return ``code``, or EXIT_BAD_CONFIG if --out fails."""
    out = getattr(args, "out", None)
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


def _kummer_results(model: SurfaceModel, n_max: int) -> list[KummerResult]:
    # Assemble through n_max first: every smaller n is then sliced from this
    # series without localizing again.  Asking for n = 2, 3, ... first would
    # localize and take the logarithm again for each longer series.
    kummer_genus_series(model, n_max)
    ns = [1] if n_max == 1 else range(2, n_max + 1)
    return [kummer_chern_numbers(model, n) for n in ns]


def _result_record(result: KummerResult, surface: str) -> dict:
    return {
        "n": result.n,
        "dimension": result.dimension,
        "surface": surface,
        "chern_numbers": {
            format_chern_key(mu): _fmt_value(result.chern[mu])
            for mu in result.chern.sorted_keys()
        },
    }


def render_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


def _render_rows_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "partition_key", "value"))
    writer.writerows(rows)
    return buf.getvalue()


def cmd_compute(args) -> int:
    if args.n_max < 1:
        print("n-max must be at least 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
    model = _model_for(args, args.n_max)
    results = _kummer_results(model, args.n_max)
    if args.format == "json":
        text = render_json([_result_record(r, args.surface) for r in results])
    elif args.format == "csv":
        rows = [
            (r.n, format_chern_key(mu), _fmt_value(r.chern[mu]))
            for r in results
            for mu in r.chern.sorted_keys()
        ]
        text = _render_rows_csv(rows)
    else:
        lines = []
        for r in results:
            lines.append(
                f"n={r.n}  dimension={r.dimension}  surface={args.surface}"
            )
            for mu in r.chern.sorted_keys():
                lines.append(f"  {format_chern_key(mu)} | {_fmt_value(r.chern[mu])}")
            for note in r.advisories:
                lines.append(f"  advisory: {note}")
        text = "\n".join(lines) + "\n"
    return _emit(args, text)


def cmd_verify(args) -> int:
    if not 1 <= args.n_max <= REFERENCE_N_MAX:
        print(
            f"verify covers 1 <= n-max <= {REFERENCE_N_MAX}, got {args.n_max}",
            file=sys.stderr,
        )
        return EXIT_BAD_CONFIG
    model = _model_for(args, args.n_max)
    matched = total = 0
    diffs: list[str] = []
    for result in _kummer_results(model, args.n_max):
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
    model = _model_for(args, args.k)
    table = hilbert_chern_numbers(model, args.k)
    count = len(fixed_points(model, args.k))
    expected_count = _euler_series_coefficient(model.c2, args.k)
    top = table.top()
    euler_ok = top == count == expected_count
    if args.format == "json":
        record = {
            "k": args.k,
            "dimension": 2 * args.k,
            "surface": args.surface,
            "fixed_points": count,
            "euler_check": "ok" if euler_ok else "MISMATCH",
            "chern_numbers": {
                format_chern_key(mu): _fmt_value(table[mu])
                for mu in table.sorted_keys()
            },
        }
        text = render_json([record])
    elif args.format == "csv":
        rows = [
            (args.k, format_chern_key(mu), _fmt_value(table[mu]))
            for mu in table.sorted_keys()
        ]
        text = _render_rows_csv(rows)
    else:
        lines = [
            f"k={args.k}  dimension={2 * args.k}  surface={args.surface}",
            f"  fixed points: {count} (series predicts {expected_count})",
            f"  euler cross-check: {'ok' if euler_ok else 'MISMATCH'}"
            f" (top Chern number {_fmt_value(top)})",
        ]
        for mu in table.sorted_keys():
            lines.append(f"  {format_chern_key(mu)} | {_fmt_value(table[mu])}")
        text = "\n".join(lines) + "\n"
    return _emit(args, text, EXIT_OK if euler_ok else EXIT_MISMATCH)


def cmd_genus(args) -> int:
    if args.n_max < 1:
        print("n-max must be at least 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
    model = _model_for(args, args.n_max)
    results = _kummer_results(model, args.n_max)
    ell = genus_log_coefficients(args.name, max(2 * (args.n_max - 1), 1))
    values = [(r.n, evaluate_genus(r.chern, ell)) for r in results]
    if args.format == "json":
        record = {
            "genus": args.name,
            "surface": args.surface,
            "values": {str(n): _fmt_value(v) for n, v in values},
        }
        text = render_json([record])
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("n", "value"))
        writer.writerows((n, _fmt_value(v)) for n, v in values)
        text = buf.getvalue()
    else:
        lines = [f"{args.name} genus on the Kummer tables, surface {args.surface}"]
        lines.extend(f"  {n} | {_fmt_value(v)}" for n, v in values)
        text = "\n".join(lines) + "\n"
    return _emit(args, text)


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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
