"""The benchmark's workloads: what each one runs, at which size, and how its
output is checked without relying on the program's own verdict.

The sizes are below the ROADMAP defaults (verify --n-max 8, hilbert --k 7)
so that one operation takes one or two seconds and a run holds a few dozen,
whose median is steady on a shared machine; localization still dominates
every workload at these sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

VERIFY_N_MAX = 5
HILBERT_SURFACE = "p1xp1"
HILBERT_K = 5
SWEEP_N_MAX = 5
SWEEP_SURFACES = ("p2", "p1xp1")
SWEEP_PAIRS_PER_SURFACE = 1
SWEEP_WEIGHT_RANGE = 40  # torus parameters are drawn from [-40, 40]


def partition_count(colours: int, k: int) -> int:
    """Number of `colours`-coloured partitions of k.

    Uses the Euler transform k a_k = sum_j colours * sigma(j) a_{k-j}, which
    is independent of the product expansion the program itself uses.
    """
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(1, k + 1)]
    a = [1]
    for n in range(1, k + 1):
        a.append(sum(colours * sigma[j] * a[n - j] for j in range(1, n + 1)) // n)
    return a[k]


def verify_entry_count(n_max: int) -> int:
    """Reference entries for 2 <= n <= n_max: partitions of 2(n-1) into even parts."""
    return sum(partition_count(1, n - 1) for n in range(2, n_max + 1))


def check_verify(n_max: int, out: str) -> str | None:
    """None if `verify --n-max n_max` printed only a full match line."""
    entries = verify_entry_count(n_max)
    want = f"{entries} of {entries} entries match"
    if out.splitlines() != [want]:
        return f"expected only {want!r}, got {out[-300:]!r}"
    return None


def check_hilbert(k: int, out: str) -> str | None:
    """None if the hilbert JSON passes the Euler cross-check on 4 charts."""
    try:
        (record,) = json.loads(out)
        top = record["chern_numbers"][f"c{2 * k}" if k else "1"]
        euler_check, points = record["euler_check"], record["fixed_points"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed hilbert output ({exc!r}): {out[-300:]!r}"
    expected = partition_count(4, k)
    if record.get("k") != k:
        return f"output is for k={record.get('k')}, expected {k}"
    if euler_check != "ok":
        return f"euler_check is {euler_check!r}"
    if top != str(expected) or points != expected:
        return f"top Chern number {top}, fixed points {points}; expected {expected}"
    return None


def check_sweep(spec: dict, out: str) -> str | None:
    """None if every swept model reproduces the reference table and Todd genus n."""
    from kummer_chern.reference import reference_for

    try:
        models = json.loads(out)["models"]
        surfaces = [m["surface"] for m in models]
        tables = [
            {int(n): {tuple(mu): int(v) for mu, v in rows} for n, rows in m["tables"].items()}
            for m in models
        ]
        todds = [m["todd"] for m in models]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed sweep output ({exc!r}): {out[-300:]!r}"
    want_surfaces = [s for s in spec["surfaces"] for _ in range(spec["pairs_per_surface"])]
    if surfaces != want_surfaces:
        return f"swept surfaces {surfaces}, expected {want_surfaces}"
    ns = range(2, spec["n_max"] + 1)
    for model, table, todd in zip(models, tables, todds):
        where = f"{model['surface']} at weights {model['weights']}"
        for n in ns:
            if table.get(n) != reference_for(n):
                return f"n={n} table on {where} differs from the reference"
            if todd.get(str(n)) != str(n):
                return f"n={n} Todd genus on {where} is {todd.get(str(n))}, expected {n}"
    return None


@dataclass(frozen=True)
class Op:
    """One operation: a fresh process running `entry` ("cli", "sweep" or "calibrate") on `args`."""

    entry: str
    args: tuple[str, ...]
    check: Callable[[str], str | None]


def cli_op(args: list[str], check: Callable[[str], str | None]) -> Op:
    return Op("cli", tuple(args), check)


def sweep_op(seed: int, pairs_per_surface: int) -> Op:
    spec = {
        "seed": seed,
        "n_max": SWEEP_N_MAX,
        "surfaces": list(SWEEP_SURFACES),
        "pairs_per_surface": pairs_per_surface,
        "weight_range": SWEEP_WEIGHT_RANGE,
    }
    return Op("sweep", (json.dumps(spec),), lambda out: check_sweep(spec, out))


@dataclass(frozen=True)
class Workload:
    """A named workload: its measured operation and its trivial set-up operation."""

    name: str
    sizes: dict
    make_op: Callable[[random.Random], Op]
    setup_op: Op
    # (surface, depth) whose default torus weights the program chooses itself
    default_model: tuple[str, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-p2",
            {"command": "verify", "surface": "p2", "n_max": VERIFY_N_MAX},
            lambda rng: cli_op(
                ["verify", "--n-max", str(VERIFY_N_MAX)],
                lambda out: check_verify(VERIFY_N_MAX, out),
            ),
            cli_op(["verify", "--n-max", "1"], lambda out: check_verify(1, out)),
            ("p2", VERIFY_N_MAX),
        ),
        Workload(
            "hilbert-p1xp1",
            {"command": "hilbert", "surface": HILBERT_SURFACE, "k": HILBERT_K},
            lambda rng: cli_op(
                ["hilbert", "--k", str(HILBERT_K), "--surface", HILBERT_SURFACE, "--format", "json"],
                lambda out: check_hilbert(HILBERT_K, out),
            ),
            cli_op(
                ["hilbert", "--k", "0", "--surface", HILBERT_SURFACE, "--format", "json"],
                lambda out: check_hilbert(0, out),
            ),
            (HILBERT_SURFACE, HILBERT_K),
        ),
        Workload(
            "sweep-weights",
            {
                "n_max": SWEEP_N_MAX,
                "surfaces": list(SWEEP_SURFACES),
                "pairs_per_surface": SWEEP_PAIRS_PER_SURFACE,
                "weight_range": SWEEP_WEIGHT_RANGE,
            },
            lambda rng: sweep_op(rng.randrange(2**32), SWEEP_PAIRS_PER_SURFACE),
            sweep_op(0, 0),
        ),
    )
}
