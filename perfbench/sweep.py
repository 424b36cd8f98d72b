"""Torus-weight sweep over the public library API.

Draws generic torus parameters for each surface from a seeded generator,
redrawing when the program raises GenericityError, and computes the Kummer
tables and Todd genera for every n <= n_max with a fresh model each time,
so every per-model cache misses.  Prints one JSON object.

    python3 perfbench/sweep.py '{"seed": 1, "n_max": 5, "surfaces": ["p2"],
                                 "pairs_per_surface": 2, "weight_range": 40}'
"""

from __future__ import annotations

import json
import random
import sys

import kummer_chern as kc

MAX_DRAWS = 1000


def draw_model(surface: str, n_max: int, rng: random.Random, span: int, seen: set):
    """A generic model at seed-drawn weights not used before, and its redraw count."""
    redraws = 0
    for _ in range(MAX_DRAWS):
        weights = (rng.randint(-span, span), rng.randint(-span, span))
        if (surface, weights) in seen:
            continue
        seen.add((surface, weights))
        try:
            return kc.find_generic_model(surface, n_max, weights=weights), redraws
        except kc.GenericityError:
            redraws += 1
    raise RuntimeError(f"no generic weights for {surface} in {MAX_DRAWS} draws")


def run_sweep(spec: dict) -> dict:
    rng = random.Random(spec["seed"])
    n_max = spec["n_max"]
    seen: set = set()
    models = []
    for surface in spec["surfaces"]:
        for _ in range(spec["pairs_per_surface"]):
            model, redraws = draw_model(surface, n_max, rng, spec["weight_range"], seen)
            kc.kummer_genus_series(model, n_max)
            tables, todd = {}, {}
            for n in range(2, n_max + 1):
                chern = kc.kummer_chern_numbers(model, n).chern
                tables[n] = [[list(mu), str(chern[mu])] for mu in chern.sorted_keys()]
                ell = kc.genus_log_coefficients("todd", 2 * (n - 1))
                todd[n] = str(kc.evaluate_genus(chern, ell))
            models.append(
                {
                    "surface": surface,
                    "weights": list(model.weights),
                    "redraws": redraws,
                    "tables": tables,
                    "todd": todd,
                }
            )
    return {"n_max": n_max, "models": models}


def main(argv: list[str]) -> int:
    print(json.dumps(run_sweep(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
