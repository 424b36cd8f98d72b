"""Fixed work that gauges how fast the host runs this kind of program now.

    python3 perfbench/calibrate.py

It uses only the standard library, never the program, so its cost changes
only with the host.  It does what the program's localization kernel does,
on fixed synthetic input: for each of POINTS weight vectors it builds the
homogeneous pieces of exp(sum_j p_j s_j) as dicts from partitions to
Fractions and adds them, over the product of the weights, into one table
whose denominators grow.  Busy neighbours on a shared host slow this dict
and big-integer work about as much as they slow the program, and more than
they slow a loop of plain integer arithmetic.  run.py runs it as a child
between operations and divides each operation's time by it.  Prints one
checksum line.
"""

from __future__ import annotations

from fractions import Fraction

POINTS = 40
TWO_K = 12
WEIGHT_RANGE = 40


def weight_vectors(points: int, length: int):
    """Fixed nonzero integer vectors from a linear congruential generator."""
    state = 12345
    for _ in range(points):
        ws: list[int] = []
        while len(ws) < length:
            state = (state * 1103515245 + 12345) % 2**31
            w = state % (2 * WEIGHT_RANGE + 1) - WEIGHT_RANGE
            if w:
                ws.append(w)
        yield ws


def checksum(points: int = POINTS, two_k: int = TWO_K) -> int:
    table: dict[tuple[int, ...], Fraction] = {}
    for ws in weight_vectors(points, two_k):
        euler = 1
        for w in ws:
            euler *= w
        power_sums = [sum(w**j for w in ws) for j in range(1, two_k + 1)]
        # d * P_d = sum_j j p_j s_j P_{d-j}
        pieces = [{(): Fraction(1)}]
        for d in range(1, two_k + 1):
            piece: dict[tuple[int, ...], Fraction] = {}
            for j in range(1, d + 1):
                factor = Fraction(j * power_sums[j - 1], d)
                for mono, c in pieces[d - j].items():
                    key = tuple(sorted(mono + (j,), reverse=True))
                    piece[key] = piece.get(key, 0) + c * factor
            pieces.append(piece)
        scale = Fraction(1, euler)
        for piece in pieces:
            for mono, c in piece.items():
                table[mono] = table.get(mono, 0) + c * scale
    return sum(c.numerator % 1_000_003 for c in table.values()) % 1_000_003


if __name__ == "__main__":
    print(checksum())
