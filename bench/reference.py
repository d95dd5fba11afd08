"""Fixed reference program: the yardstick for the benchmark's relative times.

    python3 bench/reference.py

It imports numpy, as the surjkit command line does, then spends about a
quarter of a second (2 vCPU Xeon at 2.1 GHz) on the kinds of work surjkit
does: exact Fraction arithmetic on dyadic rationals, integer bit loops like
a Hilbert walk, and formatting numbers into a large text. It uses nothing
from surjkit, so no change to surjkit changes its time; only the machine
does. bench/run.py runs it between the command-line runs it times and
divides by its time, which takes out the drift in speed of a shared
machine. Changing this file rescales every relative metric, so a baseline
measured before such a change cannot be compared with one after it.
"""

from fractions import Fraction

import numpy  # noqa: F401  (its import is part of every surjkit run)


def main() -> int:
    acc = Fraction(0)
    x = 0
    rows = []
    for i in range(1, 6000):
        q = Fraction(2 * i + 1, 1 << (20 + i % 40))
        acc = (acc + q * q - Fraction(i, 3)) / 2
        n = i
        for _ in range(24):
            x = (x * 5 + (n & 3)) & 0xFFFFFFFF
            n >>= 1
        rows.append(f"{i / 4096!r},{float(q)!r},{x}")
    rows.extend(f"{i / 65536!r},{(i * 7919) % 65536 / 65536!r}" for i in range(30000))
    text = "\n".join(rows)
    return 0 if len(text) > 500_000 and acc.denominator > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
