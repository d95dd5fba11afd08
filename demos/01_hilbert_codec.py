#!/usr/bin/env python3
# The exact curve codec: where each parameter lands, and why neighbors stay close.

from fractions import Fraction

from surjkit import curve_trace, hilbert_decode, hilbert_encode

# The depth-k approximant chops [0,1] into 4^k quarter-intervals and walks
# the 4^k grid cells of the unit square, one cell per interval. The codec
# speaks plain exact numbers: a cell is (col, row), its centre two Fractions.

cell, center = hilbert_encode(0, 3)
print("t=0   ->", cell, "center", tuple(map(float, center)))
cell, center = hilbert_encode(1, 3)
print("t=1   ->", cell, "(always the bottom-right corner cell)")
cell, center = hilbert_encode(Fraction(1, 4), 1)
print("t=1/4 ->", cell, "(second quadrant in curve order)")

# the full depth-1 walk: lower-left, upper-left, upper-right, lower-right
print("\ndepth-1 order:", [hilbert_encode(Fraction(i, 4), 1)[0] for i in range(4)])

# Draw the depth-3 curve as ASCII: number each cell by visit order mod 10.
k = 3
side = 2**k
visit = {}
for i, (x, y) in enumerate(curve_trace(k)):
    # centers are (col + 1/2) / side, so this floors back
    visit[(int(x * side), int(y * side))] = i
print(f"\ndepth-{k} visit order (mod 10), origin at bottom-left:")
for row in reversed(range(side)):
    print("  " + "".join(str(visit[(col, row)] % 10) for col in range(side)))

# Continuity at finite depth: parameters within one quarter-interval land in
# cells at most one edge apart, so the image moves by at most 2 * 2^-k.
print("\nmodulus bound per depth:", [2 * 2.0**-k for k in range(6)])
t, s = 0.3721, 0.3721 + 4.0**-4
_, pt = hilbert_encode(t, 4)
_, ps = hilbert_encode(s, 4)
moved = max(abs(pt[0] - ps[0]), abs(pt[1] - ps[1]))
print(f"|t-s| = 4^-4: image moved {float(moved):.5f} <= {2 * 2.0**-4}")

# Decode is the preimage direction: pick any point, get a parameter whose
# cell contains it, as the Fraction i/4^k. Exact rationals in, exact rationals out.
p = (0.8125, 0.09375)
for k in (2, 4, 6):
    t = hilbert_decode(p, k)
    (col, row), _ = hilbert_encode(t, k)
    print(f"decode{p} at depth {k}: t = {t}, cell ({col},{row})")
