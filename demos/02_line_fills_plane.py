#!/usr/bin/env python3
# One continuous map from the real line onto the whole plane.

from surjkit import evaluate_at, evaluate_to_precision, extend_to_line, preimage

g = extend_to_line()

# Layout of the parameter line:
#   t <= 0          constant at the origin
#   [n-1, n-1/2]    straight bridge into the box [-n, n]^2
#   [n-1/2, n]      rescaled space-filling curve over that box
# Larger t reaches larger boxes, and the boxes exhaust the plane.

for t in (-2.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75):
    value, err = evaluate_at(g, (t,), depth=10).value, evaluate_at(g, (t,), depth=10).error_estimate
    print(f"g({t:+.2f}) ~ ({value[0]:+.4f}, {value[1]:+.4f})   est {err:.1e}")

# Continuity across a junction: both sides of t = 1.5 nearly agree, and the
# estimate tells you how much finite depth can still move the value.
left = evaluate_at(g, (1.5 - 1e-9,), depth=14).value
right = evaluate_at(g, (1.5 + 1e-9,), depth=14).value
print("\njunction t=1.5:", left, "vs", right)

# How much of a box does a finite parameter window cover? Sample forward and
# count which cells of a 40x40 grid on [-2,2]^2 get hit.
for depth in (5, 7, 9):
    hits = set()
    for i in range(4**depth):
        x, y = evaluate_at(g, (1.5 + i / (2 * 4**depth),), depth=depth).value
        hits.add((min(int((x + 2) * 10), 39), min(int((y + 2) * 10), 39)))
    print(f"depth {depth}: parameter window [1.5,2) hits {len(hits)}/1600 coarse cells")

# And the inverse direction: ask for a parameter mapping near any target.
target = (1.234, -0.567)
witness = preimage(g, target, 1e-6)
value = evaluate_to_precision(g, witness, 1e-8).value
print(f"\npreimage of {target}: t = {float(witness[0]):.12f} (an exact rational)")
print("forward check:", value, "residual", max(abs(a - b) for a, b in zip(value, target)))
