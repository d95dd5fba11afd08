#!/usr/bin/env python3
# From the plane map to surjections R^m -> R^n for any finite m, n.

from surjkit import (
    evaluate_at,
    evaluate_to_precision,
    expr_to_dict,
    extend_to_line,
    lift_dimension,
    preimage,
    project_lift,
)

# Step 1: one more output dimension per lift. The lift feeds the last output
# coordinate through a fresh line-to-plane map, so the first coordinate of
# the lifted map is literally the first coordinate of the original.
g = extend_to_line()            # R -> R^2
h = lift_dimension(g)           # R -> R^3
h4 = lift_dimension(h)          # R -> R^4
print("codomains:", g.codomain_arity, h.codomain_arity, h4.codomain_arity)

t = 1.8
print("g(t)[0] =", evaluate_at(g, (t,), 10).value[0])
print("h(t)[0] =", evaluate_at(h, (t,), 10).value[0], "(identical, by construction)")

# Step 2: widen the domain by ignoring the extra inputs.
F = project_lift(h, 2)          # R^2 -> R^3
print("\nF arity:", F.domain_arity, "->", F.codomain_arity)
print("F(1.7, 99) =", evaluate_at(F, (1.7, 99.0), 10).value)
print("F(1.7, -5) =", evaluate_at(F, (1.7, -5.0), 10).value, "(same: x2 is invisible)")

# Every tree writes out as the base and family sections of a spec file,
# which `surjkit eval --spec` reads back as the same tree.
print("\ntree:", expr_to_dict(F))

# Step 3: invert. The returned coordinates are exact rationals; a composed
# curve chain needs far more parameter resolution than a float can hold.
target = (7.25, -4.0, 9.5)
witness = preimage(F, target, 1e-3)
print(f"\npreimage of {target}:")
print("  x1 denominator bits:", witness[0].denominator.bit_length())
print("  trailing coordinates:", witness[1:])
value = evaluate_to_precision(F, witness, 1e-5).value
print("  forward value:", tuple(round(v, 5) for v in value))
print("  residual:", max(abs(a - b) for a, b in zip(value, target)))

# Step 4: the same inversion through two lifts. Forward evaluation stays
# exact through every lift, so one pass of the analytic chain suffices.
target4 = (1.5, -2.0, 0.75, 3.0)
witness4 = preimage(h4, target4, 1e-6)
print(f"\npreimage of {target4} under R -> R^4:")
print("  t denominator bits:", witness4[0].denominator.bit_length())
value4 = evaluate_to_precision(h4, witness4, 1e-8).value
print("  residual:", max(abs(a - b) for a, b in zip(value4, target4)))
