#!/usr/bin/env python3
# A continuum-sized family of surjections from one scalar building block.

from surjkit import (
    VectorSpanMember,
    classify_asymptotics,
    component_reduce,
    detect_degenerate,
    make_diagonal_family,
    make_scalar_span,
    phi_eval,
    scalar_solve,
    support_rank,
)

# The building block: t -> e^(rt) - e^(-rt), one homeomorphism of R per r > 0.
print("phi_1(0) =", phi_eval(1.0, 0.0))
print("phi_1(1) =", phi_eval(1.0, 1.0))
print("phi_2(-3) = -phi_2(3):", phi_eval(2.0, -3.0), "=", -phi_eval(2.0, 3.0))
print("inverse: phi_3^{-1}(5) =", scalar_solve(make_scalar_span([(1.0, 3.0)]), 5.0, 1e-12))

# Combinations keep surjectivity: the largest exponent dominates, so a
# nonzero span still runs from -inf to +inf (or the reverse).
s = make_scalar_span([(-1.0, 5.0), (100.0, 1.0)])
a = classify_asymptotics(s)
print("\nspan -phi_5 + 100 phi_1 -> limits", a.at_plus_infinity, a.at_minus_infinity)
for y in (-1e6, 0.0, 12345.678):
    t = scalar_solve(s, y, 1e-9)
    print(f"  solve s(t)={y:>12g}: t = {t:+.6f}, residual {abs(s.value(t)-y):.2e}")

# The vector version applies one exponent per coordinate. Diagonal members
# (same exponent everywhere) are the well-behaved subfamily: any nonzero
# combination keeps every coordinate surjective.
family = make_diagonal_family([1.0, 2.0, 3.0], 2)
print("\ndiagonal family:", [m.describe() for m in family])

# Mixed exponent vectors carry a trap: coordinates can cancel even when the
# member as a whole is nonzero. This member is nonzero but its first
# coordinate reduces to the zero span, so it is NOT surjective.
trap = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)
print("\ntrap member:", trap.describe())
print("  component spans:", [c.describe() for c in component_reduce(trap)])
print("  detect_degenerate ->", detect_degenerate(trap), "(0-based coordinate)")

# Independence is exact: distinct phi_r are independent (the largest
# exponent dominates), so a family's span has the dimension of its support
# matrix, read from coefficients and exponents alone. Ten distinct
# exponents give rank ten; a duplicate adds nothing.
ten = make_diagonal_family([0.5 * i for i in range(1, 11)], 1)
rank, rows = support_rank(ten)
print(f"\nrank of 10 members: {rank} (support matrix {rows} x {len(ten)})")
print("with a duplicate:", support_rank(ten + ten[:1])[0], "of 11")
