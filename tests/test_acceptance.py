"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS|FAIL` line; the assertions carry
the same condition so pytest reports match the printed summary.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from surjkit import (
    BoxSpec,
    DegenerateMemberError,
    VectorSpanMember,
    certify_surjective_on_box,
    classify_asymptotics,
    compose_with_base,
    detect_degenerate,
    evaluate_at,
    evaluate_to_precision,
    extend_to_line,
    hilbert_encode,
    lift_dimension,
    make_diagonal_family,
    make_scalar_span,
    project_lift,
    scalar_solve,
    support_rank,
)
from oracles import covered_targets, line_map_points, rank_highprec


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def s23_base():
    return project_lift(lift_dimension(extend_to_line()), 2)


def test_criterion_1_grid_surjectivity():
    start = time.perf_counter()
    ok = True
    for k in range(1, 9):
        cells = {hilbert_encode(Fraction(i, 4**k), k)[0] for i in range(4**k)}
        ok = ok and len(cells) == 4**k
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert report(1, ok, f"4^k cells visited exactly once for k=1..8 in {elapsed:.2f}s")


def test_criterion_2_continuity_modulus():
    rng = random.Random(20260809)
    violations = 0
    for k in range(1, 9):
        gap = 4.0**-k
        bound = Fraction(2, 2**k)
        for _ in range(10_000):
            t = rng.random()
            s = min(max(t + rng.uniform(-gap, gap), 0.0), 1.0)
            _, pt = hilbert_encode(t, k)
            _, ps = hilbert_encode(s, k)
            if max(abs(pt[0] - ps[0]), abs(pt[1] - ps[1])) > bound:
                violations += 1
    assert report(2, violations == 0, f"{violations} violations over 8x10^4 random pairs")


def test_criterion_3_construction_laws_exact():
    g = extend_to_line()
    h = lift_dimension(g)
    F = project_lift(h, 3)
    rng = random.Random(31415)
    first_ok = True
    for _ in range(1000):
        t = rng.uniform(-3.0, 5.0)
        depth = rng.randrange(4, 15)
        first_ok = first_ok and (
            evaluate_at(h, (t,), depth).value[0] == evaluate_at(g, (t,), depth).value[0]
        )
    trailing_ok = True
    for _ in range(1000):
        a = rng.uniform(-3.0, 5.0)
        u = tuple(rng.uniform(-20.0, 20.0) for _ in range(2))
        v = tuple(rng.uniform(-20.0, 20.0) for _ in range(2))
        trailing_ok = trailing_ok and (
            evaluate_at(F, (a, *u), 9).value == evaluate_at(F, (a, *v), 9).value
        )
    ok = first_ok and trailing_ok
    assert report(3, ok, "first-coordinate and trailing-invariance laws exact on 10^3 inputs each")


def test_criterion_4_full_pipeline_certificate():
    member = make_diagonal_family([1.0], 3)[0]
    pipe = compose_with_base(member, s23_base())
    eps = 1e-3
    start = time.perf_counter()
    cert = certify_surjective_on_box(pipe, BoxSpec(((-10.0, 10.0),) * 3, 11), eps)
    elapsed = time.perf_counter() - start
    reverified = True
    for w in cert.witnesses:
        value = evaluate_to_precision(pipe, w.preimage, eps / 16).value
        residual = max(abs(a - b) for a, b in zip(value, w.target))
        reverified = reverified and residual <= 2 * eps
    ok = cert.certified and elapsed < 60.0 and reverified and len(cert.witnesses) == 11**3
    assert report(
        4, ok, f"S_2,3 member certified on 11^3 targets at eps=1e-3 in {elapsed:.1f}s; "
        f"witnesses re-verified within 2*eps"
    )


def test_criterion_5_scalar_span_shadow():
    grid = [round(0.25 + 0.475 * i, 10) for i in range(11)]  # within (0, 5]
    targets = [-1000.0 + 2000.0 * i / 20 for i in range(21)]
    rng = random.Random(20260809)
    classify_ok = True
    solve_ok = True
    spans = 0
    while spans < 1000:
        k = rng.randrange(1, 6)
        exps = rng.sample(grid, k)
        s = make_scalar_span(
            [(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0), r) for r in exps]
        )
        if s.is_zero:
            continue
        spans += 1
        alpha1, _ = s.leading
        asym = classify_asymptotics(s)
        classify_ok = classify_ok and (
            math.copysign(1.0, asym.at_plus_infinity) == math.copysign(1.0, alpha1)
            and math.copysign(1.0, asym.at_minus_infinity) == -math.copysign(1.0, alpha1)
        )
        for y in targets:
            t = scalar_solve(s, y, 1e-9)
            solve_ok = solve_ok and abs(s.value(t) - y) <= 1e-9
    ok = classify_ok and solve_ok
    assert report(
        5, ok, "classification matches leading sign and 21 targets in [-1e3,1e3] hit "
        "within 1e-9 for 10^3 random spans"
    )


def _rows(functions, points, evaluate):
    """One row per function: its values at every point, flattened over coordinates."""
    return [[v for p in points for v in evaluate(f, p)] for f in functions]


def test_criterion_6_independence_rank():
    exponents = [0.5 * i for i in range(1, 11)]  # distinct, within (0, 5]
    family = make_diagonal_family(exponents, 2)
    # 32 staggered positive points in R^2: the phi_r are odd, so a grid
    # symmetric about 0 would pair its columns up as t, -t
    base = [0.25 + 7.75 * i / 31 for i in range(32)]
    step = (base[1] - base[0]) / 3
    points = [(t, t + step) for t in base]
    rank = rank_highprec(_rows(family, points, VectorSpanMember.value_at), 1e-8)
    ok = rank == 10 and support_rank(family)[0] == 10
    for i in range(10):
        dup = family + [family[i]]
        dup_rank = rank_highprec(_rows(dup, points, VectorSpanMember.value_at), 1e-8)
        ok = ok and dup_rank == 10 and support_rank(dup)[0] == 10 < len(dup)
    assert report(
        6, ok, "10 members reach rank 10 at tol 1e-8; every duplication stays rank 10 "
        "(deficient at size 11)"
    )


def test_criterion_7_composition_preserves_rank():
    family = make_diagonal_family([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 3)
    base = s23_base()
    composed_family = [compose_with_base(m, base) for m in family]
    ok = support_rank(family)[0] == 6
    for seed in (101, 202, 303):
        rng = random.Random(seed)
        points = [(rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)) for _ in range(12)]
        images = [evaluate_at(base, p, 24).value for p in points]
        composed = rank_highprec(
            _rows(composed_family, points, lambda f, p: evaluate_at(f, p, 24).value), 1e-8
        )
        direct = rank_highprec(_rows(family, images, VectorSpanMember.value_at), 1e-8)
        ok = ok and composed == direct == 6
    assert report(
        7, ok, "k=6 family keeps rank 6 after pre-composition with the S_2,3 base "
        "across 3 seeded draws"
    )


def test_criterion_8_degenerate_member_regression():
    # evidence for the open cancellation edge: this member is nonzero yet
    # its first coordinate reduces to the zero span, so it cannot be
    # surjective and certification must refuse it rather than fail it
    member = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)
    fired = detect_degenerate(member)
    refused = False
    message = ""
    try:
        certify_surjective_on_box(member, BoxSpec(((-1.0, 1.0), (-1.0, 1.0)), 3), 1e-3)
    except DegenerateMemberError as err:
        refused = True
        message = str(err)
    ok = fired == 0 and refused and "coordinate 1" in message
    assert report(8, ok, "member detected degenerate at coordinate 1 and refused")


def _span_sweep_covered(span, targets, eps):
    """Forward-sweep oracle for scalar spans: dense grid plus min-distance."""
    T = 1.0
    while True:
        ends = (span.value(-T), span.value(T))
        if min(ends) < min(targets) - 1.0 and max(ends) > max(targets) + 1.0:
            break
        T *= 2.0
    steps = min(int(2 * T * span.derivative_bound(-T, T) / eps) + 2, 20_000_000)
    grid = np.linspace(-T, T, steps)
    values = np.zeros_like(grid)
    for alpha, r in span.terms:
        values += alpha * 2.0 * np.sinh(r * grid)
    return {y for y in targets if np.min(np.abs(values - y)) <= eps}


def test_criterion_9_oracle_equivalence():
    ok = True
    details = []

    # S_1,1 corpus: spans solved analytically versus dense forward sweeps
    scalar_cases = [
        (make_scalar_span([(1.0, 1.0)]), 1e-6),
        (make_scalar_span([(2.0, 3.0), (-1.0, 1.0)]), 1e-3),
        (make_scalar_span([(-1.0, 4.0), (3.0, 0.5)]), 1e-3),
    ]
    targets_1d = [-3.0 + 6.0 * i / 12 for i in range(13)]
    for span, eps in scalar_cases:
        member = VectorSpanMember(tuple((a, (r,)) for a, r in span.terms), 1)
        cert = certify_surjective_on_box(member, BoxSpec(((-3.0, 3.0),), 13), eps)
        analytic = {w.target[0] for w in cert.witnesses if w.achieved_error <= eps}
        oracle = _span_sweep_covered(span, targets_1d, eps)
        ok = ok and analytic == oracle == set(targets_1d)
        details.append(f"span eps={eps:g}: |analytic|={len(analytic)} |oracle|={len(oracle)}")

    # S_1,2 corpus: the plane map, by certificate versus curve sweep
    g = extend_to_line()
    eps = 1e-3
    box = BoxSpec(((-2.0, 2.0), (-2.0, 2.0)), 9)
    cert = certify_surjective_on_box(g, box, eps)
    analytic = {w.target for w in cert.witnesses if w.achieved_error <= eps}
    depth = 11
    count = 4**depth
    t = np.linspace(1.5, 2.0, count, endpoint=False) + 0.25 / count
    cloud = line_map_points(t, depth, {})
    oracle = covered_targets(cloud, sorted(box.targets()), eps)
    ok = ok and analytic == oracle == set(box.targets())
    details.append(f"plane map: |analytic|={len(analytic)} |oracle|={len(oracle)}")

    # S_1,2 corpus: a sinh member composed over the plane map, coarser eps
    # (a forward sweep through the composition loses resolution square-root
    # fast, so its feasible tolerance is coarser than the analytic route's)
    member = make_diagonal_family([1.0], 2)[0]
    pipe = compose_with_base(member, g)
    eps = 0.05
    box = BoxSpec(((-4.0, 4.0), (-4.0, 4.0)), 7)
    cert = certify_surjective_on_box(pipe, box, eps)
    analytic = {w.target for w in cert.witnesses if w.achieved_error <= eps}
    image_cloud = 2.0 * np.sinh(cloud)  # diagonal member with r = 1
    oracle = covered_targets(image_cloud, sorted(box.targets()), eps)
    ok = ok and analytic == oracle == set(box.targets())
    details.append(f"composed map: |analytic|={len(analytic)} |oracle|={len(oracle)}")

    assert report(9, ok, "; ".join(details))
