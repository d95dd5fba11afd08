"""Expression trees: construction laws, evaluation estimates, preimages."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import surjkit.spans
from surjkit import (
    DomainError,
    FunctionExpr,
    ResourceError,
    StructuralError,
    VectorSpanMember,
    combine_members,
    compose_with_base,
    evaluate_at,
    evaluate_to_precision,
    expr_from_dict,
    expr_to_dict,
    extend_to_line,
    hilbert_decode,
    lift_dimension,
    make_diagonal_family,
    preimage,
    project_lift,
)
from surjkit._formats import read_spec
from surjkit.curve import _d2xy, _ratio
from surjkit.surjections import _line_modulus, _line_preimage
from oracles import covered_targets, line_map_points, recursion_centers, sweep_plane_cloud


def grid_targets(bounds, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(float(v) for v in p) for p in np.stack(mesh, axis=-1).reshape(-1, len(bounds))]


class TestExtendToLine:
    def test_constant_left_of_zero(self):
        g = extend_to_line()
        for t in (-5.0, -0.001, 0.0, Fraction(-3, 7)):
            result = evaluate_at(g, (t,))
            assert result.value == (0.0, 0.0)
            assert result.error_estimate == 0.0

    def test_junctions_move_at_most_the_modulus_bound(self):
        g = extend_to_line()
        eps = 1e-9
        for junction in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            left = evaluate_at(g, (junction - eps,), depth=12).value
            right = evaluate_at(g, (junction + eps,), depth=12).value
            gap = max(abs(a - b) for a, b in zip(left, right))
            assert gap <= _line_modulus(junction, eps, 12)

    def test_box_curve_stays_inside_its_box(self):
        g = extend_to_line()
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(1, 4)
            t = n - 0.5 + 0.5 * rng.random()
            x, y = evaluate_at(g, (t,), depth=10).value
            assert max(abs(x), abs(y)) <= n

    def test_plane_coverage_of_a_grid_via_forward_sweep(self):
        # every point of a 21x21 grid on [-2,2]^2 sits within 1e-3 of the
        # image of [0,3]; the box-2 curve segment [1.5, 2) already suffices
        depth = 11
        cloud = sweep_plane_cloud(1.5, 2.0, 4**depth, depth)
        targets = grid_targets([(-2, 2), (-2, 2)], 21)
        assert covered_targets(cloud, targets, 1e-3) == set(targets)

    def test_preimage_agrees_with_sweep_on_the_same_grid(self):
        g = extend_to_line()
        for target in grid_targets([(-2, 2), (-2, 2)], 21):
            witness = preimage(g, target, 1e-3)
            value = evaluate_to_precision(g, witness, 1e-5).value
            assert max(abs(v - y) for v, y in zip(value, target)) <= 1e-3


class TestLiftDimension:
    def test_first_coordinate_law_is_exact(self):
        g = extend_to_line()
        h = lift_dimension(g)
        rng = random.Random(17)
        for _ in range(200):
            t = rng.uniform(-2.0, 4.0)
            depth = rng.randrange(4, 16)
            assert evaluate_at(h, (t,), depth).value[0] == evaluate_at(g, (t,), depth).value[0]

    def test_arities_climb_one_per_lift(self):
        expr = extend_to_line()
        assert expr.codomain_arity == 2
        for expected in (3, 4, 5, 6):
            expr = lift_dimension(expr)
            assert expr.domain_arity == 1
            assert expr.codomain_arity == expected

    def test_codomain_cap(self):
        expr = extend_to_line()
        for _ in range(4):
            expr = lift_dimension(expr)
        with pytest.raises(ResourceError, match="^codomain 7 exceeds cap 6$"):
            lift_dimension(expr)

    def test_rejects_wrong_arity(self):
        g = extend_to_line()
        with pytest.raises(StructuralError):
            lift_dimension(project_lift(g, 3))
        # the domain arity is checked before the cap
        six = lift_dimension(lift_dimension(lift_dimension(lift_dimension(g))))
        with pytest.raises(StructuralError):
            lift_dimension(project_lift(six, 2))


class TestProjectLift:
    def test_reads_only_the_first_coordinate(self):
        g = extend_to_line()
        F = project_lift(g, 3)
        want = evaluate_at(g, (1.0,), depth=9).value
        assert evaluate_at(F, (1.0, 2.0, 3.0), depth=9).value == want

    def test_trailing_arguments_are_invisible(self):
        F = project_lift(lift_dimension(extend_to_line()), 4)
        rng = random.Random(19)
        for _ in range(200):
            a = rng.uniform(-3, 3)
            u = [rng.uniform(-9, 9) for _ in range(3)]
            v = [rng.uniform(-9, 9) for _ in range(3)]
            assert (
                evaluate_at(F, (a, *u), depth=8).value
                == evaluate_at(F, (a, *v), depth=8).value
            )

    def test_m_equal_one_is_the_identity_projection(self):
        g = extend_to_line()
        assert project_lift(g, 1) is g

    def test_arity_one_node_is_refused(self):
        # arity 1 is no projection, so projections cannot nest; an arity
        # that only compares equal to 1 is refused, not taken for it
        for arity in (True, 1.0):
            with pytest.raises(DomainError, match=r"^target domain arity must be an integer >= 2"):
                project_lift(extend_to_line(), arity)
        g = extend_to_line()
        assert project_lift(g, 1).arity == 1 and lift_dimension(project_lift(g, 1)).arity == 1

    @pytest.mark.parametrize("arity", [2.5, 2.0, True, "2", None])
    def test_non_integer_arity_rejected(self, arity):
        with pytest.raises(DomainError):
            project_lift(extend_to_line(), arity)

    def test_bad_arity_rejected(self):
        with pytest.raises(DomainError):
            project_lift(extend_to_line(), 0)
        # the inner map's arity is checked first, even where m = 1 would
        # return it unchanged
        inner = project_lift(extend_to_line(), 2)
        for target_m in (0, 1, 3):
            with pytest.raises(StructuralError):
                project_lift(inner, target_m)


def diagonal_member(n):
    return VectorSpanMember(((1.0, (1.0,) * n),), n)


LINE = extend_to_line()


def lifted(lifts):
    expr = LINE
    for _ in range(lifts):
        expr = lift_dimension(expr)
    return expr


# (tree, domain arity, codomain arity) by the factory rules: the line-to-plane
# map is R -> R^2, a lift adds one codomain coordinate, a projection to m sets
# the domain to R^m, and a member after a base keeps both of the base's arities
@pytest.mark.parametrize(
    "expr,domain,codomain",
    [
        (LINE, 1, 2),
        (lifted(1), 1, 2 + 1),
        (lifted(3), 1, 2 + 3),
        (project_lift(LINE, 3), 3, 2),
        (project_lift(lifted(2), 5), 5, 2 + 2),
        (compose_with_base(diagonal_member(2), LINE), 1, 2),
        (compose_with_base(diagonal_member(2), project_lift(LINE, 4)), 4, 2),
        (compose_with_base(diagonal_member(3), project_lift(lifted(1), 6)), 6, 2 + 1),
    ],
    ids=lambda v: v.describe() if isinstance(v, FunctionExpr) else None,
)
def test_node_arities(expr, domain, codomain):
    assert (expr.domain_arity, expr.codomain_arity) == (domain, codomain)


MEMBER2 = diagonal_member(2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: preimage(MEMBER2, (1.0, 1.0), 1e-3), "invert an object of type VectorSpanMember"),
        (lambda: evaluate_at(MEMBER2, (1.0,)), "evaluate an object of type VectorSpanMember"),
        (
            lambda: evaluate_to_precision(MEMBER2, (1.0,), 1e-3),
            "evaluate an object of type VectorSpanMember",
        ),
        (lambda: lift_dimension(MEMBER2), "lift an object of type VectorSpanMember"),
        (lambda: lift_dimension("peano_line"), "lift an object of type str"),
        (lambda: project_lift(MEMBER2, 2), "project an object of type VectorSpanMember"),
        (lambda: project_lift(MEMBER2, 1), "project an object of type VectorSpanMember"),
        (
            lambda: compose_with_base(MEMBER2, MEMBER2),
            "compose a member after an object of type VectorSpanMember",
        ),
        (lambda: compose_with_base(LINE, LINE), "compose a base before an object of type FunctionExpr"),
        (lambda: expr_to_dict(MEMBER2), "serialize an object of type VectorSpanMember"),
    ],
    ids=[
        "preimage", "evaluate_at", "evaluate_to_precision", "lift_dimension", "lift_dimension-str",
        "project_lift", "project_lift-1", "compose_with_base-base", "compose_with_base-member",
        "expr_to_dict",
    ],
)
def test_a_non_tree_argument_is_a_domain_error(call, message):
    # one check names the operation and the type it was handed
    with pytest.raises(DomainError, match=f"^cannot {message}$"):
        call()


class TestEvaluate:
    def test_left_constant_region_through_projection(self):
        g = extend_to_line()
        F = project_lift(g, 3)
        assert evaluate_at(F, (-1.0, 7.0, 9.0)).value == (0.0, 0.0)
        assert evaluate_at(g, (-1.0,)).value == (0.0, 0.0)

    def test_depth_refinement_stays_within_the_estimate(self):
        g = extend_to_line()
        h = lift_dimension(g)
        F = project_lift(h, 2)
        member = make_diagonal_family([1.0], 3)[0]
        pipe = compose_with_base(member, F)
        rng = random.Random(23)
        cases = [(g, 1), (h, 1), (F, 2), (pipe, 2)]
        for _ in range(1000):
            expr, m = cases[rng.randrange(4)]
            point = tuple(rng.uniform(-3.0, 3.0) for _ in range(m))
            k = rng.randrange(6, 18)
            now = evaluate_at(expr, point, k)
            finer = evaluate_at(expr, point, k + 1)
            diff = max(abs(a - b) for a, b in zip(now.value, finer.value))
            assert diff <= now.error_estimate + 1e-12

    def test_phi_compose_is_member_after_inner(self):
        F = project_lift(lift_dimension(extend_to_line()), 2)
        member = VectorSpanMember(((1.0, (1.0, 2.0, 0.5)), (-0.5, (2.0, 1.0, 1.0))), 3)
        pipe = compose_with_base(member, F)
        point = (1.9, -0.4)
        inner = evaluate_at(F, point, depth=10).value
        assert evaluate_at(pipe, point, depth=10).value == member.value_at(inner)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            evaluate_at(extend_to_line(), (0.5, 0.5))
        with pytest.raises(StructuralError):
            evaluate_to_precision(extend_to_line(), (1.3, 2.0), 1e-3)
        with pytest.raises(StructuralError, match="target arity 1 != codomain arity 2"):
            preimage(extend_to_line(), (0.5,), 1e-3)

    def test_depth_cap(self):
        with pytest.raises(ResourceError):
            evaluate_at(extend_to_line(), (0.7,), depth=8192)

    @pytest.mark.parametrize("depth", [1075, 1100, 4096])
    def test_an_estimate_below_the_floats_rounds_up_not_to_zero(self, depth):
        # t = 1.8 lies on the curve over B_2, so the estimate is 2n / 2^depth = 4 / 2^depth
        est = evaluate_at(extend_to_line(), (1.8,), depth).error_estimate
        assert est > 0.0
        assert Fraction(est) >= Fraction(4, 2**depth)

    @pytest.mark.parametrize(
        "lifts,quarter", [(0, 3), (2, 3), (0, 1)], ids=["curve", "curve-lifted", "bridge"]
    )
    def test_a_parameter_past_the_float_range_is_a_domain_error(self, lifts, quarter):
        # t = 10^400 + quarter/4: the curve's estimate 2n, or the bridge's values, pass the floats
        g = extend_to_line()
        for _ in range(lifts):
            g = lift_dimension(g)
        t = Fraction(4 * 10**400 + quarter, 4)
        with pytest.raises(DomainError, match=r"^parameter 4000.*/4 is too far out on the line$"):
            evaluate_at(g, (t,), 12)
        # every float is in range: past 2^52 each is an integer, on a bridge
        assert evaluate_at(g, (1e308,), 12).value[0] == 1e308

    def test_a_far_parameter_whose_values_are_floats_evaluates(self):
        # halfway along the bridge from (i, -i) to (-i - 1, -i - 1) with i = 10^400, x is
        # -1/2, and the lift sends y < 0 to (0, 0): every value is a float
        t = Fraction(4 * 10**400 + 1, 4)
        result = evaluate_at(lift_dimension(extend_to_line()), (t,), 12)
        assert result.value == (-0.5, 0.0, 0.0) and result.error_estimate == 0.0

    def test_a_precision_no_depth_reaches_is_refused(self):
        g = extend_to_line()
        for _ in range(4):
            g = lift_dimension(g)
        with pytest.raises(ResourceError, match="could not reach precision 1e-300"):
            evaluate_to_precision(g, (1.8,), 1e-300)

    def test_request_validation(self):
        g = extend_to_line()
        with pytest.raises(DomainError):
            evaluate_at(g, (0.5,), depth=0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                evaluate_at(g, (bad,))
            with pytest.raises(DomainError):
                preimage(g, (bad, 0.0), 1e-3)
            with pytest.raises(DomainError):
                preimage(g, (0.0, 0.0), bad)
        for bad in (math.nan, 0.0, -1e-3, math.inf):
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                evaluate_to_precision(g, (1.3,), bad)

    def test_phi_compose_reduces_its_member_once(self, monkeypatch):
        calls = []
        reduce = surjkit.spans.component_reduce

        def counting_reduce(member):
            calls.append(member)
            return reduce(member)

        monkeypatch.setattr(surjkit.spans, "component_reduce", counting_reduce)
        member = VectorSpanMember(((1.0, (1.0, 2.0, 0.5)), (-0.5, (2.0, 1.0, 1.0))), 3)
        pipe = compose_with_base(member, project_lift(lift_dimension(extend_to_line()), 2))
        rng = random.Random(37)
        for _ in range(50):
            evaluate_at(pipe, (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)), depth=10)
        preimage(pipe, (0.5, -1.0, 2.0), 1e-3)
        assert len(calls) == 1


# (lifts, shape, target coordinate, eps, the whole inversion error): "projected"
# reads 3 inputs, "member" is 1*Phi[1,...] - 1*Phi[2,...] after that projection
CAP = "preimage depth {depth} exceeds cap 4096"
INVERSION_ERRORS = [
    (1, "bare", 1e300, 1e-200, CAP.format(depth=4334) + "{inner}"),
    (1, "projected", 1e300, 1e-200, CAP.format(depth=4334) + "{inner}"),
    (1, "member", 0.5, 5e-324,
     "solve tolerance underflows to 0.0 in the sinh stage of phi_compose coordinate 1"),
    (2, "bare", 0.5, 1e-306, CAP.format(depth=4107) + "{inner}{inner}"),
    (2, "bare", 1e300, 1e-200, CAP.format(depth=4337) + "{pair}{inner}"),
    (2, "projected", 0.5, 1e-306, CAP.format(depth=4107) + "{inner}{inner}"),
    (2, "projected", 1e300, 1e-200, CAP.format(depth=4337) + "{pair}{inner}"),
    (2, "member", 0.5, 1e-306, CAP.format(depth=4127) + "{inner}{inner}{member}"),
    (3, "bare", 0.5, 1e-306, CAP.format(depth=4110) + "{pair}{inner}{inner}"),
    (3, "bare", 0.5, 1e-200, CAP.format(depth=5399) + "{inner}{inner}{inner}"),
    (3, "projected", 0.5, 1e-306, CAP.format(depth=4110) + "{pair}{inner}{inner}"),
    (3, "projected", 0.5, 1e-200, CAP.format(depth=5399) + "{inner}{inner}{inner}"),
    (3, "member", 0.5, 1e-306, CAP.format(depth=4130) + "{pair}{inner}{inner}{member}"),
    (3, "member", 0.5, 1e-200, CAP.format(depth=5447) + "{inner}{inner}{inner}{member}"),
    (4, "bare", 0.5, 1e-200, CAP.format(depth=5402) + "{pair}{inner}{inner}{inner}"),
    (4, "bare", 0.5, 1e-150, CAP.format(depth=8151) + "{inner}{inner}{inner}{inner}"),
    (4, "projected", 0.5, 1e-200, CAP.format(depth=5402) + "{pair}{inner}{inner}{inner}"),
    (4, "projected", 0.5, 1e-150, CAP.format(depth=8151) + "{inner}{inner}{inner}{inner}"),
    (4, "member", 0.5, 1e-200, CAP.format(depth=5450) + "{pair}{inner}{inner}{inner}{member}"),
    (4, "member", 0.5, 1e-100, CAP.format(depth=5591) + "{inner}{inner}{inner}{inner}{member}"),
]


class TestPreimage:
    def test_origin_target(self):
        g = extend_to_line()
        witness = preimage(g, (0.0, 0.0), 1e-6)
        value = evaluate_to_precision(g, witness, 1e-8).value
        assert max(abs(v) for v in value) <= 1e-6

    def test_round_trip_contract(self):
        g = extend_to_line()
        h = lift_dimension(g)
        rng = random.Random(29)
        for _ in range(50):
            x = rng.uniform(-1.0, 4.0)
            for expr in (g, h):
                y = evaluate_to_precision(expr, (x,), 1e-8).value
                x2 = preimage(expr, y, 1e-5)
                y2 = evaluate_to_precision(expr, x2, 1e-7).value
                assert max(abs(a - b) for a, b in zip(y, y2)) <= 1e-5

    def test_projection_embeds_with_zeros(self):
        F = project_lift(lift_dimension(extend_to_line()), 3)
        witness = preimage(F, (0.25, -1.5, 2.0), 1e-4)
        assert len(witness) == 3
        assert witness[1] == 0 and witness[2] == 0

    def test_coarse_tolerance_takes_the_depth_one_cell(self):
        # log2(4) + log2(1 / 100) < 1: the depth is clamped to 1
        g = extend_to_line()
        witness = preimage(g, (0.5, 0.5), 100.0)
        assert witness == (Fraction(3, 4),)
        value = evaluate_to_precision(g, witness, 1e-3).value
        assert max(abs(v - 0.5) for v in value) <= 100.0

    def test_witnesses_are_exact_rationals(self):
        g = extend_to_line()
        witness = preimage(g, (1.3, -0.2), 1e-8)
        assert isinstance(witness[0], Fraction)

    def test_pipeline_2_to_3_analytic_at_fine_tolerance(self):
        F = project_lift(lift_dimension(extend_to_line()), 2)
        for target in grid_targets([(-5, 5)] * 3, 7):
            witness = preimage(F, target, 1e-3)
            value = evaluate_to_precision(F, witness, 1e-5).value
            assert max(abs(v - y) for v, y in zip(value, target)) <= 1e-3

    def test_pipeline_2_to_3_matches_sweep_oracle_at_coarse_tolerance(self):
        # a sweep through the composed map has quarter-power resolution in
        # the grid spacing, so the oracle comparison runs at eps = 1.0;
        # every target is covered on both routes
        eps = 1.0
        depth = 11
        count = 4**depth
        t = np.linspace(4.5, 5.0, count, endpoint=False) + 0.25 / count
        first = line_map_points(t, depth, {})
        tables: dict = {}
        second = line_map_points(first[:, 1], 9, tables)
        cloud = np.column_stack([first[:, 0], second])
        targets = grid_targets([(-5, 5)] * 3, 7)
        assert covered_targets(cloud, targets, eps) == set(targets)

        F = project_lift(lift_dimension(extend_to_line()), 2)
        for target in targets:
            witness = preimage(F, target, eps)
            value = evaluate_to_precision(F, witness, 1e-3).value
            assert max(abs(v - y) for v, y in zip(value, target)) <= eps

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_single_lift_inverts_a_grid_at_fine_tolerances(self, eps):
        h = lift_dimension(extend_to_line())
        for target in grid_targets([(-10, 10)] * 3, 5):
            witness = preimage(h, target, eps)
            value = evaluate_to_precision(h, witness, eps / 64).value
            assert max(abs(v - y) for v, y in zip(value, target)) <= eps

    def test_four_lifts_under_a_member_at_a_deep_pair(self):
        # the trailing pair of this target is solved at depth 505, so the
        # inner map is asked for 1,011 bits
        base = extend_to_line()
        for _ in range(4):
            base = lift_dimension(base)
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 6))
        pipe = compose_with_base(member, base)
        target = (4.698100818644665, -14.932030697989212, -19.929005511898616,
                  14.856189788971285, -11.621744700195284, -11.38075323101071)
        witness = preimage(pipe, target, 1e-12)
        value = evaluate_to_precision(pipe, witness, 1e-12 / 64).value
        assert max(abs(v - y) for v, y in zip(value, target)) <= 1e-12

    def test_inversion_errors_name_the_node_that_failed(self):
        # the first coordinate's span is too flat to reach the target
        member = VectorSpanMember(((1.0, (1e-18, 1.0)),), 2)
        pipe = compose_with_base(member, extend_to_line())
        with pytest.raises(ResourceError, match=(
            r"^bracket expansion cap reached; .* in the sinh stage of phi_compose coordinate 1$"
        )):
            preimage(pipe, (1e6, 0.5), 1e-3)
        # past the depth cap, read from the stage that failed out to the root:
        # a lift's pair, then one "inner map of dim_lift" per lift outside it
        # (a projection adds none), then the member's inner map
        pair, inner = " in the pair of dim_lift", " in the inner map of dim_lift"
        member = " in the inner map of phi_compose"
        for lifts, shape, y, eps, message in INVERSION_ERRORS:
            expr = extend_to_line()
            for _ in range(lifts):
                expr = lift_dimension(expr)
            n = expr.codomain_arity
            if shape != "bare":
                expr = project_lift(expr, 3)
            if shape == "member":
                family = make_diagonal_family([1.0, 2.0], n)
                expr = compose_with_base(combine_members([1, -1], family), expr)
            message = message.format(pair=pair, inner=inner, member=member)
            with pytest.raises(ResourceError) as info:
                preimage(expr, (y,) * n, eps)
            assert str(info.value) == message, (lifts, shape, eps)

    def test_deep_tolerances_still_succeed_thanks_to_exact_witnesses(self):
        # the decoded parameter is an exact rational, so the forward value
        # eventually coincides with the float target bit for bit
        g = extend_to_line()
        witness = preimage(g, (0.5, 0.5), 1e-300)
        value = evaluate_to_precision(g, witness, 1e-12).value
        assert value == (0.5, 0.5)


def fraction_peano_point(t, depth):
    """Reference for the depth-k line-to-plane map in Fraction arithmetic:
    the exact point, and the error estimate."""
    t = Fraction(t)
    if t <= 0:
        return (Fraction(0), Fraction(0)), 0.0
    i = math.floor(t)
    frac = t - i
    n = i + 1
    if frac < Fraction(1, 2):
        px, py = (Fraction(0), Fraction(0)) if i == 0 else (Fraction(i), Fraction(-i))
        qx, qy = Fraction(-n), Fraction(-n)
        theta = 2 * frac
        return (px + theta * (qx - px), py + theta * (qy - py)), 0.0
    index = math.floor((2 * frac - 1) * 4**depth)
    col, row = _d2xy(depth, index)
    denom = 1 << (depth + 1)
    x = Fraction(2 * n) * Fraction(2 * col + 1, denom) - n
    y = Fraction(2 * n) * Fraction(2 * row + 1, denom) - n
    return (x, y), float(2 * n) * 2.0 ** (-depth)


def fraction_peano_eval(t, depth):
    """Reference for evaluate_at(extend_to_line(), ...), in Fraction arithmetic."""
    (x, y), est = fraction_peano_point(t, depth)
    return (float(x), float(y)), est


def fraction_lift_eval(t, depth):
    """Reference for lift_dimension(extend_to_line()) at depth k: the
    trailing curve reads the inner map's last coordinate exactly."""
    (x, y), _ = fraction_peano_point(t, depth)
    return (x, *fraction_peano_point(y, depth)[0])


def fraction_peano_preimage(target, bits):
    """Reference for extend_to_line()._preimage, in Fraction arithmetic."""
    a, b = Fraction(target[0]), Fraction(target[1])
    n = max(1, math.ceil(max(abs(a), abs(b))))
    k = max(1, math.ceil(math.log2(4 * n) + bits))
    u = hilbert_decode(((a + n) / (2 * n), (b + n) / (2 * n)), k)
    return (Fraction(2 * n - 1, 2) + u / 2,)


def float_bits(values):
    return [float(v).hex() for v in values]


reals = st.one_of(
    st.floats(min_value=-1.0, max_value=8.0),
    st.fractions(min_value=-1, max_value=8, max_denominator=10**30),
)


@given(t=reals, depth=st.integers(min_value=1, max_value=80))
def test_integer_curve_stage_is_bit_identical_to_fractions(t, depth):
    result = evaluate_at(LINE, (t,), depth)
    want, want_est = fraction_peano_eval(t, depth)
    assert float_bits(result.value) == float_bits(want)
    assert result.error_estimate.hex() == want_est.hex()


@given(
    target=st.tuples(
        st.one_of(st.floats(min_value=-20.0, max_value=20.0), st.fractions(-20, 20)),
        st.one_of(st.floats(min_value=-20.0, max_value=20.0), st.fractions(-20, 20)),
    ),
    tol=st.floats(min_value=1e-12, max_value=1.0),
)
def test_integer_preimage_matches_fraction_decode(target, tol):
    bits = -math.log2(tol)
    (pair,) = LINE._preimage(tuple(map(_ratio, target)), bits)  # it reads exact pairs
    assert (Fraction(*pair),) == fraction_peano_preimage(target, bits)
    assert Fraction(*pair).as_integer_ratio() == pair  # exact ints in lowest terms


def decode_route_preimage(target, bits):
    """Reference for _line_preimage through the public codec:
    hilbert_decode of the target's position in the unit square, as t."""
    (pa, qa), (pb, qb) = _ratio(target[0]), _ratio(target[1])
    n = max(1, -(-abs(pa) // qa), -(-abs(pb) // qb))
    k = max(1, math.ceil(math.log2(4 * n) + bits))
    u = hilbert_decode((Fraction(pa + n * qa, 2 * n * qa), Fraction(pb + n * qb, 2 * n * qb)), k)
    return (Fraction(2 * n - 1, 2) + u / 2,), k


@st.composite
def inversion_targets(draw):
    """Plane targets, many on a boundary of B_n: 0, the box edges +-n and
    dyadic cell edges j / 2^d of the unit square scaled to B_n."""
    n = draw(st.integers(min_value=1, max_value=6))

    def coordinate():
        depth = draw(st.integers(min_value=0, max_value=40))
        edge = Fraction(-n) + Fraction(2 * n * draw(st.integers(0, 1 << depth)), 1 << depth)
        return draw(
            st.one_of(
                st.floats(min_value=-20.0, max_value=20.0),
                st.sampled_from([0, 0.0, n, -n, float(n), -float(n)]),
                st.sampled_from([edge, float(edge)]),
            )
        )

    return coordinate(), coordinate()


@given(target=inversion_targets(), bits=st.floats(min_value=0.0, max_value=80.0))
def test_integer_inversion_matches_the_decode_route(target, bits):
    (t,), k = _line_preimage(tuple(map(_ratio, target)), bits)
    assert ((Fraction(*t),), k) == decode_route_preimage(target, bits)
    assert Fraction(*t).as_integer_ratio() == t  # exact ints in lowest terms


def test_inversion_pairs_are_the_fraction_values():
    rng = random.Random(33)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 8)
        cases.append(((rng.uniform(-n, n), rng.uniform(-n, n)), rng.uniform(0.0, 60.0)))
    # log2(4n) + bits = 4096 in B_1 and B_2: the depth cap itself
    cases += [((rng.uniform(-1, 1), rng.uniform(-1, 1)), 4094.0) for _ in range(2)]
    cases += [((1.5, rng.uniform(-2, 2)), 4093.0)]
    # the entry corner (-n, -n) of B_n is cell 0: numerator (2n - 1) * 4^k, so t = (2n - 1)/2
    corners = {((-float(n), -float(n)), bits): n for n in (1, 2, 5) for bits in (0.0, 7.5, 200.0)}
    for target, bits in cases + list(corners):
        (pair,), k = _line_preimage(tuple(map(_ratio, target)), bits)
        p, q = pair
        assert type(p) is int and type(q) is int
        assert q > 1 and q & (q - 1) == 0 and p & 1  # a power of two, in lowest terms
        assert (Fraction(p, q),) == fraction_peano_preimage(target, bits)
        assert k <= 4096 and (k == 4096 or bits < 4093.0)
        if (target, bits) in corners:
            assert pair == (2 * corners[target, bits] - 1, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_preimage_returns_a_fraction_then_int_zeros(m):
    witness = preimage(project_lift(lift_dimension(LINE), m), (1.3, -0.2, 4.1), 1e-6)
    assert len(witness) == m and type(witness[0]) is Fraction
    assert all(type(x) is int and x == 0 for x in witness[1:])


@pytest.mark.parametrize("depth", [64, 128])
def test_error_estimate_bounds_the_deep_lift_error(depth):
    h = lift_dimension(extend_to_line())
    rng = random.Random(43)
    for _ in range(100):
        target = tuple(rng.uniform(-10.0, 10.0) for _ in range(3))
        witness = preimage(h, target, 1e-8)
        result = evaluate_at(h, witness, depth)
        deep = fraction_lift_eval(witness[0], 2 * depth)
        gap = max(abs(v - float(x)) for v, x in zip(result.value, deep))
        assert gap <= result.error_estimate + 1e-12


def limit_values(expr, point):
    values, _ = expr._eval(tuple(map(_ratio, point)), None)
    return tuple(p / q for p, q in values)


@pytest.mark.parametrize("n", [1, 3])
def test_limit_on_the_curve_is_the_entry_corner_of_the_cell(n):
    # at t = (2n - 1)/2 + i / (2 * 4^k) the curve parameter is i / 4^k
    for k in range(7):
        fine, coarse = recursion_centers(k + 1), recursion_centers(k)
        for i in range(4**k):
            corner = 2.0 * fine[4 * i] - coarse[i]
            t = Fraction(2 * n - 1, 2) + Fraction(i, 2 * 4**k)
            assert limit_values(LINE, (t,)) == tuple(n * (2.0 * c - 1.0) for c in corner)


def test_limit_rejects_a_parameter_that_is_not_dyadic():
    with pytest.raises(DomainError):
        limit_values(LINE, (Fraction(2, 3),))


def limit_pipelines():
    base, pipes = extend_to_line(), []
    for _ in range(3):
        pipes.append(base)
        base = lift_dimension(base)
    member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 3))
    return pipes + [compose_with_base(member, pipes[1])]


LIMIT_PIPELINES = limit_pipelines()

dyadics = st.integers(min_value=0, max_value=60).flatmap(
    lambda k: st.integers(min_value=-(2**k), max_value=5 * 2**k).map(lambda a: Fraction(a, 2**k))
)


@given(
    expr=st.sampled_from(LIMIT_PIPELINES),
    t=dyadics,
    depth=st.sampled_from([64, 128]),
)
def test_limit_is_within_the_error_estimate_of_deep_approximants(expr, t, depth):
    result = evaluate_at(expr, (t,), depth)
    limit = limit_values(expr, (t,))
    assert max(abs(a - b) for a, b in zip(limit, result.value)) <= result.error_estimate


def test_limit_checked_witnesses_recheck_within_eps():
    # lifts 0-4 under three pipeline shapes, four tolerances, 40 targets each:
    # every witness, checked by the limit map, re-evaluates within eps
    rng = random.Random(5)
    cases = 0
    for lifts in range(5):
        base = extend_to_line()
        for _ in range(lifts):
            base = lift_dimension(base)
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], base.codomain_arity))
        for expr in (base, compose_with_base(member, base), project_lift(base, 3)):
            for eps in (1e-3, 1e-6, 1e-9, 1e-12):
                for _ in range(40):
                    target = tuple(rng.uniform(-10.0, 10.0) for _ in range(expr.codomain_arity))
                    witness = preimage(expr, target, eps)
                    value = evaluate_to_precision(expr, witness, eps / 64).value
                    assert max(abs(v - y) for v, y in zip(value, target)) <= eps
                    cases += 1
    assert cases == 2400


def phi_tree(coefficient="1.0", exponent="2.0", lifts=0, project_to=1):
    """The dict of a one-term member after the line-to-plane map, with one field replaced."""
    return {
        "base": {"construct": "extend_to_line", "lifts": lifts, "project_to": project_to},
        "family": {"terms": [{"coefficient": coefficient, "exponents": ["1.0", exponent]}]},
    }


def real_error(path, value):
    return rf"^expected a finite decimal string in '{path}', got {value!r}$"


def integer_error(path, value):
    return rf"^expected an integer in '{path}', got {value!r}$"


MALFORMED_TREES = [  # a tree dict and the message it must raise
    (phi_tree(coefficient="nan"), real_error("family.terms.coefficient", "nan")),
    (phi_tree(coefficient="inf"), real_error("family.terms.coefficient", "inf")),
    (phi_tree(coefficient="-inf"), real_error("family.terms.coefficient", "-inf")),
    (phi_tree(coefficient=True), real_error("family.terms.coefficient", True)),
    (phi_tree(exponent="nan"), real_error("family.terms.exponents", "nan")),
    (phi_tree(exponent="inf"), real_error("family.terms.exponents", "inf")),
    (phi_tree(exponent="x"), real_error("family.terms.exponents", "x")),
    (phi_tree(lifts=2.9), integer_error("base.lifts", 2.9)),
    (phi_tree(lifts=True), integer_error("base.lifts", True)),
    (phi_tree(lifts="2"), integer_error("base.lifts", "2")),
    (phi_tree(project_to=2.9), integer_error("base.project_to", 2.9)),
    (phi_tree(project_to=True), integer_error("base.project_to", True)),
    (phi_tree(project_to="2"), integer_error("base.project_to", "2")),
    (phi_tree(lifts=1.0), integer_error("base.lifts", 1.0)),
    (
        {**phi_tree(), "family": {"terms": ["1.0"]}},
        r"^section 'family\.terms\[0\]' must be an object$",
    ),
    ([phi_tree()], r"^section 'tree' must be an object$"),
    ("peano_line", r"^section 'tree' must be an object$"),
    ({"base": 5}, r"^section 'base' must be an object$"),
    ({"base": None}, r"^section 'base' must be an object$"),
    ({**phi_tree(), "family": []}, r"^section 'family' must be an object$"),
    ({**phi_tree(), "family": {"terms": 5}}, r"^expected a list in 'family.terms', got 5$"),
    ({**phi_tree(), "family": {}}, r"^family needs diagonal_exponents or terms$"),
    (
        {"base": {"construct": ["extend_to_line"]}},
        r"^unknown base construct \['extend_to_line'\]$",
    ),
    ({"family": phi_tree()["family"]}, r"^missing keys \['base'\] in section 'tree'$"),
    ({"base": {"lifts": 1}}, r"^missing keys \['construct'\] in section 'base'$"),
]


class TestSerialization:
    def test_round_trips(self):
        g = extend_to_line()
        F = project_lift(lift_dimension(g), 2)
        member = make_diagonal_family([1.5], 3)[0]
        pipe = compose_with_base(member, F)
        for expr in (g, F, pipe, lifted(2)):
            data = expr_to_dict(expr)
            assert expr_from_dict(data) == expr
            assert ("family" in data) == (expr.member is not None)

    def test_the_dict_is_a_spec_base_and_family(self):
        data = expr_to_dict(project_lift(extend_to_line(), 3))
        assert data == {"base": {"construct": "extend_to_line", "lifts": 0, "project_to": 3}}
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 3))
        base = project_lift(lift_dimension(extend_to_line()), 2)
        data = expr_to_dict(compose_with_base(member, base))
        assert data == {
            "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 2},
            "family": {"terms": [
                {"coefficient": "-1.0", "exponents": ["2.0", "2.0", "2.0"]},
                {"coefficient": "1.0", "exponents": ["1.0", "1.0", "1.0"]},
            ]},
        }

    @pytest.mark.parametrize(
        "data,message",
        MALFORMED_TREES,
        # the ids pytest gives a lone data parameter
        ids=[d if isinstance(d, str) else f"data{i}" for i, (d, _) in enumerate(MALFORMED_TREES)],
    )
    def test_malformed_trees_raise_structural_error(self, data, message):
        # never a bare ValueError or TypeError, and never a silent truncation
        with pytest.raises(StructuralError, match=message):
            expr_from_dict(data)

    def test_the_arity_cap_holds_for_tree_dicts(self):
        for lifts in (5, 3_000_000):
            with pytest.raises(ResourceError, match="^codomain 7 exceeds cap 6$"):
                expr_from_dict(phi_tree(lifts=lifts))
        with pytest.raises(ResourceError, match="^domain arity 7 exceeds cap 6$"):
            expr_from_dict(phi_tree(project_to=7))

    def test_declared_arities_are_checked(self):
        # a term's exponent count must be the base's codomain, and the counts must be in range
        message = r"^family.terms\[0\] has 2 exponents, base produces 3$"
        with pytest.raises(StructuralError, match=message):
            expr_from_dict(phi_tree(lifts=1))
        with pytest.raises(StructuralError, match="^base.lifts must be non-negative$"):
            expr_from_dict(phi_tree(lifts=-1))
        with pytest.raises(DomainError, match=r"^target domain arity must be an integer >= 2"):
            expr_from_dict(phi_tree(project_to=0))

    def test_unknown_kind_rejected(self):
        # the base construct names the kind of map the tree starts from
        with pytest.raises(StructuralError, match="^unknown base construct 'moebius'$"):
            expr_from_dict({"base": {"construct": "moebius"}})

    def test_unknown_keys_rejected(self):
        base = {"construct": "extend_to_line"}
        for data, key, section in (
            ({"base": {**base, "padding": 1}}, "padding", "base"),
            ({**phi_tree(), "family": {"terms": [], "padding": 1}}, "padding", "family"),
            ({"base": base, "padding": 1}, "padding", "tree"),
            # a tree dict is a spec's base and family only
            ({"base": base, "output": {"format": "json"}}, "output", "tree"),
        ):
            with pytest.raises(
                StructuralError, match=rf"^unknown keys \['{key}'\] in section '{section}'$"
            ):
                expr_from_dict(data)


def grammar_trees():
    """Every tree the factories admit: the line-to-plane map under 0 to 4
    lifts, optionally projected to 2 to 6 inputs, optionally under a member."""
    for lifts in range(5):
        base = extend_to_line()
        for _ in range(lifts):
            base = lift_dimension(base)
        for m in range(1, 7):
            tree = project_lift(base, m)
            yield tree
            yield compose_with_base(diagonal_member(tree.codomain_arity), tree)


class TestGrammar:
    def test_every_admitted_tree_builds_and_walks(self):
        trees = set(grammar_trees())
        assert len(trees) == 60
        # three fields say it all: at most 4 lifts, 6 inputs and one member
        fields = {(tree.lifts, tree.arity, tree.member is not None) for tree in trees}
        assert fields == {(n, m, b) for n in range(5) for m in range(1, 7) for b in (False, True)}
        for tree in trees:
            read = expr_from_dict(expr_to_dict(tree))
            assert read == tree and hash(read) == hash(tree)
            assert read.describe() == tree.describe()
            spec = read_spec(expr_to_dict(tree)).pipeline
            assert spec == tree and spec.describe() == tree.describe()
            point = (0.75,) + (2.0,) * (tree.domain_arity - 1)
            value = evaluate_at(tree, point, 8).value
            assert len(value) == tree.codomain_arity and all(map(math.isfinite, value))
            assert evaluate_at(read, point, 8).value == value
            # no factory over an admitted tree builds one outside the set
            n = tree.codomain_arity
            builds = [lambda: lift_dimension(tree)]
            builds += [lambda: compose_with_base(diagonal_member(n), tree)]
            builds += [lambda m=m: project_lift(tree, m) for m in range(1, 7)]
            for build in builds:
                try:
                    assert build() in trees
                except (StructuralError, ResourceError):
                    pass

    def test_a_node_above_a_member_is_refused_on_every_path(self):
        member = diagonal_member(3)
        top = compose_with_base(member, lift_dimension(extend_to_line()))
        builds = [
            lambda: compose_with_base(member, top),
            lambda: lift_dimension(top),
            lambda: project_lift(top, 2),
        ]
        for build in builds:
            with pytest.raises(StructuralError, match="^a span member applies at the root only$"):
                build()
