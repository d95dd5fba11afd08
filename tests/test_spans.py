"""Scalar and vector span algebra: evaluation, asymptotics, solving, reduction."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from surjkit import (
    DomainError,
    NoSolutionError,
    ResourceError,
    classify_asymptotics,
    combine_members,
    component_reduce,
    make_diagonal_family,
    make_scalar_span,
    phi_eval,
    scalar_solve,
    VectorSpanMember,
)
from oracles import bisect_solve

# e - 1/e to 40 digits: 2.350402387287602913764763701191201630311
PHI_1_AT_1 = 2.3504023872876029
# non-monotone: s = -3 has a gentle root in (0, 1) and a steep one near -19.4
GENTLE_ROOT_SPAN = [(1.092, 2.588), (-0.635, 4.304), (0.195, 4.365)]


class TestPhi:
    def test_vanishes_at_zero(self):
        for r in (0.1, 1.0, 2.0, 17.5):
            assert phi_eval(r, 0.0) == 0.0

    def test_odd_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            t = rng.uniform(-5, 5)
            assert phi_eval(2.0, -t) == -phi_eval(2.0, t)

    def test_value_at_one(self):
        assert phi_eval(1.0, 1.0) == pytest.approx(PHI_1_AT_1, rel=1e-15)

    def test_strictly_increasing_on_grid(self):
        values = [phi_eval(1.5, -3 + 0.1 * i) for i in range(61)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow_clamps_to_signed_infinity(self):
        assert phi_eval(5.0, 1e6) == math.inf
        assert phi_eval(5.0, -1e6) == -math.inf

    def test_nonpositive_exponent_rejected(self):
        for r in (0.0, -2.0, math.nan):
            with pytest.raises(DomainError):
                phi_eval(r, 1.0)


class TestScalarSpan:
    def test_cancellation_yields_zero_function(self):
        assert make_scalar_span([(1.0, 2.0), (-1.0, 2.0)]).is_zero

    def test_describe_lists_the_terms_by_descending_exponent(self):
        assert make_scalar_span([(1.5, 1.0), (-2.0, 3.0)]).describe() == "-2*phi[3] + 1.5*phi[1]"
        assert make_scalar_span([]).describe() == "0"

    def test_all_terms_vanish_at_zero(self):
        assert make_scalar_span([(1.0, 1.0), (2.0, 3.0)]).value(0.0) == 0.0

    def test_sorted_descending(self):
        s = make_scalar_span([(1.0, 1.0), (2.0, 3.0)])
        assert [r for _, r in s.terms] == [3.0, 1.0]

    def test_evaluation_is_the_sum(self):
        s = make_scalar_span([(1.5, 1.0), (-2.0, 3.0)])
        t = 0.7
        assert s.value(t) == pytest.approx(1.5 * phi_eval(1.0, t) - 2.0 * phi_eval(3.0, t))

    def test_opposite_overflows_take_the_leading_sign(self):
        s = make_scalar_span([(1.0, 200.0), (-1.0, 100.0)])
        assert s.value(8.0) == math.inf
        assert s.value(-8.0) == -math.inf

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(DomainError):
            make_scalar_span([(1.0, -1.0)])

    def test_zero_span_has_no_leading_term(self):
        with pytest.raises(NoSolutionError):
            make_scalar_span([]).leading


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.5]),
        ),
        max_size=6,
    )
)
def test_normalization_is_idempotent(pairs):
    once = make_scalar_span(pairs)
    assert make_scalar_span(once.terms) == once


class TestAsymptotics:
    def test_single_positive_term(self):
        a = classify_asymptotics(make_scalar_span([(1.0, 2.0)]))
        assert (a.at_plus_infinity, a.at_minus_infinity) == (math.inf, -math.inf)

    def test_largest_exponent_decides(self):
        a = classify_asymptotics(make_scalar_span([(-1.0, 5.0), (100.0, 1.0)]))
        assert (a.at_plus_infinity, a.at_minus_infinity) == (-math.inf, math.inf)

    def test_zero_function(self):
        assert classify_asymptotics(make_scalar_span([])).is_zero

    def test_matches_sampled_sign_beyond_domination_threshold(self):
        # finite version of the limit claim: past T the leading exponential
        # outweighs the combined coefficient mass of every other term
        grid = [0.3, 0.7, 1.1, 1.9, 2.6, 3.4, 4.2, 5.0]
        rng = random.Random(21)
        for _ in range(200):
            exponents = rng.sample(grid, rng.randrange(1, 5))
            s = make_scalar_span(
                [(rng.choice([-1, 1]) * rng.uniform(0.25, 4.0), r) for r in exponents]
            )
            alpha1, r1 = s.leading
            mass = sum(abs(a) for a, _ in s.terms)
            rest = mass - abs(alpha1)
            t = max(1.0, math.log(4.0 * mass / abs(alpha1)) / r1)
            if len(s.terms) > 1:
                r2 = s.terms[1][1]
                t = max(t, math.log(2.0 * rest / abs(alpha1)) / (r1 - r2))
            t = min(t, 0.95 * 700.0 / r1)  # stay clear of float overflow
            for probe in (t, 2.0 * t, 4.0 * t):
                probe = min(probe, 0.95 * 700.0 / r1)
                assert math.copysign(1.0, s.value(probe)) == math.copysign(1.0, alpha1)
                assert math.copysign(1.0, s.value(-probe)) == -math.copysign(1.0, alpha1)


class TestScalarSolve:
    def test_odd_root_at_zero(self):
        assert scalar_solve(make_scalar_span([(1.0, 1.0)]), 0.0, 1e-12) == 0.0

    def test_inverts_the_value_at_one(self):
        t = scalar_solve(make_scalar_span([(1.0, 1.0)]), PHI_1_AT_1, 1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_large_target_sign_follows_leading_coefficient(self):
        s = make_scalar_span([(-2.0, 4.0), (5.0, 1.0)])
        t = scalar_solve(s, 1e8, 1e-6)
        assert t < 0  # leading coefficient negative: big values live on the left

    @pytest.mark.parametrize(
        "y,tol",
        [(math.nan, 1e-9), (math.inf, 1e-9), (-math.inf, 1e-9), (1.0, math.nan), (1.0, 0.0), (1.0, -1e-9)],
    )
    def test_non_finite_target_or_bad_tolerance_rejected(self, y, tol):
        with pytest.raises(DomainError):
            scalar_solve(make_scalar_span([(1.0, 1.0)]), y, tol)

    def test_zero_span_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            scalar_solve(make_scalar_span([]), 1.0, 1e-9)

    def test_bracket_expansion_cap(self):
        # a microscopic exponent pushes the needed bracket past the cap
        from surjkit import ResourceError

        with pytest.raises(ResourceError):
            scalar_solve(make_scalar_span([(1.0, 1e-18)]), 1e6, 1e-6)

    def test_stalled_bisection_names_its_best_midpoint(self):
        # at the root t ~ 18.42 of 2 sinh(t) = 1e8, adjacent floats differ in
        # value by about 3e-7, far above the tolerance
        with pytest.raises(ResourceError, match=r"^bisection stalled at residual 1\.64e-07 "
                           r"\(tol 1e-12\) near t=18\.4206807"):
            scalar_solve(make_scalar_span([(1.0, 1.0)]), 1e8, 1e-12)

    def test_round_trip_random(self):
        # well-separated exponents and modest coefficient ratios keep the
        # float64 residual quantum at steep crossings far below the tolerance
        rng = random.Random(42)
        for _ in range(300):
            k = rng.randrange(1, 5)
            exponents = rng.sample([0.3, 0.7, 1.1, 1.9, 2.6, 3.4, 4.2, 5.0], k)
            s = make_scalar_span(
                [(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0), r) for r in exponents]
            )
            y = rng.uniform(-100.0, 100.0)
            t = scalar_solve(s, y, 1e-9)
            assert abs(s.value(t) - y) <= 1e-9

    def test_cross_checked_against_fixed_bracket_bisection(self):
        s = make_scalar_span([(2.0, 1.3), (-0.5, 0.4)])
        for y in (-20.0, -1.0, 0.25, 3.0, 50.0):
            t = scalar_solve(s, y, 1e-11)
            t_oracle = bisect_solve(s.value, y, -20.0, 20.0, 1e-11)
            assert s.value(t_oracle) == pytest.approx(y, abs=1e-10)
            assert s.value(t) == pytest.approx(y, abs=1e-10)

    @pytest.mark.parametrize("y", [1.0, 2.0, 3.0])
    def test_non_monotone_span_solves(self, y):
        s = make_scalar_span([(1.0, 2.0), (-3.0, 1.0)])  # phi_2 - 3 phi_1
        t = scalar_solve(s, y, 1e-9)
        assert abs(s.value(t) - y) <= 1e-9

    @pytest.mark.parametrize("tol", [2.5e-4, 2.5e-7])
    def test_non_monotone_span_finds_its_gentle_root(self, tol):
        # s(0) = 0 and s(1) ~ -17.2, so a root of s = -3 lies in (0, 1); the
        # other one, near t = -19.4, is too steep for floats to reach tol
        s = make_scalar_span(GENTLE_ROOT_SPAN)
        assert s.value(1.0) == pytest.approx(-17.2, abs=0.05)
        t = scalar_solve(s, -3.0, tol)
        assert 0.0 < t < 1.0
        assert abs(s.value(t) + 3.0) <= tol


# 1-4 distinct exponents in [0.1, 5] with coefficients of either sign and
# size in [0.1, 3]: the spans the paper's diagonal families reduce to
paper_class_terms = st.lists(
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.1, 3.0), st.floats(0.1, 5.0)),
    min_size=1,
    max_size=4,
    unique_by=lambda term: term[2],
).map(lambda terms: [(sign * alpha, r) for sign, alpha, r in terms])


@settings(max_examples=400, derandomize=True, deadline=None)
@example(terms=GENTLE_ROOT_SPAN, y=-3.0, tol=2.5e-4)
@example(terms=GENTLE_ROOT_SPAN, y=-3.0, tol=2.5e-7)
@given(
    terms=paper_class_terms,
    y=st.floats(-10.0, 10.0),
    tol=st.sampled_from([2.5e-4, 2.5e-7, 2.5e-10]),
)
def test_every_paper_class_span_solves(terms, y, tol):
    s = make_scalar_span(terms)
    t = scalar_solve(s, y, tol)
    assert abs(s.value(t) - y) <= tol


class TestVectorMembers:
    def test_the_empty_member_describes_as_zero(self):
        assert VectorSpanMember((), 2).describe() == "0"

    def test_single_term_reduces_coordinatewise(self):
        m = VectorSpanMember(((1.0, (1.0, 2.0)),), 2)
        spans = component_reduce(m)
        assert spans[0].terms == ((1.0, 1.0),)
        assert spans[1].terms == ((1.0, 2.0),)

    def test_cancellation_edge_case(self):
        # nonzero member whose first coordinate reduces to the zero span
        m = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)
        assert not m.is_zero
        spans = component_reduce(m)
        assert spans[0].is_zero
        assert spans[1].terms == ((-1.0, 3.0), (1.0, 2.0))

    def test_zero_member_reduces_to_zero_everywhere(self):
        # the terms merge away, or survive and cancel in every coordinate:
        # Phi(1,1) - Phi(1,2) - Phi(2,1) + Phi(2,2)
        for m in (
            VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 2.0))), 2),
            VectorSpanMember(
                ((1.0, (1.0, 1.0)), (-1.0, (1.0, 2.0)), (-1.0, (2.0, 1.0)), (1.0, (2.0, 2.0))), 2
            ),
        ):
            assert m.is_zero
            assert all(s.is_zero for s in component_reduce(m))

    def test_reduce_is_linear(self):
        u = VectorSpanMember(((2.0, (1.0, 2.0)),), 2)
        v = VectorSpanMember(((1.0, (3.0, 2.0)),), 2)
        combo = combine_members([3.0, -2.0], [u, v])
        got = component_reduce(combo)
        expected = [
            make_scalar_span(
                [(3.0 * a, r) for a, r in su.terms] + [(-2.0 * a, r) for a, r in sv.terms]
            )
            for su, sv in zip(component_reduce(u), component_reduce(v))
        ]
        assert got == expected

    def test_diagonal_family_shapes(self):
        fam = make_diagonal_family([1.0], 2)
        assert len(fam) == 1
        spans = component_reduce(fam[0])
        assert spans[0] == spans[1] == make_scalar_span([(1.0, 1.0)])

    def test_diagonal_combo_never_cancels(self):
        fam = make_diagonal_family([2.0, 3.0], 2)
        combo = combine_members([1.0, -1.0], fam)
        for span in component_reduce(combo):
            assert span == make_scalar_span([(1.0, 2.0), (-1.0, 3.0)])
            assert not span.is_zero

    def test_duplicate_diagonal_exponent_rejected(self):
        with pytest.raises(DomainError):
            make_diagonal_family([1.0, 1.0], 2)

    def test_exponent_vectors_must_be_positive(self):
        with pytest.raises(DomainError):
            VectorSpanMember(((1.0, (1.0, -2.0)),), 2)

    @pytest.mark.parametrize("arity", [0, 2.0, 2.5, True, "2"])
    def test_arity_must_be_a_positive_integer(self, arity):
        with pytest.raises(DomainError):
            VectorSpanMember((), arity)
        with pytest.raises(DomainError):
            make_diagonal_family([1.0], arity)

    @pytest.mark.parametrize("arity", [7, 10**9])
    def test_arity_past_the_cap_is_refused_before_any_span_is_built(self, arity):
        # a member reduces one span per coordinate when it is built, so the
        # cap must hold first: 10**9 spans would not fit in memory
        with pytest.raises(ResourceError, match=f"^member arity {arity} exceeds cap 6$"):
            VectorSpanMember((), arity)
        with pytest.raises(ResourceError, match=f"^member arity {arity} exceeds cap 6$"):
            make_diagonal_family([1.0], arity)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: VectorSpanMember(((math.nan, (1.0, 1.0)),), 2),
            lambda: VectorSpanMember(((math.inf, (1.0, 1.0)),), 2),
            lambda: VectorSpanMember(((1.0, (1.0, math.nan)),), 2),
            lambda: VectorSpanMember(((1.0, (math.inf, 1.0)),), 2),
            # finite coefficients whose merged sum overflows
            lambda: VectorSpanMember(((1e308, (1.0,)), (1e308, (1.0,))), 1),
            # distinct exponent vectors whose first coordinates merge and overflow
            lambda: VectorSpanMember(((1e308, (1.0, 2.0)), (1e308, (1.0, 3.0))), 2),
            lambda: make_diagonal_family([math.inf], 2),
            lambda: make_diagonal_family([math.nan], 2),
            lambda: make_scalar_span([(math.nan, 1.0)]),
            lambda: make_scalar_span([(-math.inf, 1.0)]),
            lambda: make_scalar_span([(1.0, math.inf)]),
            lambda: make_scalar_span([(1.0, math.nan)]),
        ],
        ids=[
            "member-nan-coefficient", "member-inf-coefficient", "member-nan-exponent",
            "member-inf-exponent", "member-overflowing-sum", "member-overflowing-coordinate",
            "diagonal-inf", "diagonal-nan",
            "span-nan-coefficient", "span-inf-coefficient", "span-inf-exponent",
            "span-nan-exponent",
        ],
    )
    def test_non_finite_terms_rejected(self, build):
        # left unchecked, they would surface only inside the solver, as a
        # bracket or bisection resource failure
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: make_diagonal_family([1.0], 2)[0].value_at((0.5,)), "point has arity 1"),
            (lambda: combine_members([1.0], make_diagonal_family([1.0, 2.0], 2)), "one coefficient"),
            (lambda: combine_members([], []), "empty family"),
            (
                lambda: combine_members(
                    [1.0, 1.0], make_diagonal_family([1.0], 2) + make_diagonal_family([2.0], 3)
                ),
                "share arity",
            ),
        ],
        ids=["value-at-arity", "coefficient-count", "empty-family", "mixed-arities"],
    )
    def test_mismatched_shapes_rejected(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_value_at_matches_components(self):
        m = VectorSpanMember(((1.0, (1.0, 2.0)), (0.5, (2.0, 1.0))), 2)
        point = (0.3, -0.8)
        spans = component_reduce(m)
        assert m.value_at(point) == tuple(s.value(x) for s, x in zip(spans, point))


@settings(max_examples=60)
@given(
    coeffs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=3),
    arity=st.integers(min_value=1, max_value=3),
)
def test_degeneracy_dichotomy_for_diagonal_members(coeffs, arity):
    exps = [1.0, 2.0, 3.0][: len(coeffs)]
    combo = combine_members(coeffs, make_diagonal_family(exps, arity))
    spans = component_reduce(combo)
    # a diagonal combination with surviving terms never cancels
    assert combo.is_zero == (not combo.terms)
    if not combo.terms:
        assert all(s.is_zero for s in spans)
    else:
        assert all(not s.is_zero for s in spans)
