"""Coverage certificates, degeneracy detection, and the exact support rank."""

import math
import random
from fractions import Fraction

import pytest

import surjkit.surjections
from surjkit import (
    BoxSpec,
    DegenerateMemberError,
    DomainError,
    FunctionExpr,
    RefinementError,
    ResourceError,
    StructuralError,
    VectorSpanMember,
    certify_surjective_on_box,
    combine_members,
    compose_with_base,
    detect_degenerate,
    evaluate_at,
    evaluate_to_precision,
    extend_to_line,
    lift_dimension,
    make_diagonal_family,
    make_scalar_span,
    preimage,
    project_lift,
    scalar_solve,
    support_rank,
)
from surjkit._formats import _write_report
from surjkit.curve import _ratio
from surjkit.certify import _witnesses
from surjkit.surjections import _sup_error, _target_row
from oracles import bisect_solve, phi_highprec, rank_highprec

DEGENERATE_MEMBER = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)


def s23_base():
    return project_lift(lift_dimension(extend_to_line()), 2)


def readme_pipeline():
    """The README spec's pipeline: (phi1 - phi2) after one lift and a projection."""
    member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 3))
    return compose_with_base(member, s23_base())


def clear_inversion_memos():
    surjkit.surjections._invert_pair.cache_clear()


def report_text(cert, path):
    # the writer reads certify's (target, point, residual) rows, whose point
    # holds each Fraction as its exact (p, q) pair, as the inversion hands out
    rows = (
        (w.target, tuple([_ratio(x) if type(x) is Fraction else x for x in w.preimage]),
         w.achieved_error)
        for w in cert.witnesses
    )
    _write_report(str(path), cert.function_id, cert.box, cert.epsilon, rows, None, {})
    return path.read_text(encoding="utf-8")


class TestDetectDegenerate:
    def test_cancellation_fires_on_the_first_coordinate(self):
        assert detect_degenerate(DEGENERATE_MEMBER) == 0

    def test_single_basis_member_is_clean(self):
        for member in make_diagonal_family([0.5, 1.0, 4.0], 3):
            assert detect_degenerate(member) is None

    def test_nonzero_diagonal_combo_is_clean(self):
        rng = random.Random(31)
        fam = make_diagonal_family([1.0, 2.0, 3.0], 2)
        for _ in range(100):
            coeffs = [rng.uniform(-2, 2) for _ in fam]
            combo = combine_members(coeffs, fam)
            if not combo.terms:
                continue
            assert detect_degenerate(combo) is None

    def test_dichotomy(self):
        # exactly one of: detector fires / all coordinates nonzero
        members = [
            DEGENERATE_MEMBER,
            make_diagonal_family([1.0], 2)[0],
            VectorSpanMember(((1.0, (1.0, 2.0)), (1.0, (1.0, 3.0))), 2),
        ]
        for m in members:
            fired = detect_degenerate(m) is not None
            all_nonzero = all(not s.is_zero for s in m.spans)
            assert fired != all_nonzero


class TestCoverage:
    def test_scalar_member_certifies_and_matches_bisection_oracle(self):
        member = VectorSpanMember(((1.0, (1.0,)),), 1)
        box = BoxSpec(((-3.0, 3.0),), 13)
        cert = certify_surjective_on_box(member, box, 1e-6)
        assert cert.certified
        assert len(cert.witnesses) == 13
        span = member.spans[0]
        for w in cert.witnesses:
            t_oracle = bisect_solve(span.value, w.target[0], -10.0, 10.0, 1e-9)
            assert abs(w.preimage[0] - t_oracle) <= 1e-6

    def test_plane_map_certifies_on_a_small_box(self):
        cert = certify_surjective_on_box(extend_to_line(), BoxSpec(((-2, 2), (-2, 2)), 5), 1e-4)
        assert cert.certified
        assert cert.worst_target is None

    def test_composed_pipeline_certifies(self):
        member = make_diagonal_family([1.0], 3)[0]
        pipe = compose_with_base(member, s23_base())
        cert = certify_surjective_on_box(pipe, BoxSpec(((-10, 10),) * 3, 5), 1e-3)
        assert cert.certified
        assert cert.function_id.startswith("(1*Phi[1,1,1])")

    def test_witnesses_reverify_by_forward_evaluation(self):
        member = make_diagonal_family([1.0], 3)[0]
        pipe = compose_with_base(member, s23_base())
        eps = 1e-3
        cert = certify_surjective_on_box(pipe, BoxSpec(((-6, 6),) * 3, 4), eps)
        assert cert.certified
        for w in cert.witnesses:
            value = evaluate_to_precision(pipe, w.preimage, eps / 16).value
            redone = max(abs(v - y) for v, y in zip(value, w.target))
            assert redone <= max(2 * w.achieved_error, 2 * eps)

    def test_one_forward_check_per_target(self, monkeypatch):
        # the forward check is one limit-map evaluation of the whole pipeline
        calls = []
        check = FunctionExpr._eval

        def counting_check(self, point, depth):
            if depth is None:
                calls.append(point)
            return check(self, point, depth)

        inversions = []
        invert = FunctionExpr._preimage

        def counting_invert(self, target, *args):
            inversions.append(target)
            return invert(self, target, *args)

        monkeypatch.setattr(FunctionExpr, "_preimage", counting_invert)
        monkeypatch.setattr(FunctionExpr, "_eval", counting_check)
        member = make_diagonal_family([1.0], 3)[0]
        box = BoxSpec(((-6, 6),) * 3, 3)
        cert = certify_surjective_on_box(compose_with_base(member, s23_base()), box, 1e-3)
        assert cert.certified
        assert len(calls) == box.target_count
        assert len(inversions) == box.target_count

    def test_sinh_stage_solves_each_axis_value_once(self, monkeypatch):
        # every coordinate has the span phi1 - phi2, and a grid of 3 has
        # three axis values: 3 solves, not 27 targets x 3 coordinates
        calls = []
        solve = surjkit.surjections.scalar_solve

        def counting_solve(span, y, tol):
            calls.append(y)
            return solve(span, y, tol)

        monkeypatch.setattr(surjkit.surjections, "scalar_solve", counting_solve)
        clear_inversion_memos()
        cert = certify_surjective_on_box(readme_pipeline(), BoxSpec(((-10, 10),) * 3, 3), 1e-3)
        assert cert.certified
        assert len(calls) == 3

    def test_bare_member_solves_each_axis_value_once(self, monkeypatch):
        # three coordinates with three different spans on a grid of 3: one
        # solve per (coordinate, axis value), not one per target coordinate
        calls = []
        solve = surjkit.surjections.scalar_solve

        def counting_solve(span, y, tol):
            calls.append((span, y))
            return solve(span, y, tol)

        monkeypatch.setattr(surjkit.surjections, "scalar_solve", counting_solve)
        clear_inversion_memos()
        member = VectorSpanMember(((1.0, (1.0, 2.0, 3.0)),), 3)
        cert = certify_surjective_on_box(member, BoxSpec(((-4, 4),) * 3, 3), 1e-6)
        assert cert.certified
        assert len(calls) == 9 == len(set(calls))

    def test_readme_grid_solves_each_axis_value_once(self, monkeypatch):
        # 11 axis values, and one span in all three coordinates: 11 solves
        calls = []
        solve = surjkit.surjections.scalar_solve

        def counting_solve(span, y, tol):
            calls.append(y)
            return solve(span, y, tol)

        monkeypatch.setattr(surjkit.surjections, "scalar_solve", counting_solve)
        box = BoxSpec(((-10, 10),) * 3, 11)
        assert certify_surjective_on_box(readme_pipeline(), box, 1e-3).certified
        assert len(calls) == 11

    def test_grid_rows_equal_one_target_rows(self):
        # the grid keeps one cache, keyed on (coordinate, axis value) and, to
        # share a solve between equal spans, on (span, axis value): every row
        # must be what one target finds alone. The repr tells -0.0 from 0.0,
        # which meet in one key where a -0.0 bound and a 0.0 grid value do.
        lifts2 = compose_with_base(
            combine_members([1, -1], make_diagonal_family([1.0, 2.0], 4)),
            lift_dimension(lift_dimension(extend_to_line())),
        )
        terms = compose_with_base(
            VectorSpanMember([(1, (1, 2)), (-0.5, (2, 1))], 2), project_lift(extend_to_line(), 2)
        )
        bare = VectorSpanMember(((1.0, (1.0, 2.0, 3.0)),), 3)
        signed = BoxSpec(((-0.0, 2.0), (-2.0, 2.0), (-1.0, 1.0)), 3)
        cases = [
            (readme_pipeline(), BoxSpec(((-10, 10),) * 3, 3), 1e-3),
            (readme_pipeline(), BoxSpec(((-10, 10),) * 3, 5), 1e-3),
            (readme_pipeline(), signed, 1e-3),
            (lifts2, BoxSpec(((-3, 3),) * 4, 3), 1e-3),
            (terms, BoxSpec(((-5, 5),) * 2, 5), 1e-6),
            (bare, BoxSpec(((-4, 4),) * 3, 3), 1e-6),
            (bare, signed, 1e-6),
            (extend_to_line(), BoxSpec(((-0.0, 3.0), (-3.0, 3.0)), 3), 1e-9),
        ]
        for f, box, eps in cases:
            rows = list(_witnesses(f, box, eps))
            assert len(rows) == box.target_count
            for target, point, residual in rows:
                if isinstance(f, VectorSpanMember):
                    roots = tuple([scalar_solve(s, y, eps / 2.0) for s, y in zip(f.spans, target)])
                    errors = [abs(s.value(u) - y) for s, u, y in zip(f.spans, roots, target)]
                    assert repr((point, residual)) == repr((roots, _sup_error(errors)))
                else:
                    alone = preimage(f, target, eps)
                    assert repr(point) == repr(
                        tuple([_ratio(x) if type(x) is Fraction else x for x in alone])
                    )
                    assert repr((point, residual)) == repr(_target_row(f, target, eps, {}))

    def test_exact_values_past_the_floats_are_domain_errors(self):
        for big in (10**400, Fraction(10**400, 3)):
            message = f"^{big} is past the float range$"
            with pytest.raises(DomainError, match=message):
                preimage(extend_to_line(), (big, 0), 1e-3)
            with pytest.raises(DomainError, match=message):
                BoxSpec([(0, big), (0, 1)], 2)

    def test_bare_member_warm_certificate_equals_cold(self):
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 2))
        box = BoxSpec(((-5, 5), (-3, 7)), 5)
        clear_inversion_memos()
        cold = certify_surjective_on_box(member, box, 1e-6)
        warm = certify_surjective_on_box(member, box, 1e-6)
        # the repr also tells a root of -0.0 from 0.0
        assert warm == cold and repr(warm) == repr(cold)

    def test_warm_memo_certificate_equals_cold(self, tmp_path):
        # both tolerances share every (span, y) and every pair target, so a
        # memo key that dropped tol or bits would hand the warm run at one
        # tolerance the results of the other
        pipe, box = readme_pipeline(), BoxSpec(((-10, 10),) * 3, 3)
        certs = {}
        for eps in (1e-6, 1e-3):
            clear_inversion_memos()
            certs[eps] = certify_surjective_on_box(pipe, box, eps)
        for eps in (1e-6, 1e-3):
            warm = certify_surjective_on_box(pipe, box, eps)
            assert warm == certs[eps]
            assert report_text(warm, tmp_path / "a") == report_text(certs[eps], tmp_path / "b")

    @pytest.mark.parametrize("lifts,walks", [(0, 1), (1, 2)])
    def test_one_curve_walk_per_curve_stage_per_target(self, monkeypatch, lifts, walks):
        calls = []
        walk = surjkit.surjections._d2xy

        def counting_walk(k, d):
            calls.append(k)
            return walk(k, d)

        monkeypatch.setattr(surjkit.surjections, "_d2xy", counting_walk)
        base = lift_dimension(extend_to_line()) if lifts else extend_to_line()
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], base.codomain_arity))
        for expr in (base, compose_with_base(member, base)):
            calls.clear()
            box = BoxSpec(((-3, 3),) * expr.codomain_arity, 3)
            assert certify_surjective_on_box(expr, box, 1e-3).certified
            assert len(calls) == walks * box.target_count

    def test_degenerate_member_is_rejected_not_failed(self):
        box = BoxSpec(((-1, 1), (-1, 1)), 3)
        with pytest.raises(DegenerateMemberError) as err:
            certify_surjective_on_box(DEGENERATE_MEMBER, box, 1e-3)
        assert err.value.coordinate == 0
        pipe = compose_with_base(DEGENERATE_MEMBER, project_lift(extend_to_line(), 1))
        with pytest.raises(DegenerateMemberError):
            certify_surjective_on_box(pipe, box, 1e-3)

    def test_member_after_a_base_names_its_first_zero_coordinate(self):
        # coordinate 1 is phi_1 - phi_1; coordinate 0 does not cancel
        member = VectorSpanMember(((1.0, (2.0, 1.0)), (-1.0, (3.0, 1.0))), 2)
        pipe = compose_with_base(member, extend_to_line())
        with pytest.raises(DegenerateMemberError) as err:
            certify_surjective_on_box(pipe, BoxSpec(((-1, 1), (-1, 1)), 3), 1e-3)
        assert err.value.coordinate == 1

    def test_zero_member_is_rejected(self):
        zero = VectorSpanMember(((1.0, (1.0, 1.0)), (-1.0, (1.0, 1.0))), 2)
        with pytest.raises(DegenerateMemberError):
            certify_surjective_on_box(zero, BoxSpec(((-1, 1), (-1, 1)), 3), 1e-3)

    def test_budget_and_box_validation(self):
        with pytest.raises(DomainError):
            certify_surjective_on_box(
                extend_to_line(), BoxSpec(((-1, 1), (-1, 1)), 400), 1e-3
            )
        with pytest.raises(DomainError):
            BoxSpec(((-1, 1), (2, 2)), 3)
        with pytest.raises(DomainError):
            BoxSpec(((-1, 1),), 1)
        for grid in (3.0, True, "3", None):
            with pytest.raises(DomainError):
                BoxSpec(((0.0, 1.0),), grid)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                certify_surjective_on_box(extend_to_line(), BoxSpec(((-1, 1), (-1, 1)), 3), eps)
        for bad in ((0, math.inf), (-math.inf, 0), (math.nan, 1)):
            with pytest.raises(DomainError):
                BoxSpec((bad, (0, 1)), 2)

    def test_grid_past_float_range_is_refused(self):
        for bound, grid in (((0.0, 1e308), 3), ((-1e308, 0.0), 5), ((-1e308, 1e308), 3)):
            with pytest.raises(DomainError) as info:
                BoxSpec((bound,), grid)
            assert str(info.value).startswith(f"bound {bound} ")
        assert BoxSpec(((-1e307, 1e307),), 3).targets() == [(-1e307,), (0.0,), (1e307,)]

    def test_each_axis_runs_from_low_to_high_with_both_ends_exact(self):
        # low + (high - low) * i / (grid - 1) can round past high at the last i
        rng = random.Random(11)
        for _ in range(500):
            bounds = []
            for _ in range(2):
                lo = round(rng.uniform(-100, 100), 5)
                bounds.append((lo, round(lo + rng.uniform(1e-3, 200), 5)))
            targets = BoxSpec(bounds, rng.randint(2, 61)).targets()
            assert targets[0] == tuple(lo for lo, _ in bounds)
            assert targets[-1] == tuple(hi for _, hi in bounds)
            for target in targets:
                assert all(lo <= x <= hi for x, (lo, hi) in zip(target, bounds))

    def test_box_arity_and_object_type_are_checked(self):
        box = BoxSpec(((-1, 1),) * 3, 2)
        for f in (extend_to_line(), make_diagonal_family([1.0], 2)[0]):
            with pytest.raises(StructuralError, match="box arity 3 != codomain arity 2"):
                certify_surjective_on_box(f, box, 1e-3)
        with pytest.raises(DomainError, match="ScalarSpan"):
            certify_surjective_on_box(make_scalar_span([(1.0, 1.0)]), BoxSpec(((-1, 1),), 2), 1e-3)

    def test_underflowing_solve_tolerance_is_a_resource_failure(self):
        # eps / 2 rounds to 0.0 at the smallest subnormal eps
        member = make_diagonal_family([1.0], 2)[0]
        box = BoxSpec(((-1, 1), (-1, 1)), 2)
        with pytest.raises(ResourceError) as info:
            certify_surjective_on_box(member, box, 5e-324)
        assert str(info.value).startswith("target (-1.0, -1.0): solve tolerance underflows")
        with pytest.raises(ResourceError, match="in the sinh stage of phi_compose coordinate 1$"):
            certify_surjective_on_box(compose_with_base(member, extend_to_line()), box, 5e-324)


class IdentityWithNan(FunctionExpr):
    """The identity of the plane, except that its limit map reads nan in
    coordinate 2 wherever coordinate 1 is 1; built as IdentityWithNan(0, 2,
    None), it has the plane's arities by the record's own rules."""

    __slots__ = ()

    def _preimage(self, target, bits):
        return target  # the target's exact pairs, as the curve stages hand out

    def _eval(self, point, depth):
        (p, q), second = point
        return ((p, q), (math.nan, 1) if p == q else second), 0.0

    def describe(self):
        return "identity with a nan"


class TestNanResidual:
    def test_sup_error_is_nan_if_any_coordinate_is(self):
        for errors in ([0.1, math.nan], [math.nan, 0.1], [0.2, math.nan, 0.3]):
            assert math.isnan(_sup_error(errors))
        assert _sup_error([0.1, 0.3, 0.2]) == 0.3

    def test_a_nan_in_coordinate_2_fails_the_target(self):
        f = IdentityWithNan(0, 2, None)
        assert (f.domain_arity, f.codomain_arity) == (2, 2)
        assert preimage(f, (0.5, 0.25), 1e-9) == (0.5, 0.25)
        with pytest.raises(RefinementError):
            preimage(f, (1.0, 0.25), 1e-9)
        cert = certify_surjective_on_box(f, BoxSpec(((0.0, 1.0), (0.0, 1.0)), 3), 1e-9)
        nan_targets = [w.target for w in cert.witnesses if math.isnan(w.achieved_error)]
        assert nan_targets == [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
        # not the first witness, and still the worst
        assert cert.status == "failed" and cert.worst_target == (1.0, 0.0)


class TestIndependence:
    def test_single_function_has_rank_one(self):
        assert support_rank(make_diagonal_family([1.0], 1)) == (1, 1)

    def test_unknown_object_type_rejected(self):
        # only span members have a support matrix: a bare span, a tree and
        # anything else are refused, wherever they sit in the family
        family = make_diagonal_family([1.0], 2)
        for other in (
            make_scalar_span([(1.0, 1.0)]),
            compose_with_base(family[0], extend_to_line()),
            object(),
        ):
            with pytest.raises(
                DomainError, match=f"^cannot rank an object of type {type(other).__name__}$"
            ):
                support_rank(family + [other])

    def test_duplicate_refutes_independence(self):
        member = make_diagonal_family([1.0], 1)[0]
        assert support_rank([member, member]) == (1, 1)

    def test_ten_members_reach_full_rank_and_match_highprec_oracle(self):
        exponents = [0.5 * i for i in range(1, 11)]
        assert support_rank(make_diagonal_family(exponents, 1)) == (10, 10)

        points = [0.25 + 7.75 * i / 31 for i in range(32)]  # positive: the phi_r are odd
        matrix = [[float(phi_highprec(r, t)) for t in points] for r in exponents]
        assert rank_highprec(matrix, 1e-8) == 10

    def test_rank_monotone_under_family_growth(self):
        family = make_diagonal_family((0.5, 1.5, 2.5, 3.5, 4.5), 2)
        family.insert(3, combine_members([1, -2], family[:2]))
        ranks = [support_rank(family[:size])[0] for size in range(1, len(family) + 1)]
        assert ranks == [1, 2, 3, 3, 4, 5]

    def test_overflowing_exponents_rank_fully(self):
        # 2 sinh(200 t) is past float range beyond t = 3.55; the rank never evaluates it
        assert support_rank(make_diagonal_family([100.0, 200.0], 1)) == (2, 2)


def scalar_member(coefficients):
    """sum(c_i * Phi[i]) over exponents 1, 2, 3, ... in one coordinate."""
    return VectorSpanMember([(c, (r,)) for r, c in enumerate(coefficients, 1)], 1)


def random_member(rng, arity):
    """One to three terms with small integer coefficients and exponents 0.5 to 2."""
    terms = [
        (rng.choice((-2, -1, 1, 2)), [rng.choice((0.5, 1.0, 1.5, 2.0)) for _ in range(arity)])
        for _ in range(rng.randint(1, 3))
    ]
    return VectorSpanMember(terms, arity)


class TestSupportRank:
    def test_mixed_pairs_cancel_in_one_combination(self):
        # Phi(1,1) - Phi(1,2) - Phi(2,1) + Phi(2,2) is the zero function
        family = [VectorSpanMember([(1.0, (i, j))], 2) for i in (1, 2) for j in (1, 2)]
        assert support_rank(family) == (3, 4)

    def test_duplicate_member_leaves_the_rank(self):
        family = make_diagonal_family([1.0, 2.0, 3.0], 2)
        assert support_rank(family) == support_rank(family + [family[1]]) == (3, 6)

    def test_diagonal_one_to_eight_has_full_rank(self):
        assert support_rank(make_diagonal_family(range(1, 9), 3)) == (8, 24)

    def test_a_cancellation_only_exact_arithmetic_sees(self):
        # c's coefficients are the exact sums of a's and b's, yet rounded
        # elimination of the same columns, even in 50 digits, leaves a residue
        a, b = (0.1, 0.7, 0.6), (0.1, 1.1, 0.4)
        c = tuple(x + y for x, y in zip(a, b))
        assert all(Fraction(x) + Fraction(y) == Fraction(z) for x, y, z in zip(a, b, c))
        assert support_rank([scalar_member(a), scalar_member(b), scalar_member(c)]) == (2, 3)
        assert rank_highprec([a, b, c], 0.0) == 3

    def test_matches_the_highprec_rank_of_evaluation_matrices(self):
        rng = random.Random(20261019)
        deficient = 0
        for _ in range(40):
            arity = rng.randint(1, 2)
            family = [random_member(rng, arity) for _ in range(rng.randint(1, 5))]
            points = [[rng.uniform(0.25, 3.0) for _ in range(arity)] for _ in range(12)]
            matrix = [[v for p in points for v in m.value_at(p)] for m in family]
            rank, _ = support_rank(family)
            assert rank == rank_highprec(matrix, 1e-8)
            deficient += rank < len(family)
        assert 5 <= deficient <= 35


def composition_ranks(family, points):
    """50-digit ranks of {F_i o base} at the points and of {F_i} at their images."""
    base = s23_base()
    images = [evaluate_at(base, p, 24).value for p in points]
    composed = [
        [v for p in points for v in evaluate_at(compose_with_base(m, base), p, 24).value]
        for m in family
    ]
    direct = [[v for y in images for v in m.value_at(y)] for m in family]
    return rank_highprec(composed, 1e-8), rank_highprec(direct, 1e-8)


class TestCompositionRank:
    # pre-composition with a surjection creates no linear relation, so the
    # evaluated ranks on both sides agree with the exact rank of the members
    def test_single_member(self):
        fam = make_diagonal_family([1.0], 3)
        pts = [(0.5, 0.0), (1.5, 1.0), (2.5, -1.0)]
        assert composition_ranks(fam, pts) == (1, 1)
        assert support_rank(fam)[0] == 1

    def test_duplicate_member_deficient_on_both_sides(self):
        fam = make_diagonal_family([1.0, 2.0], 3)
        fam = [fam[0], fam[1], fam[0]]
        rng = random.Random(41)
        pts = [(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(8)]
        assert composition_ranks(fam, pts) == (2, 2)
        assert support_rank(fam)[0] == 2

    def test_six_members_rank_six_before_and_after(self):
        fam = make_diagonal_family([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 3)
        rng = random.Random(101)
        pts = [(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(12)]
        assert composition_ranks(fam, pts) == (6, 6)
        assert support_rank(fam)[0] == 6
