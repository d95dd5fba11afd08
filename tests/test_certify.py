"""Coverage certificates, degeneracy detection, and independence ranks."""

import math
import random
import sys

import pytest

import surjkit.surjections
from surjkit import (
    BoxSpec,
    DegenerateMemberError,
    DomainError,
    VectorSpanMember,
    certify_surjective_on_box,
    combine_members,
    compose_with_base,
    composition_preserves_rank,
    default_sample_points,
    detect_degenerate,
    equispaced_points,
    evaluate_to_precision,
    extend_to_line,
    independence_report,
    lift_dimension,
    make_diagonal_family,
    make_scalar_span,
    project_lift,
)
from oracles import bisect_solve, phi_highprec, rank_highprec

DEGENERATE_MEMBER = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)


def s23_base():
    return project_lift(lift_dimension(extend_to_line()), 2)


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
            if combo.is_zero:
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
            all_nonzero = all(not s.is_zero for s in m.components())
            assert fired != all_nonzero


class TestCoverage:
    def test_scalar_member_certifies_and_matches_bisection_oracle(self):
        member = VectorSpanMember(((1.0, (1.0,)),), 1)
        box = BoxSpec(((-3.0, 3.0),), 13)
        cert = certify_surjective_on_box(member, box, 1e-6)
        assert cert.certified
        assert len(cert.witnesses) == 13
        span = member.components()[0]
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
        calls = []
        check = surjkit.surjections.evaluate_to_precision

        def counting_check(expr, point, precision):
            calls.append(point)
            return check(expr, point, precision)

        # every module of the package that binds the function calls the counter
        for module in list(sys.modules.values()):
            if getattr(module, "evaluate_to_precision", None) is check:
                monkeypatch.setattr(module, "evaluate_to_precision", counting_check)
        member = make_diagonal_family([1.0], 3)[0]
        box = BoxSpec(((-6, 6),) * 3, 3)
        cert = certify_surjective_on_box(compose_with_base(member, s23_base()), box, 1e-3)
        assert cert.certified
        assert len(calls) == box.target_count

    def test_degenerate_member_is_rejected_not_failed(self):
        box = BoxSpec(((-1, 1), (-1, 1)), 3)
        with pytest.raises(DegenerateMemberError) as err:
            certify_surjective_on_box(DEGENERATE_MEMBER, box, 1e-3)
        assert err.value.coordinate == 0
        pipe = compose_with_base(DEGENERATE_MEMBER, project_lift(extend_to_line(), 1))
        with pytest.raises(DegenerateMemberError):
            certify_surjective_on_box(pipe, box, 1e-3)

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
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                certify_surjective_on_box(extend_to_line(), BoxSpec(((-1, 1), (-1, 1)), 3), eps)
        for bad in ((0, math.inf), (-math.inf, 0), (math.nan, 1)):
            with pytest.raises(DomainError):
                BoxSpec((bad, (0, 1)), 2)


class TestIndependence:
    def test_single_function_has_rank_one(self):
        report = independence_report(
            [make_scalar_span([(1.0, 1.0)])], [(t,) for t in equispaced_points(8)]
        )
        assert report.rank == 1 and report.full_rank

    def test_duplicate_refutes_independence(self):
        span = make_scalar_span([(1.0, 1.0)])
        report = independence_report([span, span], [(t,) for t in equispaced_points(8)])
        assert report.rank == 1
        assert not report.full_rank

    def test_ten_members_reach_full_rank_and_match_highprec_oracle(self):
        exponents = [0.5 * i for i in range(1, 11)]
        points = [(t,) for t in equispaced_points(32)]
        family = [make_scalar_span([(1.0, r)]) for r in exponents]
        report = independence_report(family, points, tol=1e-8)
        assert report.rank == 10

        matrix = [[float(phi_highprec(r, t)) for (t,) in points] for r in exponents]
        assert rank_highprec(matrix, 1e-8) == 10

    def test_rank_monotone_under_family_growth(self):
        points = [(t,) for t in equispaced_points(24)]
        family = [make_scalar_span([(1.0, r)]) for r in (0.5, 1.5, 2.5, 3.5, 4.5)]
        ranks = []
        for size in range(1, len(family) + 1):
            ranks.append(independence_report(family[:size], points).rank)
        assert ranks == sorted(ranks)

    def test_needs_enough_points(self):
        family = [make_scalar_span([(1.0, r)]) for r in (1.0, 2.0)]
        with pytest.raises(DomainError):
            independence_report(family, [(1.0,)])

    def test_report_is_reproducible_from_stored_points(self):
        family = make_diagonal_family([1.0, 2.0, 3.0], 2)
        points = default_sample_points(12, 2)
        first = independence_report(family, points)
        again = independence_report(family, [tuple(p) for p in first.points])
        assert again.rank == first.rank
        assert again.points == first.points


class TestCompositionRank:
    def test_single_member(self):
        fam = make_diagonal_family([1.0], 3)
        pts = [(0.5, 0.0), (1.5, 1.0), (2.5, -1.0)]
        rep = composition_preserves_rank(fam, s23_base(), pts)
        assert rep.composed.rank == rep.direct.rank == 1

    def test_duplicate_member_deficient_on_both_sides(self):
        fam = make_diagonal_family([1.0, 2.0], 3)
        fam = [fam[0], fam[1], fam[0]]
        rng = random.Random(41)
        pts = [(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(8)]
        rep = composition_preserves_rank(fam, s23_base(), pts)
        assert rep.ranks_equal
        assert rep.composed.rank == 2

    def test_six_members_rank_six_before_and_after(self):
        fam = make_diagonal_family([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 3)
        rng = random.Random(101)
        pts = [(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(12)]
        rep = composition_preserves_rank(fam, s23_base(), pts)
        assert rep.ranks_equal
        assert rep.composed.rank == 6


class TestSamplePoints:
    def test_equispaced_points_are_positive_and_increasing(self):
        pts = equispaced_points(16)
        assert all(t > 0 for t in pts)
        assert pts == sorted(pts)

    def test_default_sample_points_respect_arity(self):
        pts = default_sample_points(10, 3)
        assert len(pts) == 10
        assert all(len(p) == 3 for p in pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            equispaced_points(1)
