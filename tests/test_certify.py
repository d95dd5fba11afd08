"""Coverage certificates, degeneracy detection, and independence ranks."""

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import surjkit.certify
import surjkit.surjections
from surjkit import (
    BoxSpec,
    DegenerateMemberError,
    DomainError,
    FunctionExpr,
    PhiCompose,
    RefinementError,
    ResourceError,
    StructuralError,
    VectorSpanMember,
    certify_surjective_on_box,
    combine_members,
    compose_with_base,
    composition_preserves_rank,
    default_sample_points,
    detect_degenerate,
    evaluate_to_precision,
    extend_to_line,
    independence_report,
    lift_dimension,
    make_diagonal_family,
    make_scalar_span,
    preimage,
    project_lift,
)
from surjkit.certify import _support_rank, matrix_rank_pivoted
from surjkit.cli import _write_report
from surjkit.surjections import _sup_error
from oracles import bisect_solve, phi_highprec, rank_highprec

DEGENERATE_MEMBER = VectorSpanMember(((1.0, (1.0, 2.0)), (-1.0, (1.0, 3.0))), 2)


def s23_base():
    return project_lift(lift_dimension(extend_to_line()), 2)


def readme_pipeline():
    """The README spec's pipeline: (phi1 - phi2) after one lift and a projection."""
    member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 3))
    return compose_with_base(member, s23_base())


def clear_inversion_memos():
    surjkit.surjections._solve_coordinate.cache_clear()
    surjkit.surjections._invert_pair.cache_clear()


def report_text(cert):
    fh = io.StringIO()
    _write_report(fh, cert, None, {})
    return fh.getvalue()


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
        check = PhiCompose._eval

        def counting_check(self, point, depth):
            if depth is None:
                calls.append(point)
            return check(self, point, depth)

        inversions = []
        invert = PhiCompose._preimage

        def counting_invert(self, target, *args):
            inversions.append(target)
            return invert(self, target, *args)

        monkeypatch.setattr(PhiCompose, "_preimage", counting_invert)
        monkeypatch.setattr(PhiCompose, "_eval", counting_check)
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

    def test_bare_member_warm_certificate_equals_cold(self):
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 2))
        box = BoxSpec(((-5, 5), (-3, 7)), 5)
        clear_inversion_memos()
        cold = certify_surjective_on_box(member, box, 1e-6)
        warm = certify_surjective_on_box(member, box, 1e-6)
        # the repr also tells a root of -0.0 from 0.0
        assert warm == cold and repr(warm) == repr(cold)

    def test_warm_memo_certificate_equals_cold(self):
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
            assert report_text(warm) == report_text(certs[eps])

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
        lifted = lift_dimension(pipe)
        with pytest.raises(DegenerateMemberError):
            certify_surjective_on_box(lifted, BoxSpec(((-1, 1),) * 3, 3), 1e-3)

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
    coordinate 2 wherever coordinate 1 is 1."""

    __slots__ = ()
    domain_arity = codomain_arity = 2

    def _preimage(self, target, bits):
        return target

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
        f = IdentityWithNan()
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
        report = independence_report(
            [make_scalar_span([(1.0, 1.0)])], default_sample_points(8)
        )
        assert report.rank == 1 and report.full_rank

    def test_unknown_object_type_rejected(self):
        with pytest.raises(DomainError, match="cannot evaluate an object of type object"):
            independence_report([object()], default_sample_points(8))

    def test_duplicate_refutes_independence(self):
        span = make_scalar_span([(1.0, 1.0)])
        report = independence_report([span, span], default_sample_points(8))
        assert report.rank == 1
        assert not report.full_rank

    def test_ten_members_reach_full_rank_and_match_highprec_oracle(self):
        exponents = [0.5 * i for i in range(1, 11)]
        points = default_sample_points(32)
        family = [make_scalar_span([(1.0, r)]) for r in exponents]
        report = independence_report(family, points, tol=1e-8)
        assert report.rank == 10

        matrix = [[float(phi_highprec(r, t)) for (t,) in points] for r in exponents]
        assert rank_highprec(matrix, 1e-8) == 10

    def test_rank_monotone_under_family_growth(self):
        points = default_sample_points(24)
        family = [make_scalar_span([(1.0, r)]) for r in (0.5, 1.5, 2.5, 3.5, 4.5)]
        ranks = []
        for size in range(1, len(family) + 1):
            ranks.append(independence_report(family[:size], points).rank)
        assert ranks == sorted(ranks)

    def test_needs_enough_points(self):
        family = [make_scalar_span([(1.0, r)]) for r in (1.0, 2.0)]
        with pytest.raises(DomainError):
            independence_report(family, [(1.0,)])

    def test_overflowing_member_is_a_resource_failure(self):
        family = [make_scalar_span([(1.0, r)]) for r in (1.0, 200.0)]
        points = [(0.5,), (1.0,), (8.0,)]
        with pytest.raises(ResourceError, match=r"1\*phi\[200\] is not finite at sample point \(8\.0,\)"):
            independence_report(family, points)

    def test_report_is_reproducible_from_stored_points(self):
        family = make_diagonal_family([1.0, 2.0, 3.0], 2)
        points = default_sample_points(12, 2)
        first = independence_report(family, points)
        again = independence_report(family, [tuple(p) for p in first.points])
        assert again.rank == first.rank
        assert again.points == first.points


def numpy_rank_pivoted(matrix, tol):
    """The same equilibrated complete-pivot elimination on numpy arrays.

    Written out independently of the package's list version; IEEE doubles
    must give both the same rank and bit-identical pivot ratios.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float)).copy()
    for _ in range(6):
        row_max = np.abs(a).max(axis=1, keepdims=True)
        row_max[row_max == 0.0] = 1.0
        a /= row_max
        col_max = np.abs(a).max(axis=0, keepdims=True)
        col_max[col_max == 0.0] = 1.0
        a /= col_max
    rows = list(range(a.shape[0]))
    cols = list(range(a.shape[1]))
    pivots = []
    while rows and cols:
        sub = np.abs(a[np.ix_(rows, cols)])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        piv = float(sub[i, j])
        if piv == 0.0 or (pivots and piv <= tol * pivots[0]):
            break
        pivots.append(piv)
        pr, pc = rows[i], cols[j]
        for r in rows:
            if r != pr:
                a[r, :] -= (a[r, pc] / a[pr, pc]) * a[pr, :]
        rows.remove(pr)
        cols.remove(pc)
    return len(pivots), [p / pivots[0] for p in pivots] if pivots else []


def random_matrix(rng):
    """Rows of mixed magnitudes, with zero rows and columns and scaled duplicates."""
    n = rng.randrange(1, 9)
    m = rng.randrange(1, 3 * n + 4)
    kind = rng.randrange(4)
    if kind == 0:  # sinh columns over an exponential family, as the reports build
        points = sorted(rng.uniform(0.25, 8.0) for _ in range(m))
        a = [[2.0 * math.sinh(rng.uniform(0.5, 6.0) * t) for t in points] for _ in range(n)]
    else:
        a = [
            [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, 12) for _ in range(m)]
            for _ in range(n)
        ]
    if kind == 2 and n > 1:  # scaled duplicates of earlier rows
        for i in range(1, n, 2):
            scale = rng.choice((2.0, -0.5, 3.0, 1e-9, 7e11))
            a[i] = [scale * x for x in a[rng.randrange(i)]]
    if kind == 3:  # zero rows and zero columns
        for i in rng.sample(range(n), rng.randrange(n + 1)):
            a[i] = [0.0] * m
        for j in rng.sample(range(m), rng.randrange(m + 1)):
            for row in a:
                row[j] = 0.0
    return a


class TestRankElimination:
    def assert_same_as_numpy(self, matrix, tol=1e-8):
        rank, ratios = matrix_rank_pivoted(matrix, tol)
        ref_rank, ref_ratios = numpy_rank_pivoted(matrix, tol)
        assert rank == ref_rank
        assert [repr(x) for x in ratios] == [repr(x) for x in ref_ratios]
        return rank

    def test_matches_the_numpy_elimination_bit_for_bit(self):
        rng = random.Random(20261018)
        ranks = set()
        for _ in range(200):
            matrix = random_matrix(rng)
            ranks.add(self.assert_same_as_numpy(matrix, tol=rng.choice((1e-8, 1e-12, 1e-3))))
        assert {0, 1} < ranks and max(ranks) >= 6

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_readme_report_matrices_match(self, monkeypatch, seed):
        seen = []

        def spy(matrix, tol):
            seen.append(matrix)
            return matrix_rank_pivoted(matrix, tol)

        monkeypatch.setattr(surjkit.certify, "matrix_rank_pivoted", spy)
        base = s23_base()
        family = [compose_with_base(m, base) for m in make_diagonal_family([1.0, 2.0], 3)]
        # the 16 points the command line sampled before it ranked exactly
        points = default_sample_points(16, 2)
        if seed is not None:
            rng = random.Random(seed)
            points = [(rng.uniform(0.25, 8.0), rng.uniform(0.25, 8.0)) for _ in range(16)]
        report = independence_report(family, points)
        assert report.matrix_shape == (2, 48) and report.full_rank
        (matrix,) = seen
        assert self.assert_same_as_numpy(matrix) == 2

    def test_non_finite_entries_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                matrix_rank_pivoted([[1.0, bad], [2.0, 3.0]], 1e-8)

    def test_empty_shapes_have_rank_zero(self):
        assert matrix_rank_pivoted([], 1e-8) == (0, [])
        assert matrix_rank_pivoted([[], []], 1e-8) == (0, [])


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
        assert _support_rank(family) == (3, 4)

    def test_duplicate_member_leaves_the_rank(self):
        family = make_diagonal_family([1.0, 2.0, 3.0], 2)
        assert _support_rank(family) == _support_rank(family + [family[1]]) == (3, 6)

    def test_diagonal_one_to_eight_has_full_rank(self):
        assert _support_rank(make_diagonal_family(range(1, 9), 3)) == (8, 24)

    def test_a_cancellation_only_exact_arithmetic_sees(self):
        # c's coefficients are the exact sums of a's and b's, yet the float
        # elimination of the same columns leaves a rounding residue
        a, b = (0.1, 0.7, 0.6), (0.1, 1.1, 0.4)
        c = tuple(x + y for x, y in zip(a, b))
        assert all(Fraction(x) + Fraction(y) == Fraction(z) for x, y, z in zip(a, b, c))
        assert _support_rank([scalar_member(a), scalar_member(b), scalar_member(c)]) == (2, 3)
        assert matrix_rank_pivoted([a, b, c], 0.0)[0] == 3

    def test_matches_the_highprec_rank_of_evaluation_matrices(self):
        rng = random.Random(20261019)
        deficient = 0
        for _ in range(40):
            arity = rng.randint(1, 2)
            family = [random_member(rng, arity) for _ in range(rng.randint(1, 5))]
            points = [[rng.uniform(0.25, 3.0) for _ in range(arity)] for _ in range(12)]
            matrix = [[v for p in points for v in m.value_at(p)] for m in family]
            rank, _ = _support_rank(family)
            assert rank == rank_highprec(matrix, 1e-8)
            deficient += rank < len(family)
        assert 5 <= deficient <= 35


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
        pts = [t for (t,) in default_sample_points(16)]
        assert all(t > 0 for t in pts)
        assert pts == sorted(pts)

    def test_default_sample_points_respect_arity(self):
        pts = default_sample_points(10, 3)
        assert len(pts) == 10
        assert all(len(p) == 3 for p in pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            default_sample_points(1)
