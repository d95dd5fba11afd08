"""Curve codec: conventions, coverage, adjacency, nesting, round trips."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import surjkit.curve
import surjkit.surjections
from surjkit import (
    BoxSpec,
    DomainError,
    ResourceError,
    certify_surjective_on_box,
    curve_trace,
    evaluate_at,
    evaluate_to_precision,
    extend_to_line,
    hilbert_decode,
    hilbert_encode,
    preimage,
)
from surjkit.certify import _witnesses
from surjkit.curve import _d2xy, _ratio, _trace_blocks, _xy2d
from surjkit.surjections import EVAL_DEPTH_CAP
from oracles import recursion_trace

# depth-1 traversal expanded by hand: lower-left, upper-left, upper-right,
# lower-right, entering at the origin corner and exiting at the right corner
DEPTH1_ORDER = [(0, 0), (0, 1), (1, 1), (1, 0)]


class TestCurveParam:
    """A curve parameter is a plain Fraction i/4^k, reduced canonically."""

    def test_equal_value_compares_equal_across_depths(self):
        # the centre of the depth-3 cell entered at t = 1/4 lies in the cells
        # entered there at depths 1 and 2 too: i/4^k at three depths, one value
        _, centre = hilbert_encode(Fraction(1, 4), 3)
        params = [hilbert_decode(centre, k) for k in (1, 2, 3)]
        assert params == [Fraction(1, 4)] * 3
        assert {(t.numerator, t.denominator) for t in params} == {(1, 4)}
        assert len({hash(t) for t in params}) == 1

    def test_value(self):
        assert hilbert_decode((Fraction(1, 4), Fraction(3, 4)), 1) == Fraction(1, 4)
        assert hilbert_decode((0, 0), 5) == 0
        assert hilbert_decode((1, 0), 3) == Fraction(4**3 - 1, 4**3)  # the final cell
        for k in range(5):
            for i in range(4**k):
                _, centre = hilbert_encode(Fraction(i, 4**k), k)
                t = hilbert_decode(centre, k)
                assert type(t) is Fraction and t == Fraction(i, 4**k)

    # a parameter num/4^dep outside [0, 1], or a negative depth
    @pytest.mark.parametrize("num,dep", [(-1, 2), (17, 2), (1, -1)])
    def test_out_of_range_rejected(self, num, dep):
        with pytest.raises(DomainError):
            hilbert_encode(Fraction(num, 4 ** abs(dep)), dep)


class TestEncode:
    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_zero_maps_to_origin_cell(self, k):
        cell, centre = hilbert_encode(0, k)
        assert cell == (0, 0)
        half = Fraction(1, 2 ** (k + 1))
        assert centre == (half, half)
        assert all(type(v) is int for v in cell) and all(type(v) is Fraction for v in centre)

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_one_maps_to_bottom_right_cell(self, k):
        cell, _ = hilbert_encode(1, k)
        assert cell == (2**k - 1, 0)

    def test_quarter_hits_upper_left_quadrant(self):
        cell, _ = hilbert_encode(Fraction(1, 4), 1)
        assert cell == (0, 1)

    def test_depth1_order_is_the_hand_expansion(self):
        order = [hilbert_encode(Fraction(i, 4), 1)[0] for i in range(4)]
        assert order == DEPTH1_ORDER

    def test_outside_unit_interval_rejected(self):
        for t in (1.5, -0.25, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                hilbert_encode(t, 3)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_quadrant_recursion_oracle(self, k):
        oracle = recursion_trace(k)
        for i in range(4**k):
            cell, _ = hilbert_encode(Fraction(i, 4**k), k)
            assert cell == (oracle[i, 0], oracle[i, 1])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_exhaustive_coverage(self, k):
        cells = {hilbert_encode(Fraction(i, 4**k), k)[0] for i in range(4**k)}
        assert len(cells) == 4**k

    def test_nesting(self):
        rng = random.Random(7)
        for _ in range(300):
            t = rng.random()
            for k in range(1, 8):
                (col, row), _ = hilbert_encode(t, k)
                (inner_col, inner_row), _ = hilbert_encode(t, k + 1)
                assert (inner_col // 2, inner_row // 2) == (col, row)


class TestRatio:
    @pytest.mark.parametrize(
        "x",
        [
            0.0, -0.0, 5e-324, -5e-324, 1e308, -2.5, 0.1,
            0, -7, 2**80, True, False,
            Fraction(-3, 8), Fraction(0), Fraction(2**70 + 1, 3**40),
            np.float64(0.1), np.float64(-0.0), np.int64(-12), np.int64(0),
        ],
        ids=repr,
    )
    def test_numerator_and_positive_denominator_of_the_exact_value(self, x):
        num, den = _ratio(x)
        assert type(num) is int and type(den) is int and den > 0
        assert (num, den) == Fraction(x).as_integer_ratio()

    def test_decimal_goes_through_float(self):
        assert _ratio(Decimal("0.1")) == (3602879701896397, 36028797018963968)
        assert _ratio(Decimal("-2.5")) == (-5, 2)

    @pytest.mark.parametrize(
        "x", [math.inf, -math.inf, math.nan, np.float64("inf"), np.float64("nan")], ids=repr
    )
    def test_non_finite_values_are_rejected(self, x):
        with pytest.raises(DomainError):
            _ratio(x)


class TestDecode:
    def test_origin_decodes_to_zero(self):
        for k in (0, 1, 4, 8):
            assert hilbert_decode((Fraction(0), Fraction(0)), k) == 0

    def test_upper_left_center_lands_in_second_quarter(self):
        t = hilbert_decode((Fraction(1, 4), Fraction(3, 4)), 1)
        assert Fraction(1, 4) <= t < Fraction(1, 2)

    def test_round_trip_cell_contains_point(self):
        rng = random.Random(11)
        for _ in range(500):
            x, y = Fraction(rng.random()), Fraction(rng.random())
            k = rng.randrange(1, 9)
            t = hilbert_decode((x, y), k)
            (col, row), _ = hilbert_encode(t, k)
            side = Fraction(1, 2**k)
            assert col * side <= x <= (col + 1) * side
            assert row * side <= y <= (row + 1) * side

    def test_dyadic_grid_round_trip(self):
        for k in range(1, 7):
            for i in range(4**k):
                _, centre = hilbert_encode(Fraction(i, 4**k), k)
                assert hilbert_decode(centre, k) == Fraction(i, 4**k)

    def test_boundary_tie_breaks_to_lower_left(self):
        # (1/2, 1/2) touches all four depth-1 cells; the lower left wins
        t = hilbert_decode((Fraction(1, 2), Fraction(1, 2)), 1)
        cell, _ = hilbert_encode(t, 1)
        assert cell == (0, 0)

    def test_outside_square_rejected(self):
        for p in ((1.5, 0.5), (math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)):
            with pytest.raises(DomainError):
                hilbert_decode(p, 3)


class TestCodec:
    """The byte-table walk against the quadrant-recursion oracle."""

    # a depth that is not a multiple of 4 (of 8 for _xy2d) reads leading pad digits
    @pytest.mark.parametrize("k", range(10))
    def test_every_index_matches_the_oracle(self, k):
        oracle = recursion_trace(k).tolist()
        for i, (col, row) in enumerate(oracle):
            assert _d2xy(k, i) == (col, row)
            assert _xy2d(k, col, row) == i

    @pytest.mark.parametrize("k", [64, 255, 1024])
    def test_deep_round_trips_and_steps(self, k):
        rng = random.Random(k)
        for _ in range(200):
            i = rng.randrange(4**k - 1)
            col, row = _d2xy(k, i)
            assert 0 <= col < 2**k and 0 <= row < 2**k
            assert _xy2d(k, col, row) == i
            next_col, next_row = _d2xy(k, i + 1)
            assert abs(col - next_col) + abs(row - next_row) == 1


class TestTrace:
    def test_depth_zero_is_the_center(self):
        assert curve_trace(0) == [(Fraction(1, 2), Fraction(1, 2))]

    def test_depth_one(self):
        pts = curve_trace(1)
        assert len(pts) == 4
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            assert max(abs(ax - bx), abs(ay - by)) == Fraction(1, 2)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_length_distinct_adjacent(self, k):
        pts = curve_trace(k)
        assert len(pts) == 4**k
        assert len(set(pts)) == 4**k
        step = Fraction(1, 2**k)
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            assert sorted([abs(ax - bx), abs(ay - by)]) == [0, step]

    def test_depth_cap(self):
        with pytest.raises(ResourceError):
            curve_trace(13)
        assert len(curve_trace(7, depth_cap=7)) == 4**7


# every public call that takes a curve depth, with the depth as its argument
DEPTH_TAKERS = {
    "evaluate_at": lambda k: evaluate_at(extend_to_line(), (0.7,), k),
    "hilbert_encode": lambda k: hilbert_encode(0.3, k),
    "hilbert_decode": lambda k: hilbert_decode((0.3, 0.6), k),
    "curve_trace": curve_trace,
}


@pytest.mark.parametrize("depth", [2.5, 2.0, True, False, "3", None, -1])
@pytest.mark.parametrize("call", DEPTH_TAKERS)
def test_a_depth_that_is_not_a_natural_number_is_a_domain_error(call, depth):
    with pytest.raises(DomainError, match="depth must be"):
        DEPTH_TAKERS[call](depth)


@pytest.mark.parametrize("call", ["evaluate_at", "hilbert_encode", "hilbert_decode"])
def test_a_depth_past_the_cap_is_refused_before_any_walk(call, monkeypatch):
    # a walk costs the square of the depth: 14.8 s for hilbert_encode at 10**6
    DEPTH_TAKERS[call](EVAL_DEPTH_CAP)

    def refuse(*args):
        raise AssertionError("the codec ran")

    for name in ("_d2xy", "_xy2d"):
        monkeypatch.setattr(surjkit.curve, name, refuse)
        monkeypatch.setattr(surjkit.surjections, name, refuse)
    for depth in (EVAL_DEPTH_CAP + 1, 10**6):
        with pytest.raises(ResourceError, match=f"^depth {depth} exceeds cap 4096$"):
            DEPTH_TAKERS[call](depth)


PLANE_BOX = BoxSpec(((-1.0, 1.0), (-1.0, 1.0)), 2)
# public calls given text, which float() would parse, or a value of the wrong shape
NOT_A_NUMBER = {
    "encode-text": lambda: hilbert_encode("0.5", 3),
    "decode-text": lambda: hilbert_decode(("0.25", "0.75"), 1),
    "decode-scalar": lambda: hilbert_decode(0.5, 3),
    "decode-triple": lambda: hilbert_decode((0.1, 0.2, 0.3), 3),
    "eval-text": lambda: evaluate_at(extend_to_line(), ("0.5",)),
    "eval-bytes": lambda: evaluate_at(extend_to_line(), (b"0.5",)),
    "preimage-text-target": lambda: preimage(extend_to_line(), ("1", "1"), 1e-3),
    "preimage-text-eps": lambda: preimage(extend_to_line(), (1.0, 1.0), "1e-3"),
    "precision-text-eps": lambda: evaluate_to_precision(extend_to_line(), (0.5,), "1e-3"),
    "witnesses-text-eps": lambda: _witnesses(extend_to_line(), PLANE_BOX, "1e-3"),
    "certify-text-eps": lambda: certify_surjective_on_box(extend_to_line(), PLANE_BOX, "1e-3"),
    "budget-none": lambda: certify_surjective_on_box(extend_to_line(), PLANE_BOX, 1e-3, None),
    "budget-text": lambda: certify_surjective_on_box(extend_to_line(), PLANE_BOX, 1e-3, "100"),
    "budget-float": lambda: certify_surjective_on_box(extend_to_line(), PLANE_BOX, 1e-3, 100.5),
    "budget-bool": lambda: certify_surjective_on_box(extend_to_line(), PLANE_BOX, 1e-3, True),
    "box-text": lambda: BoxSpec((("-1", "1"), ("-1", "1")), 2),
    "box-bytes": lambda: BoxSpec(((b"-1", b"1"),), 2),
    "box-flat-pair": lambda: BoxSpec((1, 2), 2),
    "box-scalar": lambda: BoxSpec(5, 2),
    "box-triple": lambda: BoxSpec(((1, 2, 3),), 2),
    "box-single": lambda: BoxSpec(((1,),), 2),
    "box-empty": lambda: BoxSpec((), 2),
    "eval-scalar": lambda: evaluate_at(extend_to_line(), 0.5),
    "precision-scalar": lambda: evaluate_to_precision(extend_to_line(), 0.5, 1e-3),
    "preimage-scalar": lambda: preimage(extend_to_line(), 0.5, 1e-3),
    "preimage-array-eps": lambda: preimage(extend_to_line(), (0.5, 0.5), np.array([1e-3, 2e-3])),
    "precision-array-eps": lambda: evaluate_to_precision(
        extend_to_line(), (0.5,), np.array([1e-3, 2e-3])
    ),
    "certify-array-eps": lambda: certify_surjective_on_box(
        extend_to_line(), PLANE_BOX, np.array([1e-3, 2e-3])
    ),
}


@pytest.mark.parametrize("call", NOT_A_NUMBER)
def test_text_and_misshapen_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        NOT_A_NUMBER[call]()


def test_a_trace_past_the_cap_is_refused_whatever_its_own_cap():
    # checked on the call, before the lazy walk makes a block
    with pytest.raises(ResourceError, match="^depth 4097 exceeds cap 4096$"):
        _trace_blocks(EVAL_DEPTH_CAP + 1, depth_cap=10**6)


class TestModulus:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_pairs_respect_bound(self, k):
        rng = random.Random(1000 + k)
        gap = 4.0**-k
        bound = Fraction(2, 2**k)
        for _ in range(2000):
            t = rng.random()
            s = t + rng.uniform(-gap, gap)
            s = min(max(s, 0.0), 1.0)
            if abs(t - s) > gap:
                continue
            _, pt = hilbert_encode(t, k)
            _, ps = hilbert_encode(s, k)
            assert max(abs(pt[0] - ps[0]), abs(pt[1] - ps[1])) <= bound

    def test_adjacent_params_are_adjacent_cells(self):
        for k in range(1, 7):
            for i in range(4**k - 1):
                (ac, ar), _ = hilbert_encode(Fraction(i, 4**k), k)
                (bc, br), _ = hilbert_encode(Fraction(i + 1, 4**k), k)
                assert abs(ac - bc) + abs(ar - br) == 1


@given(
    num=st.integers(min_value=0, max_value=4**6),
    k=st.integers(min_value=0, max_value=8),
)
def test_encode_is_deterministic_and_total(num, k):
    t = Fraction(num, 4**6)
    cell, centre = hilbert_encode(t, k)
    # a dyadic parameter encodes alike as a Fraction, again, and as its exact float
    assert hilbert_encode(t, k) == hilbert_encode(float(t), k) == (cell, centre)
    assert 0 <= cell[0] < 2**k and 0 <= cell[1] < 2**k


@given(st.integers(min_value=0, max_value=4**5 - 1))
def test_decode_inverts_encode_on_grid(i):
    k = 5
    _, centre = hilbert_encode(Fraction(i, 4**k), k)
    assert hilbert_decode(centre, k) == Fraction(i, 4**k)
