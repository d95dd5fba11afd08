"""Exact finite-depth Hilbert-curve codec on [0,1] -> [0,1]^2.

Curve parameters, points of the unit square and grid cells as exact
values, mapped onto each other by the integer state machine of
surjkit._hilbert. All arithmetic on parameters and cells is exact;
floating point appears only when callers convert the returned dyadic
coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union

from ._hilbert import DEFAULT_DEPTH_CAP, _cell, _check_depth, _d2xy, _trace_blocks, _xy2d
from ._value import Value, set_field
from .errors import DomainError

RealLike = Union[int, float, Fraction, "CurveParam"]


def _ratio(x) -> tuple[int, int]:
    """Exact (numerator, positive denominator) of a finite real."""
    # the exact types first: the Rational check is an ABC lookup per call
    cls = type(x)
    if cls is not float:
        if cls is Fraction:
            return x.as_integer_ratio()
        if cls is int:
            return x, 1
        if isinstance(x, Rational):
            return int(x.numerator), int(x.denominator)
        x = float(x)
    if math.isfinite(x):
        return x.as_integer_ratio()
    raise DomainError(f"{x} is not a finite real")


class CurveParam(Value):
    """Curve parameter numerator / 4**depth in [0, 1], stored canonically.

    Construction reduces by powers of 4, so two parameters with the same
    rational value compare equal whatever depth they were produced at.
    """

    __slots__ = _fields = ("numerator", "depth")
    numerator: int
    depth: int

    def __init__(self, numerator: int, depth: int):
        num, dep = numerator, depth
        if dep < 0 or num < 0 or num > 4**dep:
            raise DomainError(f"curve parameter {num}/4^{dep} outside [0, 1]")
        while dep > 0 and num % 4 == 0:
            num //= 4
            dep -= 1
        set_field(self, "numerator", num)
        set_field(self, "depth", dep)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 4**self.depth)

    def __float__(self) -> float:
        return float(self.value)


class PlanePoint(Value):
    """Exact dyadic point of the unit square."""

    __slots__ = _fields = ("x", "y")
    x: Fraction
    y: Fraction

    def __init__(self, x: Fraction, y: Fraction):
        x, y = Fraction(x), Fraction(y)
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise DomainError(f"point ({x}, {y}) outside the unit square")
        set_field(self, "x", x)
        set_field(self, "y", y)

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)


class CellAddress(Value):
    """One cell of the depth-k dyadic grid; col/row count from the lower left."""

    __slots__ = _fields = ("depth", "col", "row")
    depth: int
    col: int
    row: int

    def __init__(self, depth: int, col: int, row: int):
        side = 1 << depth
        if depth < 0 or not (0 <= col < side and 0 <= row < side):
            raise DomainError(f"cell ({col}, {row}) invalid at depth {depth}")
        set_field(self, "depth", depth)
        set_field(self, "col", col)
        set_field(self, "row", row)

    def center(self) -> PlanePoint:
        denom = 1 << (self.depth + 1)
        return PlanePoint(Fraction(2 * self.col + 1, denom), Fraction(2 * self.row + 1, denom))


def hilbert_encode(t: RealLike, k: int) -> tuple[CellAddress, PlanePoint]:
    """Depth-k cell visited at parameter t, and its center.

    The cell is the one whose quarter interval [i/4^k, (i+1)/4^k) contains
    t; t = 1 maps to the final cell. Deterministic and exact; a depth past
    the cap of 4096 raises ResourceError.
    """
    _check_depth(k)
    if isinstance(t, CurveParam):
        num, den = t.numerator, 1 << 2 * t.depth
    else:
        num, den = _ratio(t)
    if not 0 <= num <= den:
        raise DomainError(f"parameter {t} outside [0, 1]")
    index = min((num << 2 * k) // den, (1 << 2 * k) - 1)
    cell = CellAddress(k, *_d2xy(k, index))
    return cell, cell.center()


def hilbert_decode(p: PlanePoint | tuple, k: int) -> CurveParam:
    """A parameter whose depth-k cell contains p.

    Round trip: hilbert_encode(hilbert_decode(p, k), k) yields the cell
    containing p (lower-left tie break on boundaries). A depth past the cap
    of 4096 raises ResourceError.
    """
    _check_depth(k)
    x, y = (p.x, p.y) if isinstance(p, PlanePoint) else p
    (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
    if not (0 <= xn <= xd and 0 <= yn <= yd):
        raise DomainError(f"point ({x}, {y}) outside the unit square")
    return CurveParam(_xy2d(k, *_cell(xn, xd, yn, yd, k)), k)


def curve_trace(k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> list[PlanePoint]:
    """The 4^k cell centers in traversal order.

    Consecutive points differ by exactly one coordinate step of 2^-k.
    """
    blocks = _trace_blocks(k, depth_cap)  # checks k before the shift below
    denom = 2 << k
    return [
        PlanePoint(Fraction(2 * col + 1, denom), Fraction(2 * row + 1, denom))
        for _, cols, rows in blocks
        for col, row in zip(cols, rows)
    ]


def modulus_bound(k: int) -> float:
    """delta_k = 2 * 2^-k: |t-s| <= 4^-k implies sup-distance of encodings <= delta_k."""
    return 2.0 * 2.0 ** (-k)
