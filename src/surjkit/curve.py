"""Exact finite-depth Hilbert-curve codec on [0,1] -> [0,1]^2, in plain exact numbers.

A curve parameter is a Fraction i/4^k, a depth-k cell its (col, row) ints
counted from the lower left, and a point of the unit square an (x, y) pair;
cell centres come back as Fractions. The integer state machine of
surjkit._hilbert maps between them. Inputs are real numbers: text is
refused, not parsed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from ._hilbert import DEFAULT_DEPTH_CAP, _cell, _check_depth, _d2xy, _trace_blocks, _xy2d
from .errors import DomainError


def _as_float(x) -> float:
    """float(x) for a real number x; text is refused, not parsed, and an
    exact value past the float range is a DomainError that names it."""
    # Decimal and numpy scalars convert; float() would also parse text
    if not (hasattr(type(x), "__float__") or hasattr(type(x), "__index__")):
        raise DomainError(f"{x!r} is not a real number")
    try:
        return float(x)
    except OverflowError:  # an int or a Fraction past the largest float
        raise DomainError(f"{x} is past the float range") from None


def _ratio(x) -> tuple[int, int]:
    """Exact (numerator, positive denominator) of a finite real number."""
    # the exact types first: the Rational check is an ABC lookup per call
    cls = type(x)
    if cls is not float:
        if cls is Fraction:
            return x.as_integer_ratio()
        if cls is int:
            return x, 1
        if isinstance(x, Rational):
            return int(x.numerator), int(x.denominator)
        x = _as_float(x)
    if math.isfinite(x):
        return x.as_integer_ratio()
    raise DomainError(f"{x} is not a finite real")


def hilbert_encode(t, k: int) -> tuple[tuple[int, int], tuple[Fraction, Fraction]]:
    """((col, row), (cx, cy)): the depth-k cell visited at parameter t, and its centre.

    The cell is the one whose quarter interval [i/4^k, (i+1)/4^k) contains
    t; t = 1 maps to the final cell. Deterministic and exact; a depth past
    the cap of 4096 raises ResourceError.
    """
    _check_depth(k)
    num, den = _ratio(t)
    if not 0 <= num <= den:
        raise DomainError(f"parameter {t} outside [0, 1]")
    col, row = _d2xy(k, min((num << 2 * k) // den, (1 << 2 * k) - 1))
    denom = 2 << k
    return (col, row), (Fraction(2 * col + 1, denom), Fraction(2 * row + 1, denom))


def hilbert_decode(p, k: int) -> Fraction:
    """The parameter i/4^k of the depth-k cell that contains the point p = (x, y).

    Round trip: hilbert_encode(hilbert_decode(p, k), k) yields the cell
    containing p (lower-left tie break on boundaries). A depth past the cap
    of 4096 raises ResourceError.
    """
    _check_depth(k)
    try:
        x, y = p
    except (TypeError, ValueError):
        raise DomainError(f"{p!r} is not a point (x, y)") from None
    (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
    if not (0 <= xn <= xd and 0 <= yn <= yd):
        raise DomainError(f"point ({x}, {y}) outside the unit square")
    return Fraction(_xy2d(k, *_cell(xn, xd, yn, yd, k)), 1 << 2 * k)


def curve_trace(k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> list[tuple[Fraction, Fraction]]:
    """The 4^k cell centres (x, y) in traversal order.

    Consecutive centres differ by exactly one coordinate step of 2^-k.
    """
    blocks = _trace_blocks(k, depth_cap)  # checks k before the shifts below
    denom = 2 << k
    centres = [Fraction(2 * c + 1, denom) for c in range(1 << k)]
    return [
        (centres[x | dx], centres[y | dy])
        for _, x, y, run_x, run_y in blocks
        for dx, dy in zip(run_x, run_y)
    ]
