"""Exact finite-depth Hilbert-curve codec on [0,1] -> [0,1]^2.

The depth-k approximant walks the 4^k cells of the 2^k x 2^k grid in the
classic Hilbert order: entry at the lower-left corner, exit at the
lower-right corner, first quadrant step upward (LL -> UL -> UR -> LR).
All arithmetic on parameters and cells is exact; floating point appears
only when callers convert the returned dyadic coordinates.

The codec is a four-state machine that reads a byte of the curve index
(four base-4 digits) per table lookup (Warren, Hacker's Delight, section
16; Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Union

from ._value import Value, set_field
from .errors import DomainError, ResourceError

DEFAULT_DEPTH_CAP = 12

RealLike = Union[int, float, Fraction, "CurveParam"]

# The quadrant rule: digit q of the depth-1 walk visits the quadrant with
# bits _QUADRANT[q] and runs its sub-curve under the transform _CHILD[q].
# The states are the transforms of the Klein group, coded so that bit 0
# transposes and bit 1 rotates by 180 degrees (0 identity, 1 transpose,
# 2 rot180, 3 anti-transpose); composition is XOR.
_QUADRANT = ((0, 0), (0, 1), (1, 1), (1, 0))  # LL, UL, UR, LR
_CHILD = (1, 0, 0, 3)  # T, I, I, A

_TRACE_BLOCK = 1 << 12  # rows per block of the trace enumerator (16 runs of a byte)


def _build_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Byte tables of the state machine, composed from two-digit walks.

    _FWD[state << 8 | byte] = x nibble << 6 | y nibble << 2 | next state
    _INV[state << 8 | x nibble << 4 | y nibble] = byte << 2 | next state
    """
    pair = {}  # (state, two digits) -> (x bits, y bits, next state)
    for state in range(4):
        for value in range(16):
            s, x, y = state, 0, 0
            for q in (value >> 2, value & 3):
                qx, qy = _QUADRANT[q]
                if s & 1:
                    qx, qy = qy, qx
                if s & 2:
                    qx, qy = 1 - qx, 1 - qy
                x, y, s = x << 1 | qx, y << 1 | qy, s ^ _CHILD[q]
            pair[state, value] = x, y, s
    fwd = [0] * 1024
    inv = [0] * 1024
    for (state, hi), (x_hi, y_hi, mid) in pair.items():
        for lo in range(16):
            x_lo, y_lo, s = pair[mid, lo]
            x, y, byte = x_hi << 2 | x_lo, y_hi << 2 | y_lo, hi << 4 | lo
            fwd[state << 8 | byte] = x << 6 | y << 2 | s
            inv[state << 8 | x << 4 | y] = byte << 2 | s
    return tuple(fwd), tuple(inv)


_FWD, _INV = _build_tables()
# x and y nibbles of the 256 cells that one byte walks from each state
_RUN_X = tuple(tuple(e >> 6 for e in _FWD[s << 8 : (s + 1) << 8]) for s in range(4))
_RUN_Y = tuple(tuple(e >> 2 & 15 for e in _FWD[s << 8 : (s + 1) << 8]) for s in range(4))


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


def _d2xy(k: int, d: int) -> tuple[int, int]:
    """Curve index -> grid coordinates at depth k, one lookup per byte of d.

    When k is not a multiple of 4, d is read with pad leading zero digits.
    Starting in state T^pad, those digits stay in the lower-left quadrant
    and leave the walk in the identity state.
    """
    nbytes = (k + 3) >> 2 or 1
    state = (4 * nbytes - k) & 1
    x = y = 0
    for byte in d.to_bytes(nbytes, "big"):
        e = _FWD[state << 8 | byte]
        x = x << 4 | e >> 6
        y = y << 4 | e >> 2 & 15
        state = e & 3
    return x, y


def _xy2d(k: int, x: int, y: int) -> int:
    """Grid coordinates -> curve index at depth k, one lookup per byte of the index.

    Each byte of x and y holds two nibbles, so each one yields two bytes of
    the index; the padding works as in _d2xy.
    """
    nbytes = (k + 7) >> 3 or 1
    state = (8 * nbytes - k) & 1
    d = 0
    for bx, by in zip(x.to_bytes(nbytes, "big"), y.to_bytes(nbytes, "big")):
        hi = _INV[state << 8 | bx & 0xF0 | by >> 4]
        lo = _INV[(hi & 3) << 8 | (bx & 15) << 4 | by & 15]
        d = d << 16 | (hi >> 2) << 8 | lo >> 2
        state = lo & 3
    return d


def hilbert_encode(t: RealLike, k: int) -> tuple[CellAddress, PlanePoint]:
    """Depth-k cell visited at parameter t, and its center.

    The cell is the one whose quarter interval [i/4^k, (i+1)/4^k) contains
    t; t = 1 maps to the final cell. Deterministic and exact.
    """
    if k < 0:
        raise DomainError("depth must be non-negative")
    if isinstance(t, CurveParam):
        num, den = t.numerator, 1 << 2 * t.depth
    else:
        num, den = _ratio(t)
    if not 0 <= num <= den:
        raise DomainError(f"parameter {t} outside [0, 1]")
    index = min((num << 2 * k) // den, (1 << 2 * k) - 1)
    cell = CellAddress(k, *_d2xy(k, index))
    return cell, cell.center()


def _cell(xn: int, xd: int, yn: int, yd: int, k: int) -> tuple[int, int]:
    """(col, row) of the depth-k cell containing (xn/xd, yn/yd) in the unit
    square, ties toward the lower left: column ceil(x * 2^k) - 1, by integer
    ceiling division, and 0 on the left edge."""
    col = -((-xn << k) // xd) - 1
    row = -((-yn << k) // yd) - 1
    return (col if col > 0 else 0), (row if row > 0 else 0)


def hilbert_decode(p: PlanePoint | tuple, k: int) -> CurveParam:
    """A parameter whose depth-k cell contains p.

    Round trip: hilbert_encode(hilbert_decode(p, k), k) yields the cell
    containing p (lower-left tie break on boundaries).
    """
    if k < 0:
        raise DomainError("depth must be non-negative")
    x, y = (p.x, p.y) if isinstance(p, PlanePoint) else p
    (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
    if not (0 <= xn <= xd and 0 <= yn <= yd):
        raise DomainError(f"point ({x}, {y}) outside the unit square")
    return CurveParam(_xy2d(k, *_cell(xn, xd, yn, yd, k)), k)


def _trace_blocks(k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> Iterator:
    """The depth-k walk in order, as blocks (start index, cols, rows).

    Depth and cap are checked on the call, before any block is made; each
    block holds at most _TRACE_BLOCK cells as lists, so memory stays flat
    at any depth.
    """
    if k < 0:
        raise DomainError("depth must be non-negative")
    if k > depth_cap:
        raise ResourceError(
            f"depth {k} would trace 4^{k} rows, over the cap of depth {depth_cap}; "
            f"raise depth_cap to override"
        )
    return _walk_blocks(k)


def _walk_blocks(k: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """_d2xy over every index, one aligned run of 256 cells at a time.

    A run shares its index bytes above the last, so one walk of those
    gives its high nibbles and the state in which the run tables finish
    it. Below depth 4 the single run is the first 4^k cells of one byte,
    read with the padding of _d2xy.
    """
    nbytes = (k + 3) >> 2 or 1
    pad_state = (4 * nbytes - k) & 1
    cells = 1 << 2 * k
    for start in range(0, cells, _TRACE_BLOCK):
        cols: list[int] = []
        rows: list[int] = []
        for run in range(start >> 8, (min(start + _TRACE_BLOCK, cells) + 255) >> 8):
            state, x, y = pad_state, 0, 0
            for byte in run.to_bytes(nbytes - 1, "big"):
                e = _FWD[state << 8 | byte]
                x = x << 4 | e >> 6
                y = y << 4 | e >> 2 & 15
                state = e & 3
            x, y = x << 4, y << 4
            cols += [x | dx for dx in _RUN_X[state][:cells]]
            rows += [y | dy for dy in _RUN_Y[state][:cells]]
        yield start, cols, rows


def curve_trace(k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> list[PlanePoint]:
    """The 4^k cell centers in traversal order.

    Consecutive points differ by exactly one coordinate step of 2^-k.
    """
    denom = 2 << k
    return [
        PlanePoint(Fraction(2 * col + 1, denom), Fraction(2 * row + 1, denom))
        for _, cols, rows in _trace_blocks(k, depth_cap)
        for col, row in zip(cols, rows)
    ]


def modulus_bound(k: int) -> float:
    """delta_k = 2 * 2^-k: |t-s| <= 4^-k implies sup-distance of encodings <= delta_k."""
    return 2.0 * 2.0 ** (-k)
