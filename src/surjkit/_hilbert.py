"""Integer core of the Hilbert-curve codec: the state machine, its byte
tables and the trace enumerator.

The depth-k approximant walks the 4^k cells of the 2^k x 2^k grid in the
classic Hilbert order: entry at the lower-left corner, exit at the
lower-right corner, first quadrant step upward (LL -> UL -> UR -> LR).
The codec is a four-state machine that reads a byte of the curve index
(four base-4 digits) per table lookup (Warren, Hacker's Delight, section
16; Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004).
The trace enumerator builds no per-cell list: it hands out each run of
256 cells as its high bits and the shared nibble tuples of its state.
It works on plain integers and imports only the error types, so `surjkit
trace` runs without surjkit.curve and its Fractions.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError, ResourceError

DEFAULT_DEPTH_CAP = 12
EVAL_DEPTH_CAP = 4096  # the deepest codec or evaluation depth: a walk costs depth squared

# The quadrant rule: digit q of the depth-1 walk visits the quadrant with
# bits _QUADRANT[q] and runs its sub-curve under the transform _CHILD[q].
# The states are the transforms of the Klein group, coded so that bit 0
# transposes and bit 1 rotates by 180 degrees (0 identity, 1 transpose,
# 2 rot180, 3 anti-transpose); composition is XOR.
_QUADRANT = ((0, 0), (0, 1), (1, 1), (1, 0))  # LL, UL, UR, LR
_CHILD = (1, 0, 0, 3)  # T, I, I, A

_TRACE_BLOCK = 1 << 8  # cells per block of the trace enumerator: the run of one byte


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


def _check_depth(k, least: int = 0) -> None:
    """Refuse a depth that is not an int (a bool included) or is below least,
    with DomainError, and one past EVAL_DEPTH_CAP with ResourceError."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"depth must be an integer, got {k!r}")
    if k < least:
        bound = f"at least {least}" if least else "non-negative"
        raise DomainError(f"depth must be {bound}")
    if k > EVAL_DEPTH_CAP:
        raise ResourceError(f"depth {k} exceeds cap {EVAL_DEPTH_CAP}")


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


def _cell(xn: int, xd: int, yn: int, yd: int, k: int) -> tuple[int, int]:
    """(col, row) of the depth-k cell containing (xn/xd, yn/yd) in the unit
    square, ties toward the lower left: column ceil(x * 2^k) - 1, by integer
    ceiling division, and 0 on the left edge."""
    col = -((-xn << k) // xd) - 1
    row = -((-yn << k) // yd) - 1
    return (col if col > 0 else 0), (row if row > 0 else 0)


def _trace_blocks(k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> Iterator:
    """The depth-k walk in order, as the blocks of _walk_blocks.

    Depth and cap are checked on the call, before any block is made; a
    block covers at most _TRACE_BLOCK cells and holds only shared run
    tables, so memory stays flat at any depth.
    """
    _check_depth(k)
    if k > depth_cap:
        raise ResourceError(
            f"depth {k} would trace 4^{k} rows, over the cap of depth {depth_cap}; "
            f"raise depth_cap to override"
        )
    return _walk_blocks(k)


def _walk_blocks(k: int) -> Iterator[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]]:
    """_d2xy over every index, as blocks (start index, x high, y high,
    x nibbles, y nibbles) whose cell j is (x high | x nibbles[j], y high |
    y nibbles[j]): one aligned run of 256 cells each.

    A run shares its index bytes above the last, so one walk of those
    gives its high bits and the state whose run tables, _RUN_X and _RUN_Y,
    finish it. Below depth 4 the single run is the first 4^k cells of one
    byte, read with the padding of _d2xy.
    """
    nbytes = (k + 3) >> 2 or 1
    pad_state = (4 * nbytes - k) & 1
    cells = 1 << 2 * k
    for start in range(0, cells, _TRACE_BLOCK):
        state, x, y = pad_state, 0, 0
        for byte in (start >> 8).to_bytes(nbytes - 1, "big"):
            e = _FWD[state << 8 | byte]
            x = x << 4 | e >> 6
            y = y << 4 | e >> 2 & 15
            state = e & 3
        # a slice past the end is the whole tuple itself, not a copy
        yield start, x << 4, y << 4, _RUN_X[state][:cells], _RUN_Y[state][:cells]
