"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own algorithms:
the curve oracle builds traversals by quadrant recursion on explicit
point lists (the package walks base-4 digits), the root oracle is plain
fixed-interval bisection (the package expands brackets from asymptotics),
the rank oracle eliminates in 50-digit arithmetic (the package uses
float64), and the decimal oracle formats one Fraction at a time (the
package formats whole runs of a grid from integer digits).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# Hilbert traversal by quadrant recursion


def recursion_trace(k: int) -> np.ndarray:
    """(4^k, 2) integer grid coordinates in traversal order.

    Level k is assembled from level k-1 by the four-quadrant rule:
    transpose into the lower left, copy up, copy up-right, anti-transpose
    into the lower right.
    """
    pts = np.zeros((1, 2), dtype=np.int64)
    for level in range(1, k + 1):
        s = 1 << (level - 1)
        x, y = pts[:, 0], pts[:, 1]
        q0 = np.stack([y, x], axis=1)
        q1 = np.stack([x, y + s], axis=1)
        q2 = np.stack([x + s, y + s], axis=1)
        q3 = np.stack([2 * s - 1 - y, s - 1 - x], axis=1)
        pts = np.concatenate([q0, q1, q2, q3], axis=0)
    return pts


def recursion_centers(k: int) -> np.ndarray:
    """Cell centers of the unit square in traversal order, as floats."""
    return (2.0 * recursion_trace(k) + 1.0) / 2.0 ** (k + 1)


def dyadic_decimal(value: Fraction) -> str:
    """Exact decimal string of a dyadic rational (denominator a power of two)."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    e = den.bit_length() - 1
    if den != 1 << e:
        raise ValueError(f"{value} is not dyadic")
    digits = str(num * 5**e).rjust(e + 1, "0")
    if e == 0:
        return sign + digits
    out = (digits[:-e] + "." + digits[-e:]).rstrip("0").rstrip(".")
    return sign + (out or "0")


# ---------------------------------------------------------------------------
# line-to-plane forward sweep (vectorized, self-contained)


def line_map_points(t: np.ndarray, depth: int, tables: dict[int, np.ndarray]) -> np.ndarray:
    """Vectorized forward evaluation of the tiled line-to-plane map.

    tables caches recursion_trace(depth). Matches the geometric layout:
    constant origin for t <= 0, bridge on the first half of [n-1, n],
    curve over the box [-n, n]^2 on the second half.
    """
    if depth not in tables:
        tables[depth] = recursion_trace(depth)
    tbl = tables[depth]
    t = np.asarray(t, dtype=float)
    out = np.zeros((t.size, 2))
    positive = t > 0.0
    i = np.floor(t[positive]).astype(np.int64)
    frac = t[positive] - i
    n = (i + 1).astype(float)
    seg = np.zeros((positive.sum(), 2))

    on_bridge = frac < 0.5
    if on_bridge.any():
        nb = n[on_bridge]
        ib = i[on_bridge].astype(float)
        px = np.where(ib == 0, 0.0, ib)
        py = np.where(ib == 0, 0.0, -ib)
        theta = 2.0 * frac[on_bridge]
        seg[on_bridge, 0] = px + theta * (-nb - px)
        seg[on_bridge, 1] = py + theta * (-nb - py)

    on_curve = ~on_bridge
    if on_curve.any():
        u = 2.0 * frac[on_curve] - 1.0
        idx = np.minimum((u * 4.0**depth).astype(np.int64), 4**depth - 1)
        cols = tbl[idx, 0].astype(float)
        rows = tbl[idx, 1].astype(float)
        nc = n[on_curve]
        side = 1 << depth
        seg[on_curve, 0] = 2.0 * nc * (2.0 * cols + 1.0) / (2.0 * side) - nc
        seg[on_curve, 1] = 2.0 * nc * (2.0 * rows + 1.0) / (2.0 * side) - nc

    out[positive] = seg
    return out


def sweep_plane_cloud(t_lo: float, t_hi: float, count: int, depth: int) -> np.ndarray:
    """Forward sweep of the line-to-plane map over a uniform parameter grid."""
    t = np.linspace(t_lo, t_hi, count, endpoint=False) + (t_hi - t_lo) / (2 * count)
    return line_map_points(t, depth, {})


def covered_targets(cloud: np.ndarray, targets, eps: float) -> set:
    """Subset of targets within sup-distance eps of some cloud point."""
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud)
    dist, _ = tree.query(np.asarray(targets, dtype=float), p=np.inf)
    return {tuple(t) for t, d in zip(targets, dist) if d <= eps}


# ---------------------------------------------------------------------------
# scalar root finding by plain bisection


def bisect_solve(f, y: float, lo: float, hi: float, tol: float, iters: int = 200) -> float:
    """Bisection on a fixed bracket; requires f(lo) - y and f(hi) - y to straddle 0."""
    flo = f(lo) - y
    if flo > 0:
        lo, hi = hi, lo
        flo = f(lo) - y
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - y
        if abs(fm) <= tol:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection oracle failed to converge")


# ---------------------------------------------------------------------------
# high-precision elimination rank


def rank_highprec(matrix, tol: float) -> int:
    """Equilibrated complete-pivot elimination rank in 50-digit arithmetic."""
    a = [[mpmath.mpf(x) for x in row] for row in np.asarray(matrix, dtype=float)]
    m, n = len(a), len(a[0])
    for _ in range(6):
        for i in range(m):
            s = max(abs(x) for x in a[i]) or mpmath.mpf(1)
            a[i] = [x / s for x in a[i]]
        for j in range(n):
            s = max(abs(a[i][j]) for i in range(m)) or mpmath.mpf(1)
            for i in range(m):
                a[i][j] /= s
    rows = list(range(m))
    cols = list(range(n))
    pivots = []
    while rows and cols:
        piv, pi, pj = mpmath.mpf(0), -1, -1
        for i in rows:
            for j in cols:
                if abs(a[i][j]) > piv:
                    piv, pi, pj = abs(a[i][j]), i, j
        if piv == 0 or (pivots and piv <= tol * pivots[0]):
            break
        pivots.append(piv)
        for i in rows:
            if i != pi:
                f = a[i][pj] / a[pi][pj]
                a[i] = [u - f * v for u, v in zip(a[i], a[pi])]
        rows.remove(pi)
        cols.remove(pj)
    return len(pivots)


def phi_highprec(r: float, t: float) -> mpmath.mpf:
    rt = mpmath.mpf(r) * mpmath.mpf(t)
    return mpmath.e**rt - mpmath.e**(-rt)
