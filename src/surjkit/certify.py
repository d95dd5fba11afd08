"""Numerical certificates: box coverage, degeneracy, and independence ranks.

A coverage certificate records, for every grid target of a compact box,
a preimage witness and its residual under the limit map, evaluated exactly
at the dyadic witness up to a sinh stage's float rounding; the certificate
is sound exactly when every residual can be reproduced by forward
evaluation alone. A span family's dimension is the exact rank of its support
matrix; independence reports give the numerical rank of any family's
evaluation matrix under pivoted elimination.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Union

from ._value import Value, set_field
from .errors import DomainError, ResourceError, StructuralError
from .spans import ScalarSpan, VectorSpanMember
from .surjections import (
    FunctionExpr, _checked_preimage, _sinh_stage, _sup_error, compose_with_base, evaluate_at
)

DEFAULT_TARGET_BUDGET = 100_000
DEFAULT_RANK_TOL = 1e-8
_EQUILIBRATION_SWEEPS = 6

Certifiable = Union[FunctionExpr, VectorSpanMember]
FamilyFunction = Union[ScalarSpan, VectorSpanMember, FunctionExpr]


class BoxSpec(Value):
    """Compact box with per-coordinate bounds and a per-coordinate grid count."""

    __slots__ = _fields = ("bounds", "grid_points")
    bounds: tuple[tuple[float, float], ...]
    grid_points: int

    def __init__(self, bounds: Sequence[tuple[float, float]], grid_points: int):
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if not isinstance(grid_points, int) or isinstance(grid_points, bool):
            raise DomainError(f"grid point count must be an integer, got {grid_points!r}")
        if grid_points < 2:
            raise DomainError("need at least two grid points per coordinate")
        for lo, hi in bounds:
            if not (lo < hi and (hi - lo) * (grid_points - 1) < math.inf):  # _axes' widest product
                raise DomainError(f"bound ({lo}, {hi}) needs low < high and a finite grid span")
        set_field(self, "bounds", bounds)
        set_field(self, "grid_points", grid_points)

    @property
    def arity(self) -> int:
        return len(self.bounds)

    @property
    def target_count(self) -> int:
        return self.grid_points**self.arity

    def _axes(self) -> list[list[float]]:
        """The grid values of each coordinate, low to high."""
        count = self.grid_points
        return [[lo + (hi - lo) * i / (count - 1) for i in range(count)] for lo, hi in self.bounds]

    def targets(self) -> list[tuple[float, ...]]:
        return [tuple(p) for p in itertools.product(*self._axes())]


class Witness(Value):
    """One target, the preimage found for it, and the forward residual."""

    __slots__ = _fields = ("target", "preimage", "achieved_error")
    target: tuple[float, ...]
    preimage: tuple
    achieved_error: float

    def __init__(self, target: tuple[float, ...], preimage: tuple, achieved_error: float):
        set_field(self, "target", target)
        set_field(self, "preimage", preimage)
        set_field(self, "achieved_error", achieved_error)


class CoverageCertificate(Value):
    """Per-target witnesses for eps-surjectivity of a map on a box."""

    __slots__ = _fields = ("function_id", "box", "epsilon", "witnesses", "status", "worst_target")
    function_id: str
    box: BoxSpec
    epsilon: float
    witnesses: tuple[Witness, ...]
    status: str  # "certified" | "failed"
    worst_target: Optional[tuple[float, ...]]

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_surjective_on_box(
    f: Certifiable,
    box: BoxSpec,
    eps: float,
    target_budget: int = DEFAULT_TARGET_BUDGET,
) -> CoverageCertificate:
    """Search a preimage for every grid target; certified iff all residuals <= eps.

    Degenerate span members, bare or after a base, are rejected with
    DegenerateMemberError by their first inversion, after the box-arity
    check, not failed (they are not surjective, so a failed certificate
    would be misleading). Witnesses are stored even on failure so that
    each can be re-checked by forward evaluation alone. Each witness's
    residual is the one the single forward check of the preimage search
    measured. Per-target cap errors re-raise prefixed with the target.
    """
    if not isinstance(f, (VectorSpanMember, FunctionExpr)):
        raise DomainError(f"cannot certify an object of type {type(f).__name__}")
    if not 0 < eps < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {eps}")
    if box.target_count > target_budget:
        raise DomainError(
            f"{box.target_count} targets exceed budget {target_budget}; "
            f"raise target_budget to override"
        )
    member = f if isinstance(f, VectorSpanMember) else None
    codomain = f.arity if member is not None else f.codomain_arity
    if box.arity != codomain:
        raise StructuralError(f"box arity {box.arity} != codomain arity {codomain}")

    witnesses = []
    for target in box.targets():
        try:
            if member is not None:
                point, _ = _sinh_stage(member, target, eps / 2.0, "member")
                achieved = _sup_error(
                    [abs(v - y) for v, y in zip(member.value_at(point), target)]
                )
            else:
                point, achieved = _checked_preimage(f, target, eps)
        except ResourceError as err:
            raise ResourceError(f"target {target}: {err}") from err
        witnesses.append(Witness(target, point, achieved))

    # a nan residual ranks worst, as it fails every comparison with eps
    worst = max(witnesses, key=lambda w: (w.achieved_error != w.achieved_error, w.achieved_error))
    certified = worst.achieved_error <= eps
    return CoverageCertificate(
        function_id=f.describe(),
        box=box,
        epsilon=eps,
        witnesses=tuple(witnesses),
        status="certified" if certified else "failed",
        worst_target=None if certified else worst.target,
    )


def _support_rank(members: Sequence[VectorSpanMember]) -> tuple[int, int]:
    """Exact rank of the family's support matrix, and the matrix's row count.

    One column per member, one row per (coordinate, exponent) a term uses;
    an entry sums that member's coefficients there. Distinct phi_s are
    independent, as the largest exponent dominates, so a combination is the
    zero function exactly when its coefficients are in the kernel, and the
    span's dimension is the rank. Floats are rationals: no cutoff is needed.
    """
    from fractions import Fraction  # not at the top: loaded before compiles, it lifts peak RSS

    support: dict[tuple[int, float], list[Fraction]] = {}
    for i, member in enumerate(members):
        for lam, rvec in member.terms:
            for j, s in enumerate(rvec):
                support.setdefault((j, s), [Fraction(0)] * len(members))[i] += Fraction(lam)
    rank, rows = 0, list(support.values())
    while rows:
        top = rows.pop()
        j = next((j for j, x in enumerate(top) if x), None)
        if j is not None:
            rank += 1
            rows = [[x - row[j] / top[j] * y for x, y in zip(row, top)] for row in rows]
    return rank, len(support)


class IndependenceReport(Value):
    """Numerical rank evidence for a finite family at stored sample points."""

    __slots__ = _fields = ("family", "points", "matrix_shape", "rank", "tolerance", "pivot_ratios")
    family: tuple[str, ...]
    points: tuple[tuple[float, ...], ...]
    matrix_shape: tuple[int, int]
    rank: int
    tolerance: float
    pivot_ratios: tuple[float, ...]

    @property
    def full_rank(self) -> bool:
        return self.rank == len(self.family)


def _family_eval(f: FamilyFunction, point: tuple[float, ...], depth: int) -> tuple[float, ...]:
    if isinstance(f, ScalarSpan):
        return (f.value(point[0]),)
    if isinstance(f, VectorSpanMember):
        return f.value_at(point)
    if isinstance(f, FunctionExpr):
        return evaluate_at(f, point, depth).value
    raise DomainError(f"cannot evaluate an object of type {type(f).__name__}")


def _equilibrate(a: list[list[float]]) -> list[list[float]]:
    """Two-sided max scaling; the raw matrices of exponential families have
    a dynamic range that swamps any relative pivot threshold."""
    for _ in range(_EQUILIBRATION_SWEEPS):
        row_max = [max(map(abs, row), default=0.0) or 1.0 for row in a]
        a = [[x / m for x in row] for row, m in zip(a, row_max)]
        col_max = [max(map(abs, col)) or 1.0 for col in zip(*a)]
        a = [[x / m for x, m in zip(row, col_max)] for row in a]
    return a


def matrix_rank_pivoted(matrix: Sequence[Sequence[float]], tol: float) -> tuple[int, list[float]]:
    """Rank by complete-pivot elimination, cutoff at tol * (largest pivot).

    The matrix (a sequence of rows of finite reals) is equilibrated first;
    the pivot is the first largest entry in row-major order over the rows
    and columns not yet eliminated. Pivot ratios (relative to the first
    pivot) are returned for diagnostics.
    """
    a = [[float(x) for x in row] for row in matrix]
    if not all(math.isfinite(x) for row in a for x in row):
        raise DomainError("matrix entries must be finite")
    a = _equilibrate(a)
    pivots: list[float] = []
    # a holds the rows and columns not yet eliminated, in their first order
    while a and a[0]:
        piv, i, j = -1.0, 0, 0
        for r, row in enumerate(a):
            mags = list(map(abs, row))
            m = max(mags)
            if m > piv:
                piv, i, j = m, r, mags.index(m)
        if piv == 0.0 or (pivots and piv <= tol * pivots[0]):
            break
        pivots.append(piv)
        top = a.pop(i)
        for r, row in enumerate(a):
            f = row[j] / top[j]
            a[r] = [x - f * y for x, y in zip(row, top)]
            del a[r][j]
    ratios = [p / pivots[0] for p in pivots] if pivots else []
    return len(pivots), ratios


def independence_report(
    family: Sequence[FamilyFunction],
    points: Sequence[Sequence[float]],
    tol: float = DEFAULT_RANK_TOL,
    depth: int = 24,
) -> IndependenceReport:
    """Evaluation-matrix rank of the family at the sample points.

    Row i holds function i evaluated at every point, flattened over output
    coordinates; full rank certifies independence of the finite family.
    A value that is not finite (a sinh term past float range) makes the
    rank meaningless and raises ResourceError.
    """
    if len(points) < len(family):
        raise DomainError("need at least as many sample points as family members")
    pts = [tuple(float(x) for x in p) for p in points]
    matrix = []
    for f in family:
        row: list[float] = []
        for p in pts:
            values = _family_eval(f, p, depth)
            if not all(map(math.isfinite, values)):
                raise ResourceError(
                    f"family member {f.describe()} is not finite at sample point {p}"
                )
            row.extend(values)
        matrix.append(row)
    rank, ratios = matrix_rank_pivoted(matrix, tol)
    return IndependenceReport(
        family=tuple(f.describe() for f in family),
        points=tuple(pts),
        matrix_shape=(len(matrix), len(matrix[0]) if matrix else 0),
        rank=rank,
        tolerance=tol,
        pivot_ratios=tuple(ratios),
    )


class CompositionRankReport(Value):
    """Ranks of a member family before and after pre-composition with a base."""

    __slots__ = _fields = ("composed", "direct")
    composed: IndependenceReport
    direct: IndependenceReport

    @property
    def ranks_equal(self) -> bool:
        return self.composed.rank == self.direct.rank


def composition_preserves_rank(
    family: Sequence[VectorSpanMember],
    f: FunctionExpr,
    points: Sequence[Sequence[float]],
    tol: float = DEFAULT_RANK_TOL,
    depth: int = 24,
) -> CompositionRankReport:
    """Rank of {F_i o f} at the points versus rank of {F_i} at the image points.

    Pre-composition with a surjection cannot create a new linear relation,
    so the two ranks agree; a disagreement would falsify the pipeline.
    """
    pts = [tuple(float(x) for x in p) for p in points]
    images = [evaluate_at(f, p, depth).value for p in pts]
    composed_family = [compose_with_base(m, f) for m in family]
    composed = independence_report(composed_family, pts, tol, depth)
    direct = independence_report(list(family), images, tol, depth)
    return CompositionRankReport(composed=composed, direct=direct)


def default_sample_points(count: int, arity: int = 1) -> list[tuple[float, ...]]:
    """Staggered positive sample points in R^arity for independence checks.

    The basis functions are odd, so symmetric grids pair up as t, -t and
    halve the usable column count; an all-positive grid avoids that.
    """
    if count < 2:
        raise DomainError("need at least two points")
    base = [0.25 + 7.75 * i / (count - 1) for i in range(count)]
    step = (base[1] - base[0]) / (arity + 1)
    return [tuple([t + j * step for j in range(arity)]) for t in base]
