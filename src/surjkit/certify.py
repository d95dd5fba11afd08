"""Certificates: box coverage by preimage witnesses, and the exact rank of a family.

A coverage certificate records, for every grid target of a compact box,
a preimage witness and its residual under the limit map, evaluated exactly
at the dyadic witness up to a sinh stage's float rounding; the certificate
is sound exactly when every residual can be reproduced by forward
evaluation alone. A span family's dimension is the rank of its support
matrix, computed exactly from coefficients and exponents (support_rank):
no sample points, no float threshold.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._value import Value, set_field
from .curve import _as_float
from .errors import DomainError, ResourceError, StructuralError
from .spans import VectorSpanMember
from .surjections import (
    FunctionExpr, _check_tolerance, _checked_preimage, _expect, _sinh_stage, _sup_error,
)

DEFAULT_TARGET_BUDGET = 100_000

Certifiable = Union[FunctionExpr, VectorSpanMember]


def _bound(bound) -> tuple[float, float]:
    """A box bound as (low, high) floats; any other shape is a DomainError."""
    try:
        lo, hi = bound
    except (TypeError, ValueError):
        raise DomainError(f"bound {bound!r} is not a (low, high) pair") from None
    return _as_float(lo), _as_float(hi)


class BoxSpec(Value):
    """Compact box with per-coordinate bounds and a per-coordinate grid count."""

    __slots__ = _fields = ("bounds", "grid_points")
    bounds: tuple[tuple[float, float], ...]
    grid_points: int

    def __init__(self, bounds: Sequence[tuple[float, float]], grid_points: int):
        try:
            pairs = iter(bounds)
        except TypeError:
            raise DomainError(f"bounds {bounds!r} are not (low, high) pairs") from None
        bounds = tuple(map(_bound, pairs))
        if not bounds:
            raise DomainError("a box needs at least one (low, high) bound")
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
        """The grid values of each coordinate, low to high, both ends exact."""
        steps = self.grid_points - 1
        return [[lo + (hi - lo) * i / steps for i in range(steps)] + [hi] for lo, hi in self.bounds]

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
    witnesses = tuple(_witnesses(f, box, eps, target_budget))
    status, worst_target = _verdict(witnesses, eps)
    return CoverageCertificate(f.describe(), box, eps, witnesses, status, worst_target)


def _witnesses(
    f: Certifiable, box: BoxSpec, eps: float, target_budget: int = DEFAULT_TARGET_BUDGET
) -> Iterator[Witness]:
    """The witness of each grid target, in targets() order, found as it is asked for.

    The arguments are checked on the call, before any target is searched;
    the grid is walked, not listed, so memory stays flat at any grid size.
    """
    _expect(f, (VectorSpanMember, FunctionExpr), "certify")
    _check_tolerance(eps)
    if not isinstance(target_budget, int) or isinstance(target_budget, bool):
        raise DomainError(f"target budget must be an integer, got {target_budget!r}")
    if box.target_count > target_budget:
        raise DomainError(
            f"{box.target_count} targets exceed budget {target_budget}; "
            f"raise target_budget to override"
        )
    member = f if isinstance(f, VectorSpanMember) else None
    codomain = f.arity if member is not None else f.codomain_arity
    if box.arity != codomain:
        raise StructuralError(f"box arity {box.arity} != codomain arity {codomain}")
    return _search(f, member, box, eps)


def _search(
    f: Certifiable, member: Optional[VectorSpanMember], box: BoxSpec, eps: float
) -> Iterator[Witness]:
    for target in itertools.product(*box._axes()):
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
        yield Witness(target, point, achieved)


def _verdict(witnesses: Iterable[Witness], eps: float) -> tuple[str, Optional[tuple[float, ...]]]:
    """(status, worst target or None), folded over the witnesses as they come:
    the first worst witness wins, and a nan residual ranks worst, as it
    fails every comparison with eps. An empty stream certifies."""
    worst = max(
        witnesses,
        key=lambda w: (w.achieved_error != w.achieved_error, w.achieved_error),
        default=None,
    )
    if worst is None or worst.achieved_error <= eps:
        return "certified", None
    return "failed", worst.target


def support_rank(members: Sequence[VectorSpanMember]) -> tuple[int, int]:
    """Exact rank of the family's support matrix, and the matrix's row count.

    One column per member, one row per (coordinate, exponent) a term uses;
    an entry sums that member's coefficients there. Distinct phi_s are
    independent, as the largest exponent dominates, so a combination is the
    zero function exactly when its coefficients are in the kernel, and the
    span's dimension is the rank. Floats are rationals: no cutoff is needed.
    Pre-composition with a surjective base keeps the rank. A family element
    that is not a VectorSpanMember raises DomainError.
    """
    from fractions import Fraction  # not at the top: loaded before compiles, it lifts peak RSS

    support: dict[tuple[int, float], list[Fraction]] = {}
    for i, member in enumerate(members):
        _expect(member, VectorSpanMember, "rank")
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
