"""Concrete continuous surjections R^m -> R^n as immutable three-field records.

Every tree has the paper's one shape, FunctionExpr(lifts, arity, member): the
line-to-plane map under `lifts` dimension lifts, reading the first of `arity`
inputs, with an optional span member applied after it. Four factories build
it in the paper's vocabulary and refuse every other shape:

extend_to_line   the line-to-plane map: constant (0,0) on t <= 0, then for
                 each n >= 1 a linear bridge on [n-1, n-1/2] into the box
                 B_n = [-n, n]^2 followed by a rescaled Hilbert curve over
                 B_n on [n-1/2, n]; the boxes exhaust the plane
lift_dimension   turns an S_{1,n} tree into S_{1,n+1} by expanding the last
                 output coordinate through a fresh line-to-plane map
project_lift     turns an S_{1,n} tree into S_{m,n} by reading only the
                 first input coordinate
                 (both refuse an arity past ARITY_CAP)
compose_with_base  applies a vector span member after a base surjection,
                   at the root only

evaluate_at returns the depth-k approximant together with a conservative
error estimate; preimage inverts the tree analytically, returning exact
rational parameter coordinates (floats cannot carry the depth a composed
curve chain needs), and checks each witness by evaluating the limit map
exactly at it. expr_to_dict writes a tree as a CLI spec's base and family
sections, and expr_from_dict reads them back with _formats.read_spec.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._hilbert import EVAL_DEPTH_CAP, _cell, _check_depth, _d2xy, _xy2d
from ._value import Value
from .curve import _ratio
from .errors import (
    DegenerateMemberError,
    DomainError,
    RefinementError,
    ResourceError,
    StructuralError,
)
from .spans import ARITY_CAP, ScalarSpan, VectorSpanMember, detect_degenerate, scalar_solve

DEFAULT_EVAL_DEPTH = 12
# entries per inversion memo: a product grid repeats each axis value, and
# the sinh stage and a lift's pair read one or two coordinates of a target
_MEMO_SIZE = 4096

Real = Union[int, float, Fraction]


def _expect(value, kind, action: str):
    """value, if it is an instance of kind; otherwise DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"cannot {action} an object of type {type(value).__name__}")
    return value


def _check_tolerance(eps) -> None:
    """DomainError unless eps is a positive finite real (text is not one)."""
    try:
        if 0 < eps < math.inf:
            return
    except (TypeError, ValueError):  # text, or an array of tolerances
        pass
    raise DomainError(f"tolerance must be positive and finite, got {eps!r}")


def _sequence(values, what: str) -> tuple:
    """tuple(values); DomainError if values is not a sequence (a bare real, say)."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be a sequence of reals, got {values!r}") from None


class FunctionExpr(Value):
    """The line-to-plane map under `lifts` dimension lifts, reading the first
    of `arity` inputs (1: no projection), then the span `member` (None: a
    bare base). Equal exactly when the three fields are; the factories are
    the checked way to build one.

    Points and values are exact (numerator, denominator) pairs, except that
    a member's values are (float, 1). In the stage-named errors of
    _preimage, a lift's trailing line-to-plane map is its pair and the map
    below a lift or a member is its inner map."""

    __slots__ = _fields = ("lifts", "arity", "member")
    lifts: int
    arity: int
    member: Optional[VectorSpanMember]

    @property
    def domain_arity(self) -> int:
        return self.arity

    @property
    def codomain_arity(self) -> int:
        return self.lifts + 2

    def _eval(self, point: tuple, depth: Optional[int]) -> tuple[tuple, float]:
        """Depth-k values and error estimate; depth None is the limit map
        (k = infinity) at a dyadic point, with estimate 0."""
        values, est = _line_eval(point[0], depth)
        lifts = self.lifts  # counted down, as a range would cost the bare map an allocation
        while lifts:
            lifts -= 1
            last = values[-1]
            pair_values, pair_est = _line_eval(last, depth)
            if est > 0.0:
                pair_est += _line_modulus(last[0] / last[1], est, depth)
            values, est = values[:-1] + pair_values, max(est, pair_est)
        if self.member is None:
            return values, est
        spans = self.member.spans
        inputs = [p / q for p, q in values]
        out = tuple([(span.value(x), 1) for span, x in zip(spans, inputs)])
        if est == 0.0:
            return out, 0.0
        amplified = max(
            [span.derivative_bound(x - est, x + est) * est for span, x in zip(spans, inputs)]
        )
        return out, amplified

    def _preimage(self, target: tuple, bits: float) -> tuple:
        """A point whose image lies within 2**-bits of target: the sinh stage,
        then each lift's pair from the outermost in, then the leaf."""
        if self.member is not None:
            target, bounds = _sinh_stage(self.member, target, 2.0 ** -(bits + 1), "phi_compose")
            # the base within half the tolerance / lipschitz (and never coarser than 1)
            bits = max(0.0, bits + 1 + math.log2(max(bounds)))
        done = 0  # the lifts whose pair is inverted
        try:
            while done < self.lifts:
                (s,), pair_depth = _invert_pair(target[-2:], bits + math.log2(6))
                # keep the map below within half a parameter interval of the
                # pair's depth so the pair output moves by at most one cell; as
                # pair_depth exceeds bits, this is also finer than the
                # 2**-(bits + 1) the leading coordinates need
                target, bits = target[:-2] + (s,), 2 * pair_depth + 1
                done += 1
            witness, _ = _line_preimage(target, bits)
        except ResourceError as err:
            # name the stage that failed, then each stage around it, outward
            stage = "" if done == self.lifts else " in the pair of dim_lift"
            stage += " in the inner map of dim_lift" * done
            if self.member is not None:
                stage += " in the inner map of phi_compose"
            raise ResourceError(f"{err}{stage}") from err
        return witness + (0,) * (self.arity - 1)

    def describe(self) -> str:
        text = "dim_lift(" * self.lifts + "peano_line" + ")" * self.lifts
        if self.arity > 1:
            text = f"project_lift[m={self.arity}]({text})"
        return text if self.member is None else f"({self.member.describe()}) o {text}"


def _line_eval(point: tuple, depth: Optional[int]) -> tuple[tuple, float]:
    """The line-to-plane map at the exact parameter point = (p, q): its
    depth-k values and error estimate, or at depth None its limit."""
    p, q = point
    if p <= 0:
        return ((0, 1), (0, 1)), 0.0
    i, r = divmod(p, q)
    n = i + 1
    if 2 * r < q:
        # bridge at theta = 2r/q from the previous exit (i, -i), or the
        # origin, to the entry (-n, -n) of B_n
        px, py = (i, -i) if i else (0, 0)
        return ((px * q + 2 * r * (-n - px), q), (py * q + 2 * r * (-n - py), q)), 0.0
    u = 2 * r - q  # the curve parameter is u/q in [0, 1) over B_n
    if depth is not None:
        index = (u << 2 * depth) // q  # floor((2t - 2i - 1) * 4^depth)
        col, row = _d2xy(depth, index)
        side = 1 << depth
        # never below 2n / side, nor 0: ldexp rounds to nearest, and may round
        # down below the normal floats (past depth 1022) or for n past 2**52
        est = math.ldexp(2 * n, -depth)
        if math.ldexp(est, depth) < 2 * n:
            est = math.nextafter(est, math.inf)
        return ((n * (2 * col + 1 - side), side), (n * (2 * row + 1 - side), side)), est
    e = q.bit_length() - 1
    if q != 1 << e:
        raise DomainError("the limit map is evaluated at dyadic parameters only")
    d = (e + 1) >> 1
    index = (u << 2 * d) // q  # exact: the parameter is index / 4^d
    # the entry corner of cell index: 2 center(d + 1, 4 index) - center(d, index)
    col, row = _d2xy(d + 1, index << 2)
    x, y, side = col - (col >> 1), row - (row >> 1), 1 << d
    return ((n * (2 * x - side), side), (n * (2 * y - side), side)), 0.0


def _line_modulus(t: float, delta: float, depth: int) -> float:
    """Bound on the line-to-plane map's output movement over [t - delta, t + delta]."""
    if t + delta <= 0:
        return 0.0
    n = math.floor(t + delta) + 1
    bridge = 2.0 * (2 * n - 1) * min(2.0 * delta, 0.5)
    curve = 2.0 * n * (math.sqrt(6.0 * min(4.0 * delta, 1.0)) + 2.0 ** (1 - depth))
    return bridge + curve


def _line_preimage(target: tuple, bits: float) -> tuple[tuple[Fraction], int]:
    """((t,), k): a parameter the line-to-plane map sends within 2**-bits of
    the plane target, and the curve depth k it was found at."""
    (pa, qa), (pb, qb) = _ratio(target[0]), _ratio(target[1])
    # the smallest box B_n holding the target, n >= 1
    n = max(-(-abs(pa) // qa), -(-abs(pb) // qb), 1)
    # half a cell of B_n at depth k stays within 2**-bits / 2
    depth = math.log2(4 * n) + bits
    if not depth <= EVAL_DEPTH_CAP:  # an infinite or nan depth fails here too
        shown = math.ceil(depth) if math.isfinite(depth) else depth
        raise ResourceError(f"preimage depth {shown} exceeds cap {EVAL_DEPTH_CAP}")
    k = math.ceil(depth)
    if k < 1:
        k = 1
    # the depth-k cell of the target's position (p + n q) / (2 n q) in the
    # unit square
    col, row = _cell(pa + n * qa, 2 * n * qa, pb + n * qb, 2 * n * qb, k)
    # t = (2n - 1)/2 + index / (2 * 4^k)
    return (Fraction(((2 * n - 1) << 2 * k) + _xy2d(k, col, row), 2 << 2 * k),), k


# Equal keys are equal exact values (-0.0 == 0.0, 0.5 == Fraction(1, 2)), so
# a cached result equals what a fresh call computes.
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _solve_coordinate(span: ScalarSpan, y: float, tol: float) -> tuple[float, float]:
    """The sinh stage for one coordinate: a root u of span = y within tol, and
    the bound on the span's slope over [u - 1, u + 1]."""
    if not tol > 0:
        raise ResourceError(f"solve tolerance underflows to {tol}")
    u = scalar_solve(span, y, tol)
    return u, span.derivative_bound(u - 1.0, u + 1.0)


def _sinh_stage(
    member: VectorSpanMember, target: tuple, tol: float, node: str
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The roots of member = target within tol, coordinate by coordinate, and
    each span's slope bound near its root; a zero coordinate span raises
    DegenerateMemberError, and a failed solve names the coordinate of node."""
    bad = detect_degenerate(member)
    if bad is not None:
        raise DegenerateMemberError(bad)
    solved = []
    for j, (span, y) in enumerate(zip(member.spans, target)):
        try:
            solved.append(_solve_coordinate(span, float(y), tol))
        except ResourceError as err:
            raise ResourceError(f"{err} in the sinh stage of {node} coordinate {j + 1}") from err
    roots, bounds = zip(*solved)
    return roots, bounds


# a lift's trailing line-to-plane inversion: ((s,), its curve depth)
_invert_pair = functools.lru_cache(maxsize=_MEMO_SIZE)(_line_preimage)


def _root_only(base: FunctionExpr) -> FunctionExpr:
    """base, to build a tree on; one under a span member, StructuralError."""
    if base.member is not None:
        raise StructuralError("a span member applies at the root only")
    return base


def extend_to_line() -> FunctionExpr:
    """The concrete S_{1,2} member used as the seed of every construction."""
    return FunctionExpr(0, 1, None)


def lift_dimension(f: FunctionExpr) -> FunctionExpr:
    """S_{1,n} -> S_{1,n+1}; the first output coordinate is preserved exactly."""
    if _expect(f, FunctionExpr, "lift").domain_arity != 1:
        raise StructuralError("lift requires a domain arity of 1")
    if f.codomain_arity + 1 > ARITY_CAP:
        raise ResourceError(f"codomain {f.codomain_arity + 1} exceeds cap {ARITY_CAP}")
    return FunctionExpr(_root_only(f).lifts + 1, 1, None)


def project_lift(g: FunctionExpr, target_m: int) -> FunctionExpr:
    """S_{1,n} -> S_{m,n} by F(x) = g(x_1); m = 1 returns g unchanged."""
    if _expect(g, FunctionExpr, "project").domain_arity != 1:
        raise StructuralError("projection lift requires an inner domain arity of 1")
    if type(target_m) is int and target_m == 1:
        return g
    if isinstance(target_m, bool) or not isinstance(target_m, int) or target_m < 2:
        # an arity that only compares equal to 1 (True, 1.0) is refused
        raise DomainError(
            f"target domain arity must be an integer >= 2 (1 is the identity), got {target_m!r}"
        )
    if target_m > ARITY_CAP:
        raise ResourceError(f"domain arity {target_m} exceeds cap {ARITY_CAP}")
    return FunctionExpr(_root_only(g).lifts, target_m, None)


def compose_with_base(member: VectorSpanMember, base: FunctionExpr) -> FunctionExpr:
    """Span member after base surjection, at the root of the tree."""
    _expect(member, VectorSpanMember, "compose a base before")
    if member.arity != _expect(base, FunctionExpr, "compose a member after").codomain_arity:
        raise StructuralError(f"member arity {member.arity} != base codomain {base.codomain_arity}")
    return FunctionExpr(_root_only(base).lifts, base.arity, member)


class EvalResult(Value):
    """Approximant value and a conservative bound on its movement under
    one extra level of depth refinement."""

    __slots__ = _fields = ("value", "error_estimate")
    value: tuple[float, ...]
    error_estimate: float


def evaluate_at(expr: FunctionExpr, point: Sequence[Real], depth: int = DEFAULT_EVAL_DEPTH) -> EvalResult:
    """Depth-k approximant of the expression at a point."""
    _expect(expr, FunctionExpr, "evaluate")
    _check_depth(depth, 1)
    point = _sequence(point, "point")
    if len(point) != expr.domain_arity:
        raise StructuralError(f"point arity {len(point)} != domain arity {expr.domain_arity}")
    value, est = expr._eval(tuple(map(_ratio, point)), depth)
    return EvalResult(tuple(p / q for p, q in value), est)


def evaluate_to_precision(
    expr: FunctionExpr, point: Sequence[Real], precision: float
) -> EvalResult:
    """Deepen evaluation (depth 16, 32, ... up to the cap) until the chained
    error estimate meets precision."""
    _check_tolerance(precision)
    point = _sequence(point, "point")
    depth = 16
    while depth <= EVAL_DEPTH_CAP:
        result = evaluate_at(expr, point, depth)
        if result.error_estimate <= precision:
            return result
        depth *= 2
    raise ResourceError(f"could not reach precision {precision} within the depth cap")


def _sup_error(errors: list[float]) -> float:
    """The sup-norm residual of per-coordinate errors; nan if any error is
    nan, so that it fails every comparison with a tolerance."""
    worst = 0.0
    for e in errors:
        if e > worst or e != e:
            worst = e
    return worst


def _checked_preimage(
    expr: FunctionExpr, target: tuple[float, ...], eps: float
) -> tuple[tuple, float]:
    """(witness, its forward residual): one inversion of the analytic chain
    at eps/2, then one forward check that evaluates the limit map exactly
    at the dyadic witness (up to the float rounding of a sinh stage)."""
    witness = expr._preimage(target, 1.0 - math.log2(eps))
    # from a list, not a map: tuple() sizes a map's result at 10 and shrinks
    # it, which moves a block per target from one tuple free list to another
    value, _ = expr._eval(tuple([_ratio(x) for x in witness]), None)
    return witness, _sup_error([abs(p / q - y) for (p, q), y in zip(value, target)])


def preimage(expr: FunctionExpr, target: Sequence[Real], eps: float) -> tuple:
    """A point x whose image under the limit map is within eps of target (sup norm).

    The analytic chain inverts each stage and one forward check measures
    the witness's residual under the limit map, exactly through every
    curve stage, so a residual above eps raises RefinementError and means
    a bug.
    Curve-derived coordinates come back as exact Fractions: composed
    curve chains need more parameter resolution than a float carries.
    """
    _expect(expr, FunctionExpr, "invert")
    _check_tolerance(eps)
    target = tuple(p / q for p, q in map(_ratio, _sequence(target, "target")))
    if len(target) != expr.codomain_arity:
        raise StructuralError(
            f"target arity {len(target)} != codomain arity {expr.codomain_arity}"
        )
    witness, res = _checked_preimage(expr, target, eps)
    if res <= eps:
        return witness
    raise RefinementError(f"residual {res:.3g} > eps {eps:.3g} at the forward check")


def expr_to_dict(expr: FunctionExpr) -> dict:
    """The tree as the base and family sections of a CLI spec: the line-to-plane
    map under base.lifts dimension lifts, projected to base.project_to inputs,
    and a root span member as explicit family.terms."""
    _expect(expr, FunctionExpr, "serialize")
    base = {"construct": "extend_to_line", "lifts": expr.lifts, "project_to": expr.arity}
    if expr.member is None:
        return {"base": base}
    terms = [{"coefficient": repr(lam), "exponents": [repr(r) for r in rvec]}
             for lam, rvec in expr.member.terms]
    return {"base": base, "family": {"terms": terms}}


def expr_from_dict(data: dict) -> FunctionExpr:
    """The tree of expr_to_dict's form, by the CLI spec reader: a malformed
    section, key or value raises StructuralError naming its path
    (family.terms.exponents), a count past ARITY_CAP ResourceError, and a
    value a constructor refuses DomainError (a project_to of 0, say)."""
    from ._formats import read_spec

    return read_spec(data, "tree").pipeline
