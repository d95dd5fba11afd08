"""The sinh-type scalar family, its vector version, and span algebra.

The building block is the odd homeomorphism t -> e^(r t) - e^(-r t)
(= 2 sinh(r t)) for r > 0. Finite linear combinations over distinct
exponents form ScalarSpan values; n-coordinate stacks of them, indexed by
exponent vectors, form VectorSpanMember values. A member applied after a
base surjection is the member field of the tree built by
surjections.compose_with_base.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from ._value import Value, set_field
from .errors import DomainError, NoSolutionError, ResourceError

# the largest arity a member, or a tree's domain or codomain, accepts
ARITY_CAP = 6
BRACKET_CAP = 2.0**60


def phi_eval(r: float, t: float) -> float:
    """e^(r t) - e^(-r t) for r > 0; overflow clamps to signed infinity."""
    if not r > 0:
        raise DomainError(f"exponent must be positive, got {r}")
    try:
        return 2.0 * math.sinh(r * t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf


class ScalarSpan(Value):
    """Normalized combination sum(alpha_i * phi_{r_i}), exponents strictly decreasing.

    The empty term tuple is the zero function. Use make_scalar_span to
    build one from raw (coefficient, exponent) pairs.
    """

    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[float, float], ...]

    def __init__(self, terms: tuple[tuple[float, float], ...]):
        set_field(self, "terms", terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading(self) -> tuple[float, float]:
        if self.is_zero:
            raise NoSolutionError("zero span has no leading term")
        return self.terms[0]

    def value(self, t: float) -> float:
        total = 0.0
        for alpha, r in self.terms:
            total += alpha * phi_eval(r, t)
        if total != total and t == t:
            # nan from a finite t: terms of opposite sign overflowed, and
            # the largest exponent dominates
            return math.copysign(math.inf, self.terms[0][0] * t)
        return total

    def derivative_bound(self, lo: float, hi: float) -> float:
        """Upper bound on |d/dt| over [lo, hi] (derivative is r*(e^rt + e^-rt))."""
        span = max(abs(lo), abs(hi))
        total = 0.0
        for alpha, r in self.terms:
            try:
                total += abs(alpha) * r * 2.0 * math.cosh(r * span)
            except OverflowError:
                return math.inf
        return total

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{a:g}*phi[{r:g}]" for a, r in self.terms)


def _normalized(pairs: Iterable[tuple], name: str) -> tuple:
    """The (coefficient, exponent) pairs, equal exponents merged, zero
    coefficients dropped, exponents descending. A merged coefficient that is
    not finite raises DomainError, which calls its exponent name."""
    merged: dict = {}
    for alpha, r in pairs:
        alpha = merged.get(r, 0.0) + float(alpha)
        if not math.isfinite(alpha):
            raise DomainError(f"coefficient {alpha} of {name} {r} is not finite")
        merged[r] = alpha
    return tuple((alpha, r) for r, alpha in sorted(merged.items(), reverse=True) if alpha != 0.0)


def make_scalar_span(pairs: Iterable[tuple[float, float]]) -> ScalarSpan:
    """Merge equal exponents, drop zero coefficients, sort descending by exponent.

    Exponent equality is exact equality of the stored float: near-equal
    exponents are distinct terms and must be merged by the caller. A merged
    coefficient or an exponent that is not finite raises DomainError.
    """
    def exponent(r) -> float:
        r = float(r)
        if not 0 < r < math.inf:
            raise DomainError(f"exponent must be positive and finite, got {r}")
        return r

    return ScalarSpan(_normalized(((a, exponent(r)) for a, r in pairs), "exponent"))


class Asymptotics(Value):
    """Limits of a span at +inf and -inf; (0, 0) encodes the zero function."""

    __slots__ = _fields = ("at_plus_infinity", "at_minus_infinity")
    at_plus_infinity: float
    at_minus_infinity: float

    @property
    def is_zero(self) -> bool:
        return self.at_plus_infinity == 0.0


def classify_asymptotics(s: ScalarSpan) -> Asymptotics:
    """Sign of the leading coefficient decides both limits.

    A nonzero span with leading term (alpha_1, r_1) runs to
    sign(alpha_1)*inf at +inf and the opposite at -inf, because the
    largest exponent dominates every other term.
    """
    if s.is_zero:
        return Asymptotics(0.0, 0.0)
    alpha1, _ = s.leading
    limit = math.copysign(math.inf, alpha1)
    return Asymptotics(limit, -limit)


def scalar_solve(s: ScalarSpan, y: float, tol: float) -> float:
    """Some t with |s(t) - y| <= tol (0.0 if |y| <= tol), by bisection of [0, end].

    A nonzero span vanishes at 0 and runs to opposite infinities, so s - y
    changes sign between 0 and some end. That end starts at min(1, |2y / s'(0)|)
    and alternates sides and doubles (+e, -e, +2e, -2e, ...) until s - y there
    has the sign of y (Press et al., Numerical Recipes, section 9.1)."""
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not math.isfinite(y):
        raise DomainError(f"target must be finite, got {y}")
    if s.is_zero:
        raise NoSolutionError("cannot solve against the zero span")
    if abs(y) <= tol:
        return 0.0
    slope = 2.0 * sum(alpha * r for alpha, r in s.terms)  # s'(0)
    end = abs(2.0 * y / slope) if slope else 1.0
    end = min(1.0, end) if end > 0.0 else 1.0  # also for nan
    sign = math.copysign(1.0, y)
    while (s.value(end) - y) * sign < 0.0:
        end = -end if end > 0.0 else -2.0 * end
        if abs(end) > BRACKET_CAP:
            raise ResourceError("bracket expansion cap reached; check tolerance and span")

    near, far = 0.0, end  # s - y has the sign of -y at near, of y at far
    best_t, best_res = near, abs(y)
    while True:
        mid = 0.5 * (near + far)
        if mid == near or mid == far:
            raise ResourceError(
                f"bisection stalled at residual {best_res:.3g} (tol {tol:.3g}) near t={best_t!r}"
            )
        f = s.value(mid) - y
        if abs(f) <= tol:
            return mid
        if abs(f) < best_res:
            best_t, best_res = mid, abs(f)
        if f * sign < 0.0:
            near = mid
        else:
            far = mid


class VectorSpanMember(Value):
    """Combination sum(lambda_i * Phi_{r_i}) of coordinatewise sinh stacks.

    Each term couples a coefficient with an exponent vector in (R+)^n;
    coordinate j of the map applies phi with exponent r_i[j] to input j.
    The per-coordinate spans are reduced once, when the member is built,
    and kept outside equality, hashing and the repr.
    """

    _fields = ("terms", "arity")
    __slots__ = _fields + ("spans",)
    terms: tuple[tuple[float, tuple[float, ...]], ...]
    arity: int
    spans: tuple[ScalarSpan, ...]

    def __init__(self, terms: Iterable[tuple[float, Sequence[float]]], arity: int):
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            raise DomainError(f"arity must be an integer >= 1, got {arity!r}")
        if arity > ARITY_CAP:
            raise ResourceError(f"member arity {arity} exceeds cap {ARITY_CAP}")

        def exponents(rvec) -> tuple[float, ...]:
            rvec = tuple(float(r) for r in rvec)
            if len(rvec) != arity:
                raise DomainError(
                    f"exponent vector {rvec} has length {len(rvec)}, expected {arity}"
                )
            if not all([0 < r < math.inf for r in rvec]):
                raise DomainError(f"exponent vector {rvec} must be finite and strictly positive")
            return rvec

        checked = ((lam, exponents(rvec)) for lam, rvec in terms)
        set_field(self, "terms", _normalized(checked, "exponent vector"))
        set_field(self, "arity", arity)
        set_field(self, "spans", tuple(component_reduce(self)))

    @property
    def is_zero(self) -> bool:
        """True exactly when the member is the zero function: every reduced
        span is zero (distinct exponent vectors can cancel coordinatewise)."""
        return all(span.is_zero for span in self.spans)

    def value_at(self, u: Sequence[float]) -> tuple[float, ...]:
        """Apply the member to a point of R^n."""
        if len(u) != self.arity:
            raise DomainError(f"point has arity {len(u)}, member expects {self.arity}")
        return tuple(span.value(float(x)) for span, x in zip(self.spans, u))

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{lam:g}*Phi[{','.join(f'{r:g}' for r in rvec)}]" for lam, rvec in self.terms
        )


def component_reduce(v: VectorSpanMember) -> list[ScalarSpan]:
    """Per-coordinate scalar spans; equal exponents merge and may cancel."""
    return [
        make_scalar_span([(lam, rvec[j]) for lam, rvec in v.terms]) for j in range(v.arity)
    ]


def detect_degenerate(v: VectorSpanMember) -> Optional[int]:
    """Index of the first coordinate whose reduced span is zero, if any.

    Nonzero combinations of diagonal-family members never trigger this;
    mixed exponent vectors can cancel coordinatewise while the member as a
    whole stays nonzero, and such members are not surjective.
    """
    return next((j for j, span in enumerate(v.spans) if span.is_zero), None)


def make_diagonal_family(exponents: Sequence[float], n: int) -> list[VectorSpanMember]:
    """Basis members with constant exponent vector (r, ..., r), one per exponent.

    Every coordinate of a nonzero combination reduces to the same nonzero
    scalar span, so the combination is surjective coordinate by coordinate.
    """
    VectorSpanMember((), n)  # the member's arity checks, before (r,) * n is built
    values = [float(r) for r in exponents]
    if len(set(values)) != len(values):
        raise DomainError("diagonal family exponents must be pairwise distinct")
    return [VectorSpanMember(((1.0, (r,) * n),), n) for r in values]


def combine_members(
    coefficients: Sequence[float], members: Sequence[VectorSpanMember]
) -> VectorSpanMember:
    """Linear combination of members sharing one arity."""
    if len(coefficients) != len(members):
        raise DomainError("need one coefficient per member")
    if not members:
        raise DomainError("cannot combine an empty family")
    arity = members[0].arity
    terms: list[tuple[float, tuple[float, ...]]] = []
    for c, m in zip(coefficients, members):
        if m.arity != arity:
            raise DomainError("members must share arity to combine")
        terms.extend((float(c) * lam, rvec) for lam, rvec in m.terms)
    return VectorSpanMember(tuple(terms), arity)
