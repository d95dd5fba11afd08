"""surjkit: constructive continuous surjections R^m -> R^n with certificates.

The package builds explicit plane-filling maps from an exact Hilbert-curve
codec, lifts them to arbitrary finite dimensions, spans a large family of
surjections from sinh-type homeomorphisms, certifies surjectivity on compact
boxes by preimage witnesses, and ranks a span family exactly from its
coefficients and exponents.

Names load on first access: ``import surjkit`` imports no submodule, and
``surjkit.preimage`` (or ``from surjkit import preimage``) imports
``surjkit.surjections`` the first time it is looked up. A command that uses
only the curve layer thus never compiles the spans or certify code.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "curve": ("curve_trace", "hilbert_decode", "hilbert_encode"),
    "errors": (
        "DegenerateMemberError", "DomainError", "NoSolutionError", "RefinementError",
        "ResourceError", "StructuralError",
    ),
    "spans": (
        "Asymptotics", "ScalarSpan", "VectorSpanMember", "classify_asymptotics",
        "combine_members", "component_reduce", "detect_degenerate", "make_diagonal_family",
        "make_scalar_span", "phi_eval", "scalar_solve",
    ),
    "surjections": (
        "EvalResult", "FunctionExpr", "compose_with_base", "evaluate_at", "evaluate_to_precision",
        "expr_from_dict", "expr_to_dict", "extend_to_line", "lift_dimension", "preimage",
        "project_lift",
    ),
    "certify": (
        "BoxSpec", "CoverageCertificate", "Witness", "certify_surjective_on_box", "support_rank",
    ),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFINED_IN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
