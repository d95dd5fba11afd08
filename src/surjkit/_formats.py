"""The command line's two file formats: the spec reader and the report writer.

The spec file is JSON with sections `base`, `family`, `certify`, `output`
(a tree dict has the first two); reals are finite decimal strings, counts
are JSON integers; unknown keys are rejected. It describes exactly one
pipeline: a factory constructor chain, optionally followed by a span
member built from diagonal basis coefficients or explicit terms. read_spec
builds that tree as it reads, so the codomain cap refuses a spec before
any member is built, and the members and the box take their arity from
the tree. The report is one json.dumps with the witness rows spliced in.
This module loads only the standard library, _value and errors; the
pipeline and certificate layers load in the functions that run them.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Iterable, Optional

from ._value import Value
from .errors import StructuralError

if TYPE_CHECKING:
    from .certify import BoxSpec, Witness
    from .spans import VectorSpanMember
    from .surjections import FunctionExpr


def format_real(x: float) -> str:
    """Decimal string with 17 significant digits."""
    return f"{float(x):.17g}"


def exact_string(x) -> str:
    """Lossless textual form: p/q for rationals, repr for floats."""
    if isinstance(x, int):
        return str(x)
    if hasattr(x, "denominator"):  # a Fraction, told apart without importing fractions
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


class SpecFile(Value):
    __slots__ = _fields = ("pipeline", "family_members", "certify_box", "certify_epsilon")
    pipeline: FunctionExpr
    family_members: tuple[VectorSpanMember, ...]
    certify_box: Optional[BoxSpec]
    certify_epsilon: Optional[float]

    def build_pipeline(self) -> FunctionExpr:
        """The pipeline tree, as built by the spec reader."""
        return self.pipeline


def _check_keys(data, allowed: set, required: set, where: str) -> None:
    if not isinstance(data, dict):
        raise StructuralError(f"section '{where}' must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise StructuralError(f"unknown keys {sorted(unknown)} in section '{where}'")
    missing = required - set(data)
    if missing:
        raise StructuralError(f"missing keys {sorted(missing)} in section '{where}'")


def _real(value, where: str) -> float:
    x = math.nan  # a bool or an unparsable value is rejected with inf and nan
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
    if not math.isfinite(x):
        raise StructuralError(f"expected a finite decimal string in '{where}', got {value!r}")
    return x


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"expected an integer in '{where}', got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise StructuralError(f"expected a list in '{where}', got {value!r}")
    return value


def _terms(value, arity: int, where: str) -> tuple:
    """The (coefficient, exponents) pairs of a list of term entries."""
    terms = []
    for i, entry in enumerate(_list(value, where)):
        _check_keys(entry, {"coefficient", "exponents"}, {"coefficient", "exponents"},
                    f"{where}[{i}]")
        exps = tuple(_real(r, f"{where}.exponents")
                     for r in _list(entry["exponents"], f"{where}.exponents"))
        if len(exps) != arity:
            raise StructuralError(f"{where}[{i}] has {len(exps)} exponents, base produces {arity}")
        terms.append((_real(entry["coefficient"], f"{where}.coefficient"), exps))
    return tuple(terms)


def read_spec(data, where: str = "spec") -> SpecFile:
    """The spec's pipeline, its diagonal basis members (none for explicit
    terms) and its certify box and epsilon. A malformed spec raises
    StructuralError, a count past ARITY_CAP ResourceError, and a value a
    constructor refuses DomainError. where="tree" reads a tree dict, which
    has only the base and family sections."""
    from .surjections import compose_with_base, extend_to_line, lift_dimension, project_lift
    # looked up per call: a test replaces make_diagonal_family to see that none is built
    from .spans import VectorSpanMember, combine_members, make_diagonal_family

    sections = {"base", "family"} if where == "tree" else {"base", "family", "certify", "output"}
    _check_keys(data, sections, {"base"}, where)
    base = data["base"]
    _check_keys(base, {"construct", "lifts", "project_to"}, {"construct"}, "base")
    if base["construct"] != "extend_to_line":
        raise StructuralError(f"unknown base construct {base['construct']!r}")
    lifts = _integer(base.get("lifts", 0), "base.lifts")
    project_to = _integer(base.get("project_to", 1), "base.project_to")
    if lifts < 0:
        raise StructuralError("base.lifts must be non-negative")
    pipeline: FunctionExpr = extend_to_line()
    for _ in range(lifts):
        pipeline = lift_dimension(pipeline)
    pipeline = project_lift(pipeline, project_to)
    codomain = pipeline.codomain_arity

    members = ()
    if "family" in data:
        family = data["family"]
        _check_keys(family, {"diagonal_exponents", "coefficients", "terms"}, set(), "family")
        if "terms" in family:
            if "diagonal_exponents" in family or "coefficients" in family:
                raise StructuralError("family takes either explicit terms or a diagonal basis")
            member = VectorSpanMember(_terms(family["terms"], codomain, "family.terms"), codomain)
        elif "diagonal_exponents" not in family:
            raise StructuralError("family needs diagonal_exponents or terms")
        else:
            key = "family.diagonal_exponents"
            exps = [_real(r, key) for r in _list(family["diagonal_exponents"], key)]
            members = tuple(make_diagonal_family(exps, codomain))
            raw = _list(family.get("coefficients", ["1"] * len(exps)), "family.coefficients")
            coefficients = tuple(_real(c, "family.coefficients") for c in raw)
            if len(coefficients) != len(members):
                raise StructuralError("family.coefficients must match diagonal_exponents in length")
            member = combine_members(coefficients, members)
        pipeline = compose_with_base(member, pipeline)

    box = None
    epsilon = None
    if "certify" in data:
        from .certify import BoxSpec

        cert = data["certify"]
        _check_keys(cert, {"box", "grid", "epsilon"}, {"box", "grid", "epsilon"}, "certify")
        bounds = []
        for i, pair in enumerate(_list(cert["box"], "certify.box")):
            if not isinstance(pair, list) or len(pair) != 2:
                raise StructuralError(f"certify.box[{i}] must be a [low, high] pair")
            bounds.append((_real(pair[0], "certify.box"), _real(pair[1], "certify.box")))
        if len(bounds) != codomain:
            raise StructuralError(
                f"certify.box has {len(bounds)} coordinates, pipeline produces {codomain}"
            )
        epsilon = _real(cert["epsilon"], "certify.epsilon")
        if epsilon <= 0:
            raise StructuralError("certify.epsilon must be positive")
        box = BoxSpec(tuple(bounds), _integer(cert["grid"], "certify.grid"))

    if "output" in data:
        _check_keys(data["output"], {"format"}, set(), "output")
        output_format = data["output"].get("format", "json")
        if output_format != "json":
            raise StructuralError(f"unsupported output format {output_format!r}")

    return SpecFile(pipeline, members, box, epsilon)


def _write_report(
    path: str, function_id: str, box: BoxSpec, epsilon: float, witnesses: Iterable[Witness],
    independence: Optional[dict], settings: dict,
) -> tuple[str, Optional[tuple[float, ...]]]:
    """Write the report to path; return its (status, worst target), as
    certify_surjective_on_box folds them.

    The bytes are json.dump(..., indent=2, sort_keys=True)'s. Each witness's
    text goes to a spool, path + ".part" unlinked once open, and the status
    is folded on the way; then that name takes the spool's copy inside one
    json.dumps of the report with an empty witness list, and replaces path:
    no witness is kept, and a failed run leaves path as it was (a kill
    mid-copy leaves path + ".part" beside it).

    Every value is a string, int, bool or null. The rows are hand-written, as
    json.dumps with an indent runs the pure-Python encoder; their reals come
    from format_real and exact_string, which need no escaping, and their
    lists are never empty (a target has the box's arity and a preimage the
    pipeline's domain arity).

    Targets are box grid values, so each grid value is formatted once and
    looked up by value. Zero is left out, as -0.0 == 0.0 share a key but
    print apart; a value off the grid is formatted where it is met.
    """
    import json
    from .certify import _verdict

    grid_text = {x: format_real(x) for axis in box._axes() for x in axis if x}
    sep, part = '",\n          "', path + ".part"

    def spooled(spool):
        lead = "\n"
        for w in witnesses:
            spool.write(
                f'{lead}      {{\n'
                f'        "achieved_error": "{format_real(w.achieved_error)}",\n'
                f'        "preimage_decimal": [\n'
                f'          "{sep.join([format_real(x) for x in w.preimage])}"\n'
                f'        ],\n'
                f'        "preimage_exact": [\n'
                f'          "{sep.join([exact_string(x) for x in w.preimage])}"\n'
                f'        ],\n'
                f'        "target": [\n'
                f'          "{sep.join([grid_text.get(y) or format_real(y) for y in w.target])}"\n'
                f'        ]\n'
                f'      }}'
            )
            lead = ",\n"
            yield w

    spool = open(part, "w+", encoding="utf-8")
    os.remove(part)  # the open handle keeps the data
    with spool:
        status, worst = _verdict(spooled(spool), epsilon)
        spool.write("\n    ]" if spool.tell() else "]")  # tell() is 0 for no witness
        spool.seek(0)
        bounds = [[format_real(lo), format_real(hi)] for lo, hi in box.bounds]
        shown = None if worst is None else [format_real(x) for x in worst]
        certificate = {"box": {"bounds": bounds, "grid_points": box.grid_points},
                       "epsilon": format_real(epsilon), "function": function_id,
                       "status": status, "witnesses": [], "worst_target": shown}
        report = {"certificate": certificate, "independence": independence, "settings": settings}
        # a quote inside a string value is escaped to \", so only the key can match
        head, _, tail = json.dumps(report, indent=2, sort_keys=True).partition('"witnesses": []')
        fh = open(part, "w", encoding="utf-8")  # the spool's name is free again
        try:
            with fh:
                fh.write(head + '"witnesses": [')
                while chunk := spool.read(1 << 16):
                    fh.write(chunk)
                fh.write(tail + "\n")
            os.replace(part, path)
        except BaseException:
            os.remove(part)
            raise
    return status, worst
