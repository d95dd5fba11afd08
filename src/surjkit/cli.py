"""Command-line surface: trace curves, evaluate pipelines, run certificates.

Commands
--------
trace    --depth K --out PATH [--depth-cap N]
eval     --spec PATH --point "v1,v2,..." [--depth K]
certify  --spec PATH --report PATH [--budget N]

Exit codes: 0 success; 1 certificate not certified or rank deficient;
2 validation failure; 3 resource cap; 4 degenerate family member.
`certify` spools each witness as it is found to PATH.part, unlinked once
open, then writes the report there and renames it onto PATH: memory stays
flat at any grid, and a failed run leaves no report (nor changes one).

The spec file is JSON with sections `base`, `family`, `certify`, `output`;
reals are finite decimal strings, counts are JSON integers; unknown keys
are rejected. It describes exactly one pipeline: a factory constructor
chain, optionally followed by a span member built from diagonal basis
coefficients or explicit terms. The reader builds that tree as it reads,
so the codomain cap refuses a spec before any member is built, and the
members and the box take their arity from the tree.

Each command imports what it runs: `trace` loads only the integer codec
module `_hilbert` (not even `fractions`: its rows are written from integer
digits), `eval` also loads the curve, spans and surjections layers (and
certify only for a spec with a `certify` section), and `certify` loads all
four layers.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ._value import Value
from ._hilbert import DEFAULT_DEPTH_CAP, _trace_blocks
from .errors import (
    DegenerateMemberError,
    DomainError,
    NoSolutionError,
    RefinementError,
    ResourceError,
    StructuralError,
)

if TYPE_CHECKING:  # the commands import these where they run them
    from .certify import BoxSpec, Witness
    from .spans import VectorSpanMember
    from .surjections import FunctionExpr

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4


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


def _unit_decimals(numerators, e: int) -> list[str]:
    """The exact decimal string of n / 2^e for each 0 <= n < 2^e, from the
    e digits of n / 2^e = n * 5^e / 10^e < 1: integers only."""
    scale = 5**e
    return [("0." + str(n * scale).rjust(e, "0")).rstrip("0").rstrip(".") for n in numerators]


# ---------------------------------------------------------------------------
# spec file


class SpecFile(Value):
    __slots__ = _fields = ("pipeline", "family_members", "certify_box", "certify_epsilon")
    pipeline: FunctionExpr
    family_members: tuple[VectorSpanMember, ...]
    certify_box: Optional[BoxSpec]
    certify_epsilon: Optional[float]

    def build_pipeline(self) -> FunctionExpr:
        """The pipeline tree, as built by the spec reader."""
        return self.pipeline


def parse_spec_data(data: dict) -> SpecFile:
    """The spec's pipeline; a malformed spec raises StructuralError, or
    DomainError for a value its constructor refuses."""
    from .surjections import _check_keys, _integer, _list, _read_pipeline, _real

    _check_keys(data, {"base", "family", "certify", "output"}, {"base"}, "spec")
    pipeline, members = _read_pipeline(data)
    codomain = pipeline.codomain_arity

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


def parse_spec_file(path: str) -> SpecFile:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise StructuralError(f"cannot read spec file: {err}") from None
    except json.JSONDecodeError as err:
        raise StructuralError(
            f"spec parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except (UnicodeDecodeError, RecursionError) as err:  # not UTF-8, or nested too deep
        raise StructuralError(f"spec parse error: {err}") from None
    return parse_spec_data(data)


# ---------------------------------------------------------------------------
# report serialization


def _block(value, level: int) -> str:
    """value as json.dump(..., indent=2, sort_keys=True) writes it at a nesting level."""
    import json

    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def _write_report(
    path: str, function_id: str, box: BoxSpec, epsilon: float, witnesses: Iterable[Witness],
    independence: Optional[dict], settings: dict,
) -> tuple[str, Optional[tuple[float, ...]]]:
    """Write the report to path; return its (status, worst target), as
    certify_surjective_on_box folds them.

    The bytes are json.dump(..., indent=2, sort_keys=True)'s. Each witness's
    text goes to a spool, path + ".part" unlinked once open, and the status
    is folded on the way; then that name takes the header, the spool's copy
    and the trailer, and replaces path: no witness is kept, and a failed run
    leaves path as it was (a kill mid-copy leaves path + ".part" beside it).

    Every value is a string, int, bool or null; the reals are written by
    format_real and exact_string, which need no escaping. A witness's lists
    are never empty: a target has the box's arity and a preimage the
    pipeline's domain arity.

    Targets are box grid values, so each grid value is formatted once and
    looked up by value. Zero is left out, as -0.0 == 0.0 share a key but
    print apart; a value off the grid is formatted where it is met.
    """
    import os
    from json.encoder import encode_basestring_ascii
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
        fh = open(part, "w", encoding="utf-8")  # the spool's name is free again
        try:
            with fh:
                fh.write(
                    '{\n  "certificate": {\n'
                    f'    "box": {_block({"bounds": bounds, "grid_points": box.grid_points}, 2)},\n'
                    f'    "epsilon": "{format_real(epsilon)}",\n'
                    f'    "function": {encode_basestring_ascii(function_id)},\n'
                    f'    "status": {encode_basestring_ascii(status)},\n'
                    '    "witnesses": ['
                )
                while chunk := spool.read(1 << 16):
                    fh.write(chunk)
                fh.write(
                    f',\n    "worst_target": {_block(shown, 2)}\n  }},\n'
                    f'  "independence": {_block(independence, 1)},\n'
                    f'  "settings": {_block(settings, 1)}\n}}\n'
                )
            os.replace(part, path)
        except BaseException:
            os.remove(part)
            raise
    return status, worst


def independence_json(members: Sequence[VectorSpanMember]) -> dict:
    """The report's independence block: the exact rank of the members' support matrix."""
    from .certify import support_rank

    rank, rows = support_rank(members)
    return {
        "family": [m.describe() for m in members],
        "method": "exact support matrix",
        "matrix_shape": [rows, len(members)],
        "rank": rank,
        "full_rank": rank == len(members),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_trace(args) -> int:
    k = args.depth
    blocks = _trace_blocks(k, depth_cap=args.depth_cap)
    coords = _unit_decimals(range(1, 2 << k, 2), k + 1)  # the centres (2c + 1) / 2^(k+1)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,y\n")
        for start, cols, rows in blocks:
            ts = _unit_decimals(range(start, start + len(cols)), 2 * k)  # t = i / 4^k
            fh.write("".join(
                f"{t},{coords[col]},{coords[row]}\n"
                for t, col, row in zip(ts, cols, rows)
            ))
    return EXIT_OK


def cmd_eval(args) -> int:
    from .surjections import DEFAULT_EVAL_DEPTH, _real, evaluate_at

    pipeline = parse_spec_file(args.spec).pipeline
    point = tuple(_real(v, "--point") for v in args.point.split(","))
    depth = DEFAULT_EVAL_DEPTH if args.depth is None else args.depth
    result = evaluate_at(pipeline, point, depth)
    print(" ".join(format_real(v) for v in result.value))
    print(f"error {format_real(result.error_estimate)}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .certify import DEFAULT_TARGET_BUDGET, _witnesses

    spec = parse_spec_file(args.spec)
    if spec.certify_box is None:
        raise StructuralError("spec has no 'certify' section")
    budget = DEFAULT_TARGET_BUDGET if args.budget is None else args.budget
    box, eps = spec.certify_box, spec.certify_epsilon
    witnesses = _witnesses(spec.pipeline, box, eps, target_budget=budget)

    members = spec.family_members
    independence = independence_json(members) if len(members) >= 2 else None
    settings = {"budget": budget}
    status, _ = _write_report(
        args.report, spec.pipeline.describe(), box, eps, witnesses, independence, settings
    )

    ok = status == "certified" and (independence is None or independence["full_rank"])
    print(f"status {status}")
    if independence is not None:
        print(f"rank {independence['rank']}/{len(members)}")
    return EXIT_OK if ok else EXIT_UNCERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surjkit",
        description="Build, evaluate, and certify continuous surjections R^m -> R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="write curve cell centers as CSV")
    p_trace.add_argument("--depth", type=int, required=True)
    p_trace.add_argument("--out", required=True)
    p_trace.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    p_trace.set_defaults(func=cmd_trace)

    p_eval = sub.add_parser("eval", help="evaluate the pipeline of a spec file")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--point", required=True)
    p_eval.add_argument("--depth", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_cert = sub.add_parser("certify", help="run certificates and write a report")
    p_cert.add_argument("--spec", required=True)
    p_cert.add_argument("--report", required=True)
    p_cert.add_argument("--budget", type=int, default=None)
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateMemberError as err:
        print(f"degenerate member: coordinate {err.coordinate + 1}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ResourceError, RefinementError) as err:
        print(f"resource failure: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, StructuralError, NoSolutionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
