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

The spec and report formats belong to the private surjkit._formats.

Each command imports what it runs: `trace` loads only the integer codec
module `_hilbert` (not even `fractions`: a row's t is one integer sum
over two per-depth digit tables, its x and y index the centre strings
by the walk's nibble runs), `eval` also loads `_formats` and the curve, spans and
surjections layers (and certify only for a spec with a `certify`
section), and `certify` loads `_formats` and all four layers.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

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
    from ._formats import SpecFile
    from .spans import VectorSpanMember

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4


def _unit_decimals(numerators, e: int) -> list[str]:
    """The exact decimal string of n / 2^e for each 0 <= n < 2^e, from the
    e digits of n / 2^e = n * 5^e / 10^e < 1: integers only."""
    scale = 5**e
    return [("0." + str(n * scale).rjust(e, "0")).rstrip("0").rstrip(".") for n in numerators]


def parse_spec_file(path: str) -> SpecFile:
    """The spec file's contents, as read by _formats.read_spec."""
    import json
    from ._formats import read_spec

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
    return read_spec(data)


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
    # t = i / 4^k has the 2k digits of i * 5^(2k). A block holds 4^b rows,
    # i = hi * 4^b + lo, and lo * 5^(2k-2b) = carry * 4^b + rest splits
    # i * 5^(2k) into hi * 5^(2k-2b) + carry (the first 2k - 2b digits)
    # and the 2b digits of rest / 4^b, never all zero unless lo = 0.
    b = min(k, 4)
    scale = 5 ** (2 * (k - b))
    carries, rests = zip(*(divmod(lo * scale, 1 << 2 * b) for lo in range(1 << 2 * b)))
    tails = [digits[2:] for digits in _unit_decimals(rests, 2 * b)]
    lead = 10 ** (2 * (k - b))  # a leading 1 that keeps the upper digits' zeros
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,y\n")
        for start, x, y, run_x, run_y in blocks:
            base = lead + (start >> 2 * b) * scale
            xs, ys = coords[x : x + 16], coords[y : y + 16]
            lines = [
                f"0.{str(base + carry)[1:]}{tail},{xs[dx]},{ys[dy]}\n"
                for carry, tail, dx, dy in zip(carries, tails, run_x, run_y)
            ]
            t, _, xy = lines[0].partition(",")  # lo = 0 has no tail: strip the upper digits
            lines[0] = f"{t.rstrip('0').rstrip('.')},{xy}"
            fh.write("".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    from ._formats import _real, format_real
    from .surjections import DEFAULT_EVAL_DEPTH, evaluate_at

    pipeline = parse_spec_file(args.spec).pipeline
    point = tuple(_real(v, "--point") for v in args.point.split(","))
    depth = DEFAULT_EVAL_DEPTH if args.depth is None else args.depth
    result = evaluate_at(pipeline, point, depth)
    print(" ".join(format_real(v) for v in result.value))
    print(f"error {format_real(result.error_estimate)}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from ._formats import _write_report
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
