"""Traced run of the surjkit command line, and the per-layer metrics of its spans.

    python3 bench/tracer.py SPANS_JSON <surjkit command-line arguments...>

Wraps the function at each layer boundary of surjkit, in the module that
looks it up at call time, runs ``surjkit.cli.main`` with the remaining
arguments and, when the command returns, writes every recorded span to
SPANS_JSON. Spans are kept in memory until then. A hook whose function no
longer exists is listed under ``absent`` and skipped, so a renamed
function costs its metrics but never the run.

Each span holds its name, start and end (``perf_counter_ns``), the index
of its parent span (-1 for none), the certify target it served (-1
outside the target loop) and an exact work count (curve digits or cells).
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter


def _depth_at(position: int, keyword: str):
    def count(args: tuple, kwargs: dict) -> int:
        return int(args[position] if len(args) > position else kwargs[keyword])

    return count


def _cells_at(position: int, keyword: str):
    depth = _depth_at(position, keyword)
    return lambda args, kwargs: 4 ** depth(args, kwargs)


# (span name, module that looks the function up, attribute, work counter)
HOOKS = (
    ("curve.walk", "surjkit.surjections", "_d2xy", _depth_at(0, "k")),
    ("curve.decode", "surjkit.surjections", "hilbert_decode", _depth_at(1, "k")),
    ("curve.trace", "surjkit.cli", "curve_trace", _cells_at(0, "k")),
    ("surjections.preimage", "surjkit.certify", "preimage", None),
    ("surjections.check", "surjkit.surjections", "evaluate_to_precision", None),
    ("certify.reeval", "surjkit.certify", "evaluate_to_precision", None),
    ("spans.solve", "surjkit.surjections", "scalar_solve", None),
    ("spans.solve", "surjkit.certify", "scalar_solve", None),
    ("spans.reduce", "surjkit.spans", "component_reduce", None),
    ("spans.reduce", "surjkit.spans", "make_scalar_span", None),
    ("certify.box", "surjkit.cli", "certify_surjective_on_box", None),
    ("certify.independence", "surjkit.cli", "independence_report", None),
    ("certify.rank", "surjkit.certify", "matrix_rank_pivoted", None),
    ("cli.parse", "surjkit.cli", "parse_spec_file", None),
    ("cli.report", "surjkit.cli", "certificate_json", None),
    ("cli.report", "surjkit.cli", "independence_json", None),
    ("cli.trace", "surjkit.cli", "cmd_trace", None),
)

# One preimage call per certify target; the box call bounds the target loop.
TARGET_SPAN = "surjections.preimage"
TARGET_SCOPE = "certify.box"


class Recorder:
    """Span store shared by every installed hook."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.target = -1
        self.targets = 0

    def install(self, hooks=HOOKS) -> None:
        for name, module_name, attribute, counter in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attribute, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self.wrap(name, fn, counter))

    def wrap(self, name: str, fn, counter):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def hooked(*args, **kwargs):
            count = counter(args, kwargs) if counter is not None else 0
            if name == TARGET_SPAN:
                self.target = self.targets
                self.targets += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.target, count)
                if name == TARGET_SCOPE:
                    self.target = -1

        return hooked

    def document(self) -> dict:
        return {"absent": self.absent, "names": self.names, "spans": self.spans}


def layer_metrics(document: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced run; self time excludes child spans."""
    names, spans = document["names"], document["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    work: Counter = Counter()
    inclusive: Counter = Counter()
    own: Counter = Counter()
    preimage_us = []
    for i, (name_id, start, end, _, _, count) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        work[name] += count
        inclusive[name] += end - start
        own[name] += end - start - covered[i]
        if name == TARGET_SPAN:
            preimage_us.append((end - start) / 1e3)

    def seconds(counter: Counter, *keys: str) -> float:
        return sum(counter[k] for k in keys) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evals = calls["surjections.check"] + calls["certify.reeval"]
    return {
        "curve.walk_calls": calls["curve.walk"],
        "curve.walk_digits": work["curve.walk"],
        "curve.walk_self_s": seconds(own, "curve.walk"),
        "curve.decode_calls": calls["curve.decode"],
        "curve.decode_digits": work["curve.decode"],
        "curve.decode_self_s": seconds(own, "curve.decode"),
        "curve.trace_self_s": seconds(own, "curve.trace"),
        "curve.trace_cells": work["curve.trace"],
        "surjections.preimage_calls": calls[TARGET_SPAN],
        "surjections.preimage_self_s": seconds(own, TARGET_SPAN),
        "surjections.preimage_p50_us": _nearest_rank(preimage_us, 0.50),
        "surjections.preimage_p99_us": _nearest_rank(preimage_us, 0.99),
        "surjections.eval_calls": evals,
        "surjections.eval_self_s": seconds(own, "surjections.check", "certify.reeval"),
        "surjections.checks_per_preimage": ratio(calls["surjections.check"], calls[TARGET_SPAN]),
        "surjections.walks_per_eval": ratio(calls["curve.walk"], evals),
        "spans.solve_calls": calls["spans.solve"],
        "spans.solve_self_s": seconds(own, "spans.solve"),
        "spans.reduce_calls": calls["spans.reduce"],
        "spans.reduce_self_s": seconds(own, "spans.reduce"),
        "certify.box_self_s": seconds(own, "certify.box"),
        "certify.reeval_calls": calls["certify.reeval"],
        "certify.independence_s": seconds(inclusive, "certify.independence"),
        "certify.rank_s": seconds(inclusive, "certify.rank"),
        "cli.parse_s": seconds(inclusive, "cli.parse"),
        "cli.report_s": seconds(inclusive, "cli.report"),
        "cli.trace_write_s": max(
            0.0, seconds(inclusive, "cli.trace") - seconds(inclusive, "curve.trace")
        ),
    }


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import surjkit.cli

    try:
        return surjkit.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.document(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
