"""Command-line surface: spec parsing, outputs, exit codes, determinism."""

import copy
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import surjkit._formats
import surjkit.certify
import surjkit.cli
import surjkit.spans
import surjkit.surjections
from surjkit import (
    BoxSpec,
    CoverageCertificate,
    ResourceError,
    VectorSpanMember,
    Witness,
    certify_surjective_on_box,
    combine_members,
    compose_with_base,
    curve_trace,
    extend_to_line,
    lift_dimension,
    make_diagonal_family,
    project_lift,
)
from surjkit._formats import _write_report, format_real
from surjkit._hilbert import _TRACE_BLOCK
from surjkit.curve import _ratio
from surjkit.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    main,
    parse_spec_file,
)
from oracles import dyadic_decimal, recursion_centers

SRC = Path(__file__).resolve().parent.parent / "src"

BASE_ONLY = {"base": {"construct": "extend_to_line"}}

PROJECTION_SPEC = {"base": {"construct": "extend_to_line", "lifts": 1, "project_to": 3}}

CERTIFY_SPEC = {
    "base": {"construct": "extend_to_line", "project_to": 2},
    "family": {
        "diagonal_exponents": ["1.0", "2.0", "3.0"],
        "coefficients": ["1", "1", "1"],
    },
    "certify": {
        "box": [["-5", "5"], ["-5", "5"]],
        "grid": 9,
        "epsilon": "1e-3",
    },
}

DEGENERATE_SPEC = {
    "base": {"construct": "extend_to_line", "project_to": 2},
    "family": {
        "terms": [
            {"coefficient": "1", "exponents": ["1", "2"]},
            {"coefficient": "-1", "exponents": ["1", "3"]},
        ]
    },
    "certify": {"box": [["-1", "1"], ["-1", "1"]], "grid": 3, "epsilon": "1e-3"},
}

# 2 sinh(200 * t) passes float range past t = 3.55; the exact rank reads
# only the coefficients, so the family still ranks 2/2
OVERFLOW_SPEC = {
    "base": {"construct": "extend_to_line", "lifts": 0},
    "family": {"diagonal_exponents": ["100.0", "200.0"], "coefficients": ["1", "1"]},
    "certify": {"box": [["-1", "1"], ["-1", "1"]], "grid": 2, "epsilon": "1e-3"},
}


README_SPEC = {
    "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 2},
    "family": {"diagonal_exponents": ["1.0", "2.0"], "coefficients": ["1", "-1"]},
    "certify": {"box": [["-10", "10"]] * 3, "grid": 11, "epsilon": "1e-3"},
    "output": {"format": "json"},
}

BARE_CURVE_SPEC = {
    "base": {"construct": "extend_to_line"},
    "certify": {"box": [["-100.25", "99.75"], ["-99.5", "100.5"]], "grid": 9, "epsilon": "1e-9"},
}

TERMS_SPEC = {
    "base": {"construct": "extend_to_line", "project_to": 2},
    "family": {
        "terms": [
            {"coefficient": "1", "exponents": ["1", "2"]},
            {"coefficient": "-0.5", "exponents": ["2", "1"]},
        ]
    },
    "certify": {"box": [["-5", "5"], ["-5", "5"]], "grid": 5, "epsilon": "1e-6"},
}


# eight diagonal members, independent by construction; a float evaluation
# matrix at 16 sample points ranks them 6
ONE_TO_EIGHT_SPEC = {
    "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 1},
    "family": {
        "diagonal_exponents": [str(r) for r in range(1, 9)],
        "coefficients": ["1"] + ["0"] * 7,
    },
    "certify": {"box": [["-3", "3"]] * 3, "grid": 3, "epsilon": "1e-3"},
}


def lift_chain_spec(lifts):
    """The README family over a base with the given number of dimension lifts."""
    return {
        "base": {"construct": "extend_to_line", "lifts": lifts},
        "family": {"diagonal_exponents": ["1.0", "2.0"], "coefficients": ["1", "-1"]},
        "certify": {"box": [["-3", "3"]] * (2 + lifts), "grid": 3, "epsilon": "1e-3"},
    }


def write_spec(tmp_path, data, name="pipeline.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestDyadicDecimal:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(0), "0"),
            (Fraction(1), "1"),
            (Fraction(1, 2), "0.5"),
            (Fraction(3, 4), "0.75"),
            (Fraction(1, 4096), "0.000244140625"),
            (Fraction(-5, 8), "-0.625"),
        ],
    )
    def test_exact_strings(self, value, expected):
        assert dyadic_decimal(value) == expected

    def test_parses_back_exactly(self):
        for num in range(0, 64):
            value = Fraction(num, 64)
            assert Fraction(dyadic_decimal(value)) == value


# depth -> (bytes, sha256) of the trace CSV, beyond the oracle tests' reach
DEEP_TRACES = {
    9: (12_058_630, "4598b3f037bca08a1ced2375e14ae6140ff212311594c04e99539a345c8850ed"),
    10: (52_428_806, "0a13a6ae07295f9d40886930a95cf9159422ee58ccc4723fba0bc2ae07207180"),
}


class TestTrace:
    def test_depth_one_writes_four_rows(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--depth", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 5

    def test_depth_six_rows_distinct(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--depth", "6", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4096
        coords = {tuple(r.split(",")[1:]) for r in rows}
        assert len(coords) == 4096

    def test_csv_round_trips_to_the_in_memory_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["trace", "--depth", "3", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        expected = curve_trace(3)
        assert len(rows) == len(expected)
        for i, (row, centre) in enumerate(zip(rows, expected)):
            t, x, y = (Fraction(part) for part in row.split(","))
            assert t == Fraction(i, 4**3)
            assert (x, y) == centre

    @pytest.mark.parametrize("k", range(9))
    def test_streamed_rows_match_the_oracle(self, tmp_path, k):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--depth", str(k), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0] == "t,x,y" and lines[-1] == ""
        rows = lines[1:-1]
        centers = recursion_centers(k).tolist()
        assert len(rows) == len(centers) == 4**k
        if k == 8:
            assert len(rows) > 2 * _TRACE_BLOCK
        for i, (row, (x, y)) in enumerate(zip(rows, centers)):
            values = (Fraction(i, 4**k), Fraction(x), Fraction(y))
            assert row == ",".join(dyadic_decimal(v) for v in values)

    @pytest.mark.parametrize("k", sorted(DEEP_TRACES))
    def test_deep_trace_bytes_are_pinned(self, tmp_path, k):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--depth", str(k), "--out", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == DEEP_TRACES[k]

    def test_trace_memory_stays_within_a_block(self, tmp_path):
        # the rows are written a 256-cell block at a time; the first call
        # warms the caches that any run would fill (imports, argparse)
        argv = ["trace", "--depth", "8", "--out", str(tmp_path / "trace.csv")]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10

    @pytest.mark.parametrize(
        "depth,code,reason",
        [("-1", EXIT_VALIDATION, "non-negative"), ("13", EXIT_RESOURCE, "4^13 rows")],
    )
    def test_refused_depth_leaves_the_output_untouched(self, tmp_path, capsys, depth, code, reason):
        out = tmp_path / "trace.csv"
        out.write_text("keep me\n")
        assert main(["trace", "--depth", depth, "--out", str(out)]) == code
        assert out.read_text() == "keep me\n"
        assert reason in capsys.readouterr().err

    def test_over_cap_is_a_resource_failure(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--depth", "13", "--out", str(out)]) == EXIT_RESOURCE
        assert main(["trace", "--depth", "4", "--out", str(out), "--depth-cap", "3"]) == EXIT_RESOURCE
        assert main(["trace", "--depth", "4", "--out", str(out), "--depth-cap", "4"]) == EXIT_OK


class TestEval:
    def test_left_constant_region_prints_zeros(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BASE_ONLY)
        assert main(["eval", "--spec", spec, "--point", "-2.5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0 0"
        assert lines[1].startswith("error ")

    def test_default_depth_is_the_library_default(self, tmp_path, capsys):
        spec = write_spec(tmp_path, README_SPEC)
        point = ["--point", "0.7,0.3"]
        assert main(["eval", "--spec", spec, *point]) == EXIT_OK
        default = capsys.readouterr().out
        assert main(["eval", "--spec", spec, *point, "--depth", "12"]) == EXIT_OK
        assert capsys.readouterr().out == default
        assert surjkit.surjections.DEFAULT_EVAL_DEPTH == 12
        assert main(["eval", "--spec", spec, *point, "--depth", "5"]) == EXIT_OK
        assert capsys.readouterr().out != default  # the depth is read

    def test_a_deep_eval_never_prints_a_zero_error(self, tmp_path, capsys):
        # past depth 1074 the curve's 2n / 2^depth is below the smallest float
        data = {"base": {"construct": "extend_to_line", "lifts": 4}, "family": README_SPEC["family"]}
        spec = write_spec(tmp_path, data)
        assert main(["eval", "--spec", spec, "--point", "1.8", "--depth", "1100"]) == EXIT_OK
        error = capsys.readouterr().out.splitlines()[1]
        assert error.startswith("error ") and float(error.split()[1]) > 0.0

    def test_trailing_coordinates_do_not_matter(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PROJECTION_SPEC)
        assert main(["eval", "--spec", spec, "--point", "1.25,7,9"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["eval", "--spec", spec, "--point", "1.25,-4,0.5"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_a_tree_dict_is_a_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, README_SPEC)
        data = surjkit.surjections.expr_to_dict(parse_spec_file(spec).pipeline)
        tree = write_spec(tmp_path, data, "tree.json")
        outputs = []
        for path in (spec, tree):
            assert main(["eval", "--spec", path, "--point", "1.5,-2"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_malformed_spec_exits_2_with_line_anchor(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"base": {\n  "construct": }\n')
        assert main(["eval", "--spec", str(path), "--point", "0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["eval", "--spec", str(path), "--point", "0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: cannot read spec file: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize(
        "content,reason",
        [
            (b'{"base": {"construct": "extend_to_line\xff"}}', "'utf-8' codec can't decode"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_undecodable_spec_exits_2(self, tmp_path, capsys, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        for command in (["eval", "--point", "0"], ["certify", "--report", str(tmp_path / "r.json")]):
            assert main([command[0], "--spec", str(path), *command[1:]]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith(f"error: spec parse error: {reason}") and "Traceback" not in err

    def test_arity_mismatch_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BASE_ONLY)
        assert main(["eval", "--spec", spec, "--point", "1,2,3"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf", "one"])
    def test_malformed_point_exits_2(self, tmp_path, point):
        spec = write_spec(tmp_path, BASE_ONLY)
        assert main(["eval", "--spec", spec, f"--point={point}"]) == EXIT_VALIDATION

    def test_unknown_keys_rejected(self, tmp_path):
        spec = write_spec(tmp_path, {"base": {"construct": "extend_to_line"}, "extra": 1})
        assert main(["eval", "--spec", spec, "--point", "0"]) == EXIT_VALIDATION


class TestCertify:
    def test_diagonal_family_over_plane_base(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CERTIFY_SPEC)
        report = tmp_path / "report.json"
        assert main(["certify", "--spec", spec, "--report", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status certified" in out
        assert "rank 3/3" in out
        data = json.loads(report.read_text())
        assert data["certificate"]["status"] == "certified"
        assert data["independence"]["full_rank"] is True
        assert len(data["certificate"]["witnesses"]) == 81

    def test_degenerate_member_exits_4_with_witness(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEGENERATE_SPEC)
        report = tmp_path / "report.json"
        code = main(["certify", "--spec", spec, "--report", str(report)])
        assert code == EXIT_DEGENERATE
        assert "coordinate 1" in capsys.readouterr().err

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        spec = write_spec(tmp_path, CERTIFY_SPEC)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["certify", "--spec", spec, "--report", str(r1)]) == EXIT_OK
        assert main(["certify", "--spec", spec, "--report", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("lifts", [2, 3])
    def test_lift_chains_certify_reproducibly(self, tmp_path, capsys, lifts):
        spec = write_spec(tmp_path, lift_chain_spec(lifts))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["certify", "--spec", spec, "--report", str(r1)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status certified" in out
        assert "rank 2/2" in out
        assert main(["certify", "--spec", spec, "--report", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_missing_certify_section_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, BASE_ONLY)
        assert main(["certify", "--spec", spec, "--report", str(tmp_path / "r.json")]) == EXIT_VALIDATION

    def test_default_budget_is_recorded(self, tmp_path):
        spec = write_spec(tmp_path, CERTIFY_SPEC)
        report = tmp_path / "r.json"
        assert main(["certify", "--spec", spec, "--report", str(report)]) == EXIT_OK
        budget = json.loads(report.read_text())["settings"]["budget"]
        assert budget == surjkit.certify.DEFAULT_TARGET_BUDGET == 100000

    def test_budget_flag_limits_targets(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CERTIFY_SPEC)
        report = tmp_path / "r.json"
        code = main(["certify", "--spec", spec, "--report", str(report), "--budget", "10"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "data,rank", [(ONE_TO_EIGHT_SPEC, "8/8"), (OVERFLOW_SPEC, "2/2")], ids=["1-8", "overflow"]
    )
    def test_exact_rank_is_full_where_sampling_misjudged(self, tmp_path, capsys, data, rank):
        spec = write_spec(tmp_path, data)
        report = tmp_path / "r.json"
        assert main(["certify", "--spec", spec, "--report", str(report)]) == EXIT_OK
        assert capsys.readouterr().out == f"status certified\nrank {rank}\n"
        block = json.loads(report.read_text())["independence"]
        assert block["method"] == "exact support matrix" and block["full_rank"] is True

    def test_one_evaluation_path(self, tmp_path, monkeypatch):
        # the rank reads coefficients alone: only the limit map is evaluated
        depths = []
        tree_eval = surjkit.surjections.FunctionExpr._eval

        def spy(self, point, depth):
            depths.append(depth)
            return tree_eval(self, point, depth)

        monkeypatch.setattr(surjkit.surjections.FunctionExpr, "_eval", spy)
        spec = write_spec(tmp_path, README_SPEC)
        assert main(["certify", "--spec", spec, "--report", str(tmp_path / "r.json")]) == EXIT_OK
        assert depths and set(depths) == {None}

    @pytest.mark.parametrize("earlier", [None, b"an earlier report\n"], ids=["none", "earlier"])
    @pytest.mark.parametrize("failure", ["resource-at-third-target", "degenerate"])
    def test_a_failed_run_leaves_neither_report_nor_spool(
        self, tmp_path, capsys, monkeypatch, failure, earlier
    ):
        report = tmp_path / "r.json"
        spool = tmp_path / "r.json.part"
        if earlier is not None:
            report.write_bytes(earlier)
        if failure == "degenerate":
            spec, code = DEGENERATE_SPEC, EXIT_DEGENERATE
        else:
            spec, code = BARE_CURVE_SPEC, EXIT_RESOURCE
            found = surjkit.certify._target_row
            calls = []

            def fail_third(expr, target, eps, cache):
                calls.append(target)
                if len(calls) == 3:
                    # two witnesses have been spooled, to a spool that has no
                    # name; the report is not open yet
                    assert not spool.exists()
                    assert report.exists() == (earlier is not None)
                    raise ResourceError("injected")
                return found(expr, target, eps, cache)

            monkeypatch.setattr(surjkit.certify, "_target_row", fail_third)
        argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(report)]
        assert main(argv) == code
        assert not spool.exists()
        if earlier is None:
            assert not report.exists()
        else:
            assert report.read_bytes() == earlier
        if failure != "degenerate":
            assert len(calls) == 3
            assert "target (-100.25, -49.5): injected" in capsys.readouterr().err

    def test_a_failed_copy_leaves_the_earlier_report(self, tmp_path, capsys, monkeypatch):
        # the report is written beside path and replaced onto it: an error
        # in the spool's copy (the third write, after the header and the
        # first 64 KiB) must leave the earlier report, and no .part
        report = tmp_path / "r.json"
        report.write_bytes(b"an earlier report\n")

        class FailingWrites:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("injected write failure")
                return self.fh.write(text)

        def report_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return FailingWrites(fh) if mode == "w" else fh

        monkeypatch.setattr(surjkit._formats, "open", report_open, raising=False)
        spec = {
            "base": {"construct": "extend_to_line"},
            "certify": {"box": [["-10", "10"]] * 2, "grid": 20, "epsilon": "1e-3"},
        }
        argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(report)]
        assert main(argv) == EXIT_VALIDATION
        assert "injected write failure" in capsys.readouterr().err
        assert report.read_bytes() == b"an earlier report\n"
        assert list(tmp_path.glob("*.part")) == []

    def test_a_non_monotone_family_certifies(self, tmp_path, capsys):
        # each coordinate span is 1.092 phi_2.588 - 0.635 phi_4.304 + 0.195
        # phi_4.365, whose value -3 has a gentle root in (0, 1) and a root
        # near -19.4 too steep for floats
        spec = {
            "base": {"construct": "extend_to_line", "project_to": 3},
            "family": {
                "diagonal_exponents": ["2.588", "4.304", "4.365"],
                "coefficients": ["1.092", "-0.635", "0.195"],
            },
            "certify": {"box": [["-3", "3"], ["-3", "3"]], "grid": 2, "epsilon": "1e-3"},
        }
        argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(tmp_path / "r")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "status certified\nrank 3/3\n"

    def test_certify_memory_does_not_grow_with_the_grid(self, tmp_path):
        # witnesses are spooled as they are found and the grid is walked,
        # not listed: 3,600 targets peak like 400, where keeping each
        # witness costs about 330 bytes. The first run, at the larger grid,
        # fills the caches and free lists that any run would fill.
        def peak(grid):
            spec = {
                "base": {"construct": "extend_to_line"},
                "certify": {"box": [["-10", "10"]] * 2, "grid": grid, "epsilon": "1e-3"},
            }
            argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(tmp_path / "r")]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(60)
        small, large = peak(20), peak(60)
        assert abs(large - small) < 64 * 2**10

    def test_first_failing_target_and_coordinate_are_named(self, tmp_path, capsys):
        # axis values are solved in product order, coordinates 1 to 3: at eps
        # 1e-16 the first two targets pass, and the third stalls in coordinate 3
        data = {**README_SPEC, "certify": {**README_SPEC["certify"], "epsilon": "1e-16"}}
        report = tmp_path / "r.json"
        argv = ["certify", "--spec", write_spec(tmp_path, data), "--report", str(report)]
        assert main(argv) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource failure: target (-10.0, -10.0, -6.0): ")
        assert err.endswith(" in the sinh stage of phi_compose coordinate 3\n")
        assert not report.exists()

    def test_resource_failure_exits_3_naming_the_target(self, tmp_path, capsys):
        cases = [
            # the bare lift chain at eps 1e-200 needs a curve depth above the cap
            (
                {
                    "base": {"construct": "extend_to_line", "lifts": 3},
                    "certify": {"box": [["-3", "3"]] * 5, "grid": 2, "epsilon": "1e-200"},
                },
                "target (-3.0, -3.0, -3.0, -3.0, -3.0): preimage depth",
            ),
            # the slope bound of phi_800 near the root overflows to an infinite depth
            (
                {
                    "base": {"construct": "extend_to_line"},
                    "family": {"diagonal_exponents": ["1", "800"]},
                    "certify": {"box": [["-1", "1"], ["-1", "1"]], "grid": 3, "epsilon": "1e-3"},
                },
                "target (-1.0, -1.0): preimage depth inf exceeds cap",
            ),
            # the sinh stage's half tolerance underflows to 0.0
            (
                {**README_SPEC, "certify": {**README_SPEC["certify"], "epsilon": "5e-324"}},
                "target (-10.0, -10.0, -10.0): solve tolerance underflows to 0.0"
                " in the sinh stage of phi_compose coordinate 1",
            ),
        ]
        for data, message in cases:
            spec = write_spec(tmp_path, data)
            report = tmp_path / "r.json"
            assert main(["certify", "--spec", spec, "--report", str(report)]) == EXIT_RESOURCE
            err = capsys.readouterr().err
            assert f"resource failure: {message}" in err
            assert not report.exists()

    @pytest.mark.parametrize(
        "data,digest",
        [
            # the certify-plane-fine benchmark spec of seed 1
            pytest.param(
                {
                    "base": {"construct": "extend_to_line", "lifts": 0},
                    "certify": {
                        "box": [["-100.731272", "99.268728"], ["-99.305133", "100.694867"]],
                        "grid": 61,
                        "epsilon": "1e-9",
                    },
                },
                "0870c7f6e6072c0639b338e73ae9b7f70c47464a53e17cb82435d1772466a6e1",
                id="plane-fine",
            ),
            pytest.param(
                {
                    "base": {"construct": "extend_to_line", "lifts": 3},
                    "certify": {"box": [["-3", "3"]] * 5, "grid": 3, "epsilon": "1e-3"},
                },
                "dae2a64516a2f67c459f64699ee4f44e45ff63c8ba8416782635a0e6822f9e0c",
                id="lifts-3",
            ),
            pytest.param(
                {
                    "base": {"construct": "extend_to_line", "lifts": 4},
                    "certify": {"box": [["-3", "3"]] * 6, "grid": 3, "epsilon": "1e-3"},
                },
                "16a0868cdbada08d9cb393306313b87a1c67da9c31e633963e37a7ecff7a057f",
                id="lifts-4",
            ),
            pytest.param(
                {
                    "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 4},
                    "certify": {"box": [["-3", "3"]] * 3, "grid": 3, "epsilon": "1e-3"},
                },
                "2c5b92425bed2d89b7022e47177d4417880c0c3870fdbb1e6bf2a3a13fe6c95f",
                id="lifts-1-project-4",
            ),
        ],
    )
    def test_exact_arithmetic_report_bytes_are_pinned(self, tmp_path, data, digest):
        # neither spec has a sinh stage, so the bytes do not depend on the
        # platform's sinh and asinh; a change to them is a change to the report
        spec = write_spec(tmp_path, data)
        report = tmp_path / "r.json"
        assert main(["certify", "--spec", spec, "--report", str(report)]) == EXIT_OK
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    def test_witnesses_carry_exact_rationals(self, tmp_path):
        spec = write_spec(tmp_path, CERTIFY_SPEC)
        report = tmp_path / "r.json"
        main(["certify", "--spec", spec, "--report", str(report)])
        data = json.loads(report.read_text())
        exact = data["certificate"]["witnesses"][0]["preimage_exact"]
        assert any("/" in coordinate for coordinate in exact)

    @pytest.mark.parametrize(
        "data,grid", [(README_SPEC, 3), (BARE_CURVE_SPEC, 9)], ids=["readme-3", "bare-plane-9"]
    )
    def test_the_api_and_the_report_agree_on_every_witness(self, tmp_path, data, grid):
        # certify_surjective_on_box builds Fractions; the report writer formats int pairs.
        # A witness parameter lies in [n - 1/2, n), so no Fraction is an integer and
        # str writes it p/q; the projected inputs are int 0s.
        data = copy.deepcopy(data)
        data["certify"]["grid"] = grid
        spec_path = write_spec(tmp_path, data)
        spec = parse_spec_file(spec_path)
        cert = certify_surjective_on_box(spec.pipeline, spec.certify_box, spec.certify_epsilon)
        report = tmp_path / "r.json"
        assert main(["certify", "--spec", spec_path, "--report", str(report)]) == EXIT_OK
        rows = json.loads(report.read_text())["certificate"]["witnesses"]
        assert len(rows) == len(cert.witnesses) == spec.certify_box.target_count
        for w, row in zip(cert.witnesses, rows):
            assert type(w.preimage[0]) is Fraction
            assert [str(x) for x in w.preimage] == row["preimage_exact"]
            assert [format_real(x) for x in w.preimage] == row["preimage_decimal"]


def json_dump_form(text):
    """text as json.dump(..., indent=2, sort_keys=True) writes the data it holds.

    Reports hold only strings, ints, bools and nulls, so this identity is
    exactly that format."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def write_certificate(path, cert, independence=None, settings=None):
    """_write_report on a certificate's fields; the writer's (status, worst target)."""
    settings = settings or {"budget": 7}
    # the writer reads certify's (target, point, residual) rows, whose point
    # holds each Fraction as its exact (p, q) pair, as the inversion hands out
    rows = (
        (w.target, tuple([_ratio(x) if type(x) is Fraction else x for x in w.preimage]),
         w.achieved_error)
        for w in cert.witnesses
    )
    return _write_report(
        str(path), cert.function_id, cert.box, cert.epsilon, rows, independence, settings
    )


def written_report(tmp_path, cert, independence=None, settings=None):
    path = tmp_path / "direct.json"
    assert write_certificate(path, cert, independence, settings) == (cert.status, cert.worst_target)
    assert not Path(f"{path}.part").exists()
    return path.read_text(encoding="utf-8")


def hand_built_certificate(witnesses, status="certified", worst_target=None):
    return CoverageCertificate(
        function_id='peano "line" \\ \u00e9',
        box=BoxSpec(((-1.0, 1.0), (-2.5, 2.5)), 3),
        epsilon=1e-3,
        witnesses=tuple(witnesses),
        status=status,
        worst_target=worst_target,
    )


class TestReportFormat:
    @pytest.mark.parametrize(
        "spec", [README_SPEC, BARE_CURVE_SPEC, TERMS_SPEC], ids=["readme", "bare-curve", "terms"]
    )
    def test_reports_are_the_indented_sorted_json_dump(self, tmp_path, spec):
        report = tmp_path / "r.json"
        argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(report)]
        assert main(argv) == EXIT_OK
        text = report.read_text(encoding="utf-8")
        assert text == json_dump_form(text)
        if spec is TERMS_SPEC:
            assert json.loads(text)["independence"] is None

    def test_failed_certificate_with_a_worst_target(self, tmp_path):
        witnesses = [
            Witness((-1.0, 2.5), (Fraction(7, 3), 0), 0.25),
            Witness((0.0, -2.5), (Fraction(-1, 2**70), 5), 1e-300),
        ]
        cert = hand_built_certificate(witnesses, "failed", (-1.0, 2.5))
        text = written_report(tmp_path, cert, settings={"budget": 3})
        assert text == json_dump_form(text)
        data = json.loads(text)["certificate"]
        assert data["function"] == cert.function_id
        assert data["worst_target"] == ["-1", "2.5"]
        assert data["witnesses"][1]["preimage_exact"] == [f"-1/{2**70}", "5"]

    @pytest.mark.parametrize(
        "errors,worst",
        [
            ([1e-4, 5e-3, 2e-3], 1),
            ([5e-3, math.nan, 7.0, math.nan], 1),
            ([2e-3, 1e-4, 2e-3], 0),
            ([1e-3, 0.0, 1e-4], None),
        ],
        ids=["above-eps", "nan-ranks-worst", "first-of-a-tie", "at-eps-certifies"],
    )
    def test_the_writer_folds_the_verdict_as_certify_does(
        self, tmp_path, monkeypatch, errors, worst
    ):
        box = BoxSpec(((-1.0, 1.0), (-2.5, 2.5)), 3)
        targets = box.targets()[: len(errors)]
        witnesses = [Witness(t, (Fraction(1, 3),), e) for t, e in zip(targets, errors)]
        rows = [(t, ((1, 3),), e) for t, e in zip(targets, errors)]
        monkeypatch.setattr(surjkit.certify, "_witnesses", lambda *args: iter(rows))
        cert = surjkit.certify.certify_surjective_on_box(extend_to_line(), box, 1e-3)
        assert cert.witnesses == tuple(witnesses)
        assert cert.status == ("certified" if worst is None else "failed")
        assert cert.worst_target == (None if worst is None else targets[worst])
        # written_report asserts the writer's (status, worst target) equals cert's
        text = written_report(tmp_path, cert)
        assert text == json_dump_form(text)
        data = json.loads(text)["certificate"]
        assert data["status"] == cert.status
        assert [w["achieved_error"] for w in data["witnesses"]] == list(map(format_real, errors))

    def test_empty_witness_list_and_a_hand_built_block(self, tmp_path):
        independence = {"family": ["a", "b"], "matrix_shape": [0, 2], "rank": 0, "empty": []}
        text = written_report(tmp_path, hand_built_certificate([]), independence)
        assert text == json_dump_form(text)
        assert '"witnesses": [],' in text

    def test_a_function_holding_the_witness_key_reads_back(self, tmp_path):
        # the writer splits one json.dumps at the witness list; in a value the
        # key's quotes are escaped, and the independence block comes after it
        cert = CoverageCertificate(
            function_id='line "witnesses": [] end',
            box=BoxSpec(((-1.0, 1.0), (-2.5, 2.5)), 3),
            epsilon=1e-3,
            witnesses=(Witness((-1.0, 2.5), (Fraction(7, 3),), 1e-4),),
            status="certified",
            worst_target=None,
        )
        text = written_report(tmp_path, cert, {"witnesses": []})
        assert text == json_dump_form(text)
        data = json.loads(text)
        assert data["certificate"]["function"] == cert.function_id
        assert len(data["certificate"]["witnesses"]) == 1
        assert data["independence"] == {"witnesses": []}

    def test_signed_zero_and_off_grid_targets(self, tmp_path):
        # both box axes hold 0.0 on the grid; -0.0 equals it but prints apart
        targets = [(-0.0, 0.0), (0.0, -0.0), (0.3, 2.5), (-1.0, 1 / 3)]
        cert = hand_built_certificate([Witness(t, (Fraction(1, 3),), 0.0) for t in targets])
        text = written_report(tmp_path, cert)
        assert text == json_dump_form(text)
        written = [w["target"] for w in json.loads(text)["certificate"]["witnesses"]]
        assert written == [
            ["-0", "0"], ["0", "-0"], [format_real(0.3), "2.5"], ["-1", format_real(1 / 3)]
        ]

    def test_bare_member_preimages_are_exact_float_reprs(self, tmp_path):
        # a bare member's witness holds the float root of each coordinate's span
        member = combine_members([1, -1], make_diagonal_family([1.0, 2.0], 2))
        box = BoxSpec(((-3.0, 3.0), (-3.0, 3.0)), 5)
        cert = surjkit.certify.certify_surjective_on_box(member, box, 1e-6)
        assert cert.certified
        text = written_report(tmp_path, cert)
        assert text == json_dump_form(text)
        written = json.loads(text)["certificate"]["witnesses"]
        assert len(written) == len(cert.witnesses) == 25
        for w, data in zip(cert.witnesses, written):
            assert all(type(x) is float for x in w.preimage)
            assert data["preimage_exact"] == [repr(x) for x in w.preimage]
            assert [float(s) for s in data["preimage_exact"]] == list(w.preimage)

    def test_report_memory_does_not_grow_with_the_grid(self, tmp_path):
        rng = random.Random(11)
        witnesses = [
            Witness(
                (rng.uniform(-100, 100), rng.uniform(-100, 100)),
                (Fraction(rng.getrandbits(72), 1 << 67),),
                rng.uniform(0, 1e-9),
            )
            for _ in range(61 * 61)
        ]
        cert = hand_built_certificate(witnesses)
        tracemalloc.start()
        try:
            write_certificate(tmp_path / "r.json", cert, None, {"budget": 100000})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        assert text == json_dump_form(text)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "spec,path,value",
        [
            (CERTIFY_SPEC, ("base", "lifts"), "two"),
            (CERTIFY_SPEC, ("base", "lifts"), False),
            (CERTIFY_SPEC, ("base", "project_to"), True),
            (CERTIFY_SPEC, ("base", "project_to"), 1.5),
            (CERTIFY_SPEC, ("certify", "grid"), "3.5"),
            (CERTIFY_SPEC, ("certify", "grid"), 2.9),
            (CERTIFY_SPEC, ("certify", "epsilon"), "nan"),
            (CERTIFY_SPEC, ("certify", "epsilon"), "inf"),
            (CERTIFY_SPEC, ("certify", "epsilon"), True),
            (CERTIFY_SPEC, ("certify", "box"), [["-inf", "5"], ["-5", "5"]]),
            (CERTIFY_SPEC, ("certify", "box"), 7),
            (CERTIFY_SPEC, ("family", "coefficients"), ["1", "1e400", "1"]),
            (CERTIFY_SPEC, ("family", "diagonal_exponents"), "123"),
            (DEGENERATE_SPEC, ("family", "terms"), 5),
            (DEGENERATE_SPEC, ("family", "terms", 0, "exponents"), "12"),
            (DEGENERATE_SPEC, ("family", "terms", 0, "coefficient"), True),
            (CERTIFY_SPEC, ("base", "construct"), "extend_to_plane"),
            (CERTIFY_SPEC, ("base", "lifts"), -1),
            (CERTIFY_SPEC, ("family", "coefficients"), ["1", "1"]),
            (CERTIFY_SPEC, ("certify", "box"), [["-5", "0", "5"], ["-5", "5"]]),
            (CERTIFY_SPEC, ("certify", "epsilon"), "0"),
            (CERTIFY_SPEC, ("certify", "epsilon"), "-1e-3"),
        ],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, spec, path, value):
        bad = copy.deepcopy(spec)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        spec_path = write_spec(tmp_path, bad)
        code = main(["certify", "--spec", spec_path, "--report", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "bound,grid", [(["0", "1e308"], 3), (["-1e308", "0"], 5), (["-1e308", "1e308"], 3)]
    )
    def test_grid_past_float_range_exits_2_naming_the_bound(self, tmp_path, capsys, bound, grid):
        box = {"box": [bound, ["-5", "5"]], "grid": grid, "epsilon": "1e-3"}
        data = {**CERTIFY_SPEC, "certify": box}
        spec = write_spec(tmp_path, data)
        code = main(["certify", "--spec", spec, "--report", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        lo, hi = (float(x) for x in bound)
        assert capsys.readouterr().err.startswith(f"error: bound ({lo}, {hi}) ")

    def test_family_needs_terms_or_diagonal(self, tmp_path):
        spec = write_spec(
            tmp_path, {"base": {"construct": "extend_to_line"}, "family": {}}
        )
        assert main(["eval", "--spec", spec, "--point", "0"]) == EXIT_VALIDATION

    def test_mixed_family_forms_rejected(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "base": {"construct": "extend_to_line"},
                "family": {
                    "diagonal_exponents": ["1"],
                    "terms": [{"coefficient": "1", "exponents": ["1", "1"]}],
                },
            },
        )
        assert main(["eval", "--spec", spec, "--point", "0"]) == EXIT_VALIDATION

    def test_term_arity_must_match_base(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "base": {"construct": "extend_to_line"},
                "family": {"terms": [{"coefficient": "1", "exponents": ["1", "1", "1"]}]},
            },
        )
        assert main(["eval", "--spec", spec, "--point", "0"]) == EXIT_VALIDATION

    def test_box_arity_must_match_pipeline(self, tmp_path):
        bad = dict(CERTIFY_SPEC)
        bad["certify"] = {"box": [["-5", "5"]], "grid": 9, "epsilon": "1e-3"}
        spec = write_spec(tmp_path, bad)
        assert main(["certify", "--spec", spec, "--report", "/dev/null"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("lifts", [5, 3_000_000])
    def test_lifts_past_the_cap_exit_3_before_any_member_is_built(
        self, tmp_path, capsys, monkeypatch, lifts
    ):
        # the box is also too short: the cap is met first
        def refuse(*args, **kwargs):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(surjkit.spans, "make_diagonal_family", refuse)
        data = {**CERTIFY_SPEC, "base": {"construct": "extend_to_line", "lifts": lifts}}
        spec = write_spec(tmp_path, data)
        code = main(["certify", "--spec", spec, "--report", str(tmp_path / "r.json")])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("resource failure: codomain 7 exceeds cap 6")

    def test_project_to_past_the_cap_exits_3_at_read_time(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(surjkit.spans, "make_diagonal_family", refuse)
        data = {**CERTIFY_SPEC, "base": {"construct": "extend_to_line", "project_to": 2**64}}
        spec = write_spec(tmp_path, data)
        code = main(["certify", "--spec", spec, "--report", str(tmp_path / "r.json")])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            f"resource failure: domain arity {2**64} exceeds cap 6\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_unknown_output_format_rejected(self, tmp_path):
        spec = write_spec(
            tmp_path, {"base": {"construct": "extend_to_line"}, "output": {"format": "xml"}}
        )
        assert main(["eval", "--spec", spec, "--point", "0"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "data,build",
    [
        (
            README_SPEC,
            lambda: compose_with_base(
                combine_members([1, -1], make_diagonal_family([1.0, 2.0], 3)),
                project_lift(lift_dimension(extend_to_line()), 2),
            ),
        ),
        (
            TERMS_SPEC,
            lambda: compose_with_base(
                VectorSpanMember(((1.0, (1.0, 2.0)), (-0.5, (2.0, 1.0))), 2),
                project_lift(extend_to_line(), 2),
            ),
        ),
        (BARE_CURVE_SPEC, extend_to_line),
    ],
    ids=["readme", "terms", "bare-curve"],
)
def test_the_reader_builds_the_pipeline_tree_once(tmp_path, data, build):
    spec = parse_spec_file(write_spec(tmp_path, data))
    assert spec.pipeline == build()
    assert spec.build_pipeline() is spec.pipeline


TINY_README_SPEC = {  # the README spec on a grid of 2 per axis
    "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 2},
    "family": {"diagonal_exponents": ["1.0", "2.0"], "coefficients": ["1", "-1"]},
    "certify": {"box": [["-10", "10"]] * 3, "grid": 2, "epsilon": "1e-3"},
}

# modules that only the eval and certify commands run
CERTIFY_STACK = {
    "surjkit._formats", "surjkit.spans", "surjkit.surjections", "surjkit.certify", "json"
}


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_a_killed_certify_leaves_no_spool_and_the_earlier_report(tmp_path):
    # SIGTERM runs no finally block, so the spool must have no name to leave
    spec = {
        "base": {"construct": "extend_to_line"},
        "certify": {"box": [["-10", "10"]] * 2, "grid": 300, "epsilon": "1e-3"},
    }
    report = tmp_path / "r.json"
    report.write_bytes(b"an earlier report\n")
    argv = ["certify", "--spec", write_spec(tmp_path, spec), "--report", str(report)]
    with subprocess.Popen(
        [sys.executable, "-m", "surjkit.cli", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ) as proc:
        time.sleep(0.5)
        proc.terminate()
        assert proc.wait(timeout=60) == -signal.SIGTERM  # killed mid-run, not finished
    assert list(tmp_path.glob("*.part")) == []
    assert report.read_bytes() == b"an earlier report\n"


def test_command_line_runs_without_numpy(tmp_path):
    spec_path = write_spec(tmp_path, TINY_README_SPEC)
    script = (
        "import sys, surjkit.cli\n"
        "loaded = 'numpy' in sys.modules\n"
        f"assert surjkit.cli.main(['certify', '--spec', {spec_path!r}, "
        f"'--report', {str(tmp_path / 'r.json')!r}]) == 0\n"
        f"assert surjkit.cli.main(['trace', '--depth', '5', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_cli_import_adds_neither_dataclasses_nor_inspect(tmp_path):
    # every command pays for start-up; dataclasses pulls in inspect, ast,
    # dis and tokenize, and its decorators exec generated methods; trace
    # runs only the integer codec, so it loads none of the certify stack,
    # nor fractions and the decimal module that fractions imports
    spec_path = write_spec(tmp_path, TINY_README_SPEC)
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import surjkit.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
        f"assert surjkit.cli.main(['trace', '--depth', '3', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
        f"assert surjkit.cli.main(['certify', '--spec', {spec_path!r}, "
        f"'--report', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # certify prints its status lines in between
    added, after_trace, after_certify = (set(line.split()) for line in (*lines[:2], lines[-1]))
    assert "surjkit.cli" in added
    assert not added & CERTIFY_STACK
    assert not after_trace & CERTIFY_STACK
    assert not after_trace & {"fractions", "decimal", "surjkit.curve"}
    assert CERTIFY_STACK <= after_certify
    assert not after_certify & {"dataclasses", "inspect"}


def test_commands_run_warning_free_under_w_error(tmp_path):
    # runpy warns when `python -m surjkit.cli` finds surjkit.cli already
    # imported, as it would be if the package imported it; -W error makes
    # that warning, and any import cycle of the deferred imports, a failure
    spec_path = write_spec(tmp_path, TINY_README_SPEC)
    commands = [
        ["trace", "--depth", "2", "--out", str(tmp_path / "t.csv")],
        ["eval", "--spec", spec_path, "--point", "0.5,0.25"],
        ["certify", "--spec", spec_path, "--report", str(tmp_path / "r.json")],
    ]
    for argv in commands:
        proc = run_python("-W", "error", "-m", "surjkit.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
