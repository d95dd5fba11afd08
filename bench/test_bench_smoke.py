"""Smoke test of the benchmark: every workload at a tiny size, and failure counting."""

from __future__ import annotations

import json
import time

import pytest

import run
import tracer


def test_metric_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, run.TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["fail_frac"] == "ratio"


def _certify_once(tmp_path):
    workload = run.make_workload("certify-readme", 7, run.TINY)
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(workload.spec), encoding="utf-8")
    argv = ["-m", "surjkit.cli", *workload.cli_args(spec_path, out_path)]
    with run.Runner(time.monotonic() + 60.0) as runner:
        proc = runner.run(argv, tmp_path / "stdout.txt", out_path)
    return workload, run.CertifyChecker(workload, spec_path, seed=7), proc


def test_peak_rss_is_the_childs_own(tmp_path):
    # A child started straight from this process would report at least
    # this process's peak, which the ballast lifts past 64 MB.
    ballast = bytearray(64 << 20)
    ballast[:: 1 << 12] = b"x" * len(ballast[:: 1 << 12])
    with run.Runner(time.monotonic() + 60.0) as runner:
        proc = runner.run(["-c", "pass"], tmp_path / "stdout.txt")
    assert proc.code == 0
    assert proc.rss_mb < 48.0


def _residual_above_eps(report):
    report["certificate"]["witnesses"][5]["achieved_error"] = "0.0020000000000000000"


def _preimage_moved(report):
    # keeps the claimed error; only re-evaluating the preimage shows the fault
    report["certificate"]["witnesses"][5]["preimage_exact"][0] = "1/3"


@pytest.mark.parametrize("corrupt", [_residual_above_eps, _preimage_moved])
def test_corrupted_report_raises_fail_frac(tmp_path, corrupt):
    workload, checker, proc = _certify_once(tmp_path)
    clean = run.Tally(workload, checker)
    clean.add(proc)
    assert clean.fail_frac == 0.0

    report = json.loads(proc.output)
    corrupt(report)
    proc.output = json.dumps(report).encode("utf-8")
    corrupted = run.Tally(workload, checker)
    corrupted.add(proc)
    assert corrupted.fail_frac > 0.0


def test_corrupted_trace_row_raises_fail_frac():
    workload = run.make_workload("trace-d8", 7, run.TINY)
    checker = run.TraceChecker(workload)
    # at this depth repr() of each dyadic value is its exact decimal
    rows = ["t,x,y"] + [
        f"{i / workload.ops!r},{x / checker.scale!r},{y / checker.scale!r}"
        for i, (x, y) in enumerate(checker.centers)
    ]
    assert checker(("\n".join(rows) + "\n").encode(), []) == 0
    rows[3], rows[4] = rows[4], rows[3]
    assert checker(("\n".join(rows) + "\n").encode(), []) == 2


def test_missing_hook_is_reported_absent():
    recorder = tracer.Recorder()
    recorder.install(
        (
            ("gone.function", "surjkit.cli", "no_such_function", None),
            ("gone.module", "surjkit.no_such_module", "f", None),
        )
    )
    assert recorder.absent == ["surjkit.cli.no_such_function", "surjkit.no_such_module.f"]
    assert recorder.spans == []
