"""End-to-end benchmark of the surjkit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run serves one workload. It starts a
fresh ``python -m surjkit.cli`` process per repetition until ``--seconds``
have been spent, checks every output, prints one ``name value unit`` line
per metric and, as the last line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); the times are relative to bench/reference.py, run between the
command-line runs, because a shared machine drifts in speed. With
``--trace 1`` each repetition is an untraced run and a traced run
(bench/tracer.py), and the metrics are the per-layer ones.
The workloads, metrics and predictions are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("certify-readme", "certify-plane-fine", "trace-d8")

END_TO_END = (
    ("wall_rel", "ratio"),
    ("cpu_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_ref", "ops/ref"),
)
PER_LAYER = (
    ("curve.walk_calls", "count"),
    ("curve.walk_digits", "count"),
    ("curve.walk_self_s", "s"),
    ("curve.decode_calls", "count"),
    ("curve.decode_digits", "count"),
    ("curve.decode_self_s", "s"),
    ("curve.trace_self_s", "s"),
    ("curve.trace_cells", "count"),
    ("surjections.preimage_calls", "count"),
    ("surjections.preimage_self_s", "s"),
    ("surjections.preimage_p50_us", "us"),
    ("surjections.preimage_p99_us", "us"),
    ("surjections.eval_calls", "count"),
    ("surjections.eval_self_s", "s"),
    ("surjections.checks_per_preimage", "ratio"),
    ("surjections.walks_per_eval", "ratio"),
    ("spans.solve_calls", "count"),
    ("spans.solve_self_s", "s"),
    ("spans.reduce_calls", "count"),
    ("spans.reduce_self_s", "s"),
    ("certify.box_self_s", "s"),
    ("certify.reeval_calls", "count"),
    ("certify.independence_s", "s"),
    ("certify.rank_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.report_s", "s"),
    ("cli.trace_write_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace_overhead", "ratio"),
)
# Per-layer metrics that count work, or divide two counts: they must repeat
# exactly between traced runs.
EXACT_LAYER_METRICS = tuple(
    name for name, unit in PER_LAYER if unit in ("count", "bytes") or "_per_" in name
)

# Every run ends well inside the 180 s a run may take, a slow program included.
RUN_DEADLINE_S = 165.0
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
SAMPLE_WITNESSES = 48

REFERENCE = [str(BENCH_DIR / "reference.py")]
SETUP_CODE = (
    "import sys\n"
    "import surjkit.cli as cli\n"
    "if len(sys.argv) > 1:\n"
    "    cli.parse_spec_file(sys.argv[1]).build_pipeline()\n"
)


@dataclass(frozen=True)
class Sizes:
    readme_grid: int
    plane_grid: int
    trace_depth: int
    setup_repeats: int


FULL = Sizes(readme_grid=11, plane_grid=61, trace_depth=8, setup_repeats=9)
TINY = Sizes(readme_grid=3, plane_grid=4, trace_depth=3, setup_repeats=1)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: a certify spec, or a trace depth when spec is None."""

    name: str
    ops: int
    spec: Optional[dict] = None
    depth: int = 0
    stdout_lines: tuple[str, ...] = ()

    @property
    def op_name(self) -> str:
        return "targets" if self.spec is not None else "rows"

    def cli_args(self, spec_path: Path, out_path: Path) -> list[str]:
        if self.spec is None:
            return ["trace", "--depth", str(self.depth), "--out", str(out_path)]
        return ["certify", "--spec", str(spec_path), "--report", str(out_path)]


def make_workload(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    if name == "certify-readme":
        # The README spec verbatim; the seed only picks the re-checked witnesses.
        grid = sizes.readme_grid
        spec = {
            "base": {"construct": "extend_to_line", "lifts": 1, "project_to": 2},
            "family": {"diagonal_exponents": ["1.0", "2.0"], "coefficients": ["1", "-1"]},
            "certify": {"box": [["-10", "10"]] * 3, "grid": grid, "epsilon": "1e-3"},
            "output": {"format": "json"},
        }
        return Workload(name, grid**3, spec, stdout_lines=("status certified", "rank 2/2"))
    if name == "certify-plane-fine":
        rng = random.Random(seed)
        box = []
        for _ in range(2):
            offset = rng.uniform(-1.0, 1.0)
            box.append([f"{offset - 100:.6f}", f"{offset + 100:.6f}"])
        grid = sizes.plane_grid
        spec = {
            "base": {"construct": "extend_to_line", "lifts": 0},
            "certify": {"box": box, "grid": grid, "epsilon": "1e-9"},
        }
        return Workload(name, grid**2, spec, stdout_lines=("status certified",))
    if name == "trace-d8":
        return Workload(name, 4**sizes.trace_depth, depth=sizes.trace_depth)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: Optional[int]  # None when killed at the deadline
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    output: Optional[bytes]


class Runner:
    """Starts Python processes from the repository root with src/ importable.

    Every process is started by bench/spawn.py, which stays small, so that
    a process's peak resident set is its own and not this one's. Use it as
    a context manager: leaving it stops the spawner and anything it runs.

    numpy's thread pool is held to one thread. By default it starts one
    thread per core, which spin beside the main thread on a machine of two
    cores and measure the scheduler more than the program.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=self.env,
            text=True,
            start_new_session=True,  # its own process group, so one kill stops all
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None:
            self.spawner.stdin.close()
            try:
                self.spawner.wait(timeout=10)
                return
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.spawner.pid, signal.SIGKILL)
        except ProcessLookupError:  # the spawner has ended and been reaped
            pass
        self.spawner.wait()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], stdout_path: Path, out_path: Optional[Path] = None) -> Proc:
        """Run one Python process to its end; its usage comes from wait4 on it."""
        if out_path is not None and out_path.exists():
            out_path.unlink()
        request = {
            "argv": [sys.executable, *argv],
            "stdout": str(stdout_path),
            "timeout": max(self.remaining(), 1.0),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner ended with code {self.spawner.wait()}")
        reply = json.loads(line)
        text = stdout_path.read_bytes().decode("utf-8", "replace")
        output = out_path.read_bytes() if out_path is not None and out_path.exists() else None
        return Proc(
            reply["code"], reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024.0, text, output
        )


# ---------------------------------------------------------------------------
# output checks, all run outside the timed processes


def expected_targets(spec: dict) -> list[tuple[float, ...]]:
    cert = spec["certify"]
    grid = cert["grid"]
    axes = []
    for lo_s, hi_s in cert["box"]:
        lo, hi = float(lo_s), float(hi_s)
        axes.append([lo + (hi - lo) * i / (grid - 1) for i in range(grid)])
    return list(itertools.product(*axes))


def _same_target(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 * (1.0 + abs(y)) for x, y in zip(a, b))


class CertifyChecker:
    """Failed targets of one certify report.

    A target fails when its witness is missing, sits at the wrong target,
    claims an error above eps, or, for a seeded sample, re-evaluates from
    its exact p/q preimage (evaluate_to_precision at eps/8) to more than
    eps from the target.
    """

    def __init__(self, workload: Workload, spec_path: Path, seed: int):
        from surjkit.cli import parse_spec_file

        self.workload = workload
        self.eps = float(workload.spec["certify"]["epsilon"])
        self.targets = expected_targets(workload.spec)
        self.pipeline = parse_spec_file(str(spec_path)).build_pipeline()
        self.seed = seed

    def __call__(self, report_bytes: bytes, notes: list[str]) -> int:
        from surjkit.surjections import evaluate_to_precision

        ops = self.workload.ops
        try:
            report = json.loads(report_bytes)
            witnesses = report["certificate"]["witnesses"]
            if report["certificate"]["status"] != "certified":
                notes.append("report status is not certified")
                return ops
        except (ValueError, KeyError, TypeError) as err:
            notes.append(f"unreadable report: {err!r}")
            return ops
        if len(witnesses) != ops:
            notes.append(f"{len(witnesses)} witnesses, expected {ops}")
        failed = set(range(len(witnesses), ops))
        for i, (w, target) in enumerate(zip(witnesses, self.targets)):
            try:
                ok = _same_target(tuple(float(x) for x in w["target"]), target) and (
                    float(w["achieved_error"]) <= self.eps
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                failed.add(i)
        checked = min(len(witnesses), ops)
        for i in random.Random(self.seed).sample(range(checked), min(SAMPLE_WITNESSES, checked)):
            try:
                point = tuple(Fraction(s) for s in witnesses[i]["preimage_exact"])
                value = evaluate_to_precision(self.pipeline, point, self.eps / 8.0).value
                ok = max(abs(v - t) for v, t in zip(value, self.targets[i])) <= self.eps
            except Exception as err:  # any failure to re-evaluate fails the witness
                notes.append(f"witness {i} did not re-evaluate: {err!r}")
                ok = False
            if not ok:
                failed.add(i)
        if failed:
            notes.append(f"{len(failed)} targets failed, first {min(failed)}")
        return len(failed)


class TraceChecker:
    """Failed rows of one trace CSV.

    Row i must read exactly t = i/4^k and the cell center that the
    quadrant-recursion oracle (tests/oracles.py) puts at position i. The
    decimals are compared exactly, in integers.
    """

    def __init__(self, workload: Workload):
        sys.path.insert(0, str(ROOT / "tests"))
        from oracles import recursion_centers

        self.workload = workload
        self.scale = 1 << (workload.depth + 1)
        centers = recursion_centers(workload.depth) * self.scale
        self.centers = [(round(x), round(y)) for x, y in centers.tolist()]

    def __call__(self, csv_bytes: bytes, notes: list[str]) -> int:
        ops, cells, scale = self.workload.ops, 4**self.workload.depth, self.scale
        lines = csv_bytes.decode("utf-8", "replace").split("\n")
        if lines[0] != "t,x,y":
            notes.append(f"bad header {lines[0][:40]!r}")
            return ops
        rows = lines[1:-1] if lines[-1] == "" else lines[1:]
        if len(rows) != ops:
            notes.append(f"{len(rows)} rows, expected {ops}")
        pow10 = [10**e for e in range(64)]
        failed = max(ops - len(rows), 0)
        for i, (row, (cx, cy)) in enumerate(zip(rows, self.centers)):
            try:
                t, x, y = (_decimal_ratio(s) for s in row.split(","))
                ok = (
                    t[0] * cells == i * pow10[t[1]]
                    and x[0] * scale == cx * pow10[x[1]]
                    and y[0] * scale == cy * pow10[y[1]]
                )
            except (ValueError, IndexError):
                ok = False
            if not ok:
                if failed == 0:
                    notes.append(f"row {i} is {row[:80]!r}")
                failed += 1
        return min(failed, ops)


def _decimal_ratio(s: str) -> tuple[int, int]:
    """'0.125' -> (125, 3): the decimal's digits as an integer, and its scale."""
    whole, _, frac = s.partition(".")
    if not (whole + frac).isdigit():
        raise ValueError(s)
    return int(whole + frac), len(frac)


@dataclass
class Tally:
    """Operations attempted and failed over every CLI run of one benchmark run."""

    workload: Workload
    checker: Callable[[bytes, list[str]], int]  # failed operations of one output
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    reference: Optional[bytes] = None
    reference_failed: int = 0

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def add(self, proc: Proc) -> None:
        """Check one run. Later runs must repeat the first report byte for byte."""
        ops = self.workload.ops
        self.attempted += ops
        if proc.code != 0 or proc.output is None:
            self.notes.append(f"exit code {proc.code}")
            self.failed += ops
            return
        printed = proc.stdout.splitlines()
        missing = [line for line in self.workload.stdout_lines if line not in printed]
        if missing:
            self.notes.append(f"stdout lacks {missing}")
            self.failed += ops
            return
        if self.reference is None:
            self.reference = proc.output
            self.reference_failed = self.checker(proc.output, self.notes)
            self.failed += self.reference_failed
        elif proc.output == self.reference:
            self.failed += self.reference_failed
        else:
            self.notes.append("output differs from the first run with the same seed")
            self.failed += ops


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end_run(
    workload: Workload,
    tally: Tally,
    runner: Runner,
    work: Path,
    seconds: float,
    setup_repeats: int,
):
    """Alternate reference, set-up and CLI processes until the time is spent.

    Returns the end-to-end metrics, the same figures in plain seconds, and
    every sample. A shared machine drifts in speed by up to half over tens
    of seconds, so the relative times divide the median CLI time by the
    median time of the reference program, run between the CLI runs over
    the same stretch of time.
    """
    spec_path, out_path = work / "spec.json", work / "out"
    setup = ["-c", SETUP_CODE] + ([str(spec_path)] if workload.spec is not None else [])
    argv = ["-m", "surjkit.cli", *workload.cli_args(spec_path, out_path)]
    setups: list[Proc] = []
    refs: list[Proc] = []
    procs: list[Proc] = []

    def measure(kind: list[Proc], command: list[str]) -> None:
        kind.append(runner.run(command, work / "aside.txt"))
        if kind[-1].code != 0:
            label = "reference" if command is REFERENCE else "set-up"
            raise RuntimeError(f"{label} process exited with {kind[-1].code}")

    runner.run(setup, work / "aside.txt")  # warm-up: fills bytecode caches
    runner.run(REFERENCE, work / "aside.txt")
    measure(refs, REFERENCE)
    start = time.perf_counter()
    while len(procs) < MIN_RUNS or (
        time.perf_counter() - start + setups[-1].wall + procs[-1].wall + refs[-1].wall <= seconds
    ):
        if runner.remaining() <= 0:
            tally.notes.append("run deadline reached")
            break
        measure(setups, setup)
        procs.append(runner.run(argv, work / "stdout.txt", out_path))
        tally.add(procs[-1])
        measure(refs, REFERENCE)
    while len(setups) < setup_repeats:
        measure(setups, setup)
    wall = statistics.median(p.wall for p in procs)
    cpu = statistics.median(p.cpu for p in procs)
    setup_s = statistics.median(p.wall for p in setups)
    ref_wall = statistics.median(p.wall for p in refs)
    metrics = {
        "wall_rel": wall / ref_wall,
        "cpu_rel": cpu / statistics.median(p.cpu for p in refs),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
        "ops_per_ref": workload.ops * ref_wall / max(wall - setup_s, 1e-9),
    }
    absolute = {
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": ref_wall,
        f"{workload.op_name}_per_s": workload.ops / max(wall - setup_s, 1e-9),
    }
    samples = {
        "cli": [
            {"wall_s": p.wall, "cpu_s": p.cpu, "rss_mb": p.rss_mb, "exit": p.code} for p in procs
        ],
        "setup_s": [p.wall for p in setups],
        "reference": [{"wall_s": p.wall, "cpu_s": p.cpu} for p in refs],
    }
    return metrics, absolute, samples


def traced_run(workload: Workload, tally: Tally, runner: Runner, work: Path, seconds: float):
    spec_path, out_path, spans_path = work / "spec.json", work / "out", work / "spans.json"
    plain = ["-m", "surjkit.cli", *workload.cli_args(spec_path, out_path)]
    traced = [
        str(BENCH_DIR / "tracer.py"), str(spans_path), *workload.cli_args(spec_path, out_path)
    ]
    runner.run(["-c", SETUP_CODE], work / "setup.txt")  # warm-up: fills bytecode caches
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    layers: list[dict] = []
    absent: list[str] = []
    start = time.perf_counter()
    while len(layers) < MIN_TRACED_PAIRS or (
        time.perf_counter() - start + walls["plain"][-1] + walls["traced"][-1] <= seconds
    ):
        if runner.remaining() <= 0:
            tally.notes.append("run deadline reached")
            break
        for kind, argv in (("plain", plain), ("traced", traced)):
            if spans_path.exists():
                spans_path.unlink()
            proc = runner.run(argv, work / "stdout.txt", out_path)
            tally.add(proc)
            walls[kind].append(proc.wall)
        if not spans_path.exists():
            tally.notes.append("traced run wrote no spans")
            break
        document = json.loads(spans_path.read_text(encoding="utf-8"))
        absent = document["absent"]
        layer = tracer.layer_metrics(document)
        layer["cli.output_bytes"] = len(proc.output or b"")
        layers.append(layer)
        shutil.copyfile(spans_path, WORK_DIR / f"{workload.name}-spans.json")
    if not layers:
        raise RuntimeError("no traced run completed")
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "trace_overhead":
            continue
        values = [layer[name] for layer in layers]
        metrics[name] = values[0] if name in EXACT_LAYER_METRICS else statistics.median(values)
    metrics["trace_overhead"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["plain"])
    )
    repeats = all(layer[n] == layers[0][n] for layer in layers for n in EXACT_LAYER_METRICS)
    samples = {"walls": walls, "layers": layers, "absent_hooks": absent, "counts_repeat": repeats}
    return metrics, samples


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "commit": commit,
    }


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    needed = (ROOT / "src" / "surjkit" / "cli.py", ROOT / "tests" / "oracles.py")
    if not all(path.is_file() for path in needed):
        print(f"error: {ROOT} lacks src/surjkit or tests/oracles.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Unwind on SIGTERM too, so that the runner stops every process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    workload = make_workload(args.workload, args.seed, sizes)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        spec_path = work / "spec.json"
        if workload.spec is not None:
            spec_path.write_text(json.dumps(workload.spec, indent=2) + "\n", encoding="utf-8")
            checker = CertifyChecker(workload, spec_path, args.seed)
        else:
            checker = TraceChecker(workload)
        tally = Tally(workload, checker)
        with Runner(deadline) as runner:
            if args.trace:
                metrics, samples = traced_run(workload, tally, runner, work, args.seconds)
                absolute = {}
            else:
                metrics, absolute, samples = end_to_end_run(
                    workload, tally, runner, work, args.seconds, sizes.setup_repeats
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"env {json.dumps(env, sort_keys=True)}")
    runs = tally.attempted // workload.ops
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} cli_runs {runs}")
    for note in tally.notes:
        print(f"note {note}")
    if args.trace:
        if samples["absent_hooks"]:
            print(f"absent_hooks {' '.join(samples['absent_hooks'])}")
        print(f"counts_repeat {str(samples['counts_repeat']).lower()}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    for name, value in absolute.items():
        print(f"{name} {value!r} {'1/s' if name.endswith('_per_s') else 's'}")
    print(f"fail_frac {tally.fail_frac!r} ratio")

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "env": env,
        "args": vars(args),
        "notes": tally.notes,
        "absolute": absolute,
        "samples": samples,
        **result,
    }
    (WORK_DIR / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
