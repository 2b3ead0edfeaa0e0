"""Benchmark of retroking: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload simulate-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the repository root; it imports retroking from ``src``.  Each
measured step runs in a fresh worker process (``perfbench/worker.py``) with
one BLAS/OpenMP thread.  With ``--trace 0`` the run prints the end-to-end
metrics, measured untraced; with ``--trace 1`` it prints the per-layer
metrics of a traced run and writes its spans under ``.perfbench-out/``.
Every output is checked, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, stats  # noqa: E402

# The machine's speed drifts over tens of seconds (other tenants share its
# cores), so a run interleaves short segments of every measurement and
# reports medians; a simulate call is short enough for a run to hold several.
SIMULATE_ROUNDS = 30_000
CLI_SIMULATE_ROUNDS = 10_000
SEGMENT_S = 2
MIN_SEGMENTS = 3
COLD_STARTS = 2
IMPORT_PROBES = 3
TRACE_REPLAYS = 50_000
TRACE_PASSES = 20
STEP_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench-out"
LAYERS = ("linalg", "mub", "protocol", "cli")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


class Run:
    """One benchmark run: launches steps and tallies their operations."""

    def __init__(self, seed: int, seconds: int, record: dict):
        self.seed = seed % 2**63
        self.seconds = seconds
        self.env = worker_env()
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sub_seed(self, k: int) -> int:
        return (self.seed * 1_000_003 + k) % 2**63

    def _tally(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def _python(self, *args: str) -> dict:
        """Run ``python -m <args>`` in a fresh process; parse its last stdout line."""
        proc = subprocess.run([sys.executable, "-m", *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} failed:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def worker(self, task: dict) -> dict:
        result = self._python("perfbench.worker", json.dumps(dict(task, root=str(ROOT))))
        self._tally(result["attempted"], result["failed"], result["problems"])
        return result

    def cli(self, argv: list[str], rounds: int | None = None) -> float:
        """Wall seconds of one ``retroking`` command in a subprocess; its
        exit status and JSON report are checked."""
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "retroking.cli", *argv, "--format", "json"], cwd=ROOT,
            env=self.env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
        wall = time.perf_counter() - began
        problems = [f"retroking {argv[0]} exited {proc.returncode}"] if proc.returncode else []
        try:
            problems += checks.report_problems(json.loads(proc.stdout), rounds)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"retroking {argv[0]} printed no valid report: {exc!r}")
        self._tally(1, 1 if problems else 0, problems)
        return wall

    def cold_start(self) -> float:
        """Seconds of one cold start (``python -m perfbench.cold``) in a fresh process."""
        return self._python("perfbench.cold", str(ROOT))["setup_s"]

    def segments(self, task, commands):
        """Repeat segments until ``seconds`` are spent, at least MIN_SEGMENTS
        times.  A segment is one fresh worker step ``task(k)``, the subprocess
        commands ``commands(k)`` and COLD_STARTS cold starts, so every metric
        samples the whole run and not one stretch of it.  Returns (steps,
        walls per segment, set-up times)."""
        self.cold_start()  # warm-up: compiles the byte code of a fresh checkout
        steps, walls, setup = [], [], []
        began = time.perf_counter()
        while len(steps) < MIN_SEGMENTS or (
                (time.perf_counter() - began) * (len(steps) + 1) / len(steps) <= self.seconds):
            k = len(steps)
            steps.append(self.worker(task(k)))
            walls.append([self.cli(argv, rounds) for argv, rounds in commands(k)])
            setup += [self.cold_start() for _ in range(COLD_STARTS)]
        return steps, walls, setup


def end_to_end(setup, rss, ops: float, busy_s: float, cli_walls) -> dict:
    """The gated metrics.  Throughput is total work over total busy time and
    the subprocess wall an interquartile mean: both move smoothly with the
    share of a run the machine spends fast or slow, where a median jumps
    between the two speeds once that share nears one half."""
    return {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "ops_per_s": (ops / busy_s, "1/s"),
        "cli_wall_s": (stats.interquartile_mean(cli_walls), "s"),
    }


def latency(name: str, values, unit: str) -> dict:
    """Median and tail of a timing, with the tail's sample count."""
    level, value, count = stats.tail(values)
    return {f"{name}_p50_{unit}": (median(values), unit),
            f"{name}_p{level}_{unit}": (value, unit), f"{name}_samples": (count, "count")}


def simulate_mixed(run: Run):
    calls, walls, setup = run.segments(
        lambda k: {"step": "simulate", "seed": run.sub_seed(k), "rounds": SIMULATE_ROUNDS},
        lambda k: [(["simulate", "--rounds", str(CLI_SIMULATE_ROUNDS),
                     "--seed", str(run.sub_seed(k))], CLI_SIMULATE_ROUNDS)])
    call_s = [c["op_ns"][0] / 1e9 for c in calls]
    metrics = end_to_end(setup, [c["rss_mb"] for c in calls], SIMULATE_ROUNDS * len(calls),
                         sum(call_s), [w for ws in walls for w in ws])
    named = {"rounds_per_s": metrics["ops_per_s"],
             **latency("round", [s / SIMULATE_ROUNDS * 1e6 for s in call_s], "us")}
    return metrics, named, [f"{len(calls)} calls of {SIMULATE_ROUNDS} rounds; "
                            "round times are per-call means"]


def replay_scattered(run: Run):
    steps, walls, setup = run.segments(
        lambda k: {"step": "replay", "seed": run.sub_seed(k), "seconds": SEGMENT_S},
        lambda k: [(["simulate", "--rounds", "1", "--seed", str(run.sub_seed(2 * k + j))], 1)
                   for j in range(2)])
    op_us = [ns / 1e3 for step in steps for ns in step["op_ns"]]
    metrics = end_to_end(setup, [s["rss_mb"] for s in steps], len(op_us), sum(op_us) / 1e6,
                         [w for ws in walls for w in ws])
    return metrics, latency("round", op_us, "us"), []


def certify(run: Run):
    steps, walls, setup = run.segments(
        lambda k: {"step": "certify", "seed": run.sub_seed(k), "seconds": SEGMENT_S},
        lambda k: [command for j in range(2) for command in (
            (["verify", "--seed", str(run.sub_seed(2 * k + j))], None), (["search-bases"], None))])

    def pooled(key, scale):
        return [ns / scale for step in steps for ns in step[key]]

    pass_ms = pooled("op_ns", 1e6)
    cli = {command: [w for ws in walls for w in ws[j::2]]
           for j, command in enumerate(("verify", "search"))}
    metrics = end_to_end(setup, [s["rss_mb"] for s in steps], len(pass_ms), sum(pass_ms) / 1e3,
                         [v + s for v, s in zip(cli["verify"], cli["search"])])
    named = {**latency("pass", pass_ms, "ms"), **latency("verify", pooled("verify_ns", 1e6), "ms"),
             **latency("search", pooled("search_ns", 1e6), "ms")}
    for command, values in cli.items():
        named[f"cli_{command}_wall_s"] = (median(values), "s")
    return metrics, named, []


WORKLOADS = {
    "simulate-mixed": (simulate_mixed, {"step": "simulate", "rounds": SIMULATE_ROUNDS}),
    "replay-scattered": (replay_scattered, {"step": "replay", "count": TRACE_REPLAYS}),
    "certify": (certify, {"step": "certify", "count": TRACE_PASSES}),
}


def import_times(env: dict) -> dict:
    """Import seconds of each layer from ``python -X importtime``.  A layer
    is charged for the third-party modules it first imports (linalg pays
    for numpy) but not for the retroking modules nested in its import."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import retroking, retroking.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=STEP_TIMEOUT_S, check=True)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    pending = defaultdict(list)
    seconds = {}
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative = int(fields[1])
        except ValueError:
            continue
        label = fields[2][1:]
        depth = (len(label) - len(label.lstrip())) // 2
        module = label.strip()
        nested = sum(c if m.startswith("retroking.") else n
                     for m, c, n in pending.pop(depth + 1, []))
        if module.startswith("retroking."):
            seconds[module.split(".")[1]] = (cumulative - nested) / 1e6
        pending[depth].append((module, cumulative, nested))
    return seconds


def traced(workload: str, run: Run):
    """Per-layer metrics of one traced step, bracketed by the same step
    untraced before and after it for the tracing overhead."""
    _, task = WORKLOADS[workload]
    task = dict(task, seed=run.seed)
    samples = [import_times(run.env) for _ in range(IMPORT_PROBES)]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{run.seed}.json.gz"
    before = run.worker(task)
    result = run.worker(dict(task, trace=True, run_id=f"{workload}/seed{run.seed}",
                             spans_path=str(spans_path), env=run.record))
    after = run.worker(task)
    metrics = {name: (m["value"], m["unit"]) for name, m in result["layer_metrics"].items()}
    absent = list(result["absent"])
    for layer in LAYERS:
        values = [s[layer] for s in samples if layer in s]
        if values:
            metrics[f"{layer}.import_s"] = (median(values), "s")
        else:
            absent.append(f"{layer}.import_s")
    untraced_ns = (sum(before["op_ns"]) + sum(after["op_ns"])) / 2
    metrics["trace.overhead_ratio"] = (sum(result["op_ns"]) / untraced_ns, "ratio")
    notes = [f"spans written to {spans_path.relative_to(ROOT)}"]
    notes += [f"absent: {name}" for name in absent]
    notes += [f"not found for wrapping: {name}" for name in result["missing"]]
    return metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "retroking" / "__init__.py").is_file():
        print(f"error: no retroking sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = environment(args.seed)
    print("perfbench env " + json.dumps(record), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = Run(args.seed, args.seconds, record)
    everything = {}
    for name in names:
        before = (run.attempted, run.failed)
        if args.trace:
            metrics, named, notes = traced(name, run)
        else:
            metrics, named, notes = WORKLOADS[name][0](run)
        attempted, failed = run.attempted - before[0], run.failed - before[1]
        named["fail_ratio"] = (stats.fail_ratio(attempted, failed), "ratio")
        for label, (value, unit) in {**metrics, **named}.items():
            print(f"perfbench {name} {label} {value:.6g} {unit}")
        for note in notes:
            print(f"perfbench {name} note {note}")
        print(f"perfbench {name} attempted {attempted} failed {failed}", flush=True)
        if len(names) == 1:
            everything = metrics
        else:
            everything.update({f"{name}.{k}": v for k, v in {**metrics, **named}.items()})
    for problem in run.problems[:20]:
        print(f"perfbench problem {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in everything.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
