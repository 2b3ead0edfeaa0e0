"""One benchmark step in a fresh interpreter.

Usage: ``python -m perfbench.worker '<task json>'`` from the repository root,
with ``src`` on ``PYTHONPATH``.  The step imports retroking, builds its
tables, runs the workload's operations, checks every output and prints one
JSON result line.  A traced step records spans around the library's public
functions and adds the per-layer metrics.
"""

import io
import json
import random
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import numpy

from perfbench import checks, cold, spans

# Replays at a multiple of this count draw their index below BATCH_ROUNDS,
# where the batch record is known; the others draw from [0, 2^40).
BATCH_STRIDE = 8
BATCH_ROUNDS = 4096
INDEX_LIMIT = 2**40
# Every REVISIT_STRIDE-th replay is replayed again, in reverse order, at the end.
REVISIT_STRIDE = 64
MAX_REPLAYS_PER_S = 400_000
SWEEP_ROUNDS = 1000
HELD_ROUNDS = 10_000
MAX_PROBLEMS = 10


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems, failed=None, attempted=1) -> None:
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def step_simulate(task, cli, protocol, tally: Tally) -> dict:
    rounds = task["rounds"]
    began = time.perf_counter_ns()
    report = cli.run(cli.RunConfig("simulate", rounds=rounds, seed=task["seed"]))
    elapsed = time.perf_counter_ns() - began
    failed, problems = checks.simulate_failures(report, rounds)
    tally.add(problems, failed, attempted=rounds)
    return {"op_ns": [elapsed]}


def step_replay(task, cli, protocol, tally: Tally) -> dict:
    seed = task["seed"]
    batch = protocol.simulate_rounds(BATCH_ROUNDS, seed)
    pick = random.Random(seed)
    count, deadline = task.get("count"), time.perf_counter() + task.get("seconds", 0)
    clock = time.perf_counter_ns
    run_round, round_stream = protocol.run_round, protocol.round_stream
    # Preallocated, so that peak RSS does not jump with the buffer's growth;
    # untouched pages cost nothing.
    op_ns = numpy.empty(count or int(task["seconds"] * MAX_REPLAYS_PER_S), dtype=numpy.int64)
    king = [[0] * 3 for _ in range(4)]
    physicist = [0] * 9
    revisit = []
    n = 0
    while (n < count) if count is not None else (
            n < op_ns.size and (n % 1024 or time.perf_counter() < deadline)):
        index = pick.randrange(BATCH_ROUNDS if n % BATCH_STRIDE == 0 else INDEX_LIMIT)
        began = clock()
        record = run_round(None, round_stream(seed, index), seed=seed, round_index=index)
        op_ns[n] = clock() - began
        problems = []
        if not record.success:
            problems.append(f"round {index}: retrodiction failed")
        if index < BATCH_ROUNDS and record != batch[index]:
            problems.append(f"round {index}: replay differs from the batch record")
        tally.add(problems)
        king[record.king_basis][record.king_outcome] += 1
        physicist[record.physicist_outcome] += 1
        if n % REVISIT_STRIDE == 0:
            revisit.append(record)
        n += 1
    for record in reversed(revisit):
        index = record.round_index
        again = run_round(None, round_stream(seed, index), seed=seed, round_index=index)
        tally.add([f"round {index}: replay depends on order"] if again != record else [])
    problems = checks.outcome_problems(king, physicist)
    if problems:
        tally.add(problems, failed=tally.attempted - tally.failed, attempted=0)
    return {"op_ns": op_ns[:n].tolist()}


def step_certify(task, cli, protocol, tally: Tally) -> dict:
    count, deadline = task.get("count"), time.perf_counter() + task.get("seconds", 0)
    clock = time.perf_counter_ns
    times = {"op_ns": [], "verify_ns": [], "search_ns": []}
    k = 0
    while (k < count) if count is not None else time.perf_counter() < deadline:
        seed = (task["seed"] + k) % 2**63
        t0 = clock()
        verify = cli.run(cli.RunConfig("verify", seed=seed))
        t1 = clock()
        search = cli.run(cli.RunConfig("search-bases"))
        t2 = clock()
        tomography = cli.run(cli.RunConfig("tomography", seed=seed))
        t3 = clock()
        times["op_ns"].append(t3 - t0)
        times["verify_ns"].append(t1 - t0)
        times["search_ns"].append(t2 - t1)
        for report in (verify, search, tomography):
            tally.add(checks.report_problems(report))
        k += 1
    return times


STEPS = {"simulate": step_simulate, "replay": step_replay, "certify": step_certify}


def layer_sweep(cli, seed: int, tally: Tally) -> None:
    """One call of every command, so every traced function runs at least once."""
    for config in (cli.RunConfig("verify", seed=seed), cli.RunConfig("search-bases"),
                   cli.RunConfig("tomography", seed=seed),
                   cli.RunConfig("simulate", rounds=SWEEP_ROUNDS, seed=seed)):
        tally.add(checks.report_problems(cli.run(config), SWEEP_ROUNDS))
    text = io.StringIO()
    with redirect_stdout(text):
        code = cli.main(["search-bases", "--format", "json"])
    problems = checks.report_problems(json.loads(text.getvalue()))
    tally.add(problems + ([f"search-bases exited {code}"] if code else []))


def held_bytes_per_round(protocol, seed: int) -> float:
    """tracemalloc peak over one simulate_rounds call, per round."""
    tracemalloc.start()
    try:
        records = protocol.simulate_rounds(HELD_ROUNDS, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del records
    return peak / HELD_ROUNDS


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM).  Not ru_maxrss: Linux
    carries the parent's peak into a child across fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    retroking, cli, protocol = cold.import_library(task["root"])
    tracer = None
    if task.get("trace"):
        tracer = spans.Tracer(task["run_id"])
        tracer.install()
    cold.build_tables(retroking, protocol)

    tally = Tally()
    if tracer is not None:
        tracer.phase = spans.PHASES.index("workload")
    result = STEPS[task["step"]](task, cli, protocol, tally)
    result["rss_mb"] = peak_rss_mb()

    if tracer is not None:
        tracer.phase = spans.PHASES.index("sweep")
        layer_sweep(cli, task["seed"], tally)
        tracer.paused = True
        metrics, absent = tracer.layer_metrics()
        metrics["protocol.held_bytes_per_round"] = {
            "value": held_bytes_per_round(protocol, task["seed"]), "unit": "B"}
        tracer.dump(task["spans_path"], {"env": task["env"]})
        result.update(layer_metrics=metrics, absent=absent, missing=tracer.missing)

    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
