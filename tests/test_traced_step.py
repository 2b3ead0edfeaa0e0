"""The benchmark's tracer wraps library functions by name, and a traced step
whose targets no longer exist or no longer run still exits 0: it only drops
the metrics it could not measure.  This runs one traced worker step in a
subprocess, so that the tracer's monkeypatching stays out of this process,
and requires every target and every per-layer metric to be present."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_step_finds_every_target_and_metric(tmp_path):
    task = {
        "step": "simulate", "rounds": 1000, "seed": 1, "trace": True, "run_id": "t",
        "spans_path": str(tmp_path / "s.json.gz"), "env": {}, "root": str(ROOT),
    }
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", json.dumps(task)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert result["absent"] == []
    assert (result["failed"], result["problems"]) == (0, [])
