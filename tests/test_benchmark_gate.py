"""The benchmark's own correctness gate, run as a tier-1 test.

One untimed pass of each workload through ``perfbench/run.py`` checks every
output against ``perfbench/refs``, so a change that the benchmark would
grade as wrong fails here first. Each run takes about 2 s: one pass and the
fresh-interpreter imports of ``measure_setup``. ``run.py`` pins BLAS to one
thread itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rpm", "survey", "resonance"])
def test_benchmark_gate_passes(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stdout
    assert report["failed"] == 0, proc.stdout
