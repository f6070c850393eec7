"""The benchmark still runs against this source tree.

``perfbench/spans.py`` looks each traced function up as ``vars(owner)[attr]``,
so removing or moving one breaks the benchmark's traced runs; and a change
that breaks a workload's output checks fails its benchmark run. These tests
make both unit-test failures too.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from moograd import minnorm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tracer_installs_and_uninstalls():
    spans = load_spans()
    originals = [vars(owner)[attr] for owner, attr, _ in spans.TRACED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, _), original in zip(spans.TRACED, originals):
            assert vars(owner)[attr].__wrapped__ is original
        minnorm.solve_min_norm(np.eye(2))
        assert tracer.calls("minnorm.solve") == 1
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _ in spans.TRACED] == originals


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_and_checks_out(workload):
    """Two untraced rounds of the workload, as the benchmark command runs them."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                          "1", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stdout
