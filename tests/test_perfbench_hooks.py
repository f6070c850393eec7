"""The benchmark's span tracer still finds every function it traces.

``perfbench/spans.py`` looks each traced function up as ``vars(owner)[attr]``,
so removing or moving one breaks the benchmark's traced runs; this test makes
that a unit-test failure too.
"""

import importlib.util
import os

import numpy as np

from moograd import minnorm

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


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
