"""The benchmark's own correctness contract, run on the library as it is.

`perfbench/workloads.py` gives every timed call an independent check (W1
against a HiGHS LP, the dual certificate, trajectories against the matrix
oracle) and a `sabotage` that must trip it. A change to the library's
result types that turned those checks into failures would otherwise show
only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_transport_round_passes_its_checks(workloads):
    wl = workloads.Transport()
    calls = wl.round_calls(wl.build(7), 0)
    assert {c.kind for c in calls} == {"w1.flow", "w1.assignment", "run_particles"}
    outputs = [c.run() for c in calls]
    failures = [(c.kind, c.size, why) for c, out in zip(calls, outputs) if (why := c.check(out))]
    assert failures == []
    assert calls[0].check(calls[0].sabotage(outputs[0])) is not None
