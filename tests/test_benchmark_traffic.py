"""One round of each benchmark workload (perfbench/workloads.py), run in
process at seed 1 and checked by the benchmark's own oracles, so a name or
a record field the benchmark reads that breaks fails here first.

    python3 -m pytest -q tests/test_benchmark_traffic.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_has_no_defects(monkeypatch, name):
    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    workloads.setup(name)
    ops, complexes = workloads.operations(name, 1)
    state, observations = {}, []
    for label, run, observe in ops:
        # as the worker does: plain data, here also through JSON
        observations.append(json.loads(json.dumps(dict(observe(run(state)), op=label))))
    failed = [(o["op"], c[0], c[1]) for o in observations if o["kind"] == "suite"
              for c in o["checks"] if c[1] != "pass"]
    assert not failed
    assert workloads.check(name, observations, json.loads(json.dumps(complexes))) == []
