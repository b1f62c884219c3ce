"""The benchmark's own tests: what timed runs carry, and that traces add up.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

import rep
import run
import spans
from repro.net.sim import Simulator
from workloads import WORKLOADS, latency_summary

#: a two-epoch LoRa stream: every layer of the lora workload, in well
#: under a second
TINY = replace(WORKLOADS["lora-hb-sc-n4"],
               spec=replace(WORKLOADS["lora-hb-sc-n4"].spec, epochs=2,
                            warmup=8))


def _keys() -> list:
    """Every attribute a traced run wraps, as ``(owner, name)``."""
    return [(target.owner, target.attr) for target in spans.layer_targets()] \
        + [(Simulator, attr)
           for attr in ("run_until", "schedule", "schedule_at", "call_soon")]


def _attributes(keys: list) -> dict:
    return {(owner, attr): vars(owner)[attr] for owner, attr in keys}


def test_timed_runs_carry_only_the_setup_timer():
    keys = _keys()
    before = _attributes(keys)
    with spans.setup_timer():
        during = _attributes(keys)
    changed = [key for key in keys if before[key] is not during[key]]
    assert changed == [(Simulator, "run_until")]
    after = _attributes(keys)
    assert all(after[key] is before[key] for key in keys)


def test_traced_runs_restore_every_original():
    keys = _keys()
    before = _attributes(keys)
    with spans.traced(spans.Tracer()) as patches:
        during = _attributes(keys)
        assert len(patches.attributes) == len(set(keys)) == len(keys)
    assert all(during[key] is not before[key] for key in keys)
    after = _attributes(keys)
    assert all(after[key] is before[key] for key in keys)


def test_target_list_covers_every_layer():
    layers = {target.layer for target in spans.layer_targets()}
    # traced() itself wraps the simulator and the predicate; unattributed
    # is the residual
    assert layers | {"net.sim", "testbed.predicate", "unattributed"} \
        == set(spans.LAYERS)


def test_trace_adds_up_and_leaves_results_unchanged():
    untraced = rep.run_rep(TINY, seed=7, trace=False)
    traced = rep.run_rep(TINY, seed=7, trace=True)
    assert untraced["error"] == "" and traced["error"] == ""
    assert traced["sample"]["digest"] == untraced["sample"]["digest"]
    assert traced["sample"]["sim_events"] == untraced["sample"]["sim_events"]
    trace = traced["trace"]
    assert trace["problems"] == []
    assert sum(trace["self_s"].values()) == pytest.approx(trace["wall_s"],
                                                          rel=1e-9)
    assert all(seconds >= 0.0 for seconds in trace["self_s"].values())
    # the predicate runs once up front and once after every event
    assert trace["calls"]["predicate"] == untraced["sample"]["sim_events"] + 1
    for layer in ("crypto", "components", "protocols", "core", "net.mac",
                  "net.sim", "testbed.predicate", "testbed.driver",
                  "testbed.setup"):
        assert trace["self_s"][layer] > 0.0, layer


def test_timed_rep_splits_setup_from_run():
    result = rep.run_rep(TINY, seed=7, trace=False)
    assert result["setup_s"] > 0.0 and result["run_s"] > 0.0
    assert result["setup_s"] + result["run_s"] == pytest.approx(
        result["wall_s"])
    verdicts = {name: ok for name, ok, _ in result["sample"]["verdicts"]}
    assert all(verdicts.values())
    assert {"decided", "agreement", "total-order", "validity", "liveness",
            "ledger-continuity"} <= set(verdicts)


def test_spans_nest_and_report_breaches():
    tracer = spans.Tracer()
    inner = tracer.span(lambda: None, "crypto", "inner")
    outer = tracer.span(lambda: inner(), "core", "outer")
    with tracer.rep():
        outer()
    assert tracer.problems() == []
    assert tracer.calls == {"inner": 1, "outer": 1, "rep": 1}
    assert set(tracer.self_s) == {"crypto", "core", "unattributed"}

    broken = spans.Tracer()
    frame = [spans.CLOCK(), 0.0, "core"]
    broken._stack.append([spans.CLOCK(), 0.0, "core"])
    broken._stack.append(frame)
    broken._close(broken._stack[0], "core", "early")
    assert any("out of order" in problem for problem in broken.problems())


def test_tail_has_ten_samples_beyond_it():
    summary = latency_summary(list(range(64)), list(range(64)))
    assert summary["tail"] == 53 and summary["tail_count"] == 64
    with pytest.raises(ValueError):
        latency_summary(list(range(64)), list(range(10)))


def test_benchmark_json_is_generated_from_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == run.spec()
