"""Simulator scheduling validation and barrier windows.

Covers the PR-9 additions to :mod:`repro.net.sim`:

* ``schedule`` / ``schedule_at`` reject NaN and past times with a
  :class:`SimulationError` naming the offending delay and event label
  (before, a NaN delay silently poisoned the heap ordering and every later
  pop became nondeterministic);
* ``run_window`` -- the conservative-synchronization primitive -- is
  inclusive of its horizon, fast-forwards empty windows, honours
  cancellations and runs the poll hook at per-event cadence;
* per-shard simulators advance in lockstep, one ``run_window`` per shard
  per barrier, through the in-process pool of :mod:`repro.net.shard`.
"""

import math

import pytest

from repro.net.shard import (
    Lookahead,
    ShardRunner,
    ShardSyncError,
    _InProcessPool,
    run_conservative,
)
from repro.net.sim import SimulationError, Simulator


# ---------------------------------------------------------------------------
# schedule validation (satellite: NaN / negative delays)
# ---------------------------------------------------------------------------

class TestScheduleValidation:
    def test_nan_delay_raises_and_names_the_label(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"'resend:7'.*NaN"):
            sim.schedule(float("nan"), lambda: None, label="resend:7")

    def test_nan_delay_without_label_names_unlabelled(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="<unlabelled>"):
            sim.schedule(float("nan"), lambda: None)

    def test_negative_delay_raises_with_delay_value(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"'tx-end:ch0:1'.*-0\.5"):
            sim.schedule(-0.5, lambda: None, label="tx-end:ch0:1")

    def test_zero_delay_is_allowed(self):
        sim = Simulator()
        ran = []
        sim.schedule(0.0, lambda: ran.append(True), label="soon")
        sim.run()
        assert ran == [True]

    def test_nan_rejected_before_it_can_poison_heap_order(self):
        # The historical failure mode: NaN compares false against
        # everything, so heapq's sift stops immediately and later pops
        # come out in arbitrary order.  The guard must fire on schedule,
        # not on pop.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events() == 1

    def test_schedule_at_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"'probe'.*NaN"):
            sim.schedule_at(float("nan"), lambda: None, label="probe")

    def test_schedule_at_past_raises_and_names_label(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(SimulationError, match=r"'late'.*0\.5"):
            sim.schedule_at(0.5, lambda: None, label="late")

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        ran = []
        sim.schedule_at(1.0, lambda: ran.append(True))
        sim.run()
        assert ran == [True]


# ---------------------------------------------------------------------------
# run_window (barrier-window edge cases)
# ---------------------------------------------------------------------------

class TestRunWindow:
    def test_event_exactly_on_horizon_is_included(self):
        # Cross-shard transmissions land exactly on the barrier horizon, so
        # the window boundary must be inclusive.
        sim = Simulator()
        ran = []
        sim.schedule(1.0, lambda: ran.append("on-horizon"))
        sim.schedule(1.0000001, lambda: ran.append("past"))
        processed = sim.run_window(1.0)
        assert ran == ["on-horizon"]
        assert processed == 1
        assert sim.now == 1.0

    def test_infinite_horizon_is_a_valid_window_end(self):
        # run_conservative ends at the timeout, never at inf, but the
        # primitive itself does not interpret horizons
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        assert sim.run_window(math.inf) == 1
        assert sim.now == math.inf

    def test_empty_window_fast_forwards_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        processed = sim.run_window(2.0)
        assert processed == 0
        assert sim.now == 2.0
        assert sim.pending_events() == 1

    def test_clock_lands_on_horizon_after_events(self):
        sim = Simulator()
        sim.schedule(0.25, lambda: None)
        sim.run_window(1.0)
        assert sim.now == 1.0

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(0.5, lambda: ran.append("cancelled"))
        sim.schedule(0.6, lambda: ran.append("live"))
        event.cancel()
        processed = sim.run_window(1.0)
        assert ran == ["live"]
        assert processed == 1

    def test_poll_runs_after_every_event(self):
        sim = Simulator()
        polls = []
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, lambda: None)
        sim.run_window(0.25, poll=lambda: polls.append(sim.now))
        assert polls == [0.1, 0.2]

    def test_events_scheduled_inside_window_run_in_same_window(self):
        sim = Simulator()
        ran = []
        sim.schedule(0.1, lambda: sim.schedule(0.1, lambda: ran.append("chained")))
        sim.run_window(0.5)
        assert ran == ["chained"]

    def test_consecutive_windows_partition_the_timeline(self):
        sim = Simulator()
        ran = []
        for delay in (0.5, 1.0, 1.5, 2.0):
            sim.schedule(delay, lambda d=delay: ran.append(d))
        assert sim.run_window(1.0) == 2
        assert ran == [0.5, 1.0]
        assert sim.run_window(2.0) == 2
        assert ran == [0.5, 1.0, 1.5, 2.0]

    def test_events_processed_counter_advances(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run_window(1.0)
        assert sim.events_processed == 1


class TestNextEventTime:
    def test_returns_earliest_live_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.next_event_time() == 1.0

    def test_skips_cancelled_top(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.next_event_time() == 2.0

    def test_empty_queue_returns_none(self):
        assert Simulator().next_event_time() is None


# ---------------------------------------------------------------------------
# sharded simulators: lockstep windows through the in-process pool
# ---------------------------------------------------------------------------

def _shard(index, sim, poll=None):
    return ShardRunner(index, sim, backbone=None, backbone_macs=[],
                       difs_s=0.001, poll=poll)


class TestShardedSimulator:
    def test_requires_at_least_one_shard(self):
        with pytest.raises(ShardSyncError, match="at least one shard"):
            run_conservative(lambda index: _shard(index, Simulator()), 0,
                             Lookahead(0.001, 0.002), 1.0)

    def test_lockstep_advance_and_per_shard_counts(self):
        shard_a, shard_b = Simulator(seed=1), Simulator(seed=2)
        shard_a.schedule(0.5, lambda: None)
        shard_b.schedule(0.2, lambda: None)
        shard_b.schedule(0.8, lambda: None)
        pool = _InProcessPool([_shard(0, shard_a), _shard(1, shard_b)])
        assert [result.processed for result in pool.step(0.6, {})] == [1, 1]
        assert shard_a.now == 0.6 and shard_b.now == 0.6
        assert [result.processed for result in pool.step(1.0, {})] == [0, 1]
        assert shard_a.now == 1.0 and shard_b.now == 1.0
        assert shard_a.events_processed + shard_b.events_processed == 3
        assert shard_a.pending_events() + shard_b.pending_events() == 0

    def test_per_shard_polls(self):
        shard_a, shard_b = Simulator(), Simulator()
        shard_a.schedule(0.1, lambda: None)
        shard_b.schedule(0.1, lambda: None)
        seen = []
        pool = _InProcessPool([_shard(0, shard_a, lambda: seen.append("a")),
                               _shard(1, shard_b, lambda: seen.append("b"))])
        pool.step(1.0, {})
        assert seen == ["a", "b"]
