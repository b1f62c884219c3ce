"""Deterministic discrete-event simulation kernel.

Every experiment in this reproduction runs on virtual time.  The kernel is a
binary-heap event queue with a monotonically increasing sequence number used
to break ties, which makes runs fully deterministic for a given seed and
schedule of calls.

Heap entries are plain ``(time, seq, event)`` tuples: tuple comparison is
implemented in C, whereas the previous ``order=True`` dataclass dispatched
every ``<`` through generated Python code, which dominated heap operations in
large-n runs.  Cancelled events are skipped when popped; when too many
cancelled entries accumulate (heavy retransmission-timer churn) the queue is
compacted in place so memory and pop costs stay proportional to the live
event count.

The kernel deliberately stays tiny: processes are modelled as callbacks, and
higher-level abstractions (timers, periodic timers) are provided as thin
wrappers.  Components and protocols never block; they react to delivered
events, which matches the asynchronous message-passing model of the paper.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional

# Compact the heap once at least this many cancelled events are queued AND
# they outnumber the live ones (amortised O(1) per cancellation).
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


class Event:
    """A scheduled callback.

    The simulator orders events by ``(time, seq)`` (timestamp order with FIFO
    tie-breaking).  Cancelled events stay in the heap but are skipped when
    popped, and are reclaimed wholesale by queue compaction.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "_cancel_tally")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 cancelled: bool = False, label: str = "",
                 cancel_tally: Optional[list[int]] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.label = label
        self._cancel_tally = cancel_tally

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        if not self.cancelled:
            self.cancelled = True
            if self._cancel_tally is not None:
                self._cancel_tally[0] += 1


class Simulator:
    """A discrete-event simulator with virtual time and a deterministic RNG.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        choices in the network substrate (backoff slots, jitter, adversarial
        delays) draw from this RNG so that a run is reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        self._running = False
        self._events_processed = 0
        # Shared mutable tally of cancelled-but-queued events; Event.cancel
        # increments it so the simulator knows when compaction pays off.
        self._cancelled_queued = [0]

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be a non-negative, non-NaN number: a NaN compares
        false against everything, so it used to slip past the ``< 0`` guard
        and silently poison the heap invariant (every pop after it is
        arbitrary, so the run is no longer a function of the seed).
        """
        if delay != delay:  # NaN: the only value that breaks heap ordering
            raise SimulationError(
                f"cannot schedule event {label or '<unlabelled>'!r}: "
                f"delay is NaN")
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event {label or '<unlabelled>'!r} in the "
                f"past (delay={delay})")
        return self._push(self._now + delay, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when != when:
            raise SimulationError(
                f"cannot schedule event {label or '<unlabelled>'!r}: "
                f"time is NaN")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event {label or '<unlabelled>'!r} at "
                f"{when} before current time {self._now}")
        return self._push(when, callback, label)

    def _push(self, when: float, callback: Callable[[], None],
              label: str) -> Event:
        event = Event(time=when, seq=next(self._seq), callback=callback,
                      label=label, cancel_tally=self._cancelled_queued)
        heapq.heappush(self._queue, (when, event.seq, event))
        cancelled = self._cancelled_queued[0]
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._compact()
        return event

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (heap order is preserved
        by rebuilding; (time, seq) keys make the result deterministic).

        Mutates the list in place: the run loops hold a local reference to it.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_queued[0] = 0

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, label=label)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the virtual time at which the run stopped.
        """
        self._running = True
        processed_this_run = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _, event = queue[0]
                if until is not None and when > until:
                    self._now = until
                    break
                pop(queue)
                if event.cancelled:
                    self._cancelled_queued[0] -= 1
                    continue
                # Detach the tally: a cancel() after the pop (e.g. a periodic
                # timer stopped from inside its own callback) must not count
                # an event that is no longer queued, or the compaction
                # heuristic would fire on a queue with nothing to reclaim.
                event._cancel_tally = None
                self._now = when
                event.callback()
                self._events_processed += 1
                processed_this_run += 1
                if max_events is not None and processed_this_run >= max_events:
                    break
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def run_window(self, until: float,
                   poll: Optional[Callable[[], None]] = None) -> int:
        """Run every event with ``time <= until``, then land exactly on ``until``.

        The conservative-synchronization primitive: a shard executes one
        barrier window ``(now, until]`` with this call.  Events scheduled at
        exactly ``until`` execute (cross-shard transmissions land precisely on
        the horizon, so the boundary must be inclusive), an empty window
        fast-forwards the clock to ``until`` without touching the heap, and
        ``poll`` -- when given -- runs after every processed event (the
        multi-hop harness uses it to couple local decisions into the global
        domain at the same per-event cadence as :meth:`run_until`).

        Returns the number of events processed in the window.
        """
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        self._running = True
        try:
            while queue:
                when, _, event = queue[0]
                if when > until:
                    break
                pop(queue)
                if event.cancelled:
                    self._cancelled_queued[0] -= 1
                    continue
                event._cancel_tally = None  # see run(): popped events must not tally
                self._now = when
                event.callback()
                self._events_processed += 1
                processed += 1
                if poll is not None:
                    poll()
            if until > self._now:
                self._now = until
        finally:
            self._running = False
        return processed

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` is true or ``timeout`` virtual seconds pass.

        The predicate is evaluated after every processed event.  Returns True
        if the predicate became true, False on timeout or queue exhaustion.
        (A ``check_interval`` parameter used to exist but was silently
        ignored; it has been removed rather than given surprise semantics.)
        """
        deadline = self._now + timeout
        if predicate():
            return True
        queue = self._queue
        pop = heapq.heappop
        while queue:
            when, _, event = queue[0]
            if when > deadline:
                self._now = deadline
                return predicate()
            pop(queue)
            if event.cancelled:
                self._cancelled_queued[0] -= 1
                continue
            event._cancel_tally = None  # see run(): popped events must not tally
            self._now = when
            event.callback()
            self._events_processed += 1
            if predicate():
                return True
        return predicate()

    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live (non-cancelled) queued event, or None.

        Cancelled entries found at the top are dropped on the way (they would
        be skipped by the run loops anyway), so the answer is exact.  The
        sharded engine uses this as a lookahead ingredient: no fresh work --
        in particular no fresh backbone channel access -- can originate
        before this instant.
        """
        queue = self._queue
        while queue:
            when, _, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                self._cancelled_queued[0] -= 1
                continue
            return when
        return None


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    Asynchronous BFT consensus in wireless networks relies on retransmission
    timers to make progress (Section IV-A of the paper); this helper keeps the
    bookkeeping (cancel/restart) in one place.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None],
                 label: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True if the timer is currently scheduled."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """A timer that re-fires every ``interval`` seconds until stopped.

    Optional jitter (a fraction of the interval drawn uniformly) desynchronises
    periodic retransmissions across nodes, which matters on a shared channel.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], jitter: float = 0.0,
                 label: str = "periodic") -> None:
        if interval <= 0:
            raise SimulationError("periodic timer interval must be positive")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        """True while the periodic timer is active."""
        return not self._stopped

    def start(self) -> None:
        """Start (or restart) the periodic firing."""
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        """Stop firing."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self.interval
        if self._jitter > 0:
            delay += self._sim.rng.uniform(0, self._jitter * self.interval)
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._schedule_next()
