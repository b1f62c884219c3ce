"""Per-layer wall-time attribution, applied to the program from outside.

The benchmark never edits ``src/``: for a traced run it swaps the functions
and methods of each layer for thin wrappers that open a *span* around the
call, and puts every original back afterwards.  Spans nest on one stack (the
program is single-threaded), so a span's **self time** is its duration minus
the time covered by the spans it caused.  Self times are summed per layer;
time inside a traced rep that no layer span covers is ``unattributed``, so
the layers plus ``unattributed`` add up to the traced wall time.

Layers (their names are the metric prefixes the benchmark prints):

======================  ====================================================
``crypto``              public :class:`~repro.crypto.timing.CryptoSuite`
                        methods
``components``          component classes of ``repro.components`` (broadcast,
                        ABA, common coin) and ``ComponentRouter``
``components.erasure``  ``encode_blocks`` / ``decode_blocks``
``protocols``           consensus protocol classes and the common subset
``core``                ConsensusBatcher and baseline transports
``net.mac``             CSMA MAC, wireless channel and network node
``net.sim``             ``Simulator.run_until`` and event scheduling; the
                        event core's self time is the run loop minus its
                        callbacks and the termination predicate
``testbed.predicate``   the predicate handed to ``run_until``
``testbed.driver``      entry points, the streaming driver, the FIFO mempool,
                        arrival generators, epoch install and propose
``testbed.ingress``     ingress gateways and priority mempools
``testbed.setup``       ``build_deployment`` and dealer-cache lookups
======================  ====================================================

Every simulator callback is a span named ``event:<label prefix>``.  Its self
time goes to the layer the label names (``csma-attempt`` to ``net.mac``,
``transport-resend`` to ``core``, ``arrival`` to ``testbed.driver``, ...);
unlabelled callbacks stay ``unattributed``.

:func:`setup_timer` is the only patch a *timed* (untraced) run carries: it
notes when the entry point first reaches ``Simulator.run_until``, which
splits set-up time from run time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

CLOCK = time.perf_counter

#: self-time buckets in report order; ``unattributed`` closes the sum
LAYERS = (
    "crypto", "components", "components.erasure", "protocols", "core",
    "net.mac", "net.sim", "testbed.predicate", "testbed.driver",
    "testbed.ingress", "testbed.setup", "unattributed",
)

#: simulator event-label prefix -> the layer its callback belongs to
EVENT_LAYERS = {
    "csma-attempt": "net.mac",
    "tx-end": "net.mac",
    "rx": "net.mac",
    "tx-enqueue": "net.mac",
    "rx-process": "net.mac",
    "rx-requeue": "net.mac",
    "task": "net.mac",
    "transport-resend": "core",
    "arrival": "testbed.driver",
}

#: StreamingRun methods that make up its termination predicate: ``_poll``
#: is handed to run_until and only it calls the other two, so they stay
#: unwrapped and count as predicate self time.
PREDICATE_METHODS = frozenset({"_poll", "_epoch_complete", "_epoch_ready"})

#: spans whose inclusive time is reported (the dealer-cache lookups give
#: ``testbed.setup.deal_s``); they always open a span of their own
INCLUSIVE = frozenset({"DealerCache.domain"})

_EVENT_MARK = "_perfbench_event"


class Tracer:
    """Span stack, per-layer self time, per-name call counts and the
    inclusive time of the :data:`INCLUSIVE` spans.  One instance per
    traced rep or pass."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[start, time covered by children,
        #: layer]``
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: summed duration of the root spans (one per traced rep)
        self.wall_s = 0.0
        self.violations: list[str] = []

    def _close(self, frame: list, layer: str, name: str) -> float:
        end = CLOCK()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            self.violations.append(f"span {name} closed out of order")
            for index, open_frame in enumerate(stack):
                if open_frame is frame:
                    del stack[index:]
                    break
        duration = end - frame[0]
        own = duration - frame[1]
        if own < 0.0:
            self.violations.append(
                f"span {name} has negative self time {own:.3e} s")
        self.self_s[layer] += own
        if name in INCLUSIVE:
            self.inclusive_s[name] += duration
        if stack:
            stack[-1][1] += duration
        return duration

    def span(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped in a span of ``layer``, counted under ``name``.

        A call made from inside a span of the same layer is only counted:
        its time is that span's self time either way, and skipping the
        clock keeps tracing cheap on call-heavy layers.
        """
        stack = self._stack
        close = self._close
        calls = self.calls
        nested_ok = name not in INCLUSIVE

        def traced(*args, **kwargs):
            calls[name] += 1
            if nested_ok and stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            frame = [CLOCK(), 0.0, layer]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, layer, name)

        return traced

    def event(self, callback: Callable[[], None], label: str) -> Callable:
        """A simulator callback wrapped in an ``event:<prefix>`` span."""
        if getattr(callback, _EVENT_MARK, False):
            return callback
        prefix = label.split(":", 1)[0] if label else "<unlabelled>"
        traced = self.span(callback, EVENT_LAYERS.get(prefix, "unattributed"),
                           f"event:{prefix}")
        setattr(traced, _EVENT_MARK, True)
        return traced

    @contextlib.contextmanager
    def rep(self) -> Iterator[None]:
        """Root span of one traced rep; its duration adds to ``wall_s``."""
        if self._stack:
            raise RuntimeError("a traced rep must start with no open span")
        frame = [CLOCK(), 0.0, "unattributed"]
        self._stack.append(frame)
        self.calls["rep"] += 1
        try:
            yield
        finally:
            self.wall_s += self._close(frame, "unattributed", "rep")

    def problems(self) -> list[str]:
        """Breaches of the span discipline, closure included: every span
        closed in order with non-negative self time, and the layer self
        times add up to the traced wall time."""
        problems = list(self.violations)
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        total = sum(self.self_s.values())
        if abs(total - self.wall_s) > 1e-6 * max(1.0, self.wall_s):
            problems.append(f"layer self times sum to {total:.6f} s, the "
                            f"traced wall time is {self.wall_s:.6f} s")
        unknown = set(self.self_s) - set(LAYERS)
        if unknown:
            problems.append(f"self time in unknown layers {sorted(unknown)}")
        return problems


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    layer: str
    name: str


def _plain_methods(cls: type, public_only: bool = False,
                   skip: frozenset = frozenset()) -> Iterator[str]:
    for attr, value in vars(cls).items():
        if attr.startswith("__") or attr in skip:
            continue
        if public_only and attr.startswith("_"):
            continue
        if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
            yield attr


def _package_classes(package: str) -> Iterator[type]:
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def _function_owners(fn: Callable) -> Iterator[Any]:
    """Every loaded ``repro`` module holding ``fn`` under its own name
    (modules that imported it by name call it through their own global)."""
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and module is not None \
                and getattr(module, fn.__name__, None) is fn:
            yield module


def layer_targets() -> list[Target]:
    """Every method and function a traced run wraps, with its layer."""
    from repro.components.base import Component, ComponentRouter
    from repro.components.common_coin import CommonCoinManager
    from repro.components.erasure import decode_blocks, encode_blocks
    from repro.core.batcher import BaseTransport
    from repro.crypto.timing import CryptoSuite
    from repro.net.channel import WirelessChannel
    from repro.net.csma import CsmaMac
    from repro.net.node import NetworkNode
    from repro.protocols.acs import CommonSubset
    from repro.protocols.base import ConsensusProtocol
    from repro.testbed import harness, streaming
    from repro.testbed.dealer_cache import DealerCache
    from repro.testbed.ingress import ClassedArrivals, IngressGateway, PriorityMempool
    from repro.testbed.workload import OpenLoopArrivals, TransactionWorkload

    classes: list[tuple[type, str, bool, frozenset]] = [
        (CryptoSuite, "crypto", True, frozenset()),
        (ComponentRouter, "components", False, frozenset()),
        (CommonCoinManager, "components", False, frozenset()),
        (CommonSubset, "protocols", False, frozenset()),
        (WirelessChannel, "net.mac", False, frozenset()),
        (CsmaMac, "net.mac", False, frozenset()),
        (NetworkNode, "net.mac", False, frozenset()),
        (streaming.StreamingRun, "testbed.driver", False, PREDICATE_METHODS),
        (streaming.Mempool, "testbed.driver", False, frozenset()),
        (OpenLoopArrivals, "testbed.driver", False, frozenset()),
        (ClassedArrivals, "testbed.driver", False, frozenset()),
        (TransactionWorkload, "testbed.driver", False, frozenset()),
        (IngressGateway, "testbed.ingress", False, frozenset()),
        (PriorityMempool, "testbed.ingress", False, frozenset()),
    ]
    for package, base, layer in (("repro.components", Component, "components"),
                                 ("repro.protocols", ConsensusProtocol,
                                  "protocols"),
                                 ("repro.core", BaseTransport, "core")):
        for cls in _package_classes(package):
            if issubclass(cls, base):
                classes.append((cls, layer, False, frozenset()))
    targets = [Target(cls, attr, layer, f"{cls.__name__}.{attr}")
               for cls, layer, public_only, skip in classes
               for attr in _plain_methods(cls, public_only, skip)]
    targets.append(Target(DealerCache, "domain", "testbed.setup",
                          "DealerCache.domain"))
    functions = (
        (encode_blocks, "components.erasure"),
        (decode_blocks, "components.erasure"),
        (harness.build_deployment, "testbed.setup"),
        (harness.install_epoch_protocols, "testbed.driver"),
        (harness.propose_epoch, "testbed.driver"),
        (harness.run_multihop_consensus, "testbed.driver"),
        (streaming.run_streaming_consensus, "testbed.driver"),
    )
    for fn, layer in functions:
        for module in _function_owners(fn):
            targets.append(Target(module, fn.__name__, layer, fn.__name__))
    return targets


class Patches:
    """Attributes replaced on classes and modules, restorable in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def attributes(self) -> list[tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _ in self._saved]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Patches]:
    """Wrap every layer target plus the simulator for the duration."""
    from repro.net.sim import Simulator

    patches = Patches()
    try:
        for target in layer_targets():
            original = vars(target.owner)[target.attr]
            patches.replace(target.owner, target.attr,
                            tracer.span(original, target.layer, target.name))
        run_until = Simulator.run_until
        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        call_soon = Simulator.call_soon

        def traced_run_until(sim, predicate, timeout):
            return run_until(sim, tracer.span(predicate, "testbed.predicate",
                                              "predicate"), timeout)

        def traced_schedule(sim, delay, callback, label=""):
            return schedule(sim, delay, tracer.event(callback, label), label)

        def traced_schedule_at(sim, when, callback, label=""):
            return schedule_at(sim, when, tracer.event(callback, label), label)

        def traced_call_soon(sim, callback, label=""):
            return call_soon(sim, tracer.event(callback, label), label)

        for attr, fn in (("run_until", traced_run_until),
                         ("schedule", traced_schedule),
                         ("schedule_at", traced_schedule_at),
                         ("call_soon", traced_call_soon)):
            patches.replace(Simulator, attr,
                            tracer.span(fn, "net.sim", f"Simulator.{attr}"))
        yield patches
    finally:
        patches.restore()


@dataclass
class SetupClock:
    """When the current rep first entered ``Simulator.run_until``."""

    first_run_until: Optional[float] = None


@contextlib.contextmanager
def setup_timer() -> Iterator[SetupClock]:
    """The one patch of a timed run: stamp the first ``run_until`` call."""
    from repro.net.sim import Simulator

    clock = SetupClock()
    run_until = Simulator.run_until

    def timed_run_until(sim, predicate, timeout):
        if clock.first_run_until is None:
            clock.first_run_until = CLOCK()
        return run_until(sim, predicate, timeout)

    patches = Patches()
    patches.replace(Simulator, "run_until", timed_run_until)
    try:
        yield clock
    finally:
        patches.restore()
