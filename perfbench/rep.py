"""One rep of a workload, in its own interpreter.

``run.py`` starts this file once per rep, so every rep begins from the same
state: a fresh process (cold imports aside, which happen before the clock
starts), a fresh dealer-cache memory tier, and a disk tier that ``run.py``
already filled with the rep's keys.  The lazily built per-key crypto tables
are therefore built inside every rep, as in any fresh experiment run.

    python3 perfbench/rep.py --workload NAME --seed REP_SEED --trace 0|1

prints one JSON object on its last line: timings, the machine's speed
around the rep (:func:`reference_s`), peak RSS, dealer-cache hits and
misses, the rep's :class:`workloads.RepSample`, and with ``--trace 1`` the
tracer's per-layer self times and span counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
DEALER_DIR = os.path.join(CACHE, "dealer")

CLOCK = time.perf_counter


def use_checkout() -> None:
    """Import the program from the checkout's ``src/`` and keep what it
    writes inside the checkout: the native-backend probe compiles into the
    temp directory, so point that at the cache."""
    import tempfile

    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def reference_s() -> float:
    """Seconds this machine takes, right now, for a fixed piece of
    pure-Python work shaped like the program's hot paths: big-integer
    modular exponentiation, hashing, dict updates and heap operations.

    It calibrates host times against the machine's current speed, which
    drifts by 20% and more over minutes on a shared host.  It must never
    change: every calibrated figure is relative to it.
    """
    start = CLOCK()
    modulus = (1 << 1024) - 105
    value = 0x1234567
    for i in range(30):
        value = pow(value + i, (1 << 160) + i, modulus)
    table: dict = {}
    for i in range(50000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    heap: list = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    digest = b""
    for _ in range(10000):
        digest = hashlib.sha256(digest).digest()
    return CLOCK() - start


def calibrate() -> float:
    """The faster of two :func:`reference_s` runs."""
    return min(reference_s(), reference_s())


def run_rep(workload, seed: int, trace: bool) -> dict:
    """Run one rep in this process and describe it as a JSON-able dict."""
    import spans
    from repro.testbed import dealer_cache
    from repro.testbed.invariants import RunObserver

    cache = dealer_cache.DealerCache(directory=DEALER_DIR)
    previous = dealer_cache.DEFAULT_DEALER_CACHE
    dealer_cache.DEFAULT_DEALER_CACHE = cache
    observer = RunObserver()
    tracer = spans.Tracer() if trace else None
    out: dict = {"seed": seed, "error": ""}
    before = calibrate()
    gc.collect()
    try:
        if tracer is not None:
            with spans.traced(tracer), tracer.rep():
                start = CLOCK()
                result = workload.run(seed, observer)
                end = CLOCK()
            first_run_until = None
        else:
            with spans.setup_timer() as clock:
                start = CLOCK()
                result = workload.run(seed, observer)
                end = CLOCK()
            first_run_until = clock.first_run_until
        sample = workload.sample(result, observer)
    except Exception:  # the rep boundary: report the failure, never hide it
        out["error"] = traceback.format_exc(limit=8)
        return out
    finally:
        dealer_cache.DEFAULT_DEALER_CACHE = previous
    out["reference_s"] = (before + calibrate()) / 2.0
    out["wall_s"] = end - start
    if first_run_until is not None:
        out["setup_s"] = first_run_until - start
        out["run_s"] = end - first_run_until
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["dealer_hits"] = cache.hits
    out["dealer_misses"] = cache.misses
    out["sample"] = dataclasses.asdict(sample)
    if tracer is not None:
        out["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "inclusive_s": dict(tracer.inclusive_s),
            "wall_s": tracer.wall_s,
            "problems": tracer.problems(),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout()
    from workloads import WORKLOADS

    print(json.dumps(run_rep(WORKLOADS[args.workload], args.seed,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
