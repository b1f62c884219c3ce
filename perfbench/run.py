"""End-to-end and per-layer benchmark of the wireless BFT reproduction.

Run from the repository root (pure Python, nothing to build)::

    python3 perfbench/run.py --workload lora-hb-sc-n4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wifi-multihop-8x8 --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` is a *timed* run: reps of the workload (each on its own seed
derived from ``--seed``, each in a fresh interpreter started through
``rep.py``) run back to back until ``--seconds`` have passed, with no
wrapper on the program except one timestamp at the first
``Simulator.run_until`` that splits set-up from run time.  It prints every
end-to-end metric.  ``--trace 1`` runs the workload's trace reps untraced,
then the same reps with every layer wrapped in spans (see ``spans.py``), and
prints every per-layer metric plus the cost of tracing.

Every rep passes the correctness gate (decided, agreement, total order,
validity, liveness, ledger continuity on streams, ingress conservation on
the ingress workload); a failed verdict is printed by name and counted in
``failed``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Dealer-cache state for set-up time: before each rep its keys are dealt into
the disk tier under ``perfbench/.cache`` off the clock; the rep itself then
starts in a fresh process with an empty memory tier, so ``setup_s`` always
measures loading dealt keys from disk, never dealing them and never a
memory hit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from rep import DEALER_DIR, ROOT, SRC, use_checkout
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
REP_SCRIPT = os.path.join(HERE, "rep.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

RUN_SECONDS = 25
#: host times are scaled to a machine that runs rep.reference_s() in this
#: many seconds, measured around each rep (see end_to_end)
REFERENCE_S = 0.05
#: a run must end within 180 s; stop launching reps well before that
RUN_DEADLINE_S = 160.0

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("tx_per_ref_s", "tx/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_tps", "tx/s", "higher", 0.25),
    ("sim_epoch_latency_p50_s", "s", "lower", 0.25),
    ("sim_epoch_latency_tail_s", "s", "lower", 0.25),
)

#: self time and share of every layer bucket, then the layers' counts
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.share", "frac", "lower") for layer in LAYERS]
    + [
        ("crypto.calls", "count", "lower"),
        ("crypto.verify_calls", "count", "lower"),
        ("crypto.combine_calls", "count", "lower"),
        ("components.messages", "count", "lower"),
        ("components.erasure.calls", "count", "lower"),
        ("protocols.proposals", "count", "lower"),
        ("core.messages_sent", "count", "lower"),
        ("core.frames_received", "count", "lower"),
        ("core.messages_per_frame", "msg/frame", "higher"),
        ("net.channel.accesses_per_tx", "count/tx", "lower"),
        ("net.channel.bytes_per_tx", "B/tx", "lower"),
        ("net.channel.collision_frac", "frac", "lower"),
        ("net.sim.events", "count", "lower"),
        ("net.sim.events_per_wall_s", "1/s", "higher"),
        ("testbed.predicate.calls", "count", "lower"),
        ("testbed.predicate.calls_per_event", "count/event", "lower"),
        ("testbed.ingress.calls", "count", "lower"),
        ("testbed.setup.deal_s", "s", "lower"),
        ("testbed.setup.dealer_hits", "count", "higher"),
        ("testbed.setup.dealer_misses", "count", "lower"),
        ("sim_client_latency_p50_s", "s", "lower"),
        ("sim_client_latency_p90_s", "s", "lower"),
        ("sim_shed_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ])


def spec() -> dict:
    """The BENCHMARK.json this file implements."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); ``none``
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def provenance(seed: int) -> dict:
    from repro.crypto import backend
    from repro.expts.runner import code_fingerprint

    return {
        "seed": seed,
        "python": platform.python_version(),
        "crypto_backend": backend.backend_info(),
        "crypto_backend_env": os.environ.get("REPRO_CRYPTO_BACKEND", ""),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_fingerprint": code_fingerprint(),
    }


# ---------------------------------------------------------------------------
# reps
# ---------------------------------------------------------------------------

class Rep:
    """One rep: what ``rep.py`` reported, or why it failed."""

    def __init__(self, index: int, seed: int, trace: bool) -> None:
        self.index = index
        self.seed = seed
        self.trace = trace
        self.data: dict = {}
        self.error = ""

    @property
    def sample(self) -> dict:
        return self.data["sample"]

    @property
    def failed(self) -> list:
        if self.error:
            return ["exception"]
        failed = [name for name, ok, _ in self.sample["verdicts"] if not ok]
        if self.trace and self.data["trace"]["problems"]:
            failed.append("trace-closure")
        return failed

    def describe(self) -> str:
        kind = "traced" if self.trace else "timed"
        if self.error:
            return (f"{kind} rep {self.index} seed={self.seed} FAILED "
                    f"exception:\n{self.error}")
        sample = self.sample
        status = "ok" if not self.failed else "FAILED " + ",".join(self.failed)
        timing = (f"wall={self.data['wall_s']:.4f}s" if self.trace else
                  f"setup={self.data['setup_s']:.4f}s "
                  f"run={self.data['run_s']:.4f}s "
                  f"reference={self.data['reference_s']:.4f}s")
        return (f"{kind} rep {self.index} seed={self.seed} {status} {timing} "
                f"rss={self.data['rss_mb']:.1f}MB "
                f"committed={sample['committed']} "
                f"sim_events={sample['sim_events']} digest={sample['digest']}")


def launch(workload, index: int, seed: int, trace: bool,
           deadline: float) -> Rep:
    """Deal the rep's keys into the disk tier off the clock, then run the
    rep in a fresh interpreter (``rep.py``) and collect its report."""
    from repro.testbed.dealer_cache import DealerCache

    rep = Rep(index, seed, trace)
    try:
        workload.prepare(seed, DealerCache(directory=DEALER_DIR))
    except Exception:  # the rep boundary: report the failure, never hide it
        rep.error = "prepare failed:\n" + traceback.format_exc(limit=8)
        return rep
    command = [sys.executable, REP_SCRIPT, "--workload", workload.name,
               "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rep.error = "rep timed out (killed)"
        return rep
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rep.error = (f"rep exited with {proc.returncode}:\n"
                     f"{proc.stderr[-2000:]}")
        return rep
    rep.data = json.loads(lines[-1])
    rep.error = rep.data["error"]
    return rep


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, reps: list) -> tuple[dict, list]:
    """End-to-end metrics of a timed pass, plus how each was formed."""
    from workloads import latency_summary

    sim = reps[:workload.sim_reps]
    committed = sum(rep.sample["committed"] for rep in reps)
    run_s = sum(rep.data["run_s"] for rep in reps)
    latency = latency_summary(
        [latency for rep in sim for latency in rep.sample["latencies_s"]],
        [latency for rep in sim for latency in rep.sample["tail_samples_s"]])
    units = {name: unit for name, unit, _, _ in END_TO_END}
    # A shared host's speed drifts by 20% and more over minutes.  Each rep
    # times a fixed reference workload around itself; that ratio turns its
    # host seconds into reference-machine seconds.
    to_ref = [REFERENCE_S / rep.data["reference_s"] for rep in reps]
    values = {
        "tx_per_ref_s": statistics.median(
            rep.sample["committed"] / (rep.data["run_s"] * scale)
            for rep, scale in zip(reps, to_ref)),
        "setup_s": statistics.median(rep.data["setup_s"] * scale
                                     for rep, scale in zip(reps, to_ref)),
        "peak_rss_mb": statistics.median(rep.data["rss_mb"] for rep in reps),
        "sim_tps": sum(rep.sample["committed"] for rep in sim)
        / sum(rep.sample["sim_duration_s"] for rep in sim),
        "sim_epoch_latency_p50_s": latency["p50"],
        "sim_epoch_latency_tail_s": latency["tail"],
    }
    raw_rate = statistics.median(rep.sample["committed"] / rep.data["run_s"]
                                 for rep in reps)
    raw_setup = statistics.median(rep.data["setup_s"] for rep in reps)
    reference = statistics.median(rep.data["reference_s"] for rep in reps)
    notes = [
        f"tx_per_ref_s: median over {len(reps)} reps of committed tx per "
        f"second of run time (set-up excluded), in seconds of a machine that "
        f"runs the reference work in {REFERENCE_S} s; {committed} tx in "
        f"{run_s:.3f} s of host run time in all",
        f"setup_s: median over {len(reps)} reps of the entry-point call to "
        f"the first Simulator.run_until, in reference-machine seconds",
        f"host figures: tx_per_wall_s = {raw_rate:.6g} tx/s, setup_wall_s = "
        f"{raw_setup:.6g} s, reference work took {reference:.6g} s here "
        f"(median over reps)",
        f"peak_rss_mb: median over {len(reps)} reps of each rep process's "
        f"ru_maxrss",
        f"sim_*: the first {len(sim)} reps; latency samples are "
        f"{workload.latency_samples}: p50 over n={latency['count']}, tail = "
        f"p{latency['tail_pct']:.1f} over n={latency['tail_count']} (10 "
        f"samples beyond it)",
    ]
    return ({name: _metric(value, units[name])
             for name, value in values.items()}, notes)


def client_details(reps: list) -> tuple[dict, list]:
    """Ingress-only results: high-priority client latency and shed share."""
    if reps[0].sample["client"] is None:
        return ({"sim_client_latency_p50_s": 0.0,
                 "sim_client_latency_p90_s": 0.0, "sim_shed_frac": 0.0},
                ["sim_client_latency_*, sim_shed_frac: n/a, no ingress layer "
                 "in this workload (reported as 0)"])
    clients = [rep.sample["client"] for rep in reps]
    shed = sum(rep.sample["shed"][0] for rep in reps)
    offered = sum(rep.sample["shed"][1] for rep in reps)
    notes = [
        f"sim_client_latency_p50_s / _p90_s: high-priority class, median over "
        f"{len(reps)} reps of each rep's nearest-rank percentile; sample "
        f"counts (committed high-priority tx per rep): "
        f"{[client[2] for client in clients]}",
        f"sim_shed_frac: {shed} shed / {offered} offered",
        "arrivals are generated in virtual time, so generator lateness is "
        "0 s by construction",
    ]
    return ({"sim_client_latency_p50_s": statistics.median(
                client[0] for client in clients),
             "sim_client_latency_p90_s": statistics.median(
                 client[1] for client in clients),
             "sim_shed_frac": shed / offered}, notes)


def per_layer(untraced: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics of the traced reps and their untraced twins."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    for rep in traced:
        self_s.update(rep.data["trace"]["self_s"])
        calls.update(rep.data["trace"]["calls"])
        inclusive.update(rep.data["trace"]["inclusive_s"])
    wall = sum(rep.data["trace"]["wall_s"] for rep in traced)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.share"] = self_s[layer] / wall

    def count(keep) -> int:
        return sum(number for name, number in calls.items() if keep(name))

    samples = [rep.sample for rep in traced]
    committed = sum(sample["committed"] for sample in samples)
    accesses = sum(sample["channel_accesses"] for sample in samples)
    events = sum(rep.sample["sim_events"] for rep in untraced)
    sent = count(lambda name: name.endswith("Transport.send"))
    values.update({
        "crypto.calls": count(lambda name: name.startswith("CryptoSuite.")),
        "crypto.verify_calls": count(
            lambda name: name.startswith("CryptoSuite.") and "verify" in name),
        "crypto.combine_calls": count(
            lambda name: name.startswith("CryptoSuite.") and "combine" in name),
        "components.messages": calls["ComponentRouter.dispatch"],
        "components.erasure.calls": calls["encode_blocks"]
        + calls["decode_blocks"],
        "protocols.proposals": count(
            lambda name: name.endswith(".propose")
            and not name.startswith("CommonSubset.")),
        "core.messages_sent": sent,
        "core.frames_received": calls["BaseTransport.handle_frame"],
        "core.messages_per_frame": sent / accesses,
        "net.channel.accesses_per_tx": accesses / committed,
        "net.channel.bytes_per_tx": sum(sample["bytes_sent"]
                                        for sample in samples) / committed,
        "net.channel.collision_frac": sum(sample["collisions"]
                                          for sample in samples) / accesses,
        "net.sim.events": events,
        "net.sim.events_per_wall_s": events / sum(rep.data["run_s"]
                                                  for rep in untraced),
        "testbed.predicate.calls": calls["predicate"],
        "testbed.predicate.calls_per_event": calls["predicate"] / events,
        "testbed.ingress.calls": calls["IngressGateway.submit"]
        + calls["PriorityMempool.take"],
        "testbed.setup.deal_s": inclusive["DealerCache.domain"],
        "testbed.setup.dealer_hits": sum(rep.data["dealer_hits"]
                                         for rep in traced),
        "testbed.setup.dealer_misses": sum(rep.data["dealer_misses"]
                                           for rep in traced),
        "trace.overhead_frac": wall / sum(rep.data["wall_s"]
                                          for rep in untraced) - 1.0,
    })
    notes = [
        f"traced wall {wall:.4f} s over {len(traced)} reps; layer self times "
        f"+ unattributed = {sum(self_s.values()):.4f} s",
        "self_s / counts are totals over the traced reps; share = self_s / "
        "traced wall",
    ]
    return values, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def timed_pass(workload, seed: int, seconds: float, deadline: float) -> list:
    """Reps until ``seconds`` have passed (at least ``sim_reps``)."""
    from workloads import rep_seed

    reps: list = []
    start = time.monotonic()
    while len(reps) < workload.sim_reps or time.monotonic() - start < seconds:
        if time.monotonic() >= deadline:
            break
        index = len(reps)
        rep = launch(workload, index, rep_seed(workload.name, seed, index),
                     trace=False, deadline=deadline)
        reps.append(rep)
        print(rep.describe(), flush=True)
        if rep.failed:
            break
    return reps


def traced_pass(workload, seed: int, deadline: float) -> tuple[list, list]:
    """The trace reps, each run untraced and then traced."""
    from workloads import rep_seed

    untraced: list = []
    traced: list = []
    for index in range(workload.trace_reps):
        seed_value = rep_seed(workload.name, seed, index)
        for trace, reps in ((False, untraced), (True, traced)):
            rep = launch(workload, index, seed_value, trace=trace,
                         deadline=deadline)
            reps.append(rep)
            print(rep.describe(), flush=True)
    for before, after in zip(untraced, traced):
        if before.failed or after.failed:
            continue
        if (before.sample["digest"], before.sample["sim_events"]) != \
                (after.sample["digest"], after.sample["sim_events"]):
            after.sample["verdicts"].append(
                ["trace-identity", False,
                 "tracing changed the digest or sim_events"])
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    use_checkout()
    from workloads import WORKLOADS

    if args.write_spec:
        with open(SPEC_PATH, "w") as handle:
            json.dump(spec(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {SPEC_PATH}")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print("dealer cache: each rep's keys are dealt into the disk tier off "
          "the clock; each rep runs in a fresh process with an empty "
          "memory tier")
    if args.trace == 0:
        checked = timed_pass(workload, args.seed, args.seconds, deadline)
    else:
        untraced, traced = traced_pass(workload, args.seed, deadline)
        checked = untraced + traced
    failed = [rep for rep in checked if rep.failed]
    complete = len(checked) >= (workload.trace_reps * 2 if args.trace
                                else workload.sim_reps)
    metrics: dict = {}
    if not failed and complete:
        if args.trace == 0:
            metrics, notes = end_to_end(workload, checked)
            sim = checked[:workload.sim_reps]
            details, detail_notes = client_details(sim)
            print("sim_events " + json.dumps(
                [rep.sample["sim_events"] for rep in sim]))
            print("digests " + json.dumps([rep.sample["digest"]
                                           for rep in sim]))
        else:
            values, notes = per_layer(untraced, traced)
            details, detail_notes = client_details(traced)
            values.update(details)
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {name: _metric(values[name], units[name])
                       for name, _, _ in PER_LAYER}
        for note in notes + detail_notes:
            print("note " + note)
        if args.trace == 0:
            for name, value in details.items():
                print(f"detail {name} = {value:.6g}")
    for rep in checked:
        if rep.error:
            continue
        for name, ok, detail in rep.sample["verdicts"]:
            if not ok:
                print(f"rep {rep.index}: verdict {name} failed: {detail}")
        for problem in rep.data.get("trace", {}).get("problems", []):
            print(f"rep {rep.index}: trace problem: {problem}")
    if not complete:
        print(f"incomplete: {len(checked)} reps before the deadline")
    print(f"fail_rate {len(failed) / max(1, len(checked)):.4f} "
          f"({len(failed)}/{len(checked)} reps undecided, failed a verdict "
          f"or raised)")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed and complete,
                      "attempted": max(1, len(checked)),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
