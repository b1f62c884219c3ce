"""Tier-1 smoke tests for the example programs.

The examples are the repo's 5-minute tour (README quickstart); they are run
as real subprocesses so import errors, CLI regressions and harness API drift
cannot break them silently.  Each invocation uses small parameters to keep
the tier-1 budget.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_EXAMPLES = os.path.join(_ROOT, "examples")

CASES = [
    ("quickstart.py", ["--batch-size", "3", "--seed", "7"],
     "ConsensusBatcher reduces latency"),
    ("quickstart.py", ["--protocol", "beat", "--batch-size", "3"],
     "beat"),
    ("uav_task_allocation.py", ["--tasks-per-robot", "3"],
     "Agreed task allocation"),
    ("multihop_vehicle_swarm.py", ["--seed", "9"],
     "global"),
    ("batching_anatomy.py", [],
     "NACK"),
    ("scenario_replay.py", ["--epochs", "8"],
     "invariant scenario-recovery: ok"),
    ("scenario_replay.py", ["--list"],
     "variable-link"),
]


def _run_example(script: str, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, script), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=_ROOT)


@pytest.mark.parametrize("script,args,expected", CASES,
                         ids=[f"{case[0]}-{index}"
                              for index, case in enumerate(CASES)])
def test_example_runs_clean(script, args, expected):
    """The example exits 0 and prints its headline output."""
    proc = _run_example(script, args)
    assert proc.returncode == 0, (
        f"{script} {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}")
    assert expected.lower() in proc.stdout.lower(), (
        f"{script}: expected {expected!r} in output:\n{proc.stdout}")


def test_every_example_is_smoked():
    """A new example file must be added to CASES (or this list) explicitly."""
    smoked = {case[0] for case in CASES}
    on_disk = {name for name in os.listdir(_EXAMPLES) if name.endswith(".py")}
    assert on_disk == smoked, (
        f"examples without a smoke test: {sorted(on_disk - smoked)}; "
        f"smoked but missing on disk: {sorted(smoked - on_disk)}")
