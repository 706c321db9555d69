#!/usr/bin/env python
"""Kernel/network fast-path benchmark — events/second and Figure 3 wall clock.

Three measurements, recorded in ``BENCH_kernel.json`` at the repository root
so the performance trajectory is tracked across PRs:

* **micro** — raw kernel events/second on a self-rescheduling event storm
  with a cancelled-timer mix (the pattern protocol retransmission timers
  produce), run on both the fast-path :class:`repro.sim.kernel.Simulator`
  and the seed-snapshot :class:`repro.sim.legacy.LegacySimulator`;
* **macro_injected** — wall-clock time of one scaled-down Figure 3 point
  (in-memory storage, 2 KB values) through the current protocol stack, once
  as shipped and once with the seed kernel + seed network injected.  This
  isolates the substrate's contribution while holding the protocol layer
  fixed.  The kernel is injected through ``amcast``'s module global (the
  deployment facade constructs its simulator explicitly, so patching the
  actor module alone would silently leave the fast kernel in place — which
  is exactly what earlier revisions of this script did);
* **macro_seed_commit** — the same Figure 3 point run against the *actual
  seed commit* (the repository's root commit, extracted with ``git
  archive``), i.e. the end-to-end speedup of everything since the seed.
  Skipped (recorded as ``null``) when git or the root commit's tree is
  unavailable, e.g. in a shallow checkout;
* **batched** — the same Figure 3 point with the batching path off vs. on
  (coordinator value batching + kernel same-actor dispatch).  Batching packs ~16 values of 2 KB into each 32 KB consensus
  instance, so far fewer kernel events are spent per ordered command; the
  headline ``speedup`` is ordered commands per wall-clock second, and the
  events-per-command ratio is recorded alongside it.

Every macro run happens in a fresh subprocess so both sides pay identical
interpreter/import/warm-up costs.  Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernel.py

``--smoke`` shrinks the workload for CI smoke runs.  The acceptance bar for
the fast-path PR was a >= 2x macro speedup over the seed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Optional

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.sim.kernel import Simulator
from repro.sim.legacy import LegacySimulator

#: Events executed by the micro benchmark.
MICRO_EVENTS = 200_000

#: Every N-th micro event also arms-and-cancels a decoy timer.
MICRO_CANCEL_EVERY = 4

#: Scaled-down Figure 3 point used by the macro benchmarks.
MACRO_VALUE_SIZE = 2048
MACRO_WARMUP = 0.05
MACRO_DURATION = 0.25
MACRO_REPEATS = 5

_MACRO_SCRIPT = """
import time
INJECT = {inject!r}
if INJECT:
    import repro.sim.actor as actor_mod
    import repro.core.amcast as amcast
    from repro.sim.legacy import LegacySimulator, LegacyNetwork

    def _legacy_simulator(**kwargs):
        # The seed kernel predates batch_dispatch/profile: the injected side
        # runs without them, exactly like the seed did.
        return LegacySimulator()

    actor_mod.Simulator = LegacySimulator
    amcast.Simulator = _legacy_simulator
    amcast.Network = LegacyNetwork
from repro.bench.fig3_baseline import run_fig3_point
from repro.sim.disk import StorageMode
t0 = time.perf_counter()
result = run_fig3_point({value_size}, StorageMode.IN_MEMORY, warmup={warmup}, duration={duration})
elapsed = time.perf_counter() - t0
assert result.metrics["ops_per_s"] > 0
print(elapsed)
"""

_BATCHED_SCRIPT = """
import json, time
from repro.bench.fig3_baseline import run_fig3_point
from repro.sim.disk import StorageMode
t0 = time.perf_counter()
result = run_fig3_point(
    {value_size}, StorageMode.IN_MEMORY, warmup={warmup}, duration={duration},
    batching_enabled={batching},
)
elapsed = time.perf_counter() - t0
assert result.metrics["ops_per_s"] > 0
print(json.dumps({{
    "elapsed": elapsed,
    "events": result.metrics["events_processed"],
    "ops_per_s": result.metrics["ops_per_s"],
    "latency_mean_ms": result.metrics["latency_mean_ms"],
}}))
"""


def _micro_workload(sim) -> int:
    """Self-rescheduling event storm with a cancelled-timer mix.

    Each firing reschedules itself a little into the future (like a message
    hop) and every ``MICRO_CANCEL_EVERY``-th firing also arms a far-future
    timer and immediately cancels it (like a retransmission timer disarmed by
    the ack) — the pattern that makes lazy-cancellation compaction matter.
    """
    state = {"fired": 0}
    target = MICRO_EVENTS

    def fire() -> None:
        fired = state["fired"] = state["fired"] + 1
        if fired >= target:
            return
        sim.schedule(0.0001, fire)
        if fired % MICRO_CANCEL_EVERY == 0:
            sim.schedule(1000.0, fire).cancel()

    for _ in range(16):
        sim.schedule(0.0001, fire)
    sim.run(until=1e9)
    return state["fired"]


def bench_micro() -> Dict[str, float]:
    """Events/second of the fast-path kernel vs. the seed-snapshot kernel."""
    results: Dict[str, float] = {}
    for label, factory in (("fast", Simulator), ("legacy", LegacySimulator)):
        # Best-of-5: single-core runners wobble by ~10%; the minimum is the
        # only repeatable statistic for a ratio benchmark.
        best = float("inf")
        for _ in range(5):
            sim = factory()
            start = time.perf_counter()
            fired = _micro_workload(sim)
            elapsed = time.perf_counter() - start
            assert fired >= MICRO_EVENTS
            best = min(best, elapsed)
        results[f"{label}_wall_s"] = best
        results[f"{label}_events_per_s"] = MICRO_EVENTS / best
    results["events"] = MICRO_EVENTS
    results["speedup"] = results["fast_events_per_s"] / results["legacy_events_per_s"]
    return results


def _fig3_wall_s(pythonpath: str, inject: bool) -> float:
    """One scaled-down Figure 3 point in a fresh subprocess; returns seconds."""
    script = _MACRO_SCRIPT.format(
        inject="legacy" if inject else "",
        value_size=MACRO_VALUE_SIZE,
        warmup=MACRO_WARMUP,
        duration=MACRO_DURATION,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def bench_macro_injected() -> Dict[str, float]:
    """Fig 3 wall clock: current stack vs. seed kernel+network injected.

    Runs are interleaved fast/legacy so slow-machine drift hits both sides.
    """
    src = os.path.join(REPO_ROOT, "src")
    fast, legacy = [], []
    for _ in range(MACRO_REPEATS):
        fast.append(_fig3_wall_s(src, inject=False))
        legacy.append(_fig3_wall_s(src, inject=True))
    return {
        "value_size": MACRO_VALUE_SIZE,
        "storage": "memory",
        "warmup": MACRO_WARMUP,
        "duration": MACRO_DURATION,
        "fast_wall_s": min(fast),
        "legacy_wall_s": min(legacy),
        "speedup": min(legacy) / min(fast),
    }


def _fig3_batched_run(batching: bool) -> Dict[str, float]:
    """One scaled-down Figure 3 point with batching off/on; parsed metrics."""
    script = _BATCHED_SCRIPT.format(
        value_size=MACRO_VALUE_SIZE,
        warmup=MACRO_WARMUP,
        duration=MACRO_DURATION,
        batching=batching,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def bench_macro_batched() -> Dict[str, object]:
    """Fig 3 wall clock: unbatched fast path vs. the full batching path.

    Both sides run the current stack; the batched side enables coordinator
    value batching (which also turns on the kernel's same-actor dispatch).  Each ordered command then amortises its
    ring circulation across a whole batch, so the cost that matters —
    **ordered commands per wall-clock second** — is the headline ``speedup``.
    Runs are interleaved so slow-machine drift hits both sides.
    """
    unbatched, batched = [], []
    for _ in range(MACRO_REPEATS):
        unbatched.append(_fig3_batched_run(batching=False))
        batched.append(_fig3_batched_run(batching=True))

    def side(runs) -> Dict[str, float]:
        best = max(
            runs, key=lambda r: r["ops_per_s"] * MACRO_DURATION / r["elapsed"]
        )
        commands = best["ops_per_s"] * MACRO_DURATION
        return {
            "wall_s": best["elapsed"],
            "events": best["events"],
            "sim_ops_per_s": best["ops_per_s"],
            "latency_mean_ms": best["latency_mean_ms"],
            "commands": commands,
            "commands_per_wall_s": commands / best["elapsed"],
            "events_per_command": best["events"] / commands if commands else None,
        }

    off, on = side(unbatched), side(batched)
    return {
        "value_size": MACRO_VALUE_SIZE,
        "storage": "memory",
        "warmup": MACRO_WARMUP,
        "duration": MACRO_DURATION,
        "unbatched": off,
        "batched": on,
        "speedup": on["commands_per_wall_s"] / off["commands_per_wall_s"],
    }


def bench_profile(smoke: bool) -> Dict[str, object]:
    """Profile one Figure 3 point: kernel event counts + cProfile hot spots.

    Runs in-process (timing-sensitive benches above run in subprocesses and
    are unaffected).  Two instruments on one run: a
    :class:`repro.sim.profile.SimProfile` installed on the kernel attributes
    events and wall time to each callback, and the cProfile wrapper ranks
    functions by exclusive time.
    """
    from repro.bench.fig3_baseline import run_fig3_point
    from repro.sim.disk import StorageMode
    from repro.sim.profile import SimProfile, profile_function

    warmup = 0.01 if smoke else MACRO_WARMUP
    duration = 0.05 if smoke else MACRO_DURATION
    sim_profile = SimProfile()
    result, hot = profile_function(
        run_fig3_point,
        MACRO_VALUE_SIZE,
        StorageMode.IN_MEMORY,
        warmup=warmup,
        duration=duration,
        profile=sim_profile,
        top=20,
    )
    assert result.metrics["ops_per_s"] > 0
    return {
        "value_size": MACRO_VALUE_SIZE,
        "storage": "memory",
        "warmup": warmup,
        "duration": duration,
        "sim": sim_profile.as_dict(top=15),
        "hot_functions": hot,
    }


def _seed_commit_src() -> Optional[str]:
    """Extract the root commit's ``src`` tree; returns its path or ``None``."""
    try:
        root = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            capture_output=True, text=True, cwd=REPO_ROOT, check=True,
        ).stdout.split()[0]
        tmpdir = tempfile.mkdtemp(prefix="seed-src-")
        archive = subprocess.run(
            ["git", "archive", root, "src"],
            capture_output=True, cwd=REPO_ROOT, check=True,
        ).stdout
        subprocess.run(["tar", "-x"], input=archive, cwd=tmpdir, check=True)
        return os.path.join(tmpdir, "src")
    except (OSError, subprocess.CalledProcessError, IndexError):
        return None


def bench_macro_seed_commit() -> Optional[Dict[str, float]]:
    """Fig 3 wall clock: current tree vs. the actual seed (root) commit."""
    seed_src = _seed_commit_src()
    if seed_src is None:
        return None
    src = os.path.join(REPO_ROOT, "src")
    try:
        fast, seed = [], []
        for _ in range(MACRO_REPEATS):
            fast.append(_fig3_wall_s(src, inject=False))
            seed.append(_fig3_wall_s(seed_src, inject=False))
        return {
            "value_size": MACRO_VALUE_SIZE,
            "storage": "memory",
            "warmup": MACRO_WARMUP,
            "duration": MACRO_DURATION,
            "fast_wall_s": min(fast),
            "seed_wall_s": min(seed),
            "speedup": min(seed) / min(fast),
        }
    finally:
        shutil.rmtree(os.path.dirname(seed_src), ignore_errors=True)


def main() -> int:
    smoke = "--smoke" in sys.argv
    with_profile = "--profile" in sys.argv
    global MICRO_EVENTS, MACRO_REPEATS
    if smoke:
        MICRO_EVENTS = 20_000
        MACRO_REPEATS = 1

    micro = bench_micro()
    print(
        f"micro: fast {micro['fast_events_per_s']:,.0f} ev/s, "
        f"legacy {micro['legacy_events_per_s']:,.0f} ev/s, "
        f"speedup {micro['speedup']:.2f}x"
    )
    injected = bench_macro_injected()
    print(
        f"macro fig3 vs injected seed kernel+network: fast {injected['fast_wall_s']:.2f}s, "
        f"legacy {injected['legacy_wall_s']:.2f}s, speedup {injected['speedup']:.2f}x"
    )
    seed_commit = bench_macro_seed_commit()
    if seed_commit is None:
        print("macro fig3 vs seed commit: skipped (git history unavailable)")
    else:
        print(
            f"macro fig3 vs seed commit: fast {seed_commit['fast_wall_s']:.2f}s, "
            f"seed {seed_commit['seed_wall_s']:.2f}s, speedup {seed_commit['speedup']:.2f}x"
        )
    batched = bench_macro_batched()
    print(
        f"macro fig3 batching off vs on: "
        f"{batched['unbatched']['commands_per_wall_s']:,.0f} vs "
        f"{batched['batched']['commands_per_wall_s']:,.0f} commands/wall-s, "
        f"speedup {batched['speedup']:.2f}x "
        f"(events/command {batched['unbatched']['events_per_command']:.1f} -> "
        f"{batched['batched']['events_per_command']:.1f})"
    )

    profile = None
    if with_profile:
        profile = bench_profile(smoke)
        top = profile["sim"]["events_by_callback"][:3]
        print(
            "profile: "
            + ", ".join(
                f"{row['callback']} x{row['events']} ({row['wall_s']:.3f}s)" for row in top
            )
        )

    payload = {
        "benchmark": "bench_kernel",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": smoke,
        "micro": micro,
        "macro_fig3_injected": injected,
        "macro_fig3_seed_commit": seed_commit,
        "batched": batched,
        "profile": profile,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_kernel.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
