"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring-batched --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics over a fixed number of
executions (about ``--seconds`` of wall time on the reference box), each
with its outputs checked; ``--trace 1`` runs each seed untraced and traced
and reports the per-layer metrics.  ``README.md`` describes both.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record with run metadata, the exact simulated outputs and, when
tracing, the span table.  The exit code is 0 when every check held, 1 when
a check failed, and 2 when the program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import shapes
    import spans
    from reference import NOMINAL_S, reference_seconds
    from repro.sim import summarize_latencies
except ImportError as exc:   # no program to benchmark: main() reports it
    shapes = spans = None
    MISSING = exc

Metrics = Dict[str, Tuple[float, str]]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Execution:
    """One build + execute of a workload: timings, outcome and tracer.

    The deployment itself is dropped once measured, so executions do not
    accumulate simulations in memory (which would grow the peak RSS and slow
    the garbage collector of every later execution).
    """

    def __init__(self, name: str, seed: int, traced: bool = False,
                 workers: Optional[int] = None, calibrate: bool = False) -> None:
        gc.collect()
        # Host speed around the execution: the reference loop before and
        # after it, about once per wall second of execution on each side.
        samples = max(1, round(shapes.WORKLOADS[name].wall_s)) if calibrate else 0
        references = [reference_seconds() for _ in range(samples)]
        workload = shapes.WORKLOADS[name](seed)
        if workers is not None:
            workload.workers = workers
        self.tracer = spans.Tracer() if traced else None
        if self.tracer is not None:
            # Installed before the build: constructors bind some methods.
            with self.tracer:
                self._measure(workload)
        else:
            self._measure(workload)
        references += [reference_seconds() for _ in range(samples)]
        self.reference_s = _median(references)
        #: the sharded engine's run accounting (geo-sharded only)
        self.parallel = getattr(workload, "run", None)
        self.error: Optional[str] = None
        self.outcome = None
        try:
            self.outcome = workload.outcome()
        except shapes.CheckFailed as exc:
            self.error = str(exc)

    def _measure(self, workload) -> None:
        started = time.perf_counter()
        workload.build(self.tracer)
        self.build_s = time.perf_counter() - started
        started = time.perf_counter()
        workload.execute()
        self.run_s = time.perf_counter() - started


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  Workers of the sharded engine are
    # waited-for children; the largest of them is added to the parent.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_import_s(samples: int = 3) -> Tuple[float, float]:
    """Median wall time to import the library and the benchmark modules.

    Timed in fresh interpreters: an import is paid once per process, so one
    in-process sample would be the whole measurement.  Each interpreter then
    times the reference loop too; returns the raw median and the median at
    the reference speed.
    """
    probe = (
        "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "t = time.perf_counter(); import shapes, spans; t = time.perf_counter() - t; "
        "from reference import reference_seconds; print(t, reference_seconds())"
    )
    raw, scaled = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", probe, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * NOMINAL_S / reference)
    return _median(raw), _median(scaled)


def _sub_seeds(seed: int, count: int) -> List[int]:
    """Seeds of the deployments one run builds, derived from ``--seed``."""
    return [seed * 1000 + i for i in range(count)]


def _same(a: Execution, b: Execution, errors: List[str]) -> None:
    """Record a divergence between two executions of one seed."""
    if a.outcome is not None and b.outcome is not None and a.outcome.exact() != b.outcome.exact():
        errors.append(
            "simulated outputs differ between executions of one seed: "
            f"{a.outcome.exact()} != {b.outcome.exact()}"
        )


def _outcomes(executions: List[Execution], errors: List[str]) -> List[Any]:
    errors.extend(e.error for e in executions if e.error is not None)
    return [e.outcome for e in executions if e.outcome is not None]


def measure_end_to_end(name: str, seed: int, seconds: float, import_s: Tuple[float, float]):
    """Build and execute ``round(seconds / wall_s)`` deployments.

    All but the last use distinct seeds derived from ``seed``; the simulated
    metrics average over them, which keeps a seed's luck (for example the
    batching regime the ring settles into) from deciding the run.  The last
    execution repeats the first seed and must reproduce it bit for bit.

    Wall-clock metrics are medians, expressed at the reference speed: each
    execution's rate and build time are scaled by the time the fixed loop of
    :mod:`reference` took around it, over its nominal time, and the import
    time by the loop timed in the same fresh interpreter.  ``import_s`` is
    the raw and the scaled import time.  The raw values are in the record.

    Sharded workloads are timed on the in-process engine (``workers=1``),
    which executes the same event schedule: on a shared 2-core box the wall
    time of a 2-worker run swings with the neighbours' load far beyond any
    bound.  One 2-worker execution of the first seed still runs, must match,
    and its workers count towards the peak RSS.
    """
    workload = shapes.WORKLOADS[name]
    workers = 1 if workload.sharded else None
    count = max(2, round(seconds / workload.wall_s))
    seeds = _sub_seeds(seed, count - 1)
    executions = [
        Execution(name, s, workers=workers, calibrate=True) for s in seeds + seeds[:1]
    ]
    checks = executions[-1:] + ([Execution(name, seeds[0])] if workload.sharded else [])
    errors: List[str] = []
    for check in checks:
        _same(executions[0], check, errors)
    outcomes = _outcomes(executions + checks[1:], errors)[:len(seeds)]
    metrics: Metrics = {}
    raw: Dict[str, float] = {}
    if not errors:
        rates = [e.outcome.completed / e.run_s for e in executions]
        builds = [e.build_s for e in executions]
        slowdowns = [e.reference_s / NOMINAL_S for e in executions]
        raw = {"ops_per_wall_s": _median(rates), "setup_s": import_s[0] + _median(builds)}
        metrics = {
            "sim_tput_ops": (_mean([o.sim_tput_ops for o in outcomes]), "ops/s"),
            "lat_p50_ms": (_mean([o.lat_p50_ms for o in outcomes]), "ms"),
            "lat_p99_ms": (_mean([o.lat_p99_ms for o in outcomes]), "ms"),
            "ops_per_wall_s": (_median([r * f for r, f in zip(rates, slowdowns)]), "1/s"),
            "setup_s": (
                import_s[1] + _median([b / f for b, f in zip(builds, slowdowns)]), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    record = {
        "seeds": seeds,
        "build_s": [e.build_s for e in executions],
        "run_s": [e.run_s for e in executions],
        "reference_s": [e.reference_s for e in executions],
        "import_s": import_s,
        "raw": raw,
    }
    if workload.sharded:
        record["parallel_run_s"] = checks[1].run_s
    return outcomes, metrics, errors, record


def measure_per_layer(name: str, seed: int, seconds: float):
    """Untraced and traced executions of the same seeds; per-layer metrics.

    On ``geo-sharded`` each seed runs three times: on the 2-worker engine
    (barrier numbers), and untraced and traced on the in-process engine,
    which executes the same event schedule (span self times).
    """
    sharded = shapes.WORKLOADS[name].sharded
    workers = 1 if sharded else None
    per_seed = 3.0 if sharded else 2.7     # a seed's executions, in units of wall_s
    count = max(1, round(seconds / (shapes.WORKLOADS[name].wall_s * per_seed)))
    parallel: List[Execution] = []
    plain: List[Execution] = []
    traced: List[Execution] = []
    errors: List[str] = []
    for sub in _sub_seeds(seed, count):
        if sharded:
            parallel.append(Execution(name, sub))
        plain.append(Execution(name, sub, workers=workers))
        traced.append(Execution(name, sub, traced=True, workers=workers))
        for other in parallel[-1:] + plain[-1:]:
            _same(other, traced[-1], errors)
    outcomes = _outcomes(parallel + plain + traced, errors)[-count:]
    if errors:
        return outcomes, {}, errors, {}
    tracers = [e.tracer for e in traced]
    counts = {k: sum(t.counts[k] for t in tracers) for k in tracers[0].counts}
    stages = {
        k: summarize_latencies([x for t in tracers for x in t.stages[k]])
        for k in tracers[0].stages
    }
    ops = sum(o.completed for o in outcomes)
    events = sum(o.events for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    def self_s(span: str) -> float:
        return _median([t.self_seconds(span) for t in tracers])

    def calls(span: str) -> int:
        return sum(t.calls(span) for t in tracers)

    def extra(key: str) -> float:
        return _mean([o.extra.get(key, 0.0) for o in outcomes])

    metrics: Metrics = {
        "sim.events_per_op": (events / ops, "events/op"),
        "sim.events_per_wall_s": (events / sum(e.run_s for e in plain), "events/s"),
        "sim.kernel_self_s": (self_s("sim.kernel"), "s"),
        "net.msgs_per_op": (counts["net.msgs"] / ops, "msgs/op"),
        "net.bytes_per_op": (counts["net.bytes"] / ops, "B/op"),
        "net.send_self_s": (self_s("net.send"), "s"),
        "paxos.phase2_per_op": (calls("paxos.phase2") / ops, "votes/op"),
        "paxos.phase2_self_s": (self_s("paxos.phase2"), "s"),
        "ringpaxos.values_per_instance": (
            counts["observed.values"] / max(counts["observed.instances"], 1), "values/inst"),
        "ringpaxos.skips_per_s": (
            counts["observed.skips"] / sum(o.sim_seconds for o in outcomes), "1/s"),
        "ringpaxos.coord_self_s": (self_s("ringpaxos.coord"), "s"),
        "ringpaxos.learner_self_s": (self_s("ringpaxos.learner"), "s"),
        "stage.order_p50_ms": (stages["order"]["p50_ms"], "ms"),
        "stage.order_p99_ms": (stages["order"]["p99_ms"], "ms"),
        "storage.wal_append_self_s": (self_s("storage.wal_append"), "s"),
        "storage.slot_put_self_s": (self_s("storage.slot_put"), "s"),
        "disk.writes_per_op": (counts["disk.writes"] / ops, "writes/op"),
        "disk.queue_ms": (counts["disk.queue_s"] / max(counts["disk.writes"], 1) * 1e3, "ms"),
        "disk.util": (_mean([
            max(t.disk_busy.values(), default=0.0) / o.sim_seconds
            for t, o in zip(tracers, outcomes)
        ]), "ratio"),
        "merge.offers_per_op": (counts["merge.offers"] / ops, "offers/op"),
        "merge.skip_frac": (counts["merge.skips"] / max(counts["merge.offers"], 1), "ratio"),
        "merge.offer_self_s": (self_s("merge.offer"), "s"),
        "stage.merge_p50_ms": (stages["merge"]["p50_ms"], "ms"),
        "stage.merge_p99_ms": (stages["merge"]["p99_ms"], "ms"),
        "smr.applies_per_op": (calls("smr.apply") / ops, "applies/op"),
        "smr.apply_self_s.read": (self_s("smr.apply.read"), "s"),
        "smr.apply_self_s.update": (self_s("smr.apply.update"), "s"),
        "smr.apply_self_s.append": (self_s("smr.apply.append"), "s"),
        "stage.reply_p50_ms": (stages["reply"]["p50_ms"], "ms"),
        "stage.reply_p99_ms": (stages["reply"]["p99_ms"], "ms"),
        "client.issued": (attempted, "count"),
        "client.completed": (ops, "count"),
        "client.failed": (failed, "count"),
        "fail_frac": (failed / attempted, "ratio"),
        "lat_samples": (sum(o.lat_samples for o in outcomes), "count"),
        "merge_fresh_p95_ms": (extra("merge_fresh_p95_ms"), "ms"),
        "unavail_ms": (extra("unavail_ms"), "ms"),
        "barrier.count": (0, "count"),
        "barrier.ipc_bytes_per_barrier": (0.0, "B"),
        "barrier.windows_skipped": (0, "count"),
        "barrier.merge_stage_s": (0.0, "s"),
        "barrier.overlap_frac": (0.0, "ratio"),
        "barrier.shard_wall_s": (0.0, "s"),
        "barrier.ingest_self_s": (self_s("barrier.ingest"), "s"),
        "merge.dup_dropped": (extra("merge_dup_dropped"), "count"),
        "trace.overhead_frac": (
            _median([t.run_s / p.run_s for t, p in zip(traced, plain)]) - 1.0, "ratio"),
    }
    if sharded:
        runs = [e.parallel for e in parallel]
        windows = sum(r.barrier_count for r in runs)
        metrics.update({
            "barrier.count": (windows / len(runs), "count"),
            "barrier.ipc_bytes_per_barrier": (sum(r.ipc_bytes for r in runs) / windows, "B"),
            "barrier.windows_skipped": (sum(r.worker_windows_skipped for r in runs), "count"),
            "barrier.merge_stage_s": (_median([r.merge_stage_s for r in runs]), "s"),
            "barrier.overlap_frac": (_median([r.merge_overlap_fraction for r in runs]), "ratio"),
            "barrier.shard_wall_s": (
                _median([r.wall_clock - r.merge_stage_s for r in runs]), "s"),
        })
    record = {
        "seeds": _sub_seeds(seed, count),
        "spans": tracers[0].summary(),
        "stage_samples": {k: v["count"] for k, v in stages.items()},
        "run_s": {"untraced": [e.run_s for e in plain], "traced": [e.run_s for e in traced],
                  "parallel": [e.run_s for e in parallel]},
    }
    return outcomes, metrics, errors, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if shapes is None:
        print(f"perfbench: cannot import the program under {SRC}: {MISSING}", file=sys.stderr)
        return 2
    if args.workload not in shapes.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(shapes.WORKLOADS)}")

    if args.trace:
        outcomes, metrics, errors, record = measure_per_layer(
            args.workload, args.seed, args.seconds)
    else:
        outcomes, metrics, errors, record = measure_end_to_end(
            args.workload, args.seed, args.seconds, measure_import_s())

    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        meta={
            "cores_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        exact=[o.exact() for o in outcomes],
        errors=errors,
    )
    print(json.dumps(record, sort_keys=True))
    correct = bool(metrics) and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        # Requests the system never answered.  Answers later than the latency
        # limit are failures from the client's view and count in fail_frac.
        "failed": sum(o.lost for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
