"""Checks of the benchmark itself: determinism, tracing fidelity, span coverage.

Run from the repository root (not part of the tier-1 suite; about a minute)::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the library on the path)
import shapes  # noqa: E402
import spans  # noqa: E402

SEED = 7

#: Span → workloads on which its layer does real work (must record calls).
HEAVY = {
    "sim.kernel": ["ring-batched", "kv-ycsb-a", "dlog-sync", "geo-sharded"],
    "net.send": ["ring-batched", "kv-ycsb-a"],
    "paxos.phase2": ["ring-batched"],
    "ringpaxos.coord": ["ring-batched"],
    "ringpaxos.learner": ["ring-batched", "geo-sharded"],
    "merge.offer": ["kv-ycsb-a", "geo-sharded"],
    "smr.apply": ["kv-ycsb-a", "dlog-sync"],
    "storage.wal_append": ["dlog-sync"],
    "storage.slot_put": ["dlog-sync"],
    "disk.write": ["dlog-sync"],
    "barrier.ingest": ["geo-sharded"],
}

#: Span → workloads that structurally bypass its layer (must record none).
BYPASSED = {
    "smr.apply": ["ring-batched"],
    "disk.write": ["ring-batched"],
    "barrier.ingest": ["ring-batched", "kv-ycsb-a", "dlog-sync"],
}


@pytest.fixture(scope="module")
def executions():
    """Per workload: untraced twice with one seed, once with another, traced once."""
    out = {}
    for name in shapes.WORKLOADS:
        out[name] = {
            "first": run.Execution(name, SEED),
            "again": run.Execution(name, SEED),
            "other": run.Execution(name, SEED + 1),
            # geo-sharded is traced on the in-process engine (workers=1) and
            # compared with the 2-worker run above.
            "traced": run.Execution(name, SEED, traced=True,
                                    workers=1 if name == "geo-sharded" else None),
        }
    return out


@pytest.mark.parametrize("name", sorted(shapes.WORKLOADS))
def test_outputs_checked_and_exact_metrics_repeat(executions, name):
    runs = executions[name]
    for execution in runs.values():
        assert execution.error is None, execution.error
    assert runs["first"].outcome.exact() == runs["again"].outcome.exact()
    assert runs["first"].outcome.attempted >= 1


@pytest.mark.parametrize("name", sorted(shapes.WORKLOADS))
def test_another_seed_changes_exact_metrics(executions, name):
    first, other = executions[name]["first"].outcome, executions[name]["other"].outcome
    assert first.exact() != other.exact()
    # Jitter draws change the simulated latencies on every workload.
    assert first.lat_p50_ms != other.lat_p50_ms


@pytest.mark.parametrize("name", sorted(shapes.WORKLOADS))
def test_tracing_adds_no_events(executions, name):
    untraced, traced = executions[name]["first"].outcome, executions[name]["traced"].outcome
    assert traced.exact() == untraced.exact()


@pytest.mark.parametrize("span", sorted(spans.SPANS))
def test_every_span_covers_its_heavy_workloads(executions, span):
    assert span in HEAVY, f"span {span} has no heavy workload declared"
    for name in HEAVY[span]:
        assert executions[name]["traced"].tracer.calls(span) > 0, (span, name)


@pytest.mark.parametrize("span", sorted(BYPASSED))
def test_bypassed_layers_record_nothing(executions, span):
    for name in BYPASSED[span]:
        assert executions[name]["traced"].tracer.calls(span) == 0, (span, name)


def test_stage_stamps_cover_the_service_path(executions):
    tracer = executions["kv-ycsb-a"]["traced"].tracer
    for stage in ("order", "merge", "reply"):
        assert tracer.stages[stage], stage


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-batched", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(shapes.WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _, end_to_end, errors, _ = run.measure_end_to_end("ring-batched", SEED, 0, (0.0, 0.0))
    _, per_layer, more_errors, _ = run.measure_per_layer("ring-batched", SEED, 0)
    assert not errors and not more_errors
    for printed, declared in ((end_to_end, spec["end_to_end"]), (per_layer, spec["per_layer"])):
        assert [(name, unit) for name, (_, unit) in printed.items()] == [
            (m["name"], m["unit"]) for m in declared
        ]
