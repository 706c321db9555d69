"""The client plane's fast paths keep the meaning of the code they replace.

* ``op_label`` answers a one-command request from the command itself;
* each per-op latency recorder is bound once and cached by the client (and
  by the swarm) — it must stay the registry's recorder, also across
  ``MetricRegistry.reset_all()``, and the swarm's must be sketched;
* the span tracer wraps ``on_message`` and ``_issue_next`` in each client
  class's own ``__dict__``, so both classes must keep defining them.
"""

import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import ClosedLoopClient, Command, OpenLoopClient, op_label
from repro.core.swarm import ClientSwarm, shared_factory
from repro.kvstore import MRPStoreService
from repro.kvstore.client import kv_request_factory
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload, ycsb_keyspace

RECORDS = 100


def _reference_label(commands):
    return "-".join(sorted({c.op for c in commands})) or "noop"


@pytest.mark.parametrize(
    "ops",
    [[], [""], ["read"], ["update"], ["scan", "scan", "scan"], ["read", "update"],
     ["update", "read", "update"], ["", "read"], ["", ""]],
)
def test_op_label_matches_the_set_join(ops):
    commands = [Command(op=op) for op in ops]
    assert op_label(commands) == _reference_label(commands)


def _service(seed=5):
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=seed, config=config)
    service = MRPStoreService(
        system, partition_groups=[0, 1], acceptors_per_partition=3,
        replicas_per_partition=2, config=config,
    )
    service.preload(ycsb_keyspace(RECORDS))
    return system, service


def _ycsb_f(service, seed):
    workload = YCSBWorkload(YCSB_WORKLOADS["F"], record_count=RECORDS, rng=random.Random(seed))
    return kv_request_factory(service.commands, workload)


def _per_op_counts(metrics, prefix):
    counts = {}
    for name in metrics.names():
        if name.startswith(f"{prefix}.latency."):
            counts[name[len(prefix) + len(".latency."):]] = metrics.latency(name).count
    return counts


def test_closed_loop_recorders_are_the_registrys_across_reset():
    system, service = _service()
    client = ClosedLoopClient(
        system.env, "c", frontends_by_group=service.frontend_map(),
        request_factory=_ycsb_f(service, 3), concurrency=4, metric_prefix="c",
    )
    metrics = system.env.metrics
    system.start()
    system.run(until=0.05)
    # YCSB F: plain reads and read-modify-writes (a read plus an update).
    assert set(client._op_latency) == {"read", "read-update"}
    for op, recorder in client._op_latency.items():
        assert metrics.latency(f"c.latency.{op}") is recorder

    before = client.completed
    metrics.reset_all()
    system.run(until=0.1)
    counts = _per_op_counts(metrics, "c")
    assert sum(counts.values()) == client.completed - before > 0
    assert counts == {op: r.count for op, r in client._op_latency.items()}


def test_swarm_recorders_are_sketched_and_the_registrys():
    system, service = _service(seed=6)
    swarm = ClientSwarm(
        system.env, "swarm", frontends_by_group=service.frontend_map(),
        request_factory=shared_factory(_ycsb_f(service, 4)), clients=8,
        mode="closed", metric_prefix="s", sketch=64,
    )
    metrics = system.env.metrics
    system.start()
    system.run(until=0.05)
    assert swarm._op_latency
    for op, recorder in swarm._op_latency.items():
        assert metrics.latency(f"s.latency.{op}") is recorder
        assert recorder.sketch_threshold == 64

    before = swarm.completed
    metrics.reset_all()
    system.run(until=0.1)
    assert sum(_per_op_counts(metrics, "s").values()) == swarm.completed - before > 0


@pytest.mark.parametrize("cls", [ClosedLoopClient, OpenLoopClient])
def test_clients_define_their_hook_points_themselves(cls):
    assert "on_message" in cls.__dict__
    assert "_issue_next" in cls.__dict__
