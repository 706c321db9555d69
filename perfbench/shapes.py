"""The four benchmark workloads, built through the library's public API.

Each workload is a :class:`Workload` subclass whose :meth:`Workload.build`
constructs one deployment (the timed set-up), :meth:`Workload.execute` runs
it through warm-up, measurement and drain (the timed run), and
:meth:`Workload.outcome` checks the outputs and returns the simulated
results.  Every simulated number is a function of the seed alone, so two
builds with one seed produce identical outcomes; the harness checks that.

Shapes mirror the paper's figures (see ``README.md`` for why each was
chosen):

* ``ring-batched`` — Figure 3: one ring of three self-proposing members;
* ``kv-ycsb-a`` — Figure 4 "mrp-store": three partitions plus a global ring,
  YCSB workload A;
* ``dlog-sync`` — Figure 5: dLog on synchronous HDD storage;
* ``geo-sharded`` — Figure 7 in its original shared-learner shape on the
  sharded engine, with one crash/restart of ``kv0-replica0``.

A request *fails* when it is not answered by the end of the drain, or when
its answer came later than :data:`LATENCY_LIMIT_S`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import (
    AtomicMulticast,
    ClosedLoopClient,
    MultiRingConfig,
    OpenLoopClient,
    ProposerFrontend,
    ReactiveReplicaHost,
    global_config,
)
from repro.bench import MeasurementWindow, ShardedMeasurement
from repro.dlog.client import DLogCommands, append_request_factory
from repro.dlog.service import DLogService
from repro.kvstore.client import MRPStoreCommands
from repro.kvstore.partitioning import HashPartitioner
from repro.kvstore.replica import MRPStoreReplica
from repro.kvstore.service import MRPStoreService
from repro.multiring import MultiRingProcess, RingSegmentBuffer, replay_streams
from repro.multiring.merge import RingSegment, effective_streams
from repro.net.ring import RingMember
from repro.sim import EC2_REGIONS, Environment, ShardSpec, StorageMode, run_sharded
from repro.sim import ec2_global, single_datacenter, summarize_latencies
from repro.workloads.kv import preload_keys, update_only_workload
from repro.workloads.log import round_robin_logs
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload, ycsb_keyspace

__all__ = ["LATENCY_LIMIT_S", "WORKLOADS", "CheckFailed", "Outcome", "Workload"]

#: Client latency limit (simulated seconds).  One limit for every workload:
#: well above anything a healthy deployment of any shape answers in (the
#: widest WAN round trip is ~150 ms), so only requests caught by an outage
#: or a backlog miss it.
LATENCY_LIMIT_S = 0.5


class CheckFailed(AssertionError):
    """An output check of a workload did not hold."""


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """The simulated results of one execution.  Fixed by the seed."""

    #: completed requests per simulated second inside the measurement window
    sim_tput_ops: float
    #: latency percentiles (simulated ms) over the window's completions
    lat_p50_ms: float
    lat_p99_ms: float
    lat_samples: int
    #: whole-run request accounting (warm-up, window and drain)
    attempted: int
    completed: int
    #: not answered by the end of the drain
    lost: int
    #: answered, but later than the latency limit
    late: int
    #: events executed by every simulator of the run
    events: int
    #: simulated seconds from start to the end of the drain
    sim_seconds: float
    #: digests of the checked outputs (replica states, delivery orders)
    digests: Dict[str, str] = field(default_factory=dict)
    #: workload-specific simulated extras (geo: freshness, stall)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.lost + self.late

    def exact(self) -> Dict[str, Any]:
        """Everything that must repeat bit for bit under one seed."""
        return asdict(self)


def _window_stats(samples: Sequence[float], n0: int, n1: int, duration: float):
    """Throughput, p50, p99 (ms) and count of the samples ``n0:n1``."""
    summary = summarize_latencies(samples[n0:n1])
    count = summary["count"]
    return count / duration, summary["p50_ms"], summary["p99_ms"], count


class Workload:
    """One benchmark workload: build, execute, check."""

    name = ""
    #: simulated seconds of warm-up, measurement window and drain
    warmup = 0.0
    duration = 0.0
    drain = 0.0
    #: wall seconds one execution (with its checks) takes on a 2-core x86
    #: box with Python 3.11; a run of ``--seconds S`` makes
    #: ``round(S / wall_s)`` executions, so the work per run is fixed and the
    #: same on every commit
    wall_s = 1.0
    #: runs on the sharded engine (``workers`` selects its worker count)
    sharded = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @property
    def end(self) -> float:
        return self.warmup + self.duration

    def build(self, tracer: Any = None) -> None:
        raise NotImplementedError

    def execute(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Single-simulator workloads
# ---------------------------------------------------------------------------

class _StoppableClient(ClosedLoopClient):
    """A closed-loop client that can stop issuing (the drain needs it)."""

    stopped = False

    def _issue_next(self) -> None:
        if not self.stopped:
            super()._issue_next()


class _SingleSystem(Workload):
    """A workload on one :class:`AtomicMulticast` driven by closed loops.

    ``clients`` expose ``issued``, ``completed``, ``outstanding`` and a
    ``stopped`` flag.  Latency samples come in completion order, so the
    window is cut by sample count rather than by resetting the metric
    registry, and completions before the window still count towards the
    failure accounting.
    """

    system: AtomicMulticast
    clients: List[Any]
    #: latency recorder the clients write to (ring-batched keeps its own list)
    latency_metric = ""

    def _latency_samples(self) -> List[float]:
        return self.system.env.metrics.latency(self.latency_metric).samples

    def _digests(self) -> Dict[str, str]:
        raise NotImplementedError

    def execute(self) -> None:
        system = self.system
        system.start()
        system.run(until=self.warmup)
        self._n0 = len(self._latency_samples())
        system.run(until=self.end)
        self._n1 = len(self._latency_samples())
        for client in self.clients:
            client.stopped = True
        system.run(until=self.end + self.drain)

    def outcome(self) -> Outcome:
        samples = self._latency_samples()
        tput, p50, p99, count = _window_stats(samples, self._n0, self._n1, self.duration)
        return Outcome(
            sim_tput_ops=tput,
            lat_p50_ms=p50,
            lat_p99_ms=p99,
            lat_samples=count,
            attempted=sum(c.issued for c in self.clients),
            completed=sum(c.completed for c in self.clients),
            lost=sum(c.outstanding for c in self.clients),
            late=sum(1 for s in samples if s > LATENCY_LIMIT_S),
            events=self.system.env.simulator.processed_events,
            sim_seconds=self.system.env.now,
            digests=self._digests(),
        )


class _SelfProposer(MultiRingProcess):
    """A ring member keeping ``threads`` own values outstanding (Figure 3).

    Mirrors the figure's proposer threads: a new value is proposed as soon as
    one of this process's values is delivered back to it.  Every delivery is
    logged so the learners' delivery orders can be compared.
    """

    def __init__(
        self, env, name: str, value_size: int, threads: int, latencies: List[float]
    ) -> None:
        super().__init__(env, name)
        self._value_size = value_size
        self._threads = threads
        self._outstanding: Dict[int, float] = {}
        self.stopped = False
        self.issued = 0
        self.completed = 0
        #: shared by every member, so it holds all completions in order
        self.latencies = latencies
        self.delivered: List[Tuple[int, str, int]] = []

    def on_start(self) -> None:
        super().on_start()
        for _ in range(self._threads):
            self._propose_next()

    def _propose_next(self) -> None:
        if self.stopped or not self.alive:
            return
        value = self.multicast(0, payload=("dummy", self.name), size_bytes=self._value_size)
        self._outstanding[value.proposal_id] = value.created_at
        self.issued += 1

    def on_deliver(self, group_id: int, instance: int, value) -> None:
        self.delivered.append((instance, value.proposer, value.proposal_id))
        if value.proposer == self.name:
            created = self._outstanding.pop(value.proposal_id, None)
            if created is not None:
                self.completed += 1
                self.latencies.append(self.now - created)
                self._propose_next()

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)


class RingBatched(_SingleSystem):
    """Figure 3 with coordinator batching: one ring, 3 × 10 outstanding 2 KB
    values, in-memory acceptors.  Only the ordering path and the kernel work."""

    name = "ring-batched"
    warmup, duration, drain = 0.05, 0.15, 0.02
    wall_s = 0.45
    value_size = 2048
    threads = 10

    def build(self, tracer: Any = None) -> None:
        config = MultiRingConfig(
            storage_mode=StorageMode.IN_MEMORY,
            batching_enabled=True,
            kernel_batch_dispatch=True,
            rate_interval=None,      # one ring: no merge partner to level against
            checkpoint_interval=None,
            trim_interval=None,
            network_stats=False,
        )
        self.system = AtomicMulticast(topology=single_datacenter(), config=config, seed=self.seed)
        self.latencies: List[float] = []
        self.clients = [
            _SelfProposer(self.system.env, f"p{i}", self.value_size, self.threads,
                          self.latencies)
            for i in range(3)
        ]
        self.system.create_ring(0, [(p.name, "pal") for p in self.clients])
        if tracer is not None:
            tracer.observe(self.clients[0])

    def _latency_samples(self) -> List[float]:
        return self.latencies

    def _digests(self) -> Dict[str, str]:
        orders = {m.name: _digest(m.delivered) for m in self.clients}
        if len(set(orders.values())) != 1:
            raise CheckFailed(f"ring-batched: learners delivered different orders {orders}")
        return {"delivery_order": orders["p0"]}


class KvYcsbA(_SingleSystem):
    """Figure 4 "mrp-store": 3 partitions × 3 replicas plus a global ring,
    YCSB A (50 % read, 50 % update, Zipfian) over 5,000 records, 100
    closed-loop clients, asynchronous SSD, one datacenter."""

    name = "kv-ycsb-a"
    warmup, duration, drain = 0.1, 0.3, 0.05
    wall_s = 1.3
    partitions = (0, 1, 2)
    record_count = 5000
    concurrency = 100
    latency_metric = "ycsb.latency"

    def build(self, tracer: Any = None) -> None:
        config = MultiRingConfig(
            storage_mode=StorageMode.ASYNC_SSD,
            batching_enabled=True,
            rate_interval=0.005,
            max_rate=3000.0,
            checkpoint_interval=None,
            trim_interval=None,
        )
        self.system = AtomicMulticast(topology=single_datacenter(), config=config, seed=self.seed)
        self.service = MRPStoreService(
            self.system,
            partition_groups=list(self.partitions),
            acceptors_per_partition=3,
            replicas_per_partition=3,
            global_ring_id=9,
            config=config,
        )
        self.service.preload(ycsb_keyspace(self.record_count))
        workload = YCSBWorkload(
            YCSB_WORKLOADS["A"], record_count=self.record_count, rng=random.Random(self.seed)
        )
        commands = MRPStoreCommands(HashPartitioner(list(self.partitions)))

        def factory(sequence: int):
            op, key, size, _ = workload(sequence)
            if op == "read":
                command = commands.read(key)
            elif op == "update":
                # The value names the request, so the replicas' final stores
                # show which update each key applied last.
                command = commands.update(key, size, value=sequence)
            else:
                raise ValueError(f"YCSB A issued {op!r}")
            return [command], [command.group_id]

        self.clients = [_StoppableClient(
            self.system.env,
            "ycsb-client",
            frontends_by_group=self.service.frontend_map(),
            request_factory=factory,
            concurrency=self.concurrency,
            metric_prefix="ycsb",
        )]
        if tracer is not None:
            tracer.observe(self.system.env.actor("kv0-replica0"))

    def _digests(self) -> Dict[str, str]:
        digests = {}
        for group in self.partitions:
            states = {
                replica.name: _digest(sorted(
                    (key, entry.value, entry.size_bytes)
                    for key, entry in replica.store.snapshot().items()
                ))
                for replica in self.service.replicas[group]
            }
            if len(set(states.values())) != 1:
                raise CheckFailed(f"kv-ycsb-a: partition {group} replicas diverged {states}")
            digests[f"partition{group}"] = next(iter(states.values()))
        return digests


class DlogSync(_SingleSystem):
    """Figure 5: dLog with two logs × three acceptors, two replicas subscribed
    to both rings, synchronous HDD, 1 KB appends, 50 closed-loop clients."""

    name = "dlog-sync"
    warmup, duration, drain = 0.2, 1.5, 0.2
    wall_s = 1.0
    logs = (0, 1)
    concurrency = 50
    latency_metric = "dlog.latency"

    def build(self, tracer: Any = None) -> None:
        config = MultiRingConfig(
            storage_mode=StorageMode.SYNC_HDD,
            batching_enabled=True,
            batch_max_bytes=32 * 1024,
            rate_interval=0.005,
            max_rate=2000.0,
            checkpoint_interval=None,
            trim_interval=None,
        )
        self.system = AtomicMulticast(topology=single_datacenter(), config=config, seed=self.seed)
        self.service = DLogService(
            self.system,
            log_ids=list(self.logs),
            acceptors_per_log=3,
            replica_count=2,
            dedicated_disks=True,
            config=config,
        )
        factory = append_request_factory(
            DLogCommands(), log_chooser=round_robin_logs(self.logs), append_bytes=1024
        )
        self.clients = [_StoppableClient(
            self.system.env,
            "log-client",
            frontends_by_group=self.service.frontend_map(),
            request_factory=factory,
            concurrency=self.concurrency,
            metric_prefix="dlog",
        )]
        if tracer is not None:
            tracer.observe(self.system.env.actor("dlog-replica0"))

    def _digests(self) -> Dict[str, str]:
        states = {
            replica.name: _digest(sorted(
                (log_id, log.next_position, log.total_appended_bytes, log.trimmed_up_to)
                for log_id, log in replica.logs.items()
            ))
            for replica in self.service.replicas
        }
        if len(set(states.values())) != 1:
            raise CheckFailed(f"dlog-sync: replica logs diverged {states}")
        return {"logs": next(iter(states.values()))}


# ---------------------------------------------------------------------------
# geo-sharded: Figure 7's original shape on the sharded engine
# ---------------------------------------------------------------------------

GEO_GLOBAL_RING = 50
GEO_KEYS = 2000
GEO_RATE = 400.0
GEO_SEGMENT_INTERVAL = 0.25
#: (at, process, down_for): one crash/restart of us-west-2's replica mid-run
GEO_CRASH = (4.0, "kv0-replica0", 1.0)


def _geo_config() -> MultiRingConfig:
    return global_config(storage_mode=StorageMode.ASYNC_SSD).with_(
        batching_enabled=True,
        batch_max_bytes=32 * 1024,
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.1,   # the crash drops circulating decisions
    )


class _GeoShard(ShardedMeasurement):
    """One shard of ``geo-sharded``, measured by sample counts.

    The window is cut like :class:`_SingleSystem` does (no registry reset),
    and :meth:`finalize` ships the region client's accounting home.
    """

    def __init__(self, system, window, client=None, metric: str = "") -> None:
        super().__init__(system, window)
        self._client = client
        self._metric = metric
        #: latency sample count at the warm-up and window boundaries
        self._marks: Dict[float, int] = {}

    def run_window(self, end: Optional[float]) -> None:
        sim = self.env.simulator
        for boundary in (self.window.warmup, self.window.end):
            if boundary not in self._marks and boundary <= end:
                sim.run_window(boundary)
                self._marks[boundary] = (
                    self.env.metrics.latency(self._metric).count if self._client else 0
                )
        sim.run_window(end)

    def finalize(self) -> Dict[str, Any]:
        result = {"events": self.env.simulator.processed_events}
        if self._client is not None:
            samples = self.env.metrics.latency(self._metric).samples
            n0, n1 = self._marks[self.window.warmup], self._marks[self.window.end]
            tput, p50, p99, count = _window_stats(samples, n0, n1, self.window.duration)
            result.update(
                sim_tput_ops=tput,
                lat_p50_ms=p50,
                lat_p99_ms=p99,
                lat_samples=count,
                attempted=self._client.issued,
                completed=self._client.completed,
                late=sum(1 for s in samples if s > LATENCY_LIMIT_S),
                sim_seconds=self.env.now,
            )
        return result


def _schedule_crash(system: AtomicMulticast) -> None:
    at, name, down_for = GEO_CRASH
    if system.env.has_actor(name):
        system.env.simulator.call_later(at, system.crash_process, name)
        system.env.simulator.call_later(at + down_for, system.restart_process, name)


def build_geo_region(payload: Dict[str, Any]) -> ShardedMeasurement:
    """Shard of one region: its partition ring, replica and open-loop client."""
    region, group, seed = payload["region"], payload["group"], payload["seed"]
    config = _geo_config()
    system = AtomicMulticast(topology=ec2_global([region]), config=config, seed=seed)
    service = MRPStoreService(
        system,
        partition_groups=[group],
        acceptors_per_partition=3,
        replicas_per_partition=1,
        site_for_partition={group: region},
        config=config,
    )
    service.preload(preload_keys(GEO_KEYS))
    workload = update_only_workload(
        random.Random(seed + group), key_count=GEO_KEYS, value_bytes=1024,
        key_prefix=f"r{group}-key",
    )
    commands = MRPStoreCommands(HashPartitioner([group]))

    def factory(sequence: int):
        _, key, size, _ = workload(sequence)
        command = commands.update(key, size, value=sequence)
        return [command], [group]

    metric = f"geo.{region}"
    end = payload["warmup"] + payload["duration"]
    client = OpenLoopClient(
        system.env,
        f"geo-client-{region}",
        frontends_by_group=service.frontend_map(preferred_site=region),
        request_factory=factory,
        rate_per_second=GEO_RATE,
        site=region,
        metric_prefix=metric,
        # Issuing stops at the end of the window; the drain answers the rest.
        max_requests=int(round(GEO_RATE * end)),
    )
    _schedule_crash(system)
    harness = _GeoShard(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
        client=client,
        metric=f"{metric}.latency",
    )
    buffer = RingSegmentBuffer()
    for replica in service.all_replicas():
        replica.record_ring_segments(into=buffer)
    harness.stream_segments(buffer)
    tracer = payload.get("tracer")
    if tracer is not None and region == payload["observed"]:
        tracer.observe(service.replicas[group][0])
    return harness


def build_geo_global(payload: Dict[str, Any]) -> ShardedMeasurement:
    """Shard of the global ring: one proposer/acceptor per region and one
    recording learner standing in for the replicas' global subscription."""
    regions = payload["regions"]
    config = _geo_config()
    system = AtomicMulticast(topology=ec2_global(regions), config=config, seed=payload["seed"])
    frontends = [
        ProposerFrontend(system.env, f"kvg-node{g}", site=region, config=config)
        for g, region in enumerate(regions)
    ]
    learner = MultiRingProcess(
        system.env, "kvg-learner", site=regions[0],
        messages_per_round=config.messages_per_round,
    )
    members = [
        RingMember(name=f.name, proposer=True, acceptor=True, learner=False) for f in frontends
    ] + [RingMember(name=learner.name, proposer=False, acceptor=False, learner=True)]
    system.create_ring(GEO_GLOBAL_RING, members, config=config)
    harness = _GeoShard(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
    )
    harness.stream_segments(learner.record_ring_segments())
    return harness


class _MergeStage:
    """Parent-side segment sink: one reactive MRP-Store replica per region.

    Keeps every shipped segment so the reactive merged order can be checked
    against the offline replay of the same streams.
    """

    def __init__(self, region_count: int, config: MultiRingConfig) -> None:
        env = Environment()
        dataset = preload_keys(GEO_KEYS)
        self.hosts: Dict[str, ReactiveReplicaHost] = {}
        for group in range(region_count):
            replica = MRPStoreReplica(
                env, f"kv{group}-replica0", config=config, respond_to_clients=False
            )
            for key, size in dataset.items():
                replica.store.insert(key, None, size)
            self.hosts[replica.name] = ReactiveReplicaHost(
                replica, [group, GEO_GLOBAL_RING],
                messages_per_round=config.messages_per_round,
            )
        self.history: Dict[int, List[RingSegment]] = {}
        self.shipped_entries = 0

    def sink(self, segments_by_shard: Dict[int, Any]) -> None:
        watermark: Optional[float] = None
        merged: Dict[int, Any] = {}
        for shard_id in sorted(segments_by_shard):
            shard_watermark, rings = segments_by_shard[shard_id]
            if watermark is None or shard_watermark < watermark:
                watermark = shard_watermark
            merged.update(rings)
        for ring, segment in merged.items():
            self.history.setdefault(ring, []).append(segment)
            self.shipped_entries += len(segment.entries)
        for name in sorted(self.hosts):
            host = self.hosts[name]
            groups = set(host.groups)
            host.ingest(
                {r: s for r, s in merged.items() if r in groups},
                watermark=watermark,
                covered=[r for r in sorted(merged) if r in groups],
            )

    def check(self, messages_per_round: int) -> Dict[str, str]:
        """Reactive merged order == offline replay, per host; digests."""
        streams = effective_streams(self.history)
        digests = {}
        for name, host in self.hosts.items():
            offline = replay_streams(
                {ring: streams.get(ring, []) for ring in host.groups},
                messages_per_round=messages_per_round,
            )
            reactive = [_delivery_key(d) for d in host.deliveries]
            if reactive != [_delivery_key(d) for d in offline]:
                raise CheckFailed(f"geo-sharded: {name} reactive merge != offline replay")
            digests[name] = _digest(reactive)
        return digests

    @property
    def duplicates_dropped(self) -> int:
        kept = sum(len(s) for s in effective_streams(self.history).values())
        return self.shipped_entries - kept


def _delivery_key(delivery) -> tuple:
    group, instance, value = delivery
    return (group, instance, value.proposer, value.proposal_id, value.created_at)


class GeoSharded(Workload):
    """Figure 7, original shape: four EC2 regions, a partition ring per region
    plus a global ring, 400 updates/s open loop per region, reactive
    shared-learner merge in the parent, one crash/restart of ``kv0-replica0``.
    """

    name = "geo-sharded"
    warmup, duration, drain = 1.0, 8.0, 0.5
    wall_s = 4.7
    sharded = True
    workers = 2
    observed_region = "us-west-2"

    def build(self, tracer: Any = None) -> None:
        regions = list(EC2_REGIONS)
        base = {
            "seed": self.seed,
            "warmup": self.warmup,
            "duration": self.duration,
            "regions": regions,
            "observed": self.observed_region,
        }
        if tracer is not None:
            base["tracer"] = tracer
        self.specs = [
            ShardSpec(shard_id=g, build=build_geo_region,
                      payload={**base, "region": r, "group": g}, weight=3.0)
            for g, r in enumerate(regions)
        ] + [ShardSpec(shard_id=len(regions), build=build_geo_global, payload=base)]
        self.config = _geo_config()
        self.stage = _MergeStage(len(regions), self.config)
        self.observed_shard = regions.index(self.observed_region)

    def execute(self) -> None:
        self.run = run_sharded(
            self.specs,
            workers=self.workers,
            until=self.end + self.drain,
            segment_interval=GEO_SEGMENT_INTERVAL,
            segment_sink=self.stage.sink,
        )

    def outcome(self) -> Outcome:
        shard = self.run.results[self.observed_shard]
        host = self.stage.hosts[f"kv{self.observed_shard}-replica0"]
        stats = host.latency_stats()
        regions = [r for r in self.run.results.values() if "attempted" in r]
        attempted = sum(r["attempted"] for r in regions)
        completed = sum(r["completed"] for r in regions)
        return Outcome(
            sim_tput_ops=shard["sim_tput_ops"],
            lat_p50_ms=shard["lat_p50_ms"],
            lat_p99_ms=shard["lat_p99_ms"],
            lat_samples=shard["lat_samples"],
            attempted=attempted,
            completed=completed,
            lost=attempted - completed,
            late=sum(r["late"] for r in regions),
            events=self.run.total_events,
            sim_seconds=shard["sim_seconds"],
            digests=self.stage.check(self.config.messages_per_round),
            extra={
                "merge_fresh_p95_ms": stats["p95_ms"],
                "unavail_ms": stats["stalled_ms"],
                "merge_dup_dropped": self.stage.duplicates_dropped,
            },
        )


WORKLOADS = {w.name: w for w in (RingBatched, KvYcsbA, DlogSync, GeoSharded)}
