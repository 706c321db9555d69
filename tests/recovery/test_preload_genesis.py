"""The preloaded dataset is a replica's durable genesis state.

``MRPStoreService.preload`` writes straight into every replica's store,
outside ordering, so no replay can rebuild it.  A replica that crashes before
its first checkpoint must therefore come back to the preloaded dataset and
replay the ordered stream on top of it; before this held, it came back empty
and lost every preloaded key no later command rewrote (chaos seed 60:
``kv0-replica1`` kept ``swarm-key*`` entries that ``kv0-replica0`` lacked).
"""

import random

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import Command
from repro.kvstore import MRPStoreReplica, MRPStoreService
from repro.kvstore.store import StoredValue
from repro.recovery.recover import RecoveryPhase
from repro.workloads import preload_keys, update_only_workload


def build_service(seed=60):
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=seed, config=config)
    service = MRPStoreService(
        system, partition_groups=[0], acceptors_per_partition=3,
        replicas_per_partition=2, config=config,
    )
    service.preload(preload_keys(40))
    # The client rewrites only the first ten keys: the other thirty exist
    # only because of the preload.
    client = service.create_client(
        "load", update_only_workload(random.Random(seed), key_count=10),
        concurrency=2, max_requests=400,
    )
    return system, service, client


def store_contents(replica):
    return {key: replica.store.read(key) for key in replica.store.keys()}


def test_restart_before_any_checkpoint_keeps_the_preload():
    system, service, client = build_service()
    victim, survivor = service.replicas[0]
    system.start()
    system.run(until=0.01)
    assert 0 < client.completed < 400
    system.crash_process(victim.name)
    system.run(until=0.02)
    system.restart_process(victim.name)
    system.run(until=0.5)  # drain: every request answered, recovery done

    assert client.completed == 400
    assert victim.recovery_phase in (RecoveryPhase.IDLE, RecoveryPhase.DONE)
    assert victim.checkpoint_store.latest() is None
    assert len(survivor.store) == 40
    assert store_contents(victim) == store_contents(survivor)


def test_reset_restores_genesis_and_install_replaces_it():
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=1, config=config)
    replica = MRPStoreReplica(system.env, "r0", config=config)
    keys = preload_keys(5)
    replica.preload({key: StoredValue(None, size) for key, size in keys.items()})
    genesis = store_contents(replica)
    replica.apply_command(0, Command(op="insert", args=("extra", "v", 10)))
    replica.apply_command(0, Command(op="update", args=(next(iter(keys)), "v", 99)))

    replica.reset_state()
    assert store_contents(replica) == genesis
    assert replica.store.size_bytes == sum(keys.values())

    replica.install_state_snapshot({"only": StoredValue("x", 3)})
    assert store_contents(replica) == {"only": StoredValue("x", 3)}
