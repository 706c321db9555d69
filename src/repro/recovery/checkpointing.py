"""Replica checkpointing (Section 5.2).

A Multi-Ring Paxos replica periodically snapshots its service state to stable
storage.  Because the state depends on commands delivered from every group the
replica subscribes to, the checkpoint is identified by a *tuple* of consensus
instances — one entry per group (:class:`repro.storage.checkpoint.CheckpointId`).

Predicate 1 of the paper requires ``x < y  =>  k[x] >= k[y]``: since learners
deliver groups in round-robin order of group id, the snapshot must not reflect
a later instance of a higher-numbered group than of a lower-numbered one.  The
checkpointer guarantees this (and keeps recovery simple) by only materialising
checkpoints at *round boundaries* of the deterministic merge: a checkpoint
request made mid-round is deferred until the merge finishes the round.  The
positions a checkpoint records are the merge's own — the last instance it
consumed of every group, skips included — so that a merger fast-forwarded to
them resumes exactly where the checkpointed one stood.

The checkpointer also supplies the replica's answer to the coordinator's trim
query — its *safe instance* per group, i.e. the highest instance of that group
already covered by a durable checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..storage.checkpoint import Checkpoint, CheckpointId, CheckpointStore

__all__ = ["ReplicaCheckpointer"]

StateSnapshotFn = Callable[[], Tuple[Any, int]]
RoundBoundaryFn = Callable[[], bool]
PositionsFn = Callable[[], Dict[int, int]]


class ReplicaCheckpointer:
    """Drives periodic checkpoints of one replica.

    Parameters
    ----------
    store:
        Durable checkpoint store (synchronous device writes, as in §7.2).
    snapshot_fn:
        Returns ``(state, size_bytes)`` — a deep snapshot of the service state.
    group_ids:
        Groups the replica subscribes to (its partition signature).
    at_round_boundary:
        Predicate telling whether the deterministic merge currently sits at a
        round boundary; checkpoints are deferred until it does.
    positions:
        The merge's consumed position per group, skips included
        (:meth:`~repro.multiring.merge.DeterministicMerger.positions`).
        Folded into the positions given to :meth:`mark_delivered` whenever
        they are read.
    """

    def __init__(
        self,
        store: CheckpointStore,
        snapshot_fn: StateSnapshotFn,
        group_ids: List[int],
        at_round_boundary: Optional[RoundBoundaryFn] = None,
        positions: Optional[PositionsFn] = None,
    ) -> None:
        if not group_ids:
            raise ValueError("a replica must subscribe to at least one group")
        self.store = store
        self._snapshot_fn = snapshot_fn
        self._groups = sorted(group_ids)
        self._at_round_boundary = at_round_boundary or (lambda: True)
        self._positions = positions
        self._delivered: Dict[int, int] = {g: -1 for g in self._groups}
        self._pending_request = False
        self._checkpoints_taken = 0
        self._on_checkpoint: List[Callable[[Checkpoint], None]] = []

    # -------------------------------------------------------------- tracking
    def mark_delivered(self, group_id: int, instance: int) -> None:
        """Record that the replica applied ``instance`` of ``group_id``."""
        if group_id not in self._delivered:
            raise KeyError(f"unknown group {group_id}")
        if instance > self._delivered[group_id]:
            self._delivered[group_id] = instance

    def delivered_positions(self) -> Dict[int, int]:
        """Current highest applied instance per group."""
        positions = dict(self._delivered)
        if self._positions is not None:
            for group, instance in self._positions().items():
                if group in positions and instance > positions[group]:
                    positions[group] = instance
        return positions

    # ----------------------------------------------------------- checkpointing
    def request_checkpoint(self) -> bool:
        """Ask for a checkpoint; taken now if at a round boundary, else deferred.

        Returns ``True`` if the checkpoint was taken immediately.
        """
        if self._at_round_boundary():
            self._take_checkpoint()
            return True
        self._pending_request = True
        return False

    def maybe_take_deferred(self) -> bool:
        """Take a previously deferred checkpoint if now at a round boundary."""
        if self._pending_request and self._at_round_boundary():
            self._pending_request = False
            self._take_checkpoint()
            return True
        return False

    def _take_checkpoint(self) -> Checkpoint:
        checkpoint_id = CheckpointId.from_mapping(self.delivered_positions())
        state, size = self._snapshot_fn()
        checkpoint = self.store.save(checkpoint_id, state, size)
        self._checkpoints_taken += 1
        for callback in self._on_checkpoint:
            callback(checkpoint)
        return checkpoint

    def on_checkpoint(self, callback: Callable[[Checkpoint], None]) -> None:
        """Register a callback fired after every completed checkpoint."""
        self._on_checkpoint.append(callback)

    # ---------------------------------------------------------------- queries
    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint (``None`` when none was ever taken)."""
        return self.store.latest()

    def safe_instance(self, group_id: int) -> int:
        """Highest instance of ``group_id`` covered by a durable checkpoint.

        This is the value the replica reports to the coordinator's trim query
        (``k[x]_p`` in the paper).  ``-1`` means nothing can be trimmed yet.
        """
        latest = self.store.latest()
        if latest is None:
            return -1
        return latest.checkpoint_id.instance_for(group_id)

    def install(self, checkpoint: Checkpoint) -> None:
        """Adopt a remote checkpoint's positions (state install happens in the replica)."""
        for group, instance in checkpoint.checkpoint_id.as_dict().items():
            if group in self._delivered and instance > self._delivered[group]:
                self._delivered[group] = instance

    @property
    def checkpoints_taken(self) -> int:
        """Number of checkpoints taken by this replica since it started."""
        return self._checkpoints_taken

    @property
    def groups(self) -> List[int]:
        """Groups covered by this checkpointer."""
        return list(self._groups)
