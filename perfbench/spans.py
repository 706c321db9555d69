"""Span tracing from outside the program: wrappers around public layer calls.

:class:`Tracer` replaces a fixed list of public layer functions with timing
wrappers for the duration of a ``with`` block.  Each call records a span; a
span's *self* time is its duration minus the time its child spans cover, so
nested layers (the learner calls the merger, which applies commands, which
send replies) are not counted twice.  Spans stay in memory as per-name
aggregates (calls, total, self) and are written out by the caller at exit.

The wrappers must be installed **before** a deployment is built: ring nodes,
replicas and actors bind some methods at construction (dispatch tables, the
cached ``Network.send``), and a wrapper installed later would silently miss
those calls.

Besides spans the tracer counts work at the same boundaries (messages and
bytes sent, Phase 2 votes, merge offers, disk writes) and stamps simulated
time per proposal value at the observed learner:

* ``order``: value created → offered to the observed learner's merger;
* ``merge``: offered → emitted by that merger;
* ``reply``: emitted → the observed replica's reply reaches the client.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import ClosedLoopClient, OpenLoopClient, ReactiveReplicaHost
from repro.core.packing import iter_commands, iter_values
from repro.dlog.replica import DLogReplica
from repro.kvstore.replica import MRPStoreReplica
from repro.multiring import DeterministicMerger, MultiRingProcess
from repro.net.message import ClientResponse
from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import SKIP
from repro.ringpaxos.coordinator import CoordinatorState
from repro.ringpaxos.learner import RingLearner
from repro.sim import Disk, Network, Simulator
from repro.storage.slots import SlotBuffer
from repro.storage.wal import WriteAheadLog

__all__ = ["SPANS", "Tracer"]

#: Span name → the public functions it wraps.  Every name must record calls
#: on the workload that exercises its layer (see ``test_perfbench.py``).
SPANS: Dict[str, List[Tuple[type, str]]] = {
    "sim.kernel": [(Simulator, "run"), (Simulator, "run_window")],
    "net.send": [(Network, "send")],
    "paxos.phase2": [(AcceptorState, "receive_phase2"), (AcceptorState, "receive_phase2_range")],
    "ringpaxos.coord": [(CoordinatorState, "next_assignments")],
    "ringpaxos.learner": [(RingLearner, "observe_decision")],
    "merge.offer": [(DeterministicMerger, "offer")],
    "smr.apply": [(MRPStoreReplica, "apply_command"), (DLogReplica, "apply_command")],
    "storage.wal_append": [(WriteAheadLog, "append")],
    "storage.slot_put": [(SlotBuffer, "put")],
    "disk.write": [(Disk, "write")],
    "barrier.ingest": [(ReactiveReplicaHost, "ingest")],
}


class _Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs span wrappers and collects spans, counts and stage stamps."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Span] = {name: _Span() for name in SPANS}
        self.counts: Dict[str, float] = {
            "net.msgs": 0, "net.bytes": 0, "merge.offers": 0, "merge.skips": 0,
            "disk.writes": 0, "disk.queue_s": 0.0, "observed.instances": 0,
            "observed.values": 0, "observed.skips": 0,
        }
        #: busy seconds per disk (keyed by the device object)
        self.disk_busy: Dict[int, float] = {}
        self.stages: Dict[str, List[float]] = {"order": [], "merge": [], "reply": []}
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[type, str, Any]] = []
        self._observed: Optional[MultiRingProcess] = None
        self._offered_at: Dict[Tuple[int, int], float] = {}
        self._emitted_at: Dict[Tuple[str, int], float] = {}

    # ------------------------------------------------------------ spans
    def _timed(self, span: _Span, fn: Callable, before: Optional[Callable] = None):
        perf = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _apply_by_op(self, fn: Callable):
        """``apply_command`` spans split by command type (read/update/append)."""
        wrappers: Dict[str, Callable] = {}

        def wrapper(replica, group_id, command):
            op = command.op
            inner = wrappers.get(op)
            if inner is None:
                span = self.spans.setdefault(f"smr.apply.{op}", _Span())
                inner = wrappers[op] = self._timed(span, fn)
            self.spans["smr.apply"].calls += 1
            return inner(replica, group_id, command)

        return wrapper

    def __enter__(self) -> "Tracer":
        hooks = {
            "net.send": self._count_send,
            "merge.offer": self._on_offer,
            "disk.write": self._on_disk_write,
        }
        for name, targets in SPANS.items():
            for cls, attr in targets:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                if name == "smr.apply":
                    wrapped = self._apply_by_op(original)
                else:
                    wrapped = self._timed(self.spans[name], original, hooks.get(name))
                setattr(cls, attr, wrapped)
        # Delivery hooks: every process class that defines its own
        # ``on_deliver`` (services and the benchmark's own proposers alike).
        hooked = [(cls, "on_deliver", self._on_emit) for cls in _with_own(MultiRingProcess, "on_deliver")]
        hooked += [(ClosedLoopClient, "on_message", self._on_reply),
                   (OpenLoopClient, "on_message", self._on_reply)]
        for cls, attr, hook in hooked:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, _before(hook, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def observe(self, process: MultiRingProcess) -> None:
        """Take stage stamps at ``process`` (a learner, usually a replica)."""
        self._observed = process

    # ------------------------------------------------------------ counting hooks
    def _count_send(self, network, src, dst, message) -> None:
        counts = self.counts
        counts["net.msgs"] += 1
        counts["net.bytes"] += getattr(message, "size_bytes", 128) + Network.HEADER_BYTES

    def _on_disk_write(self, disk, size_bytes, *args, **kwargs) -> None:
        counts = self.counts
        counts["disk.writes"] += 1
        counts["disk.queue_s"] += disk.queue_delay()
        busy = disk.profile.write_time(size_bytes) * disk.slowdown
        self.disk_busy[id(disk)] = self.disk_busy.get(id(disk), 0.0) + busy

    def _on_offer(self, merger, group_id, instance, value) -> None:
        counts = self.counts
        counts["merge.offers"] += 1
        skip = value.payload is SKIP
        if skip:
            counts["merge.skips"] += 1
        observed = self._observed
        if observed is None or merger is not observed.merger:
            return
        if skip:
            counts["observed.skips"] += 1
            return
        now = observed.now
        counts["observed.instances"] += 1
        self._offered_at[(group_id, instance)] = now
        for leaf in iter_values(value):
            if leaf.payload is not SKIP:
                counts["observed.values"] += 1
                self.stages["order"].append(now - leaf.created_at)

    def _on_emit(self, process, group_id, instance, value) -> None:
        if process is not self._observed:
            return
        now = process.now
        offered = self._offered_at.get((group_id, instance))
        if offered is not None:
            self.stages["merge"].append(now - offered)
        for command in iter_commands(value.payload):
            self._emitted_at[(command.client, command.command_id)] = now

    def _on_reply(self, client, sender, message) -> None:
        observed = self._observed
        if observed is None or sender != observed.name or not isinstance(message, ClientResponse):
            return
        emitted = self._emitted_at.pop((client.name, message.request_id), None)
        if emitted is not None:
            self.stages["reply"].append(client.now - emitted)

    # ------------------------------------------------------------ results
    def self_seconds(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_time if span is not None else 0.0

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span is not None else 0

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for name, s in sorted(self.spans.items())
        }


def _with_own(root: type, attr: str) -> List[type]:
    """``root`` and its subclasses that define ``attr`` themselves."""
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _before(hook: Callable, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        hook(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper
