"""Client-side building blocks: commands, batching and closed-loop clients.

The services of the paper share a client structure (Sections 7.2-7.3):

* a client addresses the proposer of the ring responsible for the data it
  touches;
* small commands going to the same partition may be *batched* into packets of
  up to 32 KB before being submitted;
* replicas execute delivered commands and answer the client directly (UDP in
  the prototype); for single-partition commands the client waits for the
  first response, for multi-partition commands (scans, multi-appends) it
  waits for at least one response from every partition involved.

:class:`Command` is the unit of work ordered by atomic multicast.
:class:`CommandBatch` is what a client batcher produces.
:class:`ClosedLoopClient` drives a fixed number of outstanding requests (the
paper's "client threads") and records per-command latency and throughput.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..net.message import ClientRequest, ClientResponse, Message
from ..sim.actor import Actor, Environment
from ..sim.metrics import LatencyRecorder
from ..sim.network import register_wire_type

__all__ = [
    "Command",
    "CommandBatch",
    "CommandBatcher",
    "ClosedLoopClient",
    "OpenLoopClient",
    "Outstanding",
    "RequestFactory",
    "op_label",
    "settle_response",
]

_command_ids = itertools.count(1)


@dataclass
class Command:
    """One service command ordered through atomic multicast.

    Attributes
    ----------
    op:
        Operation name (e.g. ``"update"``, ``"append"``, ``"scan"``).
    args:
        Operation arguments (key, value, range bounds, ...).
    group_id:
        Multicast group the command is addressed to.
    size_bytes:
        Payload size used for wire/disk accounting.
    client / command_id:
        Identify where the response must go and which request it answers.
    created_at:
        Submission time; used for end-to-end latency.
    response_size:
        Size of the response payload sent back by replicas.
    """

    op: str
    args: Tuple = ()
    group_id: int = 0
    size_bytes: int = 64
    client: str = ""
    command_id: int = field(default_factory=_command_ids.__next__)
    created_at: float = 0.0
    response_size: int = 32


@dataclass
class CommandBatch:
    """Several commands for the same group packed into one request."""

    group_id: int = 0
    commands: List[Command] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """Total payload of the batch."""
        return sum(c.size_bytes for c in self.commands)

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)


# Commands ride inside cross-shard requests and decision streams: ship both
# in positional tuple form (see :func:`repro.sim.network.register_wire_type`).
register_wire_type(Command)
register_wire_type(CommandBatch)


class CommandBatcher:
    """Groups commands per partition up to a byte budget (32 KB by default)."""

    def __init__(self, max_bytes: int = 32 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._pending: Dict[int, List[Command]] = {}
        #: running byte total per group — kept in lockstep with ``_pending``
        #: so :meth:`add` is O(1) instead of re-summing the queue every time
        self._pending_bytes: Dict[int, int] = {}

    def add(self, command: Command) -> Optional[CommandBatch]:
        """Queue a command; returns a full batch when the budget is reached."""
        group_id = command.group_id
        queue = self._pending.setdefault(group_id, [])
        queue.append(command)
        total = self._pending_bytes.get(group_id, 0) + command.size_bytes
        self._pending_bytes[group_id] = total
        if total >= self.max_bytes:
            return self.flush_group(group_id)
        return None

    def flush_group(self, group_id: int) -> Optional[CommandBatch]:
        """Emit whatever is pending for ``group_id`` (``None`` when empty)."""
        queue = self._pending.pop(group_id, [])
        self._pending_bytes.pop(group_id, None)
        if not queue:
            return None
        return CommandBatch(group_id=group_id, commands=queue)

    def flush_all(self) -> List[CommandBatch]:
        """Emit every non-empty pending batch."""
        batches = [
            CommandBatch(group_id=g, commands=cmds)
            for g, cmds in self._pending.items()
            if cmds
        ]
        self._pending.clear()
        self._pending_bytes.clear()
        return batches

    def pending_count(self, group_id: int) -> int:
        """Commands currently queued for ``group_id``."""
        return len(self._pending.get(group_id, []))

    def pending_bytes(self, group_id: int) -> int:
        """Bytes currently queued for ``group_id``."""
        return self._pending_bytes.get(group_id, 0)


#: One outstanding logical request: the groups whose reply is still awaited,
#: its submission time, and the op label its per-op latency is filed under.
Outstanding = Tuple[set, float, str]


def op_label(commands: Sequence[Command]) -> str:
    """The per-op latency label of a logical request (``"read"``, ``"scan-update"``...)."""
    if len(commands) == 1:
        # The common request: one command, whose op is its own label.
        return commands[0].op or "noop"
    return "-".join(sorted({c.op for c in commands})) or "noop"


def settle_response(
    outstanding: Dict[int, Outstanding], key: int, message: ClientResponse
) -> Optional[Outstanding]:
    """Count one reply against request ``key``; return its entry once complete.

    Every replica of a group answers a command itself: the first reply per
    awaited group counts, and a reply naming no group answers them all.  A
    completed request leaves ``outstanding``; duplicates, replies to requests
    no longer outstanding and replies still short of a group return ``None``.
    """
    entry = outstanding.get(key)
    if entry is None:
        return None
    pending = entry[0]
    result = message.result
    group_id = result.get("group_id") if isinstance(result, dict) else None
    if group_id is not None:
        pending.discard(group_id)
    else:
        pending.clear()
    if pending:
        return None
    del outstanding[key]
    return entry


#: Builds the next command for a closed-loop client; receives the sequence
#: number of the request and returns the command (or a list of commands for
#: multi-partition operations) plus the set of groups whose response must be
#: awaited.
RequestFactory = Callable[[int], Tuple[Sequence[Command], Sequence[int]]]


class ClosedLoopClient(Actor):
    """A client keeping a fixed number of requests outstanding.

    Parameters
    ----------
    env, name, site:
        Standard actor arguments.
    frontends_by_group:
        Maps each multicast group to the process the client submits commands
        of that group to (a proposer of the group's ring).
    request_factory:
        Produces the commands of the next logical request.
    concurrency:
        Number of outstanding logical requests (the paper's client threads).
    metric_prefix:
        Prefix under which latency/throughput instruments are registered.
    max_requests:
        Optional cap on issued requests (useful in tests).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        frontends_by_group: Dict[int, str],
        request_factory: RequestFactory,
        concurrency: int = 1,
        site: str = "dc1",
        metric_prefix: str = "client",
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(env, name, site)
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._concurrency = concurrency
        self._metric_prefix = metric_prefix
        self._max_requests = max_requests
        self._issued = 0
        self._completed = 0
        self._outstanding: Dict[int, Outstanding] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")
        #: op label -> the registry's per-op latency recorder, bound on the
        #: op's first completion (``reset_all`` resets recorders in place, so
        #: a cached one stays the registry's)
        self._op_latency: Dict[str, LatencyRecorder] = {}

    # ----------------------------------------------------------------- start
    def on_start(self) -> None:
        for _ in range(self._concurrency):
            self._issue_next()

    # ------------------------------------------------------------ issue side
    def _issue_next(self) -> None:
        if not self.alive:
            return
        if self._max_requests is not None and self._issued >= self._max_requests:
            return
        sequence = self._issued
        self._issued += 1
        commands, await_groups = self._factory(sequence)
        now = self.now
        name = self.name
        self._outstanding[sequence] = (set(await_groups), now, op_label(commands))
        for command in commands:
            command.client = name
            command.created_at = now
            command.command_id = sequence
            self.send(
                self._frontends[command.group_id],
                ClientRequest(
                    payload_bytes=command.size_bytes,
                    client=name,
                    command=command,
                    created_at=now,
                ),
            )

    # --------------------------------------------------------- response side
    def on_message(self, sender: str, message: Any) -> None:
        if message.__class__ is not ClientResponse and not isinstance(message, ClientResponse):
            return
        entry = settle_response(self._outstanding, message.request_id, message)
        if entry is None:
            return
        _, submitted_at, op = entry
        self._completed += 1
        elapsed = self.now - submitted_at
        self._latency.record(elapsed)
        recorder = self._op_latency.get(op)
        if recorder is None:
            recorder = self._op_latency[op] = self.env.metrics.latency(
                f"{self._metric_prefix}.latency.{op}"
            )
        recorder.record(elapsed)
        self._throughput.record(1.0)
        self._issue_next()

    # ------------------------------------------------------------ inspection
    @property
    def issued(self) -> int:
        """Logical requests issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed

    @property
    def outstanding(self) -> int:
        """Logical requests currently awaiting responses."""
        return len(self._outstanding)


class OpenLoopClient(Actor):
    """A client issuing requests at a fixed rate, independent of responses.

    The recovery experiment (Figure 8) operates the system "at 75 % of its
    peak load": the offered load must stay constant while replicas fail and
    recover, which a closed-loop client cannot do (its rate collapses with the
    system's).  The open-loop client issues one logical request every
    ``1 / rate`` seconds and records the latency of whatever completes.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        frontends_by_group: Dict[int, str],
        request_factory: RequestFactory,
        rate_per_second: float,
        site: str = "dc1",
        metric_prefix: str = "client",
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(env, name, site)
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._interval = 1.0 / rate_per_second
        self._metric_prefix = metric_prefix
        self._max_requests = max_requests
        self._issued = 0
        self._completed = 0
        self._outstanding: Dict[int, Outstanding] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")

    def on_start(self) -> None:
        self.set_periodic_timer(self._interval, self._issue_next)

    def _issue_next(self) -> None:
        if self._max_requests is not None and self._issued >= self._max_requests:
            return
        sequence = self._issued
        self._issued += 1
        commands, await_groups = self._factory(sequence)
        now = self.now
        name = self.name
        self._outstanding[sequence] = (set(await_groups), now, op_label(commands))
        for command in commands:
            command.client = name
            command.created_at = now
            command.command_id = sequence
            self.send(
                self._frontends[command.group_id],
                ClientRequest(
                    payload_bytes=command.size_bytes,
                    client=name,
                    command=command,
                    created_at=now,
                ),
            )

    def on_message(self, sender: str, message: Any) -> None:
        if message.__class__ is not ClientResponse and not isinstance(message, ClientResponse):
            return
        entry = settle_response(self._outstanding, message.request_id, message)
        if entry is None:
            return
        self._completed += 1
        self._latency.record(self.now - entry[1])
        self._throughput.record(1.0)

    @property
    def issued(self) -> int:
        """Logical requests issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed
