"""Message base types and wire-size accounting.

Every protocol message in the repository derives from :class:`Message` and
declares how many bytes it would occupy on the wire.  The simulated network
(:mod:`repro.sim.network`) charges transmission time from that size, which is
what lets the benchmarks reproduce size-dependent behaviour such as Figure 3's
throughput-versus-request-size curves and the 32 KB client batching of
Sections 7.2/7.3.

All message classes are ``slots=True`` dataclasses and ``size_bytes`` is a
plain attribute cached at construction (``payload_bytes + OVERHEAD_BYTES``)
rather than a property: the network reads it once per send and batches used
to re-sum their members on every access.  Subclasses that override
``__post_init__`` must re-derive ``payload_bytes`` first and finish with
``self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional, Sequence

from ..sim.network import register_wire_type

__all__ = ["Message", "Batch", "ClientRequest", "ClientResponse", "next_message_id"]

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Globally unique message identifier (monotonic within one process)."""
    return next(_message_ids)


@dataclass(slots=True)
class Message:
    """Base class for protocol messages.

    Attributes
    ----------
    payload_bytes:
        Size of the application payload carried by the message.
    size_bytes:
        Wire size used by the simulated network; cached at construction as
        ``payload_bytes + OVERHEAD_BYTES``.
    OVERHEAD_BYTES:
        Per-message protocol framing added on top of the payload.
    """

    OVERHEAD_BYTES: ClassVar[int] = 48

    payload_bytes: int = 0
    size_bytes: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES


@dataclass(slots=True)
class ClientRequest(Message):
    """A request submitted by a client to a service front-end."""

    request_id: int = field(default_factory=_message_ids.__next__)
    client: str = ""
    command: Any = None
    created_at: float = 0.0


@dataclass(slots=True)
class ClientResponse(Message):
    """A response sent back to a client (the paper uses UDP for these)."""

    request_id: int = 0
    result: Any = None
    replica: str = ""


@dataclass(slots=True)
class Batch(Message):
    """A group of messages sent as one network packet.

    Ring Paxos groups several consensus-instance messages into bigger packets
    before forwarding them along the ring (Section 4); clients batch small
    commands up to 32 KB (Sections 7.2 and 7.3).  The batch size is the sum of
    the payload of its members plus one framing overhead, cached at
    construction and maintained incrementally by :meth:`append` — never
    re-summed per access.
    """

    messages: List[Message] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.payload_bytes = sum(m.size_bytes for m in self.messages)
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES

    def append(self, message: Message) -> None:
        """Add one message to the batch, updating the wire size."""
        self.messages.append(message)
        self.payload_bytes += message.size_bytes
        self.size_bytes += message.size_bytes

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)


# Cross-shard wire registration: these classes dominate barrier traffic in
# sharded runs, so they ship in positional tuple form (field order frozen
# here, cached ``size_bytes`` included) instead of generic dataclass pickling.
register_wire_type(Message)
register_wire_type(ClientRequest)
register_wire_type(ClientResponse)
register_wire_type(Batch)
