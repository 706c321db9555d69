"""Recursive unpacking of batched payloads.

Two batching layers can wrap the commands a replica ultimately executes:

* **client batching** — a :class:`~repro.core.client.CommandBatch` groups
  several :class:`~repro.core.client.Command` objects addressed to one
  partition into a single multicast value (Sections 7.2/7.3);
* **coordinator instance batching** — a
  :class:`~repro.ringpaxos.coordinator.PackedValues` payload groups several
  proposed values (each possibly a command batch) into one consensus
  instance.

Every consumer that looks inside a decided value — the merger's emit path,
the SMR apply path, the chaos oracle's expected-order digests and the
sharded engine's payload identities — needs the same unpacking rules.  The
leaf walk itself (:func:`iter_values`, :func:`iter_payloads`) lives next to
``PackedValues`` in :mod:`repro.ringpaxos.coordinator`, below the merge
stage in the import graph; this module re-exports those same functions and
adds the command-level views that need :mod:`repro.core.client`.

The unpacking is recursive: a ``PackedValues`` of ``PackedValues`` (which a
re-proposed repaired instance can in principle produce) flattens all the way
down, and skips nested inside a pack are dropped exactly like top-level
skips.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..paxos.messages import ProposalValue
from ..ringpaxos.coordinator import PackedValues, iter_payloads, iter_values
from .client import Command, CommandBatch

__all__ = [
    "PackedValues",
    "iter_values",
    "iter_payloads",
    "iter_commands",
    "packed_proposal_ids",
]


def iter_commands(payload: Any) -> List[Command]:
    """Every :class:`Command` inside ``payload``, in delivery order.

    Opens both batching layers — ``PackedValues`` recursively (via
    :func:`iter_payloads`) and ``CommandBatch`` — and drops anything that is
    not a command (skips, opaque benchmark payloads).
    """
    commands: List[Command] = []
    for leaf in iter_payloads(payload):
        if isinstance(leaf, CommandBatch):
            commands.extend(leaf.commands)
        elif isinstance(leaf, Command):
            commands.append(leaf)
    return commands


def packed_proposal_ids(value: ProposalValue) -> List[Tuple[str, int]]:
    """The ``(proposer, proposal_id)`` pairs a decided value answers.

    For a plain value this is its own single pair; for a packed value it is
    the pair of every constituent, in pack order — the identities acks and
    retries must be matched against.
    """
    return [(leaf.proposer, leaf.proposal_id) for leaf in iter_values(value)]
