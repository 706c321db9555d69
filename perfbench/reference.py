"""A fixed pure-Python event loop that measures how fast the host runs now.

On a shared box the interpreter's speed moves in plateaus of several minutes
that differ by 20-30 % (CPU frequency, neighbours on the same cores), so a
whole benchmark run can sit in a fast or a slow stretch.
:func:`reference_seconds` times a small discrete-event simulation written
here — heap-ordered events dispatched to ``__slots__`` actors that update
dicts and schedule more events, the kind of work the library's kernel does.
The harness runs it in the benchmark process right before and after each
execution, so it sees the same core and the same stretch, and expresses the
wall-clock metrics at the reference speed.  The code belongs to the
benchmark, not to the program under test, so changes to the program never
move it.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["NOMINAL_S", "reference_seconds"]

#: :func:`reference_seconds` on the reference box (2-core x86, Python 3.11)
NOMINAL_S = 0.025


class _Actor:
    __slots__ = ("name", "peers", "seen")

    def __init__(self, name: int) -> None:
        self.name = name
        self.peers = []
        self.seen = {}

    def on_message(self, loop: "_Loop", src: int, hops: int) -> None:
        self.seen[src] = self.seen.get(src, 0) + 1
        if hops > 0:
            peer = self.peers[hops % len(self.peers)]
            loop.post(0.0001 * (1 + hops % 7), peer.on_message, (self.name, hops - 1))


class _Loop:
    __slots__ = ("now", "queue", "seq")

    def __init__(self) -> None:
        self.now = 0.0
        self.queue = []
        self.seq = 0

    def post(self, delay: float, callback, args: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, callback, args))

    def run(self) -> None:
        queue, pop = self.queue, heapq.heappop
        while queue:
            self.now, _, callback, args = pop(queue)
            callback(self, *args)


def reference_seconds(events: int = 20000) -> float:
    """Wall seconds to run the fixed reference simulation once."""
    started = time.perf_counter()
    actors = [_Actor(i) for i in range(16)]
    for actor in actors:
        actor.peers = [other for other in actors if other is not actor]
    loop = _Loop()
    for actor in actors:
        loop.post(0.0, actor.on_message, (-1, events // len(actors)))
    loop.run()
    return time.perf_counter() - started
