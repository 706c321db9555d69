"""Runs of consecutive consensus instances that share one value.

Rate leveling (Section 4) skips ``λΔ`` instances with a single Phase 2
message, and an acceptor logs one record for the whole range.  The layers
that keep per-instance state — acceptor votes and decisions, the learner's
ledger — store such a range as one run, so a skip range costs the simulator
O(1) instead of O(λΔ).

:class:`RunMap` is the shared container: disjoint ``[first, last] → value``
runs kept sorted by ``first``.  Its owners keep single instances in a plain
dict beside it (the hot path for application values) and make sure the two
never cover the same instance.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Tuple

__all__ = ["RunMap"]

Run = Tuple[int, int, Any]


class RunMap:
    """Disjoint, sorted runs ``[first, last] → value``.

    Runs are appended in O(1) when they lie past every stored run (the
    common case: instances are allocated in ascending order); anything else
    is a bisect and a list insertion.
    """

    __slots__ = ("_firsts", "_lasts", "_values", "high")

    def __init__(self) -> None:
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        self._values: List[Any] = []
        #: Highest covered instance (-1 when empty): a plain attribute, so
        #: hot paths rule out "inside a run" with one comparison.
        self.high = -1

    def __bool__(self) -> bool:
        return bool(self._firsts)

    def __len__(self) -> int:
        """Number of runs (not instances)."""
        return len(self._firsts)

    def __iter__(self) -> Iterator[Run]:
        return zip(self._firsts, self._lasts, self._values)

    def __repr__(self) -> str:
        return f"RunMap({list(self)!r})"

    @property
    def instance_count(self) -> int:
        """Instances covered by all runs together."""
        return sum(self._lasts) - sum(self._firsts) + len(self._firsts)

    # ---------------------------------------------------------------- lookup
    def find(self, instance: int) -> int:
        """Index of the run covering ``instance``, or -1."""
        k = bisect_right(self._firsts, instance) - 1
        if k >= 0 and self._lasts[k] >= instance:
            return k
        return -1

    def run(self, index: int) -> Run:
        """The ``(first, last, value)`` run at ``index``."""
        return self._firsts[index], self._lasts[index], self._values[index]

    def get(self, instance: int, default: Any = None) -> Any:
        """Value of the run covering ``instance`` (``default`` if none)."""
        k = self.find(instance)
        return self._values[k] if k >= 0 else default

    def overlaps(self, first: int, last: int) -> bool:
        """Whether any run covers an instance of ``[first, last]``."""
        k = bisect_left(self._lasts, first)
        return k < len(self._firsts) and self._firsts[k] <= last

    def between(self, first: int, last: int) -> List[Run]:
        """Runs intersecting ``[first, last]``, clipped to it, in order."""
        lo = bisect_left(self._lasts, first)
        hi = bisect_right(self._firsts, last)
        return [
            (max(self._firsts[k], first), min(self._lasts[k], last), self._values[k])
            for k in range(lo, hi)
        ]

    # -------------------------------------------------------------- updates
    def add(self, first: int, last: int, value: Any) -> None:
        """Store a run over ``[first, last]``, which no run may cover yet."""
        lasts = self._lasts
        if first > self.high:
            self._firsts.append(first)
            lasts.append(last)
            self._values.append(value)
            self.high = last
            return
        k = bisect_left(lasts, first)
        if k < len(lasts) and self._firsts[k] <= last:
            raise ValueError(f"run [{first}, {last}] overlaps a stored run")
        self._firsts.insert(k, first)
        lasts.insert(k, last)
        self._values.insert(k, value)
        self.high = lasts[-1]

    def remove(self, first: int, last: int) -> List[Run]:
        """Drop the coverage of ``[first, last]``; returns the removed pieces.

        Runs straddling either end are split: the part outside the range
        stays stored with the same value.
        """
        firsts, lasts, values = self._firsts, self._lasts, self._values
        lo = bisect_left(lasts, first)
        hi = bisect_right(firsts, last)
        if lo >= hi:
            return []
        removed: List[Run] = []
        kept_firsts: List[int] = []
        kept_lasts: List[int] = []
        kept_values: List[Any] = []
        for k in range(lo, hi):
            f, l, v = firsts[k], lasts[k], values[k]
            if f < first:
                kept_firsts.append(f)
                kept_lasts.append(first - 1)
                kept_values.append(v)
            removed.append((max(f, first), min(l, last), v))
            if l > last:
                kept_firsts.append(last + 1)
                kept_lasts.append(l)
                kept_values.append(v)
        firsts[lo:hi] = kept_firsts
        lasts[lo:hi] = kept_lasts
        values[lo:hi] = kept_values
        self.high = lasts[-1] if lasts else -1
        return removed

    def map_between(self, first: int, last: int, fn: Callable[[Any], Any]) -> None:
        """Replace the value of every run piece inside ``[first, last]`` by ``fn(value)``.

        Runs straddling either end are split so only the inside changes.
        """
        pieces = self.remove(first, last)
        if not pieces:
            return
        k = bisect_left(self._lasts, first)
        self._firsts[k:k] = [f for f, _, _ in pieces]
        self._lasts[k:k] = [l for _, l, _ in pieces]
        self._values[k:k] = [fn(v) for _, _, v in pieces]
        self.high = self._lasts[-1]

    def trim(self, up_to: int) -> int:
        """Drop every instance ``<= up_to``; returns how many were covered."""
        if not self._firsts or up_to < self._firsts[0]:
            return 0
        return sum(l - f + 1 for f, l, _ in self.remove(self._firsts[0], up_to))

    def clear(self) -> None:
        self._firsts.clear()
        self._lasts.clear()
        self._values.clear()
        self.high = -1
