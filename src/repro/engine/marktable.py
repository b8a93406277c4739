"""The mark table: cycle detection for transitive-closure queries (§3.1).

Closure iterators over cyclic pointer graphs would loop forever without it.
The table records, per object id, the *set of filter positions* at which the
object has been processed.  Recording positions rather than a bare "seen"
bit handles the paper's subtlety: an object that failed filter ``F_1`` may
later be reached by a dereference and must still be processed starting at
``F_3`` — so ``mark_table(O) = {1}`` does not suppress admission at 3, while
``mark_table(O) = {1, 3}`` does.

**Granularity.**  The paper's table records positions only
(``granularity="position"``).  Property testing this reproduction surfaced
an anomaly in that formulation: with *bounded* iterators (``^k``), an
object can be reached through pointer chains of different lengths, and its
behaviour at the loop marker depends on that length (exit vs. loop back) —
but the position-only table conflates the two admissions, so the result of
a ``^k`` query can depend on the working-set processing order (e.g. FIFO
vs. LIFO finds different answers on diamond-shaped graphs).  The default
``granularity="iteration"`` therefore keys marks by *(position, iteration
counts)*, which makes the algorithm confluent; iteration counts are
normalised (closure loops untracked, bounded counts saturated at ``k`` —
see :func:`repro.engine.items.bump_iters`), so the key space stays finite
and termination is preserved.  For pure-closure queries — everything the
paper evaluates — the two granularities are indistinguishable.

In the distributed algorithm each site keeps its own table covering only
the objects it processes (there is deliberately *no* global table; the
paper argues the coordination cost would outweigh the duplicate messages
it avoids).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.oid import Oid
from .items import EMPTY_ITERS, IterCounts

GRANULARITIES = ("iteration", "position")


class MarkTable:
    """Per-site, per-query record of processed (object, filter) marks."""

    __slots__ = ("_marks", "_mark_ops", "_granularity", "_journal", "_journal_base")

    def __init__(self, granularity: str = "iteration") -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        self._granularity = granularity
        self._marks: Dict[Tuple[str, int], Set[tuple]] = {}
        self._mark_ops = 0  # total mark() calls, for metrics/ablations
        #: Log of new marks as (oid_key, mark_key) pairs — the batching
        #: layer ships slices of it as per-frame dedup hints.  None until
        #: enabled (zero overhead for unbatched runs).  Entries are
        #: addressed by *absolute* index: ``_journal_base`` counts entries
        #: already trimmed off the front once every destination's hint
        #: cursor has passed them, so long closure queries don't retain
        #: the full mark history.
        self._journal: Optional[List[Tuple[Tuple[str, int], tuple]]] = None
        self._journal_base = 0

    @property
    def granularity(self) -> str:
        return self._granularity

    def _key(self, position: int, iters: IterCounts) -> tuple:
        if self._granularity == "position":
            return (position,)
        return (position, iters)

    def key_for(self, position: int, iters: IterCounts = EMPTY_ITERS) -> tuple:
        """The granularity-aware mark key (public: hint matching)."""
        return self._key(position, iters)

    def enable_journal(self) -> None:
        """Start logging new marks for batch-hint shipping."""
        if self._journal is None:
            self._journal = []

    @property
    def journal(self) -> List[Tuple[Tuple[str, int], tuple]]:
        """Retained (untrimmed) tail of the new-mark log."""
        return self._journal if self._journal is not None else []

    @property
    def journal_len(self) -> int:
        """Absolute length of the journal, counting trimmed entries."""
        if self._journal is None:
            return 0
        return self._journal_base + len(self._journal)

    def journal_slice(
        self, start: int, cap: int
    ) -> Tuple[Tuple[Tuple[Tuple[str, int], tuple], ...], int]:
        """Up to ``cap`` entries from absolute index ``start`` onward.

        Returns ``(entries, new_cursor)`` where ``new_cursor`` is the
        absolute index just past the last entry returned.  Indices below
        the trim point are skipped (those hints are gone; harmless — a
        hint only ever saves a message, never changes an answer).
        """
        if self._journal is None:
            return (), start
        rel = max(start - self._journal_base, 0)
        taken = tuple(self._journal[rel : rel + cap])
        return taken, self._journal_base + rel + len(taken)

    def trim_journal(self, upto: int) -> None:
        """Discard journal entries below absolute index ``upto``.

        Callers (the batching layer) pass the minimum hint cursor across
        destinations, so only entries every destination has already been
        offered are dropped — the journal stays bounded by
        ``hint_cap x destinations`` instead of growing with the query.
        """
        if self._journal is None or upto <= self._journal_base:
            return
        drop = min(upto - self._journal_base, len(self._journal))
        if drop:
            del self._journal[:drop]
            self._journal_base += drop

    def should_process(self, oid: Oid, start: int, iters: IterCounts = EMPTY_ITERS) -> bool:
        """Admission test of Figure 3: process iff the mark is absent."""
        marks = self._marks.get(oid.key())
        if marks is None:
            return True
        return ((start,) if self._granularity == "position" else (start, iters)) not in marks

    def mark(self, oid: Oid, position: int, iters: IterCounts = EMPTY_ITERS) -> None:
        """Record that ``oid`` flowed through filter ``position``."""
        key = (position,) if self._granularity == "position" else (position, iters)
        oid_key = oid.key()
        marks = self._marks.setdefault(oid_key, set())
        if self._journal is not None and key not in marks:
            self._journal.append((oid_key, key))
        marks.add(key)
        self._mark_ops += 1

    def mark_all(self, oid: Oid, positions: List[int], iters: IterCounts = EMPTY_ITERS) -> None:
        """:meth:`mark` ``oid`` at each of ``positions``, in order."""
        if not positions:
            return
        by_position = self._granularity == "position"
        oid_key = oid.key()
        marks = self._marks.setdefault(oid_key, set())
        journal = self._journal
        for position in positions:
            key = (position,) if by_position else (position, iters)
            if journal is not None and key not in marks:
                journal.append((oid_key, key))
            marks.add(key)
        self._mark_ops += len(positions)

    def positions(self, oid: Oid) -> Set[int]:
        """Filter positions recorded for ``oid`` (any iteration state)."""
        return {mark[0] for mark in self._marks.get(oid.key(), ())}

    def seen(self, oid: Oid) -> bool:
        """True if ``oid`` was processed at any position."""
        return oid.key() in self._marks

    @property
    def objects_seen(self) -> int:
        """Number of distinct objects recorded."""
        return len(self._marks)

    @property
    def total_marks(self) -> int:
        """Number of distinct marks recorded."""
        return sum(len(s) for s in self._marks.values())

    @property
    def mark_operations(self) -> int:
        """Total mark() calls, counting re-marks of existing entries."""
        return self._mark_ops

    def clear(self) -> None:
        self._marks.clear()
        self._mark_ops = 0
        if self._journal is not None:
            self._journal.clear()
        self._journal_base = 0

    def __len__(self) -> int:
        return len(self._marks)

    def __repr__(self) -> str:
        return (
            f"MarkTable({len(self._marks)} objects, {self.total_marks} marks, "
            f"granularity={self._granularity!r})"
        )
