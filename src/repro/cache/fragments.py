"""Per-site query-fragment result cache.

One engine *step* — pushing a single object through the filters from its
start position until it dies, spawns, or reaches the end — is a pure
function of ``(program suffix, start offset, iteration state, object
contents)``.  The fragment cache memoises that function per site: a
repeated or overlapping query that admits the same work item replays the
recorded marks/spawns/emissions instead of re-fetching and re-filtering
the object.

Keys are *suffix-canonical*: :func:`suffix_info` computes the smallest
window of the program an item starting at position ``start`` can ever
see (loop markers can jump backwards, so the window is the fixpoint of
"extend left to the earliest reachable loop start") and hashes the
window's operations with indices rebased to it.  Two queries whose
programs share a suffix therefore share cache entries, which is why
entries store *relative* positions — the engine rebases them on replay.

Entries carry the store epoch they were computed at; a lookup under any
other epoch drops the entry instead of serving it (the object may have
been replaced or removed since).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Optional, Tuple

from ..core.oid import Oid
from ..core.program import DerefOp, LoopOp, Program, RetrieveOp, SelectOp
from ..engine.items import IterCounts

try:  # OrderedDict-based LRU; collections is always available.
    from collections import OrderedDict
except ImportError:  # pragma: no cover
    raise

#: (oid, relative start, relative iteration counts) for a spawned item.
RelSpawn = Tuple[Oid, int, IterCounts]


def suffix_info(program: Program, start: int) -> Tuple[str, int]:
    """Hash of the program suffix an item starting at ``start`` can see.

    Returns ``(digest, window_lo)`` where ``window_lo`` is the 1-based
    index of the first operation in the window; cached payloads are
    stored relative to it, so replaying under a different program with
    the same suffix rebases by ``window_lo - 1``.
    """
    lo = min(start, program.size) if program.size else 1
    while True:
        new_lo = lo
        for op in program.ops[lo - 1 :]:
            if isinstance(op, LoopOp) and op.start < new_lo:
                new_lo = op.start
        if new_lo == lo:
            break
        lo = new_lo
    base = lo - 1
    described = tuple(_describe(op, base) for op in program.ops[base:])
    digest = blake2b(
        (repr(described) + f"|{start - base}").encode(), digest_size=16
    ).hexdigest()
    return digest, lo


def program_suffix_hash(program: Program, start: int = 1) -> str:
    """Suffix hash alone (the whole-query cache keys off ``start=1``)."""
    return suffix_info(program, start)[0]


def _describe(op: object, base: int) -> Tuple[Any, ...]:
    """Stable, window-relative description of one flattened operation."""
    if isinstance(op, SelectOp):
        return ("S", op.index - base, str(op.type_pattern), str(op.key_pattern), str(op.data_pattern))
    if isinstance(op, RetrieveOp):
        return ("R", op.index - base, str(op.type_pattern), str(op.key_pattern), op.target)
    if isinstance(op, DerefOp):
        return ("D", op.index - base, op.var, op.keep_source)
    if isinstance(op, LoopOp):
        return ("L", op.index - base, op.start - base, op.count)
    raise TypeError(f"unknown op {type(op).__name__}")  # pragma: no cover


@dataclass(frozen=True)
class FragmentEntry:
    """The recorded outcome of one step, in window-relative form.

    ``marks`` are the filter positions the step marked (one per filter
    application, in order); ``spawned`` the work items it produced;
    ``emissions`` the ``(target set, value)`` pairs it retrieved;
    ``passed`` whether the source object survived to the end of the
    program (i.e. entered the result set); ``missing`` whether the fetch
    raised :class:`~repro.errors.ObjectNotFound`.
    """

    missing: bool
    passed: bool
    marks: Tuple[int, ...]
    spawned: Tuple[RelSpawn, ...]
    emissions: Tuple[Tuple[str, Any], ...]
    epoch: int
    nbytes: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        # Rough accounting for the byte budget; exactness is not needed,
        # only monotonicity in entry size.
        size = 96 + 8 * len(self.marks) + 112 * len(self.spawned)
        size += sum(64 + len(repr(v)) for _, v in self.emissions)
        object.__setattr__(self, "nbytes", size)


class FragmentCache:
    """LRU fragment store with entry-count and byte budgets.

    ``stats`` (a :class:`~repro.server.stats.NodeStats`, or anything with
    ``cache_hits``/``cache_misses``/``cache_evictions`` counters) is
    optional so the cache is unit-testable in isolation.
    """

    def __init__(self, max_entries: int, max_bytes: int, stats: Optional[Any] = None) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = stats
        self._entries: "OrderedDict[tuple, FragmentEntry]" = OrderedDict()
        self._bytes = 0

    def lookup(self, key: tuple, epoch: int) -> Optional[FragmentEntry]:
        """Return a fresh entry for ``key`` or ``None``.

        An entry recorded at a different store epoch is *dropped*, never
        served — mutation invalidation is this one comparison.
        """
        entry = self._entries.get(key)
        if entry is None:
            if self.stats is not None:
                self.stats.cache_misses += 1
            return None
        if entry.epoch != epoch:
            del self._entries[key]
            self._bytes -= entry.nbytes
            if self.stats is not None:
                self.stats.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        if self.stats is not None:
            self.stats.cache_hits += 1
        return entry

    def store(self, key: tuple, entry: FragmentEntry) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while self._entries and (
            len(self._entries) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            if self.stats is not None:
                self.stats.cache_evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)
