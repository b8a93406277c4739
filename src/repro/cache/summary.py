"""Per-site reachability summaries.

A :class:`SiteSummary` is what one site can tell the rest of the cluster
about its holdings in a few hundred bytes, Bloofi-style:

* ``holdings`` — a Bloom filter over the keys of every object stored
  here *plus* every key this site holds a forwarding record for (the
  birth site stays the final arbiter of location, so its summary must
  cover migrated-away objects);
* ``reach`` — per pointer key, a Bloom filter over the keys of local
  objects with *at least one* outgoing pointer of that key.  The
  engine's leaf-drop rule (an object reached by a closure must still
  pass the iterator body) means an object absent from this filter can
  never produce results, spawns or emissions for the canonical closure
  shape (:func:`closure_pointer_key`) — so work for it need not be sent
  at all;
* ``forward_count`` — how many forwarding records exist.  Suppression
  rules only fire against a summary with ``forward_count == 0``: once a
  site forwards objects elsewhere, "not in my store" stops meaning
  "nonexistent".
* ``alloc_high`` — the site's oid-allocation high-water mark (exclusive)
  at build time.  A summary can only testify about ids the site had
  minted when it was built: ids at or above the mark belong to objects
  the site may have created *since*, so they are never suppressed.  For
  ids *below* the mark, "not in holdings" is monotone — sequence numbers
  are never reused, and an object that leaves its birth site without a
  forwarding record is destroyed for good — which is what lets the
  nonexistence rule fire without any epoch re-confirmation.

Summaries carry the store epoch they were built at and are only trusted
while that epoch is the latest one observed from the site (envelopes
piggyback the sender's current epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from ..core.patterns import Literal
from ..core.program import DerefOp, LoopOp, Program, SelectOp
from ..naming.directory import ForwardingTable
from ..storage.memstore import MemStore
from .bloom import BloomFilter, oid_token
from .config import CacheConfig


@dataclass(frozen=True)
class SiteSummary:
    """One site's holdings/reachability advertisement at a given epoch."""

    site: str
    epoch: int
    forward_count: int
    holdings: BloomFilter
    reach: Mapping[str, BloomFilter] = field(default_factory=dict)
    alloc_high: int = 0

    def wire_size(self) -> int:
        total = len(self.site) + 14 + self.holdings.wire_size()
        for key, bloom in self.reach.items():
            total += len(key) + 1 + bloom.wire_size()
        return total


def build_summary(
    site: str,
    epoch: int,
    store: MemStore,
    forwarding: ForwardingTable,
    pointer_keys: Iterable[str],
    config: CacheConfig,
) -> SiteSummary:
    """Snapshot this site's holdings and per-key reachability.

    ``pointer_keys`` is the set of pointer keys seen in closure-shaped
    queries so far — the only keys whose reach filters anyone will ever
    consult.
    """
    holdings = BloomFilter(config.bloom_bits, config.bloom_hashes)
    for obj in store.objects():
        holdings.add(oid_token(obj.oid.key()))
    forwarded = tuple(forwarding.forwarded_keys())
    for key in forwarded:
        holdings.add(oid_token(key))
    # Ids this site had minted when the snapshot was taken; stored or
    # forwarded objects born here can only push the mark up (an object
    # ``put`` here with a foreign-minted id of this site's birth space).
    alloc_high = store.alloc_high
    for key in forwarded:
        if key[0] == site and key[1] >= alloc_high:
            alloc_high = key[1] + 1
    reach: Dict[str, BloomFilter] = {}
    for pointer_key in sorted(set(pointer_keys)):
        bloom = BloomFilter(config.bloom_bits, config.bloom_hashes)
        for obj in store.objects():
            if obj.pointers(key=pointer_key):
                bloom.add(oid_token(obj.oid.key()))
        reach[pointer_key] = bloom
    return SiteSummary(
        site=site,
        epoch=epoch,
        forward_count=len(forwarded),
        holdings=holdings,
        reach=reach,
        alloc_high=alloc_high,
    )


def closure_pointer_key(program: Program) -> Optional[str]:
    """The pointer key of the canonical closure shape, else ``None``.

    The shape is exactly ``[ (Pointer, key, ?X) ^^X ]* (type, value, ?)``
    with literal key, type and value: an unbounded closure followed by
    one literal selection.  Only for it does the reach filter's leaf rule
    hold, so only its key is summarised and consulted.
    """
    ops = program.ops
    if len(ops) != 4:
        return None
    sel, der, loop, search = ops
    if not (
        isinstance(sel, SelectOp)
        and isinstance(der, DerefOp)
        and isinstance(loop, LoopOp)
        and isinstance(search, SelectOp)
    ):
        return None
    if loop.count is not None or loop.start != 1 or not der.keep_source:
        return None
    if not isinstance(sel.type_pattern, Literal) or sel.type_pattern.value != "Pointer":
        return None
    if not isinstance(sel.key_pattern, Literal):
        return None
    if not (isinstance(search.type_pattern, Literal) and isinstance(search.key_pattern, Literal)):
        return None
    return str(sel.key_pattern.value)
