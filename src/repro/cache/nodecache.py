"""Per-node cache state: fragments, received summaries, query results.

One :class:`NodeCache` lives on each :class:`~repro.server.node.
ServerNode` when caching is enabled and makes every caching decision
the node asks for: a new context's set-up (:meth:`NodeCache.
open_context`), the epoch witness on receive, send suppression, the
summary a drain carries, and the originator's whole-query answer
(:meth:`NodeCache.serve` at submit, :meth:`NodeCache.finish` at
completion).  It owns

* the :class:`~repro.cache.fragments.FragmentCache` the engine consults
  per step;
* the freshest :class:`~repro.cache.summary.SiteSummary` received from
  every peer, plus the latest *epoch* observed from each peer (envelopes
  piggyback the sender's store epoch, so a mutation at site B is
  observed no later than B's next message);
* the originator-side whole-query result cache, keyed by (program
  suffix hash, initial work items) and guarded by a dependency
  footprint: the cached answer is served only while the local store
  epoch and every contributing site's last-observed epoch still match
  the epochs recorded when the answer was computed.

Suppression (the Bloom pruning) lives in :meth:`NodeCache.
should_suppress`; both rules require the destination to be the item's
*birth site* with no forwarding records, so "not in the summary" is
definitive.  They differ in how they survive silent mutations (a peer
that changed its store but has sent us nothing since):

* rule A is *monotone* — guarded by the summary's allocation high-water
  mark, "didn't exist then" implies "doesn't exist now" — so it needs no
  freshness proof beyond the epoch-matched summary itself;
* rule B is not (``replace`` can grow a leaf new pointers), so it
  additionally requires the destination's epoch to have been *confirmed
  by an envelope received during the current query*.  That keeps it
  exact whenever mutations do not race the query itself (racing
  mutations are nondeterministic even uncached).

* **Rule A (nonexistence)** — the oid is not in the destination's
  holdings filter: the object does not exist anywhere, the message
  could only produce an ``objects_missing`` bump at the far end.
* **Rule B (leaf)** — for the canonical closure shape only: the oid is
  not in the destination's reach filter for the followed pointer key,
  so even if held the object has no outgoing pointers of that key and
  dies at the iterator body's selection (the engine's leaf-drop rule) —
  it can never mark past its start positions, spawn, emit, or enter the
  result set.

Suppression happens *before* the termination protocol splits credit, so
a suppressed send is indistinguishable from a mark-table skip and the
weighted-credit accounting stays exact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Set, Tuple

from ..core.oid import Oid
from ..engine.items import WorkItem
from ..naming.directory import ForwardingTable
from ..storage.memstore import MemStore
from .bloom import oid_token
from .config import CacheConfig
from .fragments import FragmentCache, program_suffix_hash
from .summary import SiteSummary, build_summary, closure_pointer_key

#: Whole-query caches are small: answers are cheap to recompute locally
#: compared to fragments, and each entry pins full oid tuples.
QUERY_CACHE_CAP = 256


@dataclass(frozen=True)
class QueryHit:
    """A cached whole-query answer plus its dependency footprint."""

    oids: Tuple[Oid, ...]
    retrieved: Tuple[Tuple[str, Any], ...]
    self_epoch: int
    deps: Mapping[str, int]


class NodeCache:
    """All cache state for one site (see module docstring)."""

    def __init__(self, site: str, config: CacheConfig, stats: Any) -> None:
        self.site = site
        self.config = config
        self.stats = stats
        self.fragments: Optional[FragmentCache] = (
            FragmentCache(config.max_entries, config.max_bytes, stats)
            if config.fragments
            else None
        )
        self._summaries: Dict[str, SiteSummary] = {}
        self._known_epochs: Dict[str, int] = {}
        self._pointer_keys: Set[str] = set()
        # Per query held here: the closure-shape pointer key (None for
        # non-closure programs) that rule-B suppression follows.
        self._closure_keys: Dict[Hashable, Optional[str]] = {}
        self._own_summary: Optional[SiteSummary] = None
        self._own_summary_keys: frozenset = frozenset()
        # Per destination: (epoch, pointer-key set) of the last summary
        # shipped there, so unchanged summaries are not resent.
        self._summary_sent: Dict[str, Tuple[int, frozenset]] = {}
        self._query_cache: "OrderedDict[tuple, QueryHit]" = OrderedDict()
        # Per in-flight query served here: the whole-query key its answer
        # will be stored under, and the local store epoch at submit (the
        # answer is cached only if the store did not move in between).
        self._armed: Dict[Hashable, Tuple[tuple, int]] = {}
        # Per in-flight query: site -> epoch relied upon (None = the
        # footprint is poisoned and the answer must not be cached).
        self._query_deps: Dict[Hashable, Dict[str, Optional[int]]] = {}
        # Per query open here (in ``_closure_keys``): site -> epoch
        # witnessed by an envelope received *during that query* (the
        # freshness proof suppression requires; see module docstring).
        self._confirmed: Dict[Hashable, Dict[str, int]] = {}
        # ``(qid, site, epoch)`` witnessed by the last envelope of a query
        # not open here: the work message about to open it (a node handles
        # one message per step, witnessed just before the context is
        # created), or late traffic, which the next one overwrites.
        self._opening: Optional[Tuple[Hashable, str, int]] = None

    # -- epochs and summaries -------------------------------------------

    def observe_epoch(self, site: str, epoch: Optional[int]) -> None:
        """Record the latest epoch seen from ``site`` (via an envelope).

        A newer epoch invalidates any summary held for the site: stale
        summaries are dropped, never consulted.
        """
        if epoch is None or site == self.site:
            return
        prev = self._known_epochs.get(site)
        if prev is None or epoch > prev:
            self._known_epochs[site] = epoch
            summary = self._summaries.get(site)
            if summary is not None and summary.epoch < epoch:
                del self._summaries[site]

    def confirm_epoch(self, qid: Hashable, site: str, epoch: Optional[int]) -> None:
        """Witness ``site``'s epoch from an envelope handled for ``qid``.

        Nothing mutates mid-query in a quiescent system, so an epoch
        seen during the query vouches for the site's summary for the
        rest of it.  (A racing mutation merely re-opens the window the
        uncached system has anyway.)
        """
        if epoch is None or site == self.site:
            return
        self._confirmed.setdefault(qid, {})[site] = epoch

    def witness(self, site: str, epoch: int, qid: Any = None) -> None:
        """An epoch seen from ``site``: a newer one invalidates any summary
        held for it, and one riding an envelope of query ``qid`` is also
        that query's freshness witness (suppression toward ``site`` is then
        allowed for the query only against a summary at exactly this
        epoch) — recorded while the query is open here, counting the work
        message that opens it, so late traffic for a finished query
        leaves nothing behind."""
        self.observe_epoch(site, epoch)
        if qid is None or isinstance(qid, str):
            return
        if qid in self._closure_keys:
            self.confirm_epoch(qid, site, epoch)
        else:
            self._opening = (qid, site, epoch)

    def record_summary(self, summary: SiteSummary) -> None:
        """Ingest a summary piggybacked on a result message."""
        self.observe_epoch(summary.site, summary.epoch)
        if self._known_epochs.get(summary.site) == summary.epoch:
            self._summaries[summary.site] = summary
        self.stats.summaries_received += 1

    def summary_for(self, site: str) -> Optional[SiteSummary]:
        """The summary held for ``site``, or None if absent/stale."""
        summary = self._summaries.get(site)
        if summary is None or self._known_epochs.get(site) != summary.epoch:
            return None
        return summary

    def open_context(self, qid: Hashable, program: Any, execution: Any, epoch_fn: Any) -> None:
        """A context for ``qid`` is created here: its execution consults
        the fragment cache, and a closure-shaped query's pointer key is
        recorded for suppression and advertised by future summaries."""
        if self.fragments is not None:
            execution.fragment_cache = self.fragments
            execution.epoch_fn = epoch_fn
        pointer_key = closure_pointer_key(program)
        self._closure_keys[qid] = pointer_key
        opening, self._opening = self._opening, None
        if opening is not None and opening[0] == qid:
            self.confirm_epoch(*opening)
        if pointer_key is not None:
            self._pointer_keys.add(pointer_key)

    def summary_to_attach(
        self, dst: str, store: MemStore, forwarding: ForwardingTable
    ) -> Optional[SiteSummary]:
        """Summary to piggyback on a result message to ``dst``.

        Rebuilds lazily when the store epoch or the pointer-key set
        changed, and returns ``None`` when ``dst`` already has the
        current summary (no point paying the bytes twice).
        """
        if not self.config.summaries:
            return None
        keys = frozenset(self._pointer_keys)
        epoch = store.epoch
        if (
            self._own_summary is None
            or self._own_summary.epoch != epoch
            or self._own_summary_keys != keys
        ):
            self._own_summary = build_summary(
                self.site, epoch, store, forwarding, keys, self.config
            )
            self._own_summary_keys = keys
        if self._summary_sent.get(dst) == (epoch, keys):
            return None
        self._summary_sent[dst] = (epoch, keys)
        self.stats.summaries_sent += 1
        return self._own_summary

    # -- suppression -----------------------------------------------------

    def suppresses(self, qid: Hashable, dst: str, item: WorkItem) -> bool:
        """:meth:`should_suppress` for a query this site holds a context for."""
        return self.should_suppress(qid, dst, item, self._closure_keys.get(qid))

    def should_suppress(
        self,
        qid: Hashable,
        dst: str,
        item: WorkItem,
        pointer_key: Optional[str],
    ) -> bool:
        """True when sending ``item`` to ``dst`` provably cannot change
        the query's answer (see module docstring for the two rules)."""
        if not self.config.summaries:
            return False
        summary = self.summary_for(dst)
        if summary is None or summary.forward_count != 0:
            return False
        if item.oid.birth_site != dst:
            # Only the birth site is the final arbiter of existence; a
            # presumed-site miss would be forwarded, not dropped.
            return False
        token = oid_token(item.oid.key())
        suppress = False
        if (
            item.oid.key()[1] < summary.alloc_high
            and not summary.holdings.might_contain(token)
        ):
            # Rule A: nonexistent everywhere.  Sound at any summary age
            # without re-confirmation — the id was minted before the
            # snapshot (below the allocation mark), it wasn't held or
            # forwarded then, ids are never reused, and leaving the birth
            # site without a forwarding record means destroyed for good.
            suppress = True
        elif (
            pointer_key is not None
            and item.start in (1, 3)
            and self._confirmed.get(qid, {}).get(dst) == summary.epoch
        ):
            # Rule B (leaf pruning) is *not* monotone — a replace() can
            # grow a leaf new pointers — so it additionally needs a
            # same-query envelope witnessing that the summary's epoch is
            # still the destination's current one.  Silent mutations stay
            # safe: nothing mutates mid-query in a quiescent system, and
            # a mutation racing the query merely re-opens a window the
            # uncached system has anyway.
            reach = summary.reach.get(pointer_key)
            if reach is not None and not reach.might_contain(token):
                suppress = True
        if suppress:
            self.note_result_dep(qid, dst, summary.epoch)
        return suppress

    # -- whole-query result cache ---------------------------------------

    def query_key(self, program: Any, items: Iterable[WorkItem]) -> tuple:
        """Cache key for a whole query: program suffix + ordered seeds.

        Seed *order* matters — the result set is an ordered dedup, so
        reordered seeds may produce a differently-ordered answer.
        """
        return (
            program_suffix_hash(program, 1),
            tuple((item.oid.key(), item.start, item.iters) for item in items),
        )

    def begin_query(self, qid: Hashable) -> None:
        self._query_deps[qid] = {}

    def serve(self, ctx: Any, initial: Iterable[Oid], epoch: int) -> bool:
        """Originator, at submit: fill ``ctx.final`` from a cached answer
        and return True, or arm the query so its answer can be stored at
        completion."""
        if not self.config.query_cache:
            return False
        key = self.query_key(ctx.execution.program, (WorkItem(oid=oid, start=1) for oid in initial))
        hit = self.lookup_query(key, epoch)
        if hit is not None:
            for oid in hit.oids:
                ctx.final.oids.add(oid)
            for target, value in hit.retrieved:
                ctx.final.retrieved.setdefault(target, []).append(value)
            return True
        self._armed[ctx.qid] = (key, epoch)
        self.begin_query(ctx.qid)
        return False

    def finish(self, ctx: Any, epoch: int) -> None:
        """Originator, once a query is complete (or expired): store its
        answer if it is whole and the local store did not move since
        submit; otherwise the answer is fine but not cacheable, and a
        partial one must never be served from cache."""
        key, armed_epoch = self._armed.pop(ctx.qid, (None, None))
        if key is not None and not ctx.final.partial and epoch == armed_epoch:
            retrieved = tuple(
                (target, value)
                for target, values in ctx.final.retrieved.items()
                for value in values
            )
            self.store_query(ctx.qid, key, epoch, tuple(ctx.final.oids.as_list()), retrieved)
        else:
            self.drop_query(ctx.qid)

    def result_received(
        self, qid: Hashable, summary: Optional[SiteSummary], site: str, epoch: Optional[int], counted: bool
    ) -> None:
        """A result batch from ``site``: its piggybacked summary is useful
        whatever the fate of the batch (it describes the peer, not the
        query); a batch the query ``counted`` makes the answer depend on
        ``site``'s store at ``epoch``."""
        if summary is not None:
            self.record_summary(summary)
        if counted:
            self.note_result_dep(qid, site, epoch)

    def note_result_dep(self, qid: Hashable, site: str, epoch: Optional[int]) -> None:
        """Record that ``qid``'s answer depends on ``site`` at ``epoch``.

        A missing epoch, or two different epochs observed from the same
        site during one query, poisons the footprint — the answer is
        still correct but can't be validated later, so it is not cached.
        """
        deps = self._query_deps.get(qid)
        if deps is None:
            return
        if epoch is None:
            deps[site] = None
        elif site in deps and deps[site] != epoch:
            deps[site] = None
        elif deps.get(site, epoch) == epoch:
            deps[site] = epoch

    def lookup_query(self, key: tuple, self_epoch: int) -> Optional[QueryHit]:
        """A cached answer for ``key``, or None.

        Valid only while the local epoch and every dependency's
        last-observed epoch still match; anything stale is dropped.
        """
        if not self.config.query_cache:
            return None
        hit = self._query_cache.get(key)
        if hit is None:
            return None
        fresh = hit.self_epoch == self_epoch and all(
            self._known_epochs.get(site) == epoch for site, epoch in hit.deps.items()
        )
        if not fresh:
            del self._query_cache[key]
            return None
        self._query_cache.move_to_end(key)
        self.stats.query_cache_hits += 1
        return hit

    def store_query(
        self,
        qid: Hashable,
        key: tuple,
        self_epoch: int,
        oids: Tuple[Oid, ...],
        retrieved: Tuple[Tuple[str, Any], ...],
    ) -> None:
        """Cache a completed query's answer unless its footprint is
        poisoned (a dependency epoch was missing or ambiguous)."""
        deps = self._query_deps.pop(qid, {})
        self._confirmed.pop(qid, None)
        self._closure_keys.pop(qid, None)
        if not self.config.query_cache:
            return
        if any(epoch is None for epoch in deps.values()):
            return
        self._query_cache[key] = QueryHit(
            oids=oids,
            retrieved=retrieved,
            self_epoch=self_epoch,
            deps=dict(deps),
        )
        self._query_cache.move_to_end(key)
        while len(self._query_cache) > QUERY_CACHE_CAP:
            self._query_cache.popitem(last=False)

    def drop_query(self, qid: Hashable) -> None:
        """Forget a query's footprint (timeout, retirement)."""
        self._query_deps.pop(qid, None)
        self._confirmed.pop(qid, None)
        self._closure_keys.pop(qid, None)
        self._armed.pop(qid, None)
