"""Cross-query caching & Bloom-summary pruning (ROADMAP: caching/scaling).

The paper's mark tables only dedup work *within* one query; repeated or
overlapping filtering queries re-traverse the same remote subgraphs and
re-pay the message cost every time.  This package adds three layers on
top of the §3 algorithm, all strictly optional (``caching=None`` keeps
every transport bit-identical to the uncached reproduction):

* a per-site **fragment cache** (:mod:`repro.cache.fragments`) memoising
  single processing steps keyed by (program-suffix hash, oid, iteration
  state);
* **remote reachability summaries** (:mod:`repro.cache.summary`) — per
  site Bloom filters piggybacked on result messages and used by senders
  to suppress remote work that provably cannot contribute;
* **epoch-based invalidation** — every :class:`~repro.storage.memstore.
  MemStore` mutation bumps a site epoch carried in envelopes, so stale
  entries and summaries are dropped rather than served.

Import discipline: nothing in this package imports from :mod:`repro.net`
(the codec imports *us*), so the dependency graph stays acyclic.

See ``docs/CACHING.md`` for the invalidation rules and the Bloom
false-positive argument (a false positive costs one redundant message;
it can never lose an answer).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bloom": ("BloomFilter", "oid_token"),
    ".config": ("CacheConfig",),
    ".fragments": ("FragmentCache", "FragmentEntry", "program_suffix_hash"),
    ".nodecache": ("NodeCache",),
    ".summary": ("SiteSummary", "build_summary", "closure_pointer_key"),
})
