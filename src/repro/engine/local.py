"""The local query-processing algorithm (paper Figure 3).

One :class:`QueryExecution` instance holds the state the paper associates
with a query at one site: the working set ``W``, the mark table, the result
set, and the (fixed) program.  The same class serves three callers:

* the **single-site engine** (:func:`run_local`) simply drains it;
* the **distributed node** (:mod:`repro.server.node`) drives it one object
  at a time so the simulator can charge per-object processing costs, and
  routes the remote work items each step reports;
* the **shared-memory engine** (:mod:`repro.engine.shared_memory`) runs
  several logical processors against one shared execution.

Remote pointers are recognised through a ``locate`` callback mapping an
object id to its site.  Work items for objects at this site go into ``W``;
items for other sites are surfaced in the :class:`StepOutcome` for the
caller to ship (the algorithm itself never blocks on the network — "send
the query, not the data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.oid import Oid
from ..core.program import Program
from ..errors import ObjectNotFound, QueryLimitExceeded
from .efunction import evaluate
from .items import ActiveItem, IterCounts, WorkItem
from .marktable import MarkTable
from .results import QueryResult
from .workset import WorkSet, make_workset

#: Resolves an object id to the site holding it.
Locator = Callable[[Oid], str]

#: Fetches an object body; must raise ObjectNotFound for dangling pointers.
Fetcher = Callable[[Oid], Any]


@dataclass
class StepOutcome:
    """What happened while processing one work item.

    The distributed node converts these fields into simulated time and
    outgoing messages; the single-site engine ignores everything except
    implicit state updates.
    """

    item: WorkItem
    admitted: bool = False            #: survived the mark-table admission test
    missing: bool = False             #: object could not be fetched (dangling pointer)
    into_result: bool = False         #: object newly added to the result set
    filters_applied: int = 0          #: E() evaluations performed
    local_spawned: int = 0            #: dereferenced objects added to local W
    remote: List[Tuple[str, WorkItem]] = field(default_factory=list)
    emitted: List[Tuple[str, Any]] = field(default_factory=list)
    #: The locally spawned items themselves; populated only when the
    #: execution's ``collect_spawns`` flag is set (tracing needs the item
    #: identities to thread span causality, counters alone do not).
    local_items: List[WorkItem] = field(default_factory=list)
    #: The step was replayed from the fragment cache (same state changes,
    #: but the caller should charge a cache-probe cost, not a fetch+filter
    #: cost).
    from_cache: bool = False


class QueryExecution:
    """Executable state of one query at one site (Figure 3 + §3.2 hooks)."""

    def __init__(
        self,
        program: Program,
        fetch: Fetcher,
        site: Optional[str] = None,
        locate: Optional[Locator] = None,
        discipline: str = "fifo",
        max_objects: Optional[int] = None,
        mark_granularity: str = "iteration",
    ) -> None:
        """
        Parameters
        ----------
        program:
            The compiled query (``Q.body`` in the paper's context table).
        fetch:
            ``fetch(oid) -> HFObject`` for objects stored at this site.
        site, locate:
            This site's id and the id→site resolver.  When either is
            ``None`` every pointer is treated as local (single-site mode).
        discipline:
            Working-set discipline name (see :mod:`repro.engine.workset`).
        max_objects:
            Optional guard: raise :class:`QueryLimitExceeded` after this
            many objects have been processed.
        mark_granularity:
            ``"iteration"`` (default, confluent) or ``"position"`` (the
            paper's literal table) — see :mod:`repro.engine.marktable`.
        """
        self.program = program
        self.fetch = fetch
        self.site = site
        self.locate = locate
        self.workset: WorkSet = make_workset(discipline)
        self.mark_table = MarkTable(granularity=mark_granularity)
        self.result = QueryResult()
        self.max_objects = max_objects
        #: Record spawned local items on each StepOutcome (tracing only).
        self.collect_spawns = False
        #: Optional :class:`repro.cache.FragmentCache` — when set (and
        #: ``epoch_fn`` supplies the local store's mutation epoch), steps
        #: are memoised and replayed.  ``None`` keeps this module entirely
        #: cache-free (bit-identical to the uncached build).
        self.fragment_cache = None
        self.epoch_fn: Optional[Callable[[], int]] = None
        self._suffix_cache: Dict[int, Tuple[str, int]] = {}

    # -- admission --------------------------------------------------------

    def seed(self, oids: Iterable[Oid]) -> None:
        """Load the initial set ``S_i``: every object starts at filter 1."""
        for oid in oids:
            self.admit(WorkItem(oid=oid, start=1))

    def admit(self, item: WorkItem) -> None:
        """Add a work item to ``W`` (local seed or incoming remote deref)."""
        self.workset.add(item)

    @property
    def has_work(self) -> bool:
        return bool(self.workset)

    @property
    def pending(self) -> int:
        return len(self.workset)

    # -- the algorithm ------------------------------------------------------

    def step(self) -> StepOutcome:
        """Pop one work item and push it through the filters.

        This is the body of Figure 3's outer while-loop.  Raises
        ``IndexError`` when ``W`` is empty.
        """
        item = self.workset.pop()
        outcome = StepOutcome(item=item)
        stats = self.result.stats

        if not self.mark_table.should_process(item.oid, item.start, item.iters):
            stats.objects_skipped_marked += 1
            return outcome
        outcome.admitted = True

        # Fragment-cache probe: a step is a pure function of (program
        # suffix, start, iter#, object contents), so under an unchanged
        # store epoch a recorded step replays exactly.
        cache = self.fragment_cache
        key = None
        base = 0
        epoch = 0
        if cache is not None:
            digest, lo = self._suffix_for(item.start)
            base = lo - 1
            epoch = self.epoch_fn() if self.epoch_fn is not None else 0
            key = (digest, item.oid.key(), _rebase_iters(item.iters, base))
            entry = cache.lookup(key, epoch)
            if entry is not None:
                self._replay(entry, item, base, outcome)
                outcome.from_cache = True
                return outcome

        spawned_rec: List[WorkItem] = []

        try:
            obj = self.fetch(item.oid)
        except ObjectNotFound:
            # Dangling pointer: mark so repeated references are cheap,
            # count it, and keep going (partial results beat none).
            self.mark_table.mark(item.oid, item.start, item.iters)
            stats.objects_missing += 1
            outcome.missing = True
            if cache is not None:
                cache.store(key, _fragment_entry(
                    missing=True, passed=False, marks=(item.start - base,),
                    spawned=(), emissions=(), epoch=epoch,
                ))
            return outcome

        stats.objects_processed += 1
        if self.max_objects is not None and stats.objects_processed > self.max_objects:
            raise QueryLimitExceeded("max_objects", self.max_objects)

        active: Optional[ActiveItem] = item.activate()
        program = self.program
        n = program.size
        emit = self._emit_collector(outcome)
        site, locate = self.site, self.locate
        # The filters the object flows through; no filter changes its oid
        # or iteration counts, so they are marked in one go below.
        positions: List[int] = []
        while active is not None and active.next <= n:
            positions.append(active.next)
            spawned, active = evaluate(program, active, obj, emit)
            for new_item in spawned:
                if cache is not None:
                    spawned_rec.append(new_item)
                dst = site if locate is None or site is None else locate(new_item.oid)
                if dst == site:
                    self.workset.add(new_item)
                    outcome.local_spawned += 1
                    if self.collect_spawns:
                        outcome.local_items.append(new_item)
                    stats.local_derefs += 1
                else:
                    outcome.remote.append((dst, new_item))
                    stats.remote_derefs += 1
        self.mark_table.mark_all(item.oid, positions, item.iters)
        outcome.filters_applied = len(positions)
        stats.filters_applied += len(positions)

        if active is not None:
            if self.result.oids.add(active.oid):
                stats.results_added += 1
                outcome.into_result = True
        if cache is not None:
            cache.store(key, _fragment_entry(
                missing=False,
                passed=active is not None,
                marks=tuple(position - base for position in positions),
                spawned=tuple(
                    (it.oid, it.start - base, _rebase_iters(it.iters, base))
                    for it in spawned_rec
                ),
                emissions=tuple(outcome.emitted),
                epoch=epoch,
            ))
        return outcome

    def _suffix_for(self, start: int) -> Tuple[str, int]:
        """Memoised (suffix digest, window start) for this program."""
        cached = self._suffix_cache.get(start)
        if cached is None:
            from ..cache.fragments import suffix_info

            cached = self._suffix_cache[start] = suffix_info(self.program, start)
        return cached

    def _replay(self, entry, item: WorkItem, base: int, outcome: StepOutcome) -> None:
        """Re-apply a recorded step's state changes exactly.

        Every counter, mark, spawn, emission and result insertion the
        computed path would have produced is reproduced here (relative
        positions rebased by the suffix window), so downstream behaviour
        — admission tests, journal hints, termination credit — cannot
        tell a replayed step from a computed one.
        """
        stats = self.result.stats
        if entry.missing:
            self.mark_table.mark(item.oid, item.start, item.iters)
            stats.objects_missing += 1
            outcome.missing = True
            return
        stats.objects_processed += 1
        if self.max_objects is not None and stats.objects_processed > self.max_objects:
            raise QueryLimitExceeded("max_objects", self.max_objects)
        self.mark_table.mark_all(item.oid, [rel_pos + base for rel_pos in entry.marks], item.iters)
        outcome.filters_applied = len(entry.marks)
        stats.filters_applied += len(entry.marks)
        for oid, rel_start, rel_iters in entry.spawned:
            new_item = WorkItem(
                oid=oid,
                start=rel_start + base,
                iters=tuple((idx + base, count) for idx, count in rel_iters),
            )
            if self._is_local(new_item.oid):
                self.workset.add(new_item)
                outcome.local_spawned += 1
                if self.collect_spawns:
                    outcome.local_items.append(new_item)
                stats.local_derefs += 1
            else:
                outcome.remote.append((self._site_of(new_item.oid), new_item))
                stats.remote_derefs += 1
        emit = self._emit_collector(outcome)
        for target, value in entry.emissions:
            emit(target, value)
        if entry.passed:
            if self.result.oids.add(item.oid):
                stats.results_added += 1
                outcome.into_result = True

    def run(self) -> QueryResult:
        """Drain the working set to completion and return the result.

        In single-site mode this is the complete algorithm; in distributed
        mode callers must instead drive :meth:`step` so remote items are
        shipped (running to completion here would silently drop them —
        hence the assertion).
        """
        while self.has_work:
            outcome = self.step()
            if outcome.remote:
                raise RuntimeError(
                    "QueryExecution.run() used with remote pointers present; "
                    "drive step() from a distributed node instead"
                )
        return self.result

    def abandon(self) -> int:
        """Discard all pending work (deadline expiry / query cancellation).

        Returns the number of work items dropped.  Results accumulated so
        far are kept — partial results beat none.
        """
        dropped = len(self.workset)
        while self.workset:
            self.workset.pop()
        return dropped

    # -- helpers -----------------------------------------------------------

    def _emit_collector(self, outcome: StepOutcome):
        def emit(target: str, value: Any) -> None:
            outcome.emitted.append((target, value))
            self.result.record_emission(target, value)

        return emit

    def _is_local(self, oid: Oid) -> bool:
        if self.locate is None or self.site is None:
            return True
        return self.locate(oid) == self.site

    def _site_of(self, oid: Oid) -> str:
        assert self.locate is not None
        return self.locate(oid)


def _rebase_iters(iters: IterCounts, base: int) -> IterCounts:
    """Iteration counts with loop indices made window-relative."""
    if not base or not iters:
        return iters
    return tuple((idx - base, count) for idx, count in iters)


def _fragment_entry(**kwargs):
    """Construct a FragmentEntry (imported lazily: the cache package is
    only touched when a fragment cache is actually attached)."""
    from ..cache.fragments import FragmentEntry

    return FragmentEntry(**kwargs)


def run_local(
    program: Program,
    initial: Iterable[Oid],
    fetch: Fetcher,
    discipline: str = "fifo",
    max_objects: Optional[int] = None,
    mark_granularity: str = "iteration",
) -> QueryResult:
    """Run a query entirely at one site (paper §3.1).

    ``fetch`` must be able to produce every object reachable by the query.
    """
    execution = QueryExecution(
        program,
        fetch,
        discipline=discipline,
        max_objects=max_objects,
        mark_granularity=mark_granularity,
    )
    execution.seed(initial)
    return execution.run()
