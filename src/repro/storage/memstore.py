"""Main-memory object store (paper §2, §5).

The prototype in the paper is "a main memory database"; all pointers,
keywords and other search information are cached in RAM so that disk access
is only required for large items.  :class:`MemStore` is that RAM-resident
store for one site.  Large opaque payloads can be segregated into a
:class:`~repro.storage.blobstore.BlobStore` so filtering never touches
them (see :meth:`MemStore.put` with ``spill``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.objects import HFObject
from ..core.oid import Oid, OidAllocator
from ..core.tuples import HFTuple
from ..errors import DuplicateObject, ObjectNotFound


class MemStore:
    """Per-site in-memory store mapping object ids to objects.

    Lookups are hint-insensitive: an :class:`~repro.core.oid.Oid` with a
    stale presumed site still finds the object as long as it truly lives
    here (the identity is ``(birth_site, local_id)``).
    """

    def __init__(self, site: str) -> None:
        self._site = site
        self._objects: Dict[Tuple[str, int], HFObject] = {}
        self._allocator = OidAllocator(site)
        self.fetch_count = 0  # reads, for metrics and cache experiments
        #: Mutation epoch: bumped by every create/put/replace/remove.  The
        #: caching layer and the query planner key freshness off this — a
        #: cached answer is valid only while the epoch it was derived from
        #: is still current.  Reads never bump it.
        self._epoch = 0

    @property
    def site(self) -> str:
        return self._site

    @property
    def epoch(self) -> int:
        """Current mutation epoch (monotonic, starts at 0)."""
        return self._epoch

    @property
    def alloc_high(self) -> int:
        """Exclusive upper bound on local ids minted in this site's birth
        space: an oid ``(site, n)`` with ``n >= alloc_high`` cannot exist
        anywhere yet.  Covers both the local allocator and objects ``put``
        here under externally minted ids of this site."""
        high = self._allocator.peek()
        for birth, local_id in self._objects:
            if birth == self._site and local_id >= high:
                high = local_id + 1
        return high

    # -- creation --------------------------------------------------------

    def create(self, tuples: Iterable[HFTuple] = (), size_hint: Optional[int] = None) -> HFObject:
        """Mint a fresh id at this site and store a new object under it."""
        oid = self._allocator.allocate()
        obj = HFObject(oid, tuples, size_hint=size_hint)
        self._objects[oid.key()] = obj
        self._epoch += 1
        return obj

    def create_many(self, n: int) -> List[Oid]:
        """``n`` calls of ``create()`` in one: the fresh ids of ``n`` empty
        objects, in allocation order (a bulk load fills them in with
        :meth:`replace_many`)."""
        return [self.create().oid for _ in range(n)]

    def put(self, obj: HFObject, overwrite: bool = False) -> None:
        """Store ``obj`` under its existing id.

        Used when objects are generated elsewhere (workload generator,
        migration).  Without ``overwrite``, storing a second object under
        an existing id raises :class:`~repro.errors.DuplicateObject` —
        ids are immutable identities, not slots.
        """
        key = obj.oid.key()
        if not overwrite and key in self._objects:
            raise DuplicateObject(f"object {obj.oid} already stored at {self._site}")
        self._objects[key] = obj
        self._epoch += 1

    def replace(self, obj: HFObject) -> None:
        """Swap in a new version of an existing object (functional update)."""
        key = obj.oid.key()
        if key not in self._objects:
            raise ObjectNotFound(obj.oid, self._site)
        self._objects[key] = obj
        self._epoch += 1

    def replace_many(self, objects: Iterable[HFObject]) -> None:
        """``replace`` each object in turn."""
        for obj in objects:
            self.replace(obj)

    # -- access ------------------------------------------------------------

    def get(self, oid: Oid) -> HFObject:
        """Fetch an object; raises :class:`~repro.errors.ObjectNotFound`."""
        self.fetch_count += 1
        try:
            return self._objects[oid.key()]
        except KeyError:
            raise ObjectNotFound(oid, self._site) from None

    def contains(self, oid: Oid) -> bool:
        return oid.key() in self._objects

    def remove(self, oid: Oid) -> HFObject:
        """Delete and return an object (used by migration)."""
        try:
            obj = self._objects.pop(oid.key())
        except KeyError:
            raise ObjectNotFound(oid, self._site) from None
        self._epoch += 1
        return obj

    def oids(self) -> List[Oid]:
        """Ids of every object stored here, in insertion order."""
        return [obj.oid for obj in self._objects.values()]

    def objects(self) -> Iterator[HFObject]:
        return iter(self._objects.values())

    def scan(self, predicate: Callable[[HFObject], bool]) -> Iterator[HFObject]:
        """Full scan with a predicate — what a file server would have to do."""
        for obj in self._objects.values():
            self.fetch_count += 1
            if predicate(obj):
                yield obj

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, Oid) and oid.key() in self._objects

    def __repr__(self) -> str:
        return f"MemStore(site={self._site!r}, {len(self._objects)} objects)"


class UnionStore:
    """Read-only view over several sites' stores as one database.

    The centralized baseline uses this to run "all objects at a single
    site" without copying the data set between configurations.
    """

    def __init__(self, stores: Iterable[MemStore]) -> None:
        self._stores = list(stores)

    def get(self, oid: Oid) -> HFObject:
        for store in self._stores:
            if store.contains(oid):
                return store.get(oid)
        raise ObjectNotFound(oid)

    def contains(self, oid: Oid) -> bool:
        return any(store.contains(oid) for store in self._stores)

    def oids(self) -> List[Oid]:
        out: List[Oid] = []
        for store in self._stores:
            out.extend(store.oids())
        return out

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)
