"""HyperFile objects: sets of tuples (paper §2).

An object is an unordered collection of :class:`~repro.core.tuples.HFTuple`
values identified by an :class:`~repro.core.oid.Oid`.  There is no schema
and no object classes — the model is deliberately as elementary as a file
with self-describing records.

Objects are immutable once constructed; "editing" produces a new object
with the same id (stores swap the binding).  Immutability is what lets the
shared-memory engine of paper §6 process objects without locking.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .oid import Oid
from .patterns import _values_equal
from .tuples import HFTuple, pointer_tuple

#: :func:`probe_key` of a value no dictionary look-up can stand in for.
NO_PROBE: Any = object()
_TRUE: Any = object()
_FALSE: Any = object()

#: type -> (tuples of that type, key -> tuples with that key | None).
_Index = Dict[str, Tuple[Tuple[HFTuple, ...], Optional[Dict[Any, Tuple[HFTuple, ...]]]]]


def probe_key(value: Any) -> Any:
    """Dictionary key meeting exactly the values ``_values_equal`` equates.

    ``probe_key(a) == probe_key(b)`` iff ``_values_equal(a, b)``: booleans
    map to private stand-ins so ``True`` never meets ``1``; numbers and
    object ids are their own key, because ``5 == 5.0`` and ids differing
    only in their hint already hash and compare equal.  Returns
    :data:`NO_PROBE` for an unhashable value and for one with
    ``value != value`` (NaN), which a dictionary finds by identity although
    the matcher equates it with nothing.
    """
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    try:
        hash(value)
    except TypeError:
        return NO_PROBE
    return value if value == value else NO_PROBE


class HFObject:
    """An immutable HyperFile object.

    Duplicate tuples are collapsed (the model is a *set* of tuples) while
    first-seen order is preserved for deterministic iteration, which keeps
    query traces and tests reproducible.  Two tuples are duplicates when
    the matcher cannot tell them apart (see :func:`probe_key`).

    ``_index`` is what selections probe instead of scanning: ``type ->
    (bucket, by_key)``, where ``bucket`` holds the tuples of that type and
    ``by_key`` maps ``probe_key(key)`` to the tuples carrying that key,
    both in insertion order.  ``by_key`` is ``None`` for a bucket of one
    tuple (nothing to save) and for a bucket holding a key without a probe
    key; such a bucket is matched tuple by tuple.  The slot is lazy — an
    object no query touches costs nothing at load, and every functional
    update starts from ``None`` again — and is filled by one assignment of
    a mapping nobody mutates afterwards, so threads sharing the object see
    either ``None`` or a complete index; two that race both build the same
    one.
    """

    __slots__ = ("_oid", "_tuples", "_size_hint", "_index")

    def __init__(self, oid: Oid, tuples: Iterable[HFTuple] = (), size_hint: Optional[int] = None) -> None:
        if not isinstance(oid, Oid):
            raise TypeError(f"oid must be an Oid, got {type(oid).__name__}")
        seen = set()
        ordered: List[HFTuple] = []
        for t in tuples:
            if not isinstance(t, HFTuple):
                raise TypeError(f"expected HFTuple, got {type(t).__name__}")
            marker = _marker(t)
            if marker not in seen:
                seen.add(marker)
                ordered.append(t)
        self._oid = oid
        self._tuples = tuple(ordered)
        self._size_hint = size_hint
        self._index: Optional[_Index] = None

    @property
    def oid(self) -> Oid:
        """This object's identifier."""
        return self._oid

    @property
    def tuples(self) -> Tuple[HFTuple, ...]:
        """All tuples, in first-insertion order."""
        return self._tuples

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the object.

        Used by the file-server baseline (which must ship whole objects)
        and by the blob store's spill policy.  An explicit ``size_hint``
        wins; otherwise a cheap structural estimate is used.
        """
        if self._size_hint is not None:
            return self._size_hint
        total = 16  # header
        for t in self._tuples:
            total += 8 + _value_size(t.type) + _value_size(t.key) + _value_size(t.data)
        return total

    # -- tuple access helpers -------------------------------------------------

    # Field values compare as the matcher compares them (``_values_equal``),
    # and every helper answers in insertion order.

    def probe(self, type_name: str, key_probe: Any = NO_PROBE) -> Tuple[Sequence[HFTuple], bool]:
        """Candidate tuples for ``(type_name, key, *)`` from the index.

        ``key_probe`` is the :func:`probe_key` of the wanted key.  Returns
        the candidates and whether the key has been applied to them: when
        it has not (no ``key_probe``, or a bucket without a key map) the
        caller tests the key field of each candidate itself.
        """
        index = self._index
        if index is None:
            index = self._index = _build_index(self._tuples)
        entry = index.get(type_name)
        if entry is None:
            return (), True
        bucket, by_key = entry
        if by_key is None or key_probe is NO_PROBE:
            return bucket, False
        return by_key.get(key_probe, ()), True

    def _matching(self, type_name: str, key: Any) -> Sequence[HFTuple]:
        candidates, keyed = self.probe(type_name, probe_key(key))
        return candidates if keyed else [t for t in candidates if _values_equal(t.key, key)]

    def tuples_of_type(self, type_name: str) -> List[HFTuple]:
        """All tuples whose type field equals ``type_name``."""
        return list(self.probe(type_name)[0])

    def tuples_with_key(self, key: Any) -> List[HFTuple]:
        """All tuples whose key field equals ``key``."""
        return [t for t in self._tuples if _values_equal(t.key, key)]

    def first(self, type_name: str, key: Any) -> Optional[HFTuple]:
        """First tuple matching ``(type_name, key, *)``, or ``None``."""
        return next(iter(self._matching(type_name, key)), None)

    def values(self, type_name: str, key: Any) -> List[Any]:
        """Data fields of every tuple matching ``(type_name, key, *)``."""
        return [t.data for t in self._matching(type_name, key)]

    def pointers(self, key: Any = None) -> List[Oid]:
        """All pointer-valued data fields, optionally restricted to one key.

        Follows the structural definition (data field is an Oid) so that
        application-defined pointer types are included.
        """
        tuples = self._tuples if key is None else self.tuples_with_key(key)
        return [t.data for t in tuples if isinstance(t.data, Oid)]

    # -- functional update helpers --------------------------------------------

    def with_tuple(self, new: HFTuple) -> "HFObject":
        """Return a copy of this object with one tuple added."""
        return HFObject(self._oid, self._tuples + (new,), size_hint=self._size_hint)

    def with_tuples(self, extra: Iterable[HFTuple]) -> "HFObject":
        """Return a copy of this object with several tuples added."""
        return HFObject(self._oid, self._tuples + tuple(extra), size_hint=self._size_hint)

    def without(self, type_name: str, key: Any = None) -> "HFObject":
        """Return a copy with matching tuples removed (all keys if key is None)."""
        kept = [
            t
            for t in self._tuples
            if not (t.type == type_name and (key is None or _values_equal(t.key, key)))
        ]
        return HFObject(self._oid, kept, size_hint=self._size_hint)

    def relocated(self, oid: Oid) -> "HFObject":
        """Return a copy carrying a different id (used by migration tooling)."""
        moved = HFObject(oid, self._tuples, size_hint=self._size_hint)
        moved._index = self._index
        return moved

    # -- dunder protocol -------------------------------------------------------

    def __iter__(self) -> Iterator[HFTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item: HFTuple) -> bool:
        return item in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HFObject):
            return NotImplemented
        return self._oid == other._oid and frozenset(map(_marker, self._tuples)) == frozenset(
            map(_marker, other._tuples)
        )

    def __hash__(self) -> int:
        return hash(self._oid)

    def __repr__(self) -> str:
        return f"HFObject({self._oid}, {len(self._tuples)} tuples)"


def make_set_object(oid: Oid, members: Iterable[Oid], key: str = "Member") -> HFObject:
    """Build a *set object* (paper §2).

    HyperFile represents a set of objects as an ordinary object whose
    tuples point at the members: "The set of objects {A, B, C} is simply an
    object containing three tuples, one of which points to each of A, B,
    and C."  Query initial sets and query results are both stored this way.
    """
    return HFObject(oid, [pointer_tuple(key, m) for m in members])


def set_members(obj: HFObject, key: str = "Member") -> List[Oid]:
    """Extract the member ids from a set object built by :func:`make_set_object`."""
    return obj.pointers(key=key)


def _build_index(tuples: Tuple[HFTuple, ...]) -> _Index:
    buckets: Dict[str, List[HFTuple]] = {}
    for t in tuples:
        buckets.setdefault(t.type, []).append(t)
    return {type_name: (tuple(bucket), _key_map(bucket)) for type_name, bucket in buckets.items()}


def _key_map(bucket: List[HFTuple]) -> Optional[Dict[Any, Tuple[HFTuple, ...]]]:
    if len(bucket) == 1:
        return None
    by_key: Dict[Any, List[HFTuple]] = {}
    for t in bucket:
        probe = probe_key(t.key)
        if probe is NO_PROBE:
            return None
        by_key.setdefault(probe, []).append(t)
    return {probe: tuple(same_key) for probe, same_key in by_key.items()}


def _marker(t: HFTuple) -> tuple:
    """Hashable identity for set-semantics dedup: tuples the matcher tells
    apart get different markers (``True`` is not ``1``, ``1`` is ``1.0``)."""
    return (t.type, _marker_field(t.key), _marker_field(t.data))


def _marker_field(value: Any) -> Any:
    # probe_key(value) where there is one (spelt out: this runs twice per
    # tuple of every object built); NaN stands for itself, an unhashable
    # value for its repr.
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _value_size(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, Oid):
        return len(value.birth_site) + 12
    return 8
