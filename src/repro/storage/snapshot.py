"""Store snapshots: persist a site's objects to disk and back.

The paper's deployment story includes archival servers ("old papers would
be placed on an archival server") — an archive needs durable storage.
This module serialises a whole :class:`~repro.storage.memstore.MemStore`
to a single binary file and restores it, using the same closed-type
encoding discipline as the wire codec (no pickle; only HyperFile's value
types decode).

Format: magic + version, the site name, the allocator position, then one
record per object (oid, size hint, tuple list).  Everything length-
prefixed; truncation and corruption raise
:class:`~repro.net.codec.CodecError` rather than mis-loading.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Tuple, Union

from ..errors import DuplicateObject
from ..net.codec import OBJECT, TEXT, VARINT, CodecError, list_of, read_frame
from .memstore import MemStore

MAGIC = b"HFSNAP"
VERSION = 1

PathOrFile = Union[str, os.PathLike, BinaryIO]


#: After the magic and the version byte: the site name, the allocator
#: position, then one record per object (the wire codec's object type).
_BODY = (TEXT, VARINT, list_of(OBJECT, hi=50_000_000))


def save_store(store: MemStore, destination: PathOrFile) -> int:
    """Write every object of ``store`` to ``destination``.

    Returns the number of objects written.  The allocator position is
    preserved so a restored site keeps minting fresh ids.
    """
    objects = list(store.objects())
    chunks = [MAGIC, bytes((VERSION,))]
    for wire, value in zip(_BODY, (store.site, store._allocator.peek(), objects)):
        wire.write(chunks, value)
    payload = b"".join(chunks)
    if hasattr(destination, "write"):
        destination.write(payload)  # type: ignore[union-attr]
    else:
        with open(destination, "wb") as handle:
            handle.write(payload)
    return len(objects)


def _snapshot_at(data: bytes, pos: int, record: object = None) -> Tuple[list, int]:
    if not data.startswith(MAGIC):
        raise CodecError("not a HyperFile snapshot (bad magic)")
    pos = len(MAGIC)
    if data[pos] != VERSION:
        raise CodecError(f"unsupported snapshot version {data[pos]}")
    pos += 1
    values = []
    for wire in _BODY:
        value, pos = wire.read(data, pos)
        values.append(value)
    return values, pos


def load_store(source: PathOrFile) -> MemStore:
    """Rebuild a :class:`MemStore` from a snapshot.

    Raises :class:`~repro.net.codec.CodecError` on malformed input.
    """
    if hasattr(source, "read"):
        payload = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "rb") as handle:
            payload = handle.read()
    site, next_id, objects = read_frame(_snapshot_at, payload)
    store = MemStore(site)
    for obj in objects:
        try:
            store.put(obj)
        except DuplicateObject as exc:
            raise CodecError(str(exc)) from None
    # Restore the allocator position (private by design: snapshots are a
    # storage-layer facility).
    store._allocator._next = next_id
    return store


def snapshot_round_trip_equal(a: MemStore, b: MemStore) -> bool:
    """Structural equality of two stores (test/verification helper)."""
    if a.site != b.site or len(a) != len(b):
        return False
    for obj in a.objects():
        if not b.contains(obj.oid):
            return False
        if b.get(obj.oid) != obj:
            return False
    return True
