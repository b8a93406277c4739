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
from typing import BinaryIO, Union

from ..core.objects import HFObject
from ..core.oid import Oid
from ..core.tuples import HFTuple
from ..net.codec import CodecError, _Reader, _read_value, _Writer, _write_value
from .memstore import MemStore

MAGIC = b"HFSNAP"
VERSION = 1

PathOrFile = Union[str, os.PathLike, BinaryIO]


def save_store(store: MemStore, destination: PathOrFile) -> int:
    """Write every object of ``store`` to ``destination``.

    Returns the number of objects written.  The allocator position is
    preserved so a restored site keeps minting fresh ids.
    """
    w = _Writer()
    w.chunks.append(MAGIC)
    w.byte(VERSION)
    w.text(store.site)
    w.varint(store._allocator.peek())
    objects = list(store.objects())
    w.varint(len(objects))
    for obj in objects:
        _write_value(w, obj.oid)
        w.varint(obj.size_bytes)
        w.varint(len(obj.tuples))
        for t in obj.tuples:
            w.text(t.type)
            _write_value(w, t.key)
            _write_value(w, t.data)
    payload = w.getvalue()
    if hasattr(destination, "write"):
        destination.write(payload)  # type: ignore[union-attr]
    else:
        with open(destination, "wb") as handle:
            handle.write(payload)
    return len(objects)


def load_store(source: PathOrFile) -> MemStore:
    """Rebuild a :class:`MemStore` from a snapshot.

    Raises :class:`~repro.net.codec.CodecError` on malformed input.
    """
    if hasattr(source, "read"):
        payload = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "rb") as handle:
            payload = handle.read()
    if not payload.startswith(MAGIC):
        raise CodecError("not a HyperFile snapshot (bad magic)")
    r = _Reader(payload)
    r.pos = len(MAGIC)
    version = r.byte()
    if version != VERSION:
        raise CodecError(f"unsupported snapshot version {version}")
    site = r.text()
    next_id = r.varint()
    count = r.varint()
    if count < 0 or count > 50_000_000:
        raise CodecError(f"implausible object count {count}")

    store = MemStore(site)
    for _ in range(count):
        oid = _read_value(r)
        if not isinstance(oid, Oid):
            raise CodecError("object record must start with an oid")
        size_hint = r.varint()
        n_tuples = r.varint()
        if n_tuples < 0 or n_tuples > 1_000_000:
            raise CodecError(f"implausible tuple count {n_tuples}")
        tuples = []
        for _ in range(n_tuples):
            type_name = r.text()
            key = _read_value(r)
            data = _read_value(r)
            tuples.append(HFTuple(type_name, key, data))
        store.put(HFObject(oid, tuples, size_hint=size_hint))
    if not r.done():
        raise CodecError("trailing bytes after snapshot")
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
