"""Tests for store snapshots (archival persistence)."""

import io

import pytest

from repro.core.oid import Oid
from repro.core.tuples import blob_tuple, keyword_tuple, number_tuple, pointer_tuple, string_tuple
from repro.net.codec import CodecError
from repro.storage.memstore import MemStore
from repro.storage.snapshot import load_store, save_store, snapshot_round_trip_equal
from repro.workload import WorkloadSpec, build_graph, materialize


class TestRoundTrip:
    def test_empty_store(self, tmp_path):
        store = MemStore("archive")
        path = tmp_path / "empty.hfsnap"
        assert save_store(store, path) == 0
        restored = load_store(path)
        assert restored.site == "archive" and len(restored) == 0

    def test_all_tuple_kinds_survive(self, tmp_path):
        store = MemStore("s1")
        target = store.create([keyword_tuple("t")])
        store.create(
            [
                string_tuple("Title", "A Paper"),
                number_tuple("Year", 1991),
                number_tuple("Score", 2.5),
                keyword_tuple("Distributed", "weight-3"),
                pointer_tuple("Ref", target.oid),
                blob_tuple("Image", b"\x00\x01\xfe\xff"),
            ]
        )
        path = tmp_path / "store.hfsnap"
        save_store(store, path)
        restored = load_store(path)
        assert snapshot_round_trip_equal(store, restored)

    def test_workload_round_trip(self, tmp_path, small_spec, small_graph):
        store = MemStore("solo")
        materialize(small_spec, [store], graph=small_graph)
        path = tmp_path / "workload.hfsnap"
        count = save_store(store, path)
        assert count == small_spec.n_objects
        restored = load_store(path)
        assert snapshot_round_trip_equal(store, restored)

    def test_queries_agree_after_restore(self, tmp_path, small_spec, small_graph):
        from repro.core.program import compile_query
        from repro.engine.local import run_local
        from repro.workload import closure_query

        store = MemStore("solo")
        workload = materialize(small_spec, [store], graph=small_graph)
        program = compile_query(closure_query("Tree", "Rand10p", 5))
        before = run_local(program, [workload.root], store.get)

        path = tmp_path / "workload.hfsnap"
        save_store(store, path)
        restored = load_store(path)
        after = run_local(program, [workload.root], restored.get)
        assert before.oid_keys() == after.oid_keys()

    def test_allocator_position_preserved(self, tmp_path):
        store = MemStore("s1")
        store.create([])
        store.create([])
        path = tmp_path / "s.hfsnap"
        save_store(store, path)
        restored = load_store(path)
        fresh = restored.create([])
        assert fresh.oid.local_id == 2  # no id reuse after restore

    def test_file_like_objects(self):
        store = MemStore("s1")
        store.create([keyword_tuple("K")])
        buffer = io.BytesIO()
        save_store(store, buffer)
        buffer.seek(0)
        restored = load_store(buffer)
        assert snapshot_round_trip_equal(store, restored)


class TestRobustness:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTASNAPSHOT")
        with pytest.raises(CodecError, match="magic"):
            load_store(path)

    def test_truncated_snapshot(self, tmp_path):
        store = MemStore("s1")
        store.create([keyword_tuple("K"), string_tuple("Title", "x" * 100)])
        path = tmp_path / "s.hfsnap"
        save_store(store, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(CodecError):
            load_store(path)

    def test_trailing_garbage(self, tmp_path):
        store = MemStore("s1")
        store.create([keyword_tuple("K")])
        path = tmp_path / "s.hfsnap"
        save_store(store, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CodecError, match="trailing"):
            load_store(path)

    def test_unsupported_version(self, tmp_path):
        store = MemStore("s1")
        path = tmp_path / "s.hfsnap"
        save_store(store, path)
        data = bytearray(path.read_bytes())
        data[6] = 99  # version byte
        path.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="version"):
            load_store(path)


def golden_store() -> MemStore:
    """A small store with every tuple kind, a hinted pointer and a size hint."""
    store = MemStore("s1")
    target = store.create([keyword_tuple("t")])
    store.create(
        [
            string_tuple("Title", "A Paper"),
            number_tuple("Year", 1991),
            number_tuple("Score", 2.5),
            pointer_tuple("Ref", target.oid),
            pointer_tuple("Away", Oid("s2", 7, presumed_site="s3")),
            blob_tuple("Image", b"\x00\xff"),
        ],
        size_hint=300,
    )
    return store


#: ``save_store(golden_store(), ...)``, taken before snapshots were written
#: with the wire codec's object type: the file format has not moved.
GOLDEN_SNAPSHOT = bytes.fromhex(
    "4846534e4150010473310404080473310004733140020e4b6579776f726405027405000804733102047331d8040c0c"
    "537472696e67050a5469746c65050e412050617065720c4e756d626572050859656172038e1f0c4e756d626572050a"
    "53636f72650440040000000000000e506f696e746572050652656608047331000473310e506f696e74657205084177"
    "6179080473320e04733308426c6f62050a496d616765060400ff"
)


class TestFormatIsPinned:
    def test_save_writes_the_golden_bytes(self):
        buffer = io.BytesIO()
        assert save_store(golden_store(), buffer) == 2
        assert buffer.getvalue() == GOLDEN_SNAPSHOT

    def test_the_golden_bytes_load(self):
        restored = load_store(io.BytesIO(GOLDEN_SNAPSHOT))
        assert snapshot_round_trip_equal(golden_store(), restored)
        assert restored.create([]).oid.local_id == 2

    def test_an_empty_tuple_type_is_a_codec_error(self):
        # It used to escape as the tuple constructor's bare ValueError.
        assert GOLDEN_SNAPSHOT.count(b"\x0eKeyword") == 1
        with pytest.raises(CodecError):
            load_store(io.BytesIO(GOLDEN_SNAPSHOT.replace(b"\x0eKeyword", b"\x00")))
