"""Tests for the application session layer (embedded language, paper §2)."""

import pytest

from repro.client.session import Session
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple, string_tuple
from repro.errors import HyperFileError


@pytest.fixture
def cluster_and_session():
    cluster = SimCluster(3)
    s0, s1 = cluster.store("site0"), cluster.store("site1")
    lib = s1.create([string_tuple("Title", "libc")])
    s1.replace(s1.get(lib.oid).with_tuple(pointer_tuple("Called Routine", lib.oid)))
    main = s0.create(
        [
            string_tuple("Author", "Joe Programmer"),
            string_tuple("Title", "Main Program"),
            pointer_tuple("Called Routine", lib.oid),
        ]
    )
    session = Session(cluster)
    session.define_set("S", [main.oid])
    return cluster, session, main.oid, lib.oid


class TestNamedSets:
    def test_define_and_read(self, cluster_and_session):
        _, session, main, _ = cluster_and_session
        assert session.set_members("S") == [main]
        assert session.has_set("S")
        assert session.count_set("S") == 1

    def test_unknown_set_rejected(self, cluster_and_session):
        _, session, _, _ = cluster_and_session
        with pytest.raises(HyperFileError):
            session.set_members("Nope")
        with pytest.raises(HyperFileError):
            session.query('Nope (String, "Author", ?) -> T')


class TestQueries:
    def test_result_set_usable_in_further_queries(self, cluster_and_session):
        _, session, main, lib = cluster_and_session
        session.query('S (Pointer, "Called Routine", ?X) ^^X -> T')
        assert session.count_set("T") == 2
        result = session.query('T (String, "Title", "libc") -> U')
        assert [o.key() for o in result] == [lib.key()]

    def test_retrieval_bindings(self, cluster_and_session):
        _, session, _, _ = cluster_and_session
        session.query('S (String, "Author", "Joe Programmer") (String, "Title", ->title) -> T')
        assert session.retrieve("title") == ["Main Program"]
        session.clear_bindings()
        assert session.retrieve("title") == []

    def test_response_time_recorded(self, cluster_and_session):
        _, session, _, _ = cluster_and_session
        session.query('S (String, "Author", ?) -> T')
        assert session.last_response_time is not None
        assert session.last_response_time > 0


class TestSetObjects:
    def test_materialize_and_load(self, cluster_and_session):
        cluster, session, main, lib = cluster_and_session
        session.define_set("Both", [main, lib])
        handle = session.materialize_set("Both")
        other = Session(cluster)
        other.load_set_object("Copy", handle)
        assert {o.key() for o in other.set_members("Copy")} == {main.key(), lib.key()}


class TestDistributedSets:
    def test_count_mode_keeps_ids_at_sites(self):
        cluster = SimCluster(3, config=ClusterConfig(result_mode="count"))
        stores = [cluster.store(s) for s in cluster.sites]
        oids = []
        for store in stores:
            for _ in range(2):
                obj = store.create([keyword_tuple("K")])
                store.replace(store.get(obj.oid).with_tuple(pointer_tuple("Ref", obj.oid)))
                oids.append(obj.oid)
        for i, oid in enumerate(oids[:-1]):
            store = cluster.store(oid.birth_site)
            store.replace(store.get(oid).with_tuple(pointer_tuple("Ref", oids[i + 1])))
        session = Session(cluster)
        session.define_set("S", [oids[0]])
        session.query('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T')
        assert session.is_distributed("T")
        assert session.count_set("T") == len(oids)
        with pytest.raises(HyperFileError):
            session.set_members("T")

    def test_followup_query_over_distributed_set(self):
        cluster = SimCluster(3, config=ClusterConfig(result_mode="count"))
        s0, s1 = cluster.store("site0"), cluster.store("site1")
        a = s0.create([keyword_tuple("K"), keyword_tuple("Blue")])
        b = s1.create([keyword_tuple("K")])
        s0.replace(s0.get(a.oid).with_tuple(pointer_tuple("Ref", b.oid)))
        s1.replace(s1.get(b.oid).with_tuple(pointer_tuple("Ref", b.oid)))
        session = Session(cluster)
        session.define_set("S", [a.oid])
        session.query('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T')
        assert session.count_set("T") == 2
        # Follow-up narrows the distributed set without moving ids.
        session.query('T (Keyword,"Blue",?) -> U')
        assert session.count_set("U") == 1
