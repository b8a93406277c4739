"""Process-mode specifics: the control channel under ClusterConfig(processes=True).

The cross-transport conformance suite runs the shared scenarios against
``async+procs``; this file covers what only process mode can get wrong —
the StoreProxy/MemStore surface contract, typed child-death errors, the
control link's framing and its one op table, the give_up push path,
dynamic reliable arming, and the credit merge.
"""

import inspect
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import make_cluster
from repro.config import ClusterConfig
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.errors import (
    ChildProcessDied,
    ConfigError,
    DuplicateObject,
    HyperFileError,
    TerminationLost,
)
from repro.faults import FaultPlan
from repro.faults.reliable import ReliableConfig
from repro.net import procserver
from repro.net.codec import FRAME_HEADER, encode_frame
from repro.storage.memstore import MemStore
from repro.workload import WorkloadSpec, materialize

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def proc_cluster(sites=2, **kwargs):
    return make_cluster("async", sites, config=ClusterConfig(processes=True, **kwargs))


def exit_before_hello(*_args):
    """A child entry point that dies before connecting (pickled by
    reference, so the child imports this module to find it)."""
    os._exit(3)


def legacy_materialize(spec, stores):
    """``materialize`` as it loaded a database one call per object: every
    id minted in abstract-index order, then every object replaced."""
    from repro.core.objects import HFObject
    from repro.workload.generator import _draw_key_values, _object_tuples
    from repro.workload.graphs import build_graph

    graph = build_graph(n=spec.n_objects, groups=spec.groups, locality_classes=spec.locality_classes,
                        pointers_per_class=spec.pointers_per_class, tree_arity=spec.tree_arity,
                        seed=spec.seed)
    key_values, payload = _draw_key_values(spec), "x" * spec.payload_bytes
    homes = [stores[graph.site_of(i, len(stores))] for i in range(spec.n_objects)]
    oids = [store.create([]).oid for store in homes]
    for i, store in enumerate(homes):
        tuples = _object_tuples(i, spec, graph, oids, key_values, payload)
        store.replace(HFObject(oids[i], tuples, size_hint=64 + spec.payload_bytes))


def live_children():
    """Processes whose parent is this one, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                ppid = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[1]
            except OSError:
                continue  # ended while we looked
            if int(ppid) == me:
                pids.append(int(entry))
    return pids


#: A script whose site children print the repro modules they hold when
#: they start serving, then serve as usual.
REPORT_CHILD_MODULES = """
import json
import os
import sys

from repro.net import procserver

serve = procserver._child_main


def report_modules(*args):
    loaded = sorted(name for name in sys.modules if name.startswith("repro"))
    # One write of under PIPE_BUF bytes: the children's lines never interleave.
    os.write(1, f"child-modules {json.dumps(loaded)}\\n".encode())
    serve(*args)


if __name__ == "__main__":
    from repro.config import ClusterConfig

    procserver._child_main = report_modules
    procserver.ProcessCluster(2, config=ClusterConfig(processes=True)).close()
"""


def build_chain(cluster, length=6):
    stores = [cluster.store(s) for s in cluster.sites]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    last = stores[(length - 1) % len(stores)]
    last.replace(last.get(oids[-1]).with_tuple(pointer_tuple("Ref", oids[-1])))
    return oids


class TestStoreProxyParity:
    """StoreProxy must be a full MemStore drop-in (satellite: audited
    surface + introspective test so future MemStore growth fails here)."""

    def test_surface_superset_of_memstore(self):
        from repro.net.procserver import StoreProxy
        from repro.storage.memstore import MemStore

        def surface(cls):
            keep = set()
            for name, member in vars(cls).items():
                if name.startswith("_") and name not in ("__len__", "__contains__"):
                    continue
                if callable(member) or isinstance(member, property):
                    keep.add(name)
            return keep

        missing = surface(MemStore) - surface(StoreProxy)
        assert not missing, f"StoreProxy lacks MemStore members: {sorted(missing)}"

    def test_full_surface_against_a_live_child(self):
        with proc_cluster() as cluster:
            store = cluster.store("site0")
            a = store.create([keyword_tuple("K")])
            b = store.create([keyword_tuple("K")])
            assert store.contains(a.oid) and a.oid in store
            assert len(store) == 2
            assert {o.oid.key() for o in [a, b]} == {oid.key() for oid in store.oids()}
            assert {obj.oid.key() for obj in store.objects()} == {
                a.oid.key(),
                b.oid.key(),
            }
            assert [o.oid.key() for o in store.scan(lambda o: o.oid == a.oid)] == [
                a.oid.key()
            ]
            epoch_before = store.epoch
            store.replace(store.get(a.oid).with_tuple(keyword_tuple("X")))
            assert store.epoch > epoch_before
            assert store.alloc_high >= 2
            with pytest.raises(DuplicateObject):
                store.put(a)
            store.put(store.get(a.oid), overwrite=True)  # idempotent path
            removed = store.remove(b.oid)
            assert removed.oid == b.oid
            assert not store.contains(b.oid) and b.oid not in store
            assert len(store) == 1
            assert "site0" in repr(store)
            epoch_before = store.epoch
            fresh = store.create_many(3)
            assert [oid.local_id for oid in fresh] == [2, 3, 4]  # allocation order
            store.replace_many(store.get(oid).with_tuple(keyword_tuple("Y")) for oid in fresh)
            assert store.epoch == epoch_before + 6
            assert all(store.get(oid).tuples == (keyword_tuple("Y"),) for oid in fresh)

    def test_materialize_loads_every_store_identically(self):
        """The bulk load's two calls per store leave the ids, objects and
        epochs one call per object left, through MemStore and StoreProxy."""
        spec = WorkloadSpec()
        reference = [MemStore(f"site{i}") for i in range(3)]
        legacy_materialize(spec, reference)
        local = [MemStore(f"site{i}") for i in range(3)]
        db = materialize(spec, local)
        with proc_cluster(3) as cluster:
            remote = materialize(spec, [cluster.store(site) for site in cluster.sites])
            assert remote.oids == db.oids
            for site, want, got in zip(cluster.sites, reference, local):
                proxy = cluster.store(site)
                assert [(o.oid, o.tuples) for o in got.objects()] == [(o.oid, o.tuples) for o in want.objects()]
                assert [(o.oid, o.tuples) for o in proxy.objects()] == [(o.oid, o.tuples) for o in want.objects()]
                assert got.epoch == proxy.epoch == want.epoch
                assert got.alloc_high == proxy.alloc_high == want.alloc_high

    def test_rejects_simulator_config_handed_directly(self):
        # Belt for configs minted with processes=False then given to the
        # process transport: require_default still raises typed.
        from repro.net.procserver import ProcessCluster
        from repro.sim.costs import PAPER_COSTS

        with pytest.raises(ConfigError):
            ProcessCluster(2, config=ClusterConfig(costs=PAPER_COSTS))


class TestChildDeath:
    """A dead child must surface as a typed error naming the site —
    never a bare 'no control reply' nor a silent 30s hang."""

    def test_kill_mid_query_raises_termination_lost_naming_site(self):
        plan = FaultPlan(seed=11).link("site0", "site1", drop=1.0)
        cluster = proc_cluster(fault_plan=plan)
        try:
            oids = build_chain(cluster)
            qid = cluster.submit(CLOSURE, [oids[0]])  # hangs on the dead link
            cluster._links["site0"].process.kill()
            started = time.monotonic()
            with pytest.raises(TerminationLost) as excinfo:
                cluster.wait(qid, timeout_s=30.0)
            assert time.monotonic() - started < 10.0, "death must beat the backstop"
            assert excinfo.value.site == "site0"
            assert "site0" in str(excinfo.value)
            with pytest.raises(TerminationLost) as again:  # never a private marker
                cluster.outcome(qid)
            assert again.value.site == "site0"
        finally:
            cluster.close()

    def test_child_exiting_before_hello_is_reported_at_once(self, monkeypatch):
        monkeypatch.setattr(procserver, "_child_main", exit_before_hello)
        started = time.monotonic()
        with pytest.raises(ChildProcessDied, match="exited with code 3 before HELLO"):
            proc_cluster()
        assert time.monotonic() - started < 10.0

    def test_control_requests_against_a_dead_child_fail_typed(self):
        cluster = proc_cluster()
        try:
            link = cluster._links["site1"]
            link.process.kill()
            link.process.join(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while not link.dead and time.monotonic() < deadline:
                time.sleep(0.01)  # reader thread sees EOF and marks it
            with pytest.raises(ChildProcessDied) as excinfo:
                cluster.store("site1").contains(cluster.store("site0").create([]).oid)
            assert excinfo.value.site == "site1"
            assert "site1" in str(excinfo.value)
        finally:
            cluster.close()


class TestForkServer:
    """Children fork from a fork server that has already imported the
    site runtime, and closing the last cluster stops it: a caller is left
    with no child process of its own."""

    def test_a_child_imports_only_the_site_runtime(self, tmp_path):
        script = tmp_path / "report_child_modules.py"
        script.write_text(REPORT_CHILD_MODULES)
        src = str(Path(procserver.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=60, env=env, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        reports = [json.loads(line.split(" ", 1)[1]) for line in done.stdout.splitlines()
                   if line.startswith("child-modules ")]
        assert len(reports) == 2
        for loaded in reports:
            assert "repro.net.procserver" in loaded
            for feature in ("repro.client", "repro.net.simnet", "repro.metrics.charts",
                            "repro.cluster", "repro.membership.service", "repro.cache.nodecache"):
                assert feature not in loaded

    def test_the_last_close_leaves_no_child_process(self):
        first = proc_cluster()
        second = proc_cluster(fault_plan=FaultPlan(seed=3).link("site0", "site1", drop=1.0))
        try:
            first.close()
            first.close()  # a second close does nothing
            assert live_children(), "the fork server still serves the second cluster"
            oids = build_chain(second)
            qid = second.submit(CLOSURE, [oids[0]])  # in flight on a dead link
            started = time.monotonic()
            second.close()
            assert time.monotonic() - started < 10.0
            assert qid in second._inflight
        finally:
            first.close()
            second.close()
        assert live_children() == []

    def test_a_cluster_that_fails_to_start_leaves_no_child_process(self, monkeypatch):
        monkeypatch.setattr(procserver, "_child_main", exit_before_hello)
        with pytest.raises(ChildProcessDied):
            proc_cluster()
        assert live_children() == []

    def test_a_config_refused_after_the_children_started_leaves_no_child_process(self):
        from repro.membership import MembershipConfig
        from repro.replication import ReplicationConfig

        with pytest.raises(ConfigError, match="heartbeat_s"):  # wall clock: no gossip detector
            proc_cluster(replication=ReplicationConfig(k=2), membership=MembershipConfig(heartbeat_s=0.1))
        assert live_children() == []


class TestControlFraming:
    """The parent's blocking reads on a control link, over a socketpair:
    an orderly EOF between frames is ``None``, and a close that cuts a
    frame short is an error, never an EOF."""

    def test_frame_round_trip(self):
        from repro.net.procserver import _recv_frame

        a, b = socket.socketpair()
        with a, b:
            a.sendall(encode_frame(b"hello world") + encode_frame(b""))
            assert _recv_frame(b) == b"hello world"
            assert _recv_frame(b) == b""
            a.close()
            assert _recv_frame(b) is None

    def test_oversized_frame_rejected(self):
        from repro.net.procserver import _recv_frame

        a, b = socket.socketpair()
        with a, b:
            a.sendall(FRAME_HEADER.pack(2**31))
            with pytest.raises(HyperFileError, match="exceeds limit"):
                _recv_frame(b)

    def test_truncated_header_is_an_error_not_an_eof(self):
        from repro.net.procserver import _recv_frame

        a, b = socket.socketpair()
        with a, b:
            a.sendall(FRAME_HEADER.pack(5)[:2])
            a.close()
            with pytest.raises(HyperFileError, match="mid-header"):
                _recv_frame(b)

    def test_eof_before_hello_is_a_dead_child(self):
        from repro.net.procserver import _recv_hello

        a, b = socket.socketpair()
        with a, b:
            a.close()
            with pytest.raises(ChildProcessDied) as excinfo:
                _recv_hello(b, ["site1"])
        assert excinfo.value.site == "site1"

    def test_a_timed_out_request_does_not_shift_later_replies(self):
        with proc_cluster() as cluster:
            store = cluster.store("site0")
            a = store.create([keyword_tuple("K")])
            b = store.create([keyword_tuple("K")])
            cluster.RPC_TIMEOUT_S = 0
            with pytest.raises(HyperFileError, match="no control reply"):
                store.get(a.oid)
            del cluster.RPC_TIMEOUT_S  # back to the class budget
            assert store.get(b.oid).oid == b.oid  # a's late reply is dropped
            assert len(store) == 2


class TestOneControlProtocol:
    """Every control op is one entry in ``_OPS``; the hand-written
    vocabulary, its per-op frame writers and the private death marker
    stay gone."""

    def test_no_hand_written_vocabulary(self):
        names = vars(procserver)
        assert not [name for name in names if name.startswith("_C_")]
        for gone in ("_handle_control", "_ChildDeath", "_encode_result", "_decode_result",
                     "_encode_stats", "_decode_stats", "_err_frame", "_raise_err"):
            assert gone not in names
        assert inspect.getsource(procserver).count("_Writer(") <= 2

    def test_each_op_is_declared_once(self):
        assert len(procserver._CODES) == len(procserver._OPS)
        pushes = {op.name for op in procserver._OPS if op.push}
        assert pushes == {"hello", "complete", "stats_push", "give_up"}


class TestReliableChannel:
    def test_enable_reliable_dynamically(self):
        with proc_cluster() as cluster:
            assert not cluster.reliable_enabled
            cluster.enable_reliable(ReliableConfig(base_backoff_s=0.01))
            assert cluster.reliable_enabled
            oids = build_chain(cluster)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result.oid_keys() == {o.key() for o in oids}

    def test_give_up_bounces_surface_as_undeliverable_notes(self):
        # 100% drop + reliable: retries exhaust child-side, the bounce
        # recovers detector credit (the query completes with what it has
        # instead of hanging) and each give-up pushes a typed note to
        # the parent.
        plan = FaultPlan(seed=3).link("site0", "site1", drop=1.0)
        reliable = ReliableConfig(base_backoff_s=0.01, max_backoff_s=0.05, max_retries=2)
        cluster = proc_cluster(fault_plan=plan, reliable=reliable)
        try:
            oids = build_chain(cluster)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result is not None  # terminated despite the dead link
            assert cluster.undeliverable, "give-ups must reach the parent"
            note = cluster.undeliverable[0]
            assert {note.src, note.dst} <= {"site0", "site1"}
            assert note.kind  # payload type name travelled with the note
        finally:
            cluster.close()


class TestCreditAndFaultStats:
    def test_credit_deficit_is_zero_after_clean_completion(self):
        with proc_cluster() as cluster:
            oids = build_chain(cluster)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert cluster.credit_deficit(out.qid) == 0

    def test_fault_stats_mirror_child_counters(self):
        plan = FaultPlan(seed=5).link("site0", "site1", drop=1.0)
        cluster = proc_cluster(fault_plan=plan)
        try:
            oids = build_chain(cluster)
            qid = cluster.submit(CLOSURE, [oids[0]])
            with pytest.raises(TerminationLost):
                cluster.wait(qid, timeout_s=1.0)
            stats = cluster.fault_stats()
            assert stats["dropped"] > 0
            assert cluster.fault_plan.dropped == stats["dropped"]
            assert cluster.messages_dropped >= stats["dropped"]
        finally:
            cluster.close()


class TestMigrate:
    def test_migrate_moves_object_and_leaves_forwarding(self):
        with proc_cluster() as cluster:
            store = cluster.store("site0")
            obj = store.create([keyword_tuple("K")])
            cluster.migrate(obj.oid, "site1")
            assert cluster.store("site1").contains(obj.oid)
            assert not store.contains(obj.oid)
            assert cluster.forwarding["site0"].lookup(obj.oid) == "site1"
            # The moved object still answers queries addressed by oid.
            out = cluster.run_query(
                'S (Keyword,"K",?) -> T', [obj.oid], timeout_s=30.0
            )
            assert out.result.oid_keys() == {obj.oid.key()}
