"""ClusterConfig surface + transport registry contract tests.

Two API-surface guarantees live here: (1) a :class:`ClusterConfig` is
the only way to configure a deployment — no constructor takes a
parameter that duplicates one of its fields, and a transport rejects a
field it does not implement; (2) the transport registry resolves names
uniformly for the facade, ``make_cluster`` and third-party factories.
"""

import importlib
import inspect

import pytest

from repro.api import make_cluster, register_transport, transport_factory, transport_names
from repro.cache import CacheConfig
from repro.client import HyperFile
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.net.procserver import ProcessCluster

#: Where each builtin transport's class lives (the registry's factories
#: import them lazily, so the classes are named here).
BUILTIN_CLASSES = {
    "sim": ("repro.cluster", "SimCluster"),
    "threaded": ("repro.net.threaded", "ThreadedCluster"),
    "async": ("repro.net.asyncio_cluster", "AsyncCluster"),
}


def surface_classes():
    assert set(BUILTIN_CLASSES) == set(transport_names())
    classes = [
        getattr(importlib.import_module(module), name)
        for module, name in BUILTIN_CLASSES.values()
    ]
    return classes + [ProcessCluster, HyperFile]


class TestOneConfigSurface:
    @pytest.mark.parametrize("cls", surface_classes(), ids=lambda cls: cls.__name__)
    def test_constructor_takes_only_sites_transport_and_keyword_config(self, cls):
        for method in (cls.__init__, cls.__new__):
            if method is object.__init__ or method is object.__new__:
                continue
            params = dict(inspect.signature(method).parameters)
            params.pop("self", None)
            params.pop("cls", None)
            assert set(params) <= {"sites", "transport", "config"}, (cls, method)
            assert params["config"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_a_field_passed_as_a_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError):
            SimCluster(3, caching=CacheConfig())

    @pytest.mark.parametrize("transport", ["sim", "threaded"])
    def test_host_is_rejected_where_nothing_binds(self, transport):
        with pytest.raises(ConfigError, match="host"):
            make_cluster(transport, 3, config=ClusterConfig(host="0.0.0.0"))


class TestTransportRegistry:
    def test_builtins_are_registered(self):
        assert transport_names() == ["async", "sim", "threaded"]

    def test_sockets_is_not_a_transport(self):
        with pytest.raises(ValueError, match="registered: async, sim, threaded"):
            make_cluster("sockets")

    def test_names_are_sorted(self):
        assert transport_names() == sorted(transport_names())

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown transport 'teleport'"):
            transport_factory("teleport")

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            register_transport("", lambda sites=3, **kw: None)
        with pytest.raises(ValueError, match="identifier"):
            register_transport("has spaces", lambda sites=3, **kw: None)

    def test_duplicate_registration_needs_replace(self):
        def factory(sites=3, *, config=None):
            return SimCluster(sites, config=config)

        register_transport("_test_dup", factory)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_transport("_test_dup", factory)
            register_transport("_test_dup", factory, replace=True)
        finally:
            from repro import api

            api._TRANSPORTS.pop("_test_dup", None)

    def test_third_party_transport_reaches_the_facade(self):
        calls = []

        def factory(sites=3, *, config=None):
            calls.append(sites)
            return SimCluster(sites, config=config)

        register_transport("_test_custom", factory)
        try:
            hf = HyperFile(sites=4, transport="_test_custom")
            assert calls == [4]
            assert isinstance(hf.cluster, SimCluster)
            hf.close()
            cluster = make_cluster("_test_custom", 2)
            assert calls == [4, 2]
            cluster.close()
        finally:
            from repro import api

            api._TRANSPORTS.pop("_test_custom", None)

    def test_facade_snapshot_matches_registry(self):
        from repro.client.api import TRANSPORTS

        assert set(TRANSPORTS) <= set(transport_names())
