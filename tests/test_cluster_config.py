"""ClusterConfig consolidation + transport registry contract tests.

Two API-surface guarantees live here: (1) the legacy per-subsystem
kwargs (``batching=``, ``caching=``, ``replication=``, ``qos=``) build
EXACTLY the same deployment as the equivalent ``ClusterConfig`` — they
warn, but they cannot drift; (2) the transport registry resolves names
uniformly for the facade, ``make_cluster`` and third-party factories.
"""

import warnings

import pytest

from repro.api import make_cluster, register_transport, transport_factory, transport_names
from repro.cache import CacheConfig
from repro.client import HyperFile
from repro.cluster import SimCluster
from repro.config import DEPRECATED_KWARGS, ClusterConfig, resolve_config
from repro.net.batching import BatchConfig
from repro.qos import QoSConfig
from repro.replication import ReplicationConfig

LEGACY = dict(
    batching=BatchConfig(max_batch=4),
    caching=CacheConfig(),
    replication=ReplicationConfig(k=2),
    qos=QoSConfig(),
)


class TestResolveConfig:
    def test_defaults_resolve_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            config = resolve_config(None, owner="X")
        assert config == ClusterConfig()

    @pytest.mark.parametrize("name", DEPRECATED_KWARGS)
    def test_each_legacy_kwarg_warns_and_lands_in_the_config(self, name):
        with pytest.warns(DeprecationWarning, match=f"{name}=.*deprecated"):
            config = resolve_config(None, owner="X", **{name: LEGACY[name]})
        assert getattr(config, name) == LEGACY[name]

    def test_config_plus_clashing_legacy_kwarg_is_an_error(self):
        with pytest.raises(ValueError, match="both config= and legacy kwarg"):
            resolve_config(ClusterConfig(), owner="X", qos=QoSConfig())

    def test_config_plus_default_legacy_kwargs_is_fine(self):
        config = ClusterConfig(qos=QoSConfig())
        assert resolve_config(config, owner="X", batching=None, qos=None) is config


class TestAliasParity:
    """legacy kwargs ≡ config= — same resulting deployment, field by field."""

    def test_facade_parity(self):
        with pytest.warns(DeprecationWarning):
            via_kwargs = HyperFile(sites=2, **LEGACY)
        via_config = HyperFile(sites=2, config=ClusterConfig(**LEGACY))
        assert via_kwargs.config == via_config.config
        for hf in (via_kwargs, via_config):
            assert hf.cluster.replication is not None
            assert hf.cluster.replication.config.k == 2
            hf.close()

    def test_simulator_parity(self):
        with pytest.warns(DeprecationWarning):
            via_kwargs = SimCluster(3, **LEGACY)
        via_config = SimCluster(3, config=ClusterConfig(**LEGACY))
        assert via_kwargs.config == via_config.config

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    def test_wall_clock_parity(self, transport):
        legacy = dict(batching=BatchConfig(max_batch=4), qos=QoSConfig())
        factory = transport_factory(transport)
        with pytest.warns(DeprecationWarning):
            via_kwargs = factory(2, **legacy)
        try:
            via_config = factory(2, config=ClusterConfig(**legacy))
        except Exception:
            via_kwargs.close()
            raise
        try:
            assert via_kwargs.config == via_config.config
        finally:
            via_kwargs.close()
            via_config.close()

    def test_facade_rejects_config_plus_legacy(self):
        with pytest.raises(ValueError, match="both config= and legacy kwarg"):
            HyperFile(sites=2, config=ClusterConfig(), qos=QoSConfig())


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
        def factory(sites=3, **kwargs):
            return SimCluster(sites, **kwargs)

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

        def factory(sites=3, **kwargs):
            calls.append(sites)
            return SimCluster(sites, **kwargs)

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
