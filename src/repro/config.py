"""One consolidated deployment configuration for every transport.

The facade and the transports historically grew one keyword argument per
subsystem (``batching=``, ``caching=``, ``replication=``, ``qos=`` ...).
Three transports times seven knobs is a combinatorial kwarg pile, and the
asyncio transport adds more (process mode, bind host, reconnect pacing).
:class:`ClusterConfig` freezes all of it into a single value object that
:class:`~repro.client.api.HyperFile` and all three cluster constructors
accept uniformly::

    config = ClusterConfig(batching=BatchConfig(), qos=QoSConfig())
    hf = HyperFile(sites=3, transport="async", config=config)
    cluster = AsyncCluster(3, config=config)          # same object, any transport

The old per-subsystem kwargs keep working on every constructor but emit
:class:`DeprecationWarning`; passing both a ``config`` and a non-default
legacy kwarg is an error (two sources of truth would be worse than one
deprecated one).  Transport-specific fields (``costs`` on the simulator,
``processes`` on the asyncio transport) are validated by the transport
that cares via :meth:`ClusterConfig.require_default`, so a config that
silently means different things on different transports cannot be built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple, Union

from .cache import CacheConfig
from .errors import ConfigError
from .faults.plan import FaultPlan
from .faults.reliable import ReliableConfig
from .membership import MembershipConfig
from .net.batching import BatchConfig
from .qos import QoSConfig
from .replication import ReplicationConfig
from .tracing import FlightRecorderConfig

#: Legacy kwargs that now live in :class:`ClusterConfig`; passing them
#: directly to a constructor still works but warns.
DEPRECATED_KWARGS: Tuple[str, ...] = ("batching", "caching", "replication", "qos")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a HyperFile deployment can be configured with.

    One frozen value accepted by ``HyperFile`` and all three transports
    (``sim`` / ``threaded`` / ``async``).  Fields a given
    transport does not implement must stay at their defaults there —
    the transport rejects the config otherwise rather than silently
    ignoring it.
    """

    # -- shared algorithm knobs (every transport) -----------------------
    termination: str = "weighted"
    discipline: str = "fifo"
    result_mode: str = "ship"
    fault_plan: Optional[FaultPlan] = None
    reliable: Union[bool, ReliableConfig] = False

    # -- subsystem configs (every transport) ----------------------------
    batching: Optional[BatchConfig] = None
    caching: Optional[CacheConfig] = None
    replication: Optional[ReplicationConfig] = None
    qos: Optional[QoSConfig] = None
    #: Dynamic membership (join / graceful leave / permanent-crash
    #: detection + ring rebalancing).  ``None`` — the default — keeps
    #: the static-membership build, bit for bit.  ``heartbeat_s`` is
    #: simulator-only; the wall-clock transports accept administrative
    #: membership (``join_site`` / ``leave_site`` / ``fail_site``) but
    #: reject the timer-driven detector.
    membership: Optional[MembershipConfig] = None

    # -- telemetry plane (every transport) ------------------------------
    #: Arm the crash flight recorder: a bounded ring of recent trace
    #: events per cluster (per child process in process mode), dumped
    #: automatically when a query ends in ``TerminationLost``,
    #: ``partial_reason="crash"``, or a deadline expiry.
    flight_recorder: Optional[FlightRecorderConfig] = None
    #: Streaming-stats sample period in seconds; ``None`` disables the
    #: stream.  Virtual-time-driven on ``sim``, timer-driven on the
    #: wall-clock transports; samples land in the cluster's
    #: :class:`~repro.metrics.collect.StatsTimeline`.
    stats_stream_s: Optional[float] = None

    # -- simulator-only knobs -------------------------------------------
    #: Cost model for the discrete-event simulator; ``None`` means the
    #: transport default (PAPER_COSTS on ``sim``, uncosted elsewhere).
    costs: Optional[Any] = None
    mark_granularity: str = "iteration"

    # -- asyncio-transport knobs ----------------------------------------
    #: Run one OS process per site (true multi-core parallelism) instead
    #: of one asyncio task per site on a shared in-process loop.
    processes: bool = False
    #: Interface the per-site frame servers bind to.
    host: str = "127.0.0.1"
    #: Wall-clock budget for establishing one inter-site connection.
    connect_timeout_s: float = 5.0
    #: Initial delay before re-dialling a lost inter-site connection
    #: (doubles per consecutive failure, capped at ~1s).
    reconnect_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.connect_timeout_s <= 0:
            raise ValueError("connect_timeout_s must be positive")
        if self.reconnect_backoff_s <= 0:
            raise ValueError("reconnect_backoff_s must be positive")
        if self.stats_stream_s is not None and self.stats_stream_s <= 0:
            raise ValueError("stats_stream_s must be positive when set")
        # Combinations that no transport can honour fail here, at
        # construction, with one typed error — not deep inside a
        # transport at first use.  ``processes=True`` runs one OS
        # process per site; the simulator-only knobs below configure a
        # discrete-event kernel that has no process-mode counterpart.
        if self.processes:
            sim_only = [
                name
                for name, moved in (
                    ("costs", self.costs is not None),
                    ("mark_granularity", self.mark_granularity != "iteration"),
                )
                if moved
            ]
            if sim_only:
                raise ConfigError(
                    f"ClusterConfig(processes=True) cannot honour simulator-only "
                    f"field(s) {sim_only}; process mode runs real OS processes, "
                    "not the discrete-event kernel"
                )

    def replace(self, **changes: Any) -> "ClusterConfig":
        """A copy with the given fields changed (frozen-dataclass idiom)."""
        return replace(self, **changes)

    def require_default(self, *names: str, transport: str) -> None:
        """Reject fields this transport does not implement.

        A config naming a capability the transport cannot honour is a
        deployment mistake; failing loudly beats silently dropping it.
        """
        for name in names:
            if getattr(self, name) != _FIELD_DEFAULTS[name]:
                raise ConfigError(
                    f"ClusterConfig.{name} does not apply to the {transport!r} transport"
                )


_FIELD_DEFAULTS: Dict[str, Any] = {f.name: f.default for f in fields(ClusterConfig)}


def resolve_config(
    config: Optional[ClusterConfig],
    *,
    owner: str,
    stacklevel: int = 3,
    **legacy: Any,
) -> ClusterConfig:
    """Merge a ``config=`` argument with legacy per-subsystem kwargs.

    Every constructor that accepts both calls this once: if ``config``
    is given, any legacy kwarg moved off its default is an error (one
    source of truth); if not, the legacy kwargs build the config — with
    a :class:`DeprecationWarning` for the kwargs that have a home in
    :class:`ClusterConfig` (see :data:`DEPRECATED_KWARGS`).
    """
    if config is not None:
        clashing = sorted(
            name for name, value in legacy.items() if value != _FIELD_DEFAULTS[name]
        )
        if clashing:
            raise ValueError(
                f"{owner} got both config= and legacy kwarg(s) {clashing}; "
                "pass everything through the ClusterConfig"
            )
        return config
    deprecated_used = sorted(
        name for name in DEPRECATED_KWARGS
        if name in legacy and legacy[name] != _FIELD_DEFAULTS[name]
    )
    if deprecated_used:
        warnings.warn(
            f"passing {', '.join(f'{n}=' for n in deprecated_used)} to {owner} directly "
            "is deprecated; pass config=ClusterConfig(...) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
    return ClusterConfig(**legacy)
