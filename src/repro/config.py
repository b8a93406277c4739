"""One consolidated deployment configuration for every transport.

:class:`ClusterConfig` freezes every deployment knob — the algorithm
switches, the batching / caching / replication / QoS / membership
subsystems, telemetry, and the transport-specific fields — into a single
value object.  It is the *only* way to configure a deployment: every
cluster constructor is ``(sites, *, config=None)`` and the facade is
``HyperFile(sites, transport, *, config=None)``::

    config = ClusterConfig(batching=BatchConfig(), qos=QoSConfig())
    hf = HyperFile(3, "async", config=config)
    cluster = AsyncCluster(3, config=config)          # same object, any transport

Transport-specific fields (``costs`` on the simulator, ``processes``
and ``host`` on the asyncio transport) are rejected by every transport
that does not implement them, via :meth:`ClusterConfig.require_default`,
so a config that silently means different things on different
transports cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Union

from .cache import CacheConfig
from .errors import ConfigError
from .faults.plan import FaultPlan
from .faults.reliable import ReliableConfig
from .membership import MembershipConfig
from .net.batching import BatchConfig
from .qos import QoSConfig
from .replication import ReplicationConfig
from .tracing import FlightRecorderConfig


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

    def __post_init__(self) -> None:
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
