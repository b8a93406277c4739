"""Deterministic, seed-driven fault schedules.

A :class:`FaultPlan` is the single chaos knob shared by all three
transports.  Each transport, at the point where an envelope would be
handed to the wire, asks :meth:`FaultPlan.decide` what should happen to
it; the answer is a list of delivery copies (empty = dropped, each with
an extra delay).  The plan also carries *structural* faults that the
clusters apply on attachment: timed transient site crashes (with
recovery) and link partitions.

Determinism: all randomness comes from one seeded :class:`random.Random`
consumed in ``decide()`` call order.  Under the discrete-event simulator
that order is itself deterministic, so a (seed, workload) pair replays
exactly.  Under the threaded and socket transports the call order
depends on thread scheduling, so individual decisions are not
reproducible run-to-run — but the configured *rates* are, which is what
the chaos tests assert against.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class LinkFaults:
    """Per-message fault probabilities for one (or every) link."""

    drop: float = 0.0            #: P(message silently lost)
    duplicate: float = 0.0       #: P(message delivered twice)
    reorder: float = 0.0         #: P(message held back behind later traffic)
    delay_jitter_s: float = 0.0  #: uniform extra latency in [0, jitter]

    def validate(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.delay_jitter_s < 0:
            raise ValueError("delay_jitter_s must be non-negative")


@dataclass(frozen=True)
class SiteCrash:
    """A scheduled transient crash: ``site`` goes down at ``at`` and
    (optionally) recovers at ``recover_at``."""

    site: str
    at: float
    recover_at: Optional[float] = None


@dataclass(frozen=True)
class FaultDecision:
    """What the chaos layer decided for one message.

    ``delays`` holds one extra-latency entry per copy to deliver; an
    empty tuple means the message is dropped.
    """

    delays: Tuple[float, ...]

    @property
    def dropped(self) -> bool:
        return not self.delays

    @property
    def duplicated(self) -> bool:
        return len(self.delays) > 1


_DELIVER_CLEAN = FaultDecision(delays=(0.0,))


class FaultPlan:
    """A reproducible chaos schedule shared by every transport.

    Parameters give the cluster-wide default :class:`LinkFaults`;
    :meth:`link` overrides them for one (symmetric) site pair.  The plan
    keeps its own counters so tests can assert how much chaos actually
    happened, independent of any transport's bookkeeping.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        delay_jitter_s: float = 0.0,
        reorder_window_s: float = 0.05,
    ) -> None:
        self.defaults = LinkFaults(drop, duplicate, reorder, delay_jitter_s)
        self.defaults.validate()
        if reorder_window_s < 0:
            raise ValueError("reorder_window_s must be non-negative")
        self.reorder_window_s = reorder_window_s
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._links: Dict[FrozenSet[str], LinkFaults] = {}
        self._partitions: set = set()
        self.crashes: List[SiteCrash] = []
        # Chaos bookkeeping (plan-side truth; transports keep their own).
        self.decisions = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.partition_drops = 0

    # -- configuration -----------------------------------------------------

    def link(
        self,
        a: str,
        b: str,
        drop: Optional[float] = None,
        duplicate: Optional[float] = None,
        reorder: Optional[float] = None,
        delay_jitter_s: Optional[float] = None,
    ) -> "FaultPlan":
        """Override fault rates for the (symmetric) ``a``–``b`` link."""
        base = self._links.get(frozenset((a, b)), self.defaults)
        faults = LinkFaults(
            drop if drop is not None else base.drop,
            duplicate if duplicate is not None else base.duplicate,
            reorder if reorder is not None else base.reorder,
            delay_jitter_s if delay_jitter_s is not None else base.delay_jitter_s,
        )
        faults.validate()
        self._links[frozenset((a, b))] = faults
        return self

    def crash(self, site: str, at: float, recover_at: Optional[float] = None) -> "FaultPlan":
        """Schedule a transient crash (applied when a cluster adopts the plan)."""
        if at < 0 or (recover_at is not None and recover_at < at):
            raise ValueError(f"bad crash window [{at}, {recover_at}]")
        self.crashes.append(SiteCrash(site, at, recover_at))
        return self

    def partition(self, a: str, b: str) -> "FaultPlan":
        """Sever the ``a``–``b`` link (both directions) until :meth:`heal`."""
        with self._lock:
            self._partitions.add(frozenset((a, b)))
        return self

    def heal(self, a: str, b: str) -> "FaultPlan":
        with self._lock:
            self._partitions.discard(frozenset((a, b)))
        return self

    def is_partitioned(self, a: str, b: str) -> bool:
        with self._lock:
            return frozenset((a, b)) in self._partitions

    # -- the injection hook ------------------------------------------------

    def faults_for(self, src: str, dst: str) -> LinkFaults:
        return self._links.get(frozenset((src, dst)), self.defaults)

    def decide(self, src: str, dst: str) -> FaultDecision:
        """One per-message chaos decision (thread-safe, RNG-consuming)."""
        with self._lock:
            self.decisions += 1
            if frozenset((src, dst)) in self._partitions:
                self.partition_drops += 1
                self.dropped += 1
                return FaultDecision(delays=())
            faults = self._links.get(frozenset((src, dst)), self.defaults)
            if faults == LinkFaults():
                return _DELIVER_CLEAN
            rng = self._rng
            if faults.drop and rng.random() < faults.drop:
                self.dropped += 1
                return FaultDecision(delays=())
            copies = 1
            if faults.duplicate and rng.random() < faults.duplicate:
                copies = 2
                self.duplicated += 1
            delays = []
            for _ in range(copies):
                extra = rng.uniform(0.0, faults.delay_jitter_s) if faults.delay_jitter_s else 0.0
                if faults.reorder and rng.random() < faults.reorder:
                    # Hold this copy back long enough that traffic sent
                    # after it (one reorder window) can overtake it.
                    extra += self.reorder_window_s * rng.uniform(1.0, 2.0)
                delays.append(extra)
            if any(delays):
                self.delayed += 1
            return FaultDecision(delays=tuple(delays))

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, defaults={self.defaults}, "
            f"decisions={self.decisions}, dropped={self.dropped}, "
            f"duplicated={self.duplicated})"
        )
