"""The authoritative membership view + the gossip failure detector.

One :class:`MembershipService` lives on each cluster object.  All view
transitions go through it — administrative (``join`` / ``leave_begin`` /
``leave_finalize`` / ``fail``) and detector-driven (a heartbeat counter
stalling past ``fail_after`` rounds) — so listeners observe a single
totally-ordered sequence of views.

The failure detector is deliberately *evidence-based*: the merged
heartbeat counter table advances only through **delivered**
:class:`~repro.net.messages.Heartbeat` frames (the cluster wires each
node's heartbeat handler to :meth:`observe_heartbeat`).  A site that is
partitioned, crashed, or silenced by the fault plan stops advancing in
the table and is eventually declared failed — the detector never peeks
at the network's availability table.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Tuple

from ..errors import MembershipError
from .config import MembershipConfig
from .view import DEPARTED, LEAVING, UP, MembershipView

#: Notified as (old_view, new_view, reason) after every view change.
#: Reasons: "join", "leave", "depart", "fail".
ViewListener = Callable[[MembershipView, MembershipView, str], None]


class MembershipService:
    """Holds the view, orders its transitions, runs the detector."""

    def __init__(self, config: MembershipConfig, sites: Iterable[str]) -> None:
        self.config = config
        self.view = MembershipView.initial(sites)
        self._listeners: List[ViewListener] = []
        self._rng = random.Random(config.seed)
        #: Per-site self-incremented heartbeat counters (what each site
        #: would gossip); the cluster ticks these for live sites only.
        self._self_counters: Dict[str, int] = {s: 0 for s in self.view.members}
        #: The merged table: advanced *only* by delivered frames.
        self._merged: Dict[str, int] = dict(self._self_counters)
        #: Consecutive detector rounds each site's merged counter stalled.
        self._stalled_rounds: Dict[str, int] = {}
        #: View-change counters (telemetry / tests).
        self.joins = 0
        self.leaves = 0
        self.failures = 0

    # -- wiring ----------------------------------------------------------

    def add_listener(self, listener: ViewListener) -> None:
        self._listeners.append(listener)

    def _transition(self, new_view: MembershipView, reason: str) -> MembershipView:
        old, self.view = self.view, new_view
        for listener in self._listeners:
            listener(old, new_view, reason)
        return new_view

    # -- administrative transitions --------------------------------------

    def join(self, site: str) -> MembershipView:
        """Admit ``site`` as an up member (new site, or a rejoin)."""
        if self.view.status_of(site) == UP and site in self.view.members:
            raise MembershipError(site, "already a member")
        self._self_counters[site] = 0
        self._merged[site] = 0
        self._stalled_rounds.pop(site, None)
        self.joins += 1
        return self._transition(self.view.with_status(site, UP), "join")

    def leave_begin(self, site: str) -> MembershipView:
        """Start a graceful leave: the site drains, taking nothing new."""
        self._require_up(site)
        if len(self.view.active) <= 1:
            raise MembershipError(site, "cannot leave: it is the last active site")
        self.leaves += 1
        return self._transition(self.view.with_status(site, LEAVING), "leave")

    def leave_finalize(self, site: str) -> MembershipView:
        """Complete a graceful leave once the site has drained."""
        if self.view.status_of(site) != LEAVING:
            raise MembershipError(site, "not in the leaving state")
        self._forget(site)
        return self._transition(self.view.with_status(site, DEPARTED), "depart")

    def fail(self, site: str) -> MembershipView:
        """Declare ``site`` permanently crashed (admin or detector)."""
        if self.view.status_of(site) == DEPARTED:
            raise MembershipError(site, "already departed")
        if len(self.view.active) <= 1 and self.view.status_of(site) == UP:
            raise MembershipError(site, "cannot fail: it is the last active site")
        self._forget(site)
        self.failures += 1
        return self._transition(self.view.with_status(site, DEPARTED), "fail")

    def _require_up(self, site: str) -> None:
        status = self.view.status_of(site)
        if status != UP:
            raise MembershipError(site, f"status is {status!r}, not up")

    def _forget(self, site: str) -> None:
        self._self_counters.pop(site, None)
        self._merged.pop(site, None)
        self._stalled_rounds.pop(site, None)

    # -- gossip / failure detection --------------------------------------

    def beat(self, site: str) -> Tuple[Tuple[str, int], ...]:
        """One site's heartbeat round: tick its own counter, return the
        counter table it would gossip (its self counter merged over its
        view of everyone else)."""
        self._self_counters[site] = self._self_counters.get(site, 0) + 1
        table = dict(self._merged)
        table[site] = self._self_counters[site]
        return tuple(sorted(table.items()))

    def gossip_peers(self, site: str) -> List[str]:
        """Seeded choice of up to ``fanout`` live peers for one round."""
        peers = [s for s in self.view.active if s != site]
        if len(peers) <= self.config.fanout:
            return peers
        return self._rng.sample(peers, self.config.fanout)

    def observe_heartbeat(self, counters: Iterable[Tuple[str, int]]) -> None:
        """Merge a delivered frame's counter table (element-wise max)."""
        for site, count in counters:
            if site in self._merged and count > self._merged[site]:
                self._merged[site] = count
                self._stalled_rounds[site] = 0

    def detect(self) -> List[str]:
        """One detector round: return up members whose merged counter has
        now stalled for ``fail_after`` consecutive rounds.  The caller
        (the cluster's heartbeat pump) is responsible for acting —
        declaring the failure is a view transition it must drive so
        rebalancing and routing react atomically."""
        active = self.view.active
        if len(active) <= 1:
            # A lone survivor has no peers to hear from; its silence is
            # not evidence of anything.
            self._stalled_rounds.clear()
            return []
        suspects: List[str] = []
        for site in active:
            stalled = self._stalled_rounds.get(site, 0) + 1
            self._stalled_rounds[site] = stalled
            if stalled > self.config.fail_after:
                suspects.append(site)
        return suspects

    def stalled(self) -> List[str]:
        """Up members with at least one stalled round (pump arming)."""
        return [s for s in self.view.active if self._stalled_rounds.get(s, 0) > 0]

    def suspicious(self) -> List[str]:
        """Up members stalled for two or more rounds.  Healthy members
        oscillate between 0 and 1 (the round's frames are judged before
        they are delivered), so >=2 is the earliest real signal — the
        pump keeps ticking while any member shows it."""
        return [s for s in self.view.active if self._stalled_rounds.get(s, 0) >= 2]

    def status_of(self, site: str) -> str:
        return self.view.status_of(site)

    def __repr__(self) -> str:
        return f"MembershipService({self.view})"
