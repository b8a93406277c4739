"""Per-query critical-path profiling over causal trace spans.

A traced query (see :mod:`repro.tracing`) records every step as a span
with a parent: the ``submit`` roots the tree, message sends/receives link
steps across sites, and batched frames fan into per-item children.  This
module turns that tree into answers to the questions aggregate counters
cannot touch:

* **Where did the response time go?**  :func:`critical_path` walks
  backwards from the ``complete`` event, at each step choosing the
  *latest-finishing* predecessor — either the step's causal parent (a
  message or admission edge) or the previous step on the same site's
  serial CPU (a resource edge).  The chosen chain is the longest blocking
  path: shortening anything on it shortens the query; nothing off it
  matters.  Per-hop deltas telescope, so the path's duration is exactly
  ``complete.time − submit.time``.
* **Is the trace sound?**  :func:`tree_report` checks connectivity: every
  referenced parent exists, the only root is the ``submit``.
* **Where did termination credit go?**  :func:`credit_audit` replays the
  weighted detector's ledger span by span — every traced send records the
  exact :class:`~fractions.Fraction` it carried, every receive points at
  the send it consumed — so a ``TerminationLost`` deficit stops being a
  mystery number and becomes a list of the sends that never landed.

Everything here is read-only over a tracer's event list; nothing touches
live cluster state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .tracing import QueryTracer, TraceEvent

#: Step kinds that anchor a site's serial CPU timeline.  (Every event
#: does: a site emits events only while its single logical CPU works.)
_TERMINAL_KINDS = ("complete", "timeout")


def _events_for(source: Any, qid: Any) -> List[TraceEvent]:
    """Accept a tracer or a plain event list; filter to one query."""
    events = source.events if isinstance(source, QueryTracer) else list(source)
    wanted = str(qid)
    return [e for e in events if e.qid == wanted]


# ---------------------------------------------------------------------------
# span-tree validation
# ---------------------------------------------------------------------------


@dataclass
class TreeReport:
    """Structural soundness of one query's span tree."""

    qid: str
    events: int
    root: Optional[TraceEvent]              #: the submit event (None = absent)
    missing_parents: List[TraceEvent] = field(default_factory=list)
    orphans: List[TraceEvent] = field(default_factory=list)
    extra_roots: List[TraceEvent] = field(default_factory=list)

    @property
    def connected(self) -> bool:
        """Every parent resolves and the submit is the only root."""
        return (
            self.root is not None
            and not self.missing_parents
            and not self.orphans
            and not self.extra_roots
        )

    def describe(self) -> str:
        if self.connected:
            return f"{self.qid}: span tree OK ({self.events} events, rooted at submit)"
        problems = []
        if self.root is None:
            problems.append("no submit event")
        if self.missing_parents:
            problems.append(f"{len(self.missing_parents)} dangling parent refs")
        if self.orphans:
            problems.append(f"{len(self.orphans)} parentless non-root events")
        if self.extra_roots:
            problems.append(f"{len(self.extra_roots)} extra submit roots")
        return f"{self.qid}: span tree BROKEN — " + ", ".join(problems)


def tree_report(source: Any, qid: Any) -> TreeReport:
    """Validate one query's span tree (see :class:`TreeReport`)."""
    events = _events_for(source, qid)
    spans = {e.span for e in events if e.span}
    report = TreeReport(qid=str(qid), events=len(events), root=None)
    for e in events:
        if e.kind == "submit":
            if report.root is None:
                report.root = e
            else:
                report.extra_roots.append(e)
            continue
        if e.parent is None:
            report.orphans.append(e)
        elif e.parent not in spans:
            report.missing_parents.append(e)
    return report


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


@dataclass
class PathStep:
    """One step on the critical path (all events of one site-instant)."""

    site: str
    time: float
    kinds: Tuple[str, ...]
    events: Tuple[TraceEvent, ...]
    #: How control reached this step from the previous path step:
    #: "start" (the submit), "message" (a causal cross-step edge), or
    #: "cpu" (waited for the same site's previous step to finish).
    via: str = "start"
    #: time - previous step's time (0 for the first step); telescopes to
    #: the full path duration.
    delta: float = 0.0


@dataclass
class CriticalPath:
    """The longest blocking chain from submit to complete/timeout."""

    qid: str
    steps: List[PathStep]

    @property
    def duration(self) -> float:
        """Sum of deltas == last step's time − first step's time."""
        return self.steps[-1].time - self.steps[0].time if self.steps else 0.0

    @property
    def message_hops(self) -> int:
        return sum(1 for s in self.steps if s.via == "message")

    def render(self) -> str:
        if not self.steps:
            return f"(no critical path for {self.qid})"
        width = max(len(s.site) for s in self.steps)
        lines = [
            f"critical path for {self.qid}: {self.duration:.4f}s over "
            f"{len(self.steps)} steps ({self.message_hops} message hops)",
            f"{'time':>10}  {'delta':>9}  {'site':<{width}}  via      events",
        ]
        for s in self.steps:
            delta = "" if s.via == "start" else f"+{s.delta:.4f}"
            lines.append(
                f"{s.time:>10.4f}  {delta:>9}  {s.site:<{width}}  "
                f"{s.via:<7}  {', '.join(s.kinds)}"
            )
        return "\n".join(lines)


def critical_path(source: Any, qid: Any) -> CriticalPath:
    """Extract the longest blocking chain of one traced query.

    Events sharing a ``(site, time)`` form one *step* (one handler
    invocation on that site's serial CPU).  Walking back from the
    terminal step, each hop picks the predecessor that finished last
    among (a) the causal parents of the step's events and (b) the
    previous step on the same site — whichever kept this step waiting
    longest is, by definition, on the critical path.
    """
    events = _events_for(source, qid)
    if not events:
        return CriticalPath(qid=str(qid), steps=[])

    # Group into steps and index spans.
    step_of_key: Dict[Tuple[str, float], List[TraceEvent]] = {}
    for e in events:
        step_of_key.setdefault((e.site, e.time), []).append(e)
    keys = sorted(step_of_key, key=lambda k: (k[1], k[0]))
    span_to_key: Dict[int, Tuple[str, float]] = {}
    for key, evs in step_of_key.items():
        for e in evs:
            if e.span:
                span_to_key[e.span] = key
    prev_on_site: Dict[Tuple[str, float], Optional[Tuple[str, float]]] = {}
    last_seen: Dict[str, Tuple[str, float]] = {}
    for key in keys:
        prev_on_site[key] = last_seen.get(key[0])
        last_seen[key[0]] = key

    # The walk ends where the query did: complete, else timeout, else the
    # last event overall (an unterminated trace still profiles usefully).
    terminal = next(
        (e for kind in _TERMINAL_KINDS for e in events if e.kind == kind), events[-1]
    )
    start = next((e for e in events if e.kind == "submit"), events[0])
    start_key = (start.site, start.time)

    current = (terminal.site, terminal.time)
    chain: List[Tuple[Tuple[str, float], str]] = [(current, "start")]
    visited = {current}
    while current != start_key:
        candidates: List[Tuple[Tuple[str, float], str]] = []
        for e in step_of_key[current]:
            if e.parent is not None:
                parent_key = span_to_key.get(e.parent)
                if parent_key is not None and parent_key != current:
                    candidates.append((parent_key, "message"))
        previous = prev_on_site[current]
        if previous is not None:
            candidates.append((previous, "cpu"))
        candidates = [c for c in candidates if c[0] not in visited]
        if not candidates:
            break  # disconnected fragment: report the partial chain
        # The latest-finishing predecessor is the one this step actually
        # waited for; same-instant causal edges beat the cpu edge.
        chosen = max(candidates, key=lambda c: (c[0][1], c[1] == "message"))
        chain.append(chosen)
        visited.add(chosen[0])
        current = chosen[0]

    chain.reverse()
    steps: List[PathStep] = []
    for index, (key, _) in enumerate(chain):
        evs = tuple(sorted(step_of_key[key], key=lambda e: e.span))
        # Each backward-walk entry recorded the edge *leaving* it forward
        # in time, so the edge arriving at this step lives on the
        # previous (earlier) entry.
        via = "start" if index == 0 else chain[index - 1][1]
        delta = 0.0 if index == 0 else key[1] - chain[index - 1][0][1]
        steps.append(
            PathStep(
                site=key[0], time=key[1],
                kinds=tuple(dict.fromkeys(e.kind for e in evs)),
                events=evs, via=via, delta=delta,
            )
        )
    return CriticalPath(qid=str(qid), steps=steps)


# ---------------------------------------------------------------------------
# credit-flow audit
# ---------------------------------------------------------------------------


@dataclass
class CreditEntry:
    """One credit-carrying send and what became of it."""

    span: int
    site: str
    dst: str
    msg: str
    credit: Fraction
    delivered: bool
    time: float


@dataclass
class CreditAudit:
    """Span-by-span explanation of a query's credit flow.

    ``lost`` is the credit attached to sends that no traced receive ever
    consumed — the exact quantity a ``TerminationLost`` diagnosis reports
    as the deficit, now attributable to specific messages.
    """

    qid: str
    entries: List[CreditEntry]
    timed_out: bool

    @property
    def total_sent(self) -> Fraction:
        return sum((e.credit for e in self.entries), Fraction(0))

    @property
    def lost(self) -> Fraction:
        return sum((e.credit for e in self.entries if not e.delivered), Fraction(0))

    def render(self) -> str:
        lines = [
            f"credit audit for {self.qid}: {len(self.entries)} credit-carrying "
            f"sends, {self.lost} lost"
            + (" (query timed out)" if self.timed_out else "")
        ]
        for e in self.entries:
            status = "delivered" if e.delivered else "LOST"
            lines.append(
                f"  [{e.time:9.4f}s] span {e.span:<6} {e.site} -> {e.dst:<8} "
                f"{e.msg:<14} credit {str(e.credit):<10} {status}"
            )
        return "\n".join(lines)


def credit_audit(source: Any, qid: Any) -> CreditAudit:
    """Match every credit-carrying send to the receive that consumed it.

    A send's credit counts as delivered when any ``recv`` (or reliable-
    channel ``dup`` suppression, which implies an earlier delivery) points
    at its span.  Undelivered entries sum to the termination deficit.
    """
    events = _events_for(source, qid)
    consumed = {
        e.parent
        for e in events
        if e.kind in ("recv", "dup") and e.parent is not None
    }
    entries: List[CreditEntry] = []
    for e in events:
        if e.kind != "send" or "credit" not in e.detail:
            continue
        entries.append(
            CreditEntry(
                span=e.span,
                site=e.site,
                dst=str(e.detail.get("dst", "?")),
                msg=str(e.detail.get("msg", "?")),
                credit=Fraction(str(e.detail["credit"])),
                delivered=e.span in consumed,
                time=e.time,
            )
        )
    timed_out = any(e.kind == "timeout" for e in events)
    return CreditAudit(qid=str(qid), entries=entries, timed_out=timed_out)


# ---------------------------------------------------------------------------
# combined per-query profile
# ---------------------------------------------------------------------------


def render_profile(source: Any, qid: Any) -> str:
    """The full per-query profile: tree health, critical path, credit."""
    report = tree_report(source, qid)
    sections = [report.describe()]
    if report.events:
        sections.append(critical_path(source, qid).render())
        audit = credit_audit(source, qid)
        if audit.entries:
            sections.append(audit.render())
    return "\n\n".join(sections)
