"""Discrete-event simulation kernel.

The paper's experiments ran on a network of IBM PC/RTs; we substitute a
deterministic discrete-event simulator (see DESIGN.md §2): a virtual
clock, a binary heap of ``[time, seq, action]`` lists (compared natively;
cancelling sets ``action`` to ``None``) and FIFO tie-breaking, so that
equal-time events fire in schedule order and runs reproduce exactly.

**Coalescing.**  Inside :meth:`Simulator.run`, a caller about to queue
events that would fire back to back may run them in place:
:meth:`Simulator.advance` moves the clock and counts them in
``events_fired`` only if no live entry is due at or before their time.
The order cannot change — a new entry takes the largest ``seq``, so it
fires next exactly when everything queued is due strictly later.
``advance`` refuses under a schedule policy, past ``run``'s ``until`` or
``max_events``, and outside ``run``: a bare :meth:`step` fires one event.
Nothing in here knows about HyperFile (see :mod:`repro.net.simnet`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import itemgetter
from typing import Callable, List, Optional

#: An event action is any zero-argument callable; it runs at its scheduled
#: virtual time and may schedule further events.
Action = Callable[[], None]


class _Entry(list):
    """``[time, seq, action]``; what a schedule policy sees has ``.time``."""

    __slots__ = ()
    time = property(itemgetter(0))


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; lets the caller cancel."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._entry[2] = None

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None


#: A schedule policy picks which pending event fires next: it is called
#: with the queue's live entries presented in deterministic (time, seq)
#: order and returns the index to fire.  Any queued event is *causally*
#: enabled — whatever scheduled it has already executed — so every choice
#: is a physically possible interleaving; only the timestamps bend (the
#: clock never runs backwards, see :meth:`Simulator.step`).
SchedulePolicy = Callable[[List["_Entry"]], int]


class Simulator:
    """A virtual clock plus an ordered event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self.events_fired = 0
        self._policy: Optional[SchedulePolicy] = None
        self._horizon, self._budget, self._stopped = math.inf, -1, False  # run()'s limits

    def set_policy(self, policy: Optional[SchedulePolicy]) -> None:
        """Install (or clear) a schedule-exploration policy.

        ``None`` restores the default earliest-deadline order.  With a
        policy installed, :meth:`step` lets it choose among *all* pending
        events instead of always firing the earliest — the hook the
        schedule explorer (:mod:`repro.sim.explore`) drives to replay
        thousands of distinct interleavings of the same workload.
        """
        self._policy = policy

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def schedule(self, delay: float, action: Action) -> EventHandle:
        """Run ``action`` at ``now + delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        entry = _Entry((self._now + delay, next(self._seq), action))
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Run ``action`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, action)

    def advance(self, time: float, events: int) -> bool:
        """Fire ``events`` in place at ``time`` if they would fire next; see the module doc."""
        if self._policy is not None or time > self._horizon or self.events_fired + events > self._budget:
            return False
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        if queue and queue[0][0] <= time:
            return False
        self._now = time
        self.events_fired += events
        return True

    def stop(self) -> None:
        """Make the running :meth:`run` return after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty.

        Default order is earliest-(time, seq) first.  With a policy
        installed (:meth:`set_policy`) the policy chooses among all
        pending events; firing a later-stamped event early is causally
        sound (its cause already executed), and the clock advances to
        ``max(now, entry.time)`` so time still never runs backwards.
        """
        if self._policy is not None:
            return self._step_policy()
        while self._queue:
            time, _, action = heapq.heappop(self._queue)
            if action is None:
                continue
            self._now = time
            self.events_fired += 1
            action()
            return True
        return False

    def _step_policy(self) -> bool:
        queue = self._queue
        live = sorted(e for e in queue if e[2] is not None)
        if not live:
            queue.clear()
            return False
        if len(queue) > 64 and len(live) * 2 < len(queue):
            # Consumed entries are marked, not popped: drop them when they dominate.
            queue[:] = live
        assert self._policy is not None
        index = self._policy(live)
        if not 0 <= index < len(live):
            raise IndexError(f"schedule policy chose event {index} of {len(live)} pending")
        entry = live[index]
        action, entry[2] = entry[2], None  # consumed; lazily dropped from the heap
        self._now = max(self._now, entry[0])
        self.events_fired += 1
        action()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue until it empties, virtual time would pass
        ``until``, ``max_events`` logical events have fired (a runaway
        guard) or an event called :meth:`stop`; returns the final time."""
        queue = self._queue
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else self.events_fired + max_events
        self._horizon, self._budget, self._stopped = horizon, budget, False
        try:
            while queue and not self._stopped:
                head = queue[0]
                if head[2] is None:
                    heapq.heappop(queue)
                elif head[0] > horizon:
                    self._now = until
                    break
                elif self.events_fired >= budget:
                    break
                else:
                    self.step()
        finally:  # outside run() a budget of -1 makes advance() refuse
            self._horizon, self._budget = math.inf, -1
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._queue if e[2] is not None)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"
