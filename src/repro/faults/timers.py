"""A single-thread timer wheel for the wall-clock transports.

The simulated transport schedules retransmits and delayed deliveries on
the discrete-event queue; the wall-clock transports (threads, asyncio
inline, a process-mode parent's crash schedule) share one of these.
``threading.Timer`` spawns one thread per timer — far too heavy when
every in-flight message arms a retransmit — so this module provides
one daemon thread driving a binary heap of (deadline, callback) entries,
mirroring :class:`repro.sim.kernel.Simulator`'s cancel semantics.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List


@dataclass(order=True)
class _TimerEntry:
    deadline: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class TimerHandle:
    """Returned by :meth:`TimerThread.schedule`; mirrors the simulator's
    :class:`~repro.sim.kernel.EventHandle` so the reliable channel can
    treat both clocks uniformly."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _TimerEntry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled


class TimerThread:
    """One daemon thread firing scheduled callbacks at wall-clock times."""

    def __init__(self, name: str = "hf-timers") -> None:
        self._heap: List[_TimerEntry] = []
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._stopped = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def now(self) -> float:
        return time.monotonic()

    def schedule(self, delay_s: float, action: Callable[[], None]) -> TimerHandle:
        """Run ``action`` on the timer thread after ``delay_s`` seconds."""
        entry = _TimerEntry(time.monotonic() + max(0.0, delay_s), next(self._seq), action)
        with self._cond:
            if self._stopped:
                raise RuntimeError("timer thread is stopped")
            heapq.heappush(self._heap, entry)
            self._cond.notify()
        return TimerHandle(entry)

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._heap.clear()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and (
                    not self._heap or self._heap[0].deadline > time.monotonic()
                ):
                    if self._heap:
                        self._cond.wait(max(0.0, self._heap[0].deadline - time.monotonic()))
                    else:
                        self._cond.wait()
                if self._stopped:
                    return
                entry = heapq.heappop(self._heap)
            if entry.cancelled:
                continue
            try:
                entry.action()
            except Exception:  # noqa: BLE001 — a timer callback must not kill the wheel
                pass
