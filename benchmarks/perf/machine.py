"""What the benchmark reads from the machine it runs on: CPU time and
memory of the process tree, leaked threads and processes, the end of
every process a run started, and the reference-speed clock that takes
the shared box's mood out of the durations."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import resource
import signal
import statistics
import threading
import time
from collections import deque
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Deque, Dict, List, Tuple

#: Time allowed after ``close()`` for site threads and processes to end.
LEAK_GRACE_S = 2.0

# -- process accounting (Linux /proc) ---------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def cpu_seconds() -> float:
    """CPU consumed so far by this process and every live site process."""
    total = time.process_time()
    for pid in _child_pids():
        after_comm = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += (int(after_comm[11]) + int(after_comm[12])) / _CLOCK_TICKS  # utime + stime
    return total


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus its site processes."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def leaks_after_close(baseline_threads: int) -> Tuple[int, int]:
    """(site processes, threads) still alive once the grace period ends."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        children = len(multiprocessing.active_children())
        threads = max(threading.active_count() - baseline_threads, 0)
        if (children == 0 and threads == 0) or time.monotonic() >= deadline:
            return children, threads
        time.sleep(0.05)


# -- ending every process the benchmark started ------------------------------------

_PR_SET_CHILD_SUBREAPER = 36
#: Time a child gets to end by itself before ``end_all_children`` kills it.
EXIT_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant, so that
    ``end_all_children`` finds the site processes of a sub-run that died."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _live_children() -> List[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                state, ppid = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[:2]
            except OSError:
                continue  # ended while we looked
            if int(ppid) == me and state != "Z":
                pids.append(int(entry))
    return pids


def end_all_children(grace_s: float = EXIT_GRACE_S) -> None:
    """Wait until every child of this process has ended and been reaped;
    kill whatever is still alive after ``grace_s``.  Call it last: it
    takes the exit statuses ``multiprocessing`` and ``subprocess`` would
    otherwise collect.

    ``multiprocessing`` starts a resource tracker beside the first spawned
    site process, and that one ends only when its pipe is closed —
    normally by this process exiting, which leaves it running for a
    moment (and then a zombie where init does not reap) after a run.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _live_children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


# -- the reference-speed clock -----------------------------------------------------

SPIN_ITERATIONS = 2_400
#: Thread-CPU seconds the spin takes on the 2-core box this benchmark was
#: defined on (CPython 3.11), midway between its fast (0.8 ms) and slow
#: (1.5 ms) spells.  It only sets the scale of the reported numbers: two
#: commits measured on one machine and interpreter share it.
REFERENCE_SPIN_S = 1.0e-3
#: Seconds between speed readings, and readings per core the estimate rests on.
READ_INTERVAL_S = 0.25
READINGS_KEPT = 7


class _SpinTable:
    """What the spin loop exercises: small-object allocation, method
    calls, dict and set updates — the interpreter work a query is made
    of.  A bare arithmetic loop tracks the slow-downs of a shared box
    only two thirds as well, because it never touches memory."""

    def __init__(self) -> None:
        self.seen: Dict[int, set] = {}
        self.kept: List[list] = []

    def fresh(self, key: int, mark: tuple) -> bool:
        marks = self.seen.get(key)
        return marks is None or mark not in marks

    def record(self, key: int, mark: tuple) -> None:
        self.seen.setdefault(key, set()).add(mark)
        self.kept.append([key, mark])


def spin_seconds() -> float:
    """Thread-CPU time of a fixed interpreter loop: a gauge of core speed
    that waiting for the GIL or for a reply does not inflate."""
    started = time.thread_time()
    table = _SpinTable()
    for i in range(SPIN_ITERATIONS):
        key, mark = i % 500, (1 + i % 3, ())
        if table.fresh(key, mark):
            table.record(key, mark)
    if len({entry[0]: entry for entry in table.kept}) != 500:
        raise AssertionError("spin loop miscounted")
    return time.thread_time() - started


class ReferenceClock:
    """Wall-clock time rescaled to a fixed CPU speed.

    On the shared 2-core box this was written on, a neighbour slows one
    core at a time to about half speed, for spells of seconds to minutes:
    over ten runs the wall-clock readings spread by up to 28 %
    (``results/spread.json`` keeps them beside the rescaled values).  Every ``READ_INTERVAL_S`` the client therefore runs the spin
    loop once on each core it may use (only the calling thread moves, and
    only for the reading; the deployment's threads and processes are
    never confined).  ``speed`` is the reference spin time over the median
    of the last few readings, averaged over cores — what a deployment
    spread over them has available — and a measured duration times
    ``speed`` is what it would have taken at reference speed.

    ``now()`` is in reference seconds and leaves the readings themselves
    out, so a timed region that lasts N reference seconds serves the same
    number of queries whatever the machine was doing — which matters
    because per-query cost depends on how many were served before.
    ``gauge_wall_s`` and ``gauge_cpu_s`` are what the readings cost since
    ``restart``, for the caller to subtract.
    """

    def __init__(self) -> None:
        self._cores = sorted(os.sched_getaffinity(0))
        self._recent: Dict[int, Deque[float]] = {core: deque(maxlen=READINGS_KEPT) for core in self._cores}
        self.speed = 1.0  #: until the first reading
        self.restart()

    def read(self) -> None:
        """Take a speed reading; the time it takes is not counted."""
        started, cpu_started = time.perf_counter(), time.thread_time()
        self._elapsed += (started - self._mark) * self.speed
        try:
            for core, recent in self._recent.items():
                os.sched_setaffinity(0, {core})  # pid 0: the calling thread only
                recent.append(spin_seconds())
        finally:
            os.sched_setaffinity(0, self._cores)
        self.speed = statistics.fmean(
            REFERENCE_SPIN_S / statistics.median(recent) for recent in self._recent.values()
        )
        self._mark = time.perf_counter()
        self.gauge_wall_s += self._mark - started
        self.gauge_cpu_s += time.thread_time() - cpu_started

    def settle(self) -> None:
        """Replace every remembered reading with a fresh one."""
        for _ in range(READINGS_KEPT):
            self.read()

    def read_if_due(self) -> None:
        if time.perf_counter() - self._mark >= READ_INTERVAL_S:
            self.read()

    def restart(self) -> None:
        self._mark = time.perf_counter()
        self._elapsed = 0.0
        self.gauge_wall_s = 0.0
        self.gauge_cpu_s = 0.0

    def now(self) -> float:
        """Reference seconds since ``restart``."""
        return self._elapsed + (time.perf_counter() - self._mark) * self.speed
