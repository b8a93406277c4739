"""Fault injection and fault tolerance for the HyperFile transports.

The paper's autonomy requirement — "lack of cooperation from one node
must not shut down the entire service" — is scripted in the seed repo as
*known-down* sites only: the sender consults an availability oracle and
abandons the branch.  Real networks also lose, duplicate, reorder and
delay messages, and the credit-recovery termination detector silently
deadlocks (lost credit) or raises (duplicated credit) the moment that
happens.  This package supplies both halves of the answer:

* :class:`~repro.faults.plan.FaultPlan` — a deterministic, seed-driven
  chaos schedule (per-message drop/duplicate/reorder/delay decisions,
  link partitions, timed transient site crashes) that every transport
  consults through one delivery policy (:mod:`repro.net.site`);
* :class:`~repro.faults.reliable.ReliableEndpoint` — an end-to-end
  reliable-delivery layer (per-link sequence numbers, acks, capped
  exponential-backoff retransmit, receive-side dedup) that restores the
  exactly-once delivery the detectors' conservation invariants assume.

See ``docs/FAULTS.md`` for the failure model: what is recoverable, what
is not, and why.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".plan": ("FaultDecision", "FaultPlan", "LinkFaults", "SiteCrash"),
    ".reliable": ("ReliableAck", "ReliableConfig", "ReliableData", "ReliableEndpoint"),
    ".timers": ("TimerThread",),
})
