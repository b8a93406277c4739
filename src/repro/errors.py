"""Exception hierarchy for the HyperFile reproduction.

All library-raised exceptions derive from :class:`HyperFileError` so that
applications can catch everything the library produces with a single
``except`` clause while still being able to discriminate failure classes.
"""

from __future__ import annotations


class HyperFileError(Exception):
    """Base class for every error raised by this library."""


def _exact(value: object) -> str:
    """``str(value)``, or — past the interpreter's int-to-decimal digit
    limit (a credit lost ~14 000 hops deep) — the same ratio in hex, with
    a power-of-two denominator written ``2**e`` as ``Credit`` prints it."""
    try:
        return str(value)
    except ValueError:
        numerator, denominator = value.numerator, value.denominator
        if denominator & (denominator - 1):
            return f"{numerator:#x}/{denominator:#x}"
        return f"{numerator:#x}/2**{denominator.bit_length() - 1}"


class ConfigError(HyperFileError, ValueError):
    """A deployment configuration is invalid or names a capability the
    selected transport cannot honour.

    Raised at :class:`~repro.config.ClusterConfig` construction time for
    combinations that can never work (e.g. simulator-only knobs together
    with ``processes=True``) and by ``require_default`` when a transport
    rejects a field it does not implement — always *before* any process
    is spawned or socket bound, never deep inside a transport at first
    use.
    """


class ObjectNotFound(HyperFileError, KeyError):
    """An object id could not be resolved to a stored object.

    Raised by stores and by the naming service when the birth site has no
    record of the object (i.e. the object never existed or was deleted).
    """

    def __init__(self, oid: object, site: object = None) -> None:
        self.oid = oid
        self.site = site
        where = f" at site {site!r}" if site is not None else ""
        super().__init__(f"object {oid} not found{where}")


class DuplicateObject(HyperFileError):
    """An object with the same id was stored twice at one site."""


class QuerySyntaxError(HyperFileError, ValueError):
    """The textual query could not be parsed.

    Carries the offending position so interactive applications can point at
    the error.
    """

    def __init__(self, message: str, position: int = -1, text: str = "") -> None:
        self.position = position
        self.text = text
        if position >= 0 and text:
            snippet = text[max(0, position - 20) : position + 20]
            message = f"{message} (at position {position}: ...{snippet!r}...)"
        super().__init__(message)


class QueryValidationError(HyperFileError, ValueError):
    """A structurally well-formed query violates a static rule.

    Examples: dereferencing a matching variable that is never bound, a
    bounded iterator with a non-positive count, or nesting deeper than the
    configured limit.
    """


class UnknownSite(HyperFileError, KeyError):
    """A message was addressed to a site the cluster does not contain."""

    def __init__(self, site: object) -> None:
        self.site = site
        super().__init__(f"unknown site {site!r}")


class SiteUnavailable(HyperFileError):
    """The target site is marked down (used for partial-result semantics).

    The paper requires that "lack of cooperation from one node must not
    shut down the entire service"; transports raise/record this instead of
    blocking forever.
    """

    def __init__(self, site: object) -> None:
        self.site = site
        super().__init__(f"site {site!r} is unavailable")


class TerminationProtocolError(HyperFileError):
    """Invariant violation inside a termination detector.

    For the weighted-message detector this means credit was lost or
    duplicated (conservation violated); for Dijkstra-Scholten it means an
    acknowledgement arrived for an edge that was never created.
    """


class TransportClosed(HyperFileError):
    """An operation was attempted on a transport after shutdown."""


class ChildProcessDied(HyperFileError):
    """A site's child process died while the parent still needed it.

    Raised by the process-mode control channel when a request cannot be
    sent to — or a reply can no longer arrive from — a child whose
    process or control link is gone.  Always names the site, so callers
    never see a bare timeout for what is really a dead process.
    """

    def __init__(self, site: object, detail: str = "") -> None:
        self.site = site
        suffix = f": {detail}" if detail else ""
        super().__init__(f"child process for site {site!r} died{suffix}")


class MembershipError(HyperFileError):
    """An invalid membership transition was requested.

    Examples: joining a site that is already an up member, gracefully
    leaving the last active site, failing a site that already departed.
    The view is never left half-changed — the transition is rejected
    before any listener fires.
    """

    def __init__(self, site: object, detail: str = "") -> None:
        self.site = site
        suffix = f": {detail}" if detail else ""
        super().__init__(f"invalid membership transition for site {site!r}{suffix}")


class SiteDeparted(HyperFileError):
    """A query was submitted at a site that is leaving or has departed.

    A departing originator could never deliver its answer — its drain
    window exists to finish work already in hand, not to take on more —
    so the submit is rejected with a typed error instead of accepting
    work that would hang or vanish with the site.
    """

    def __init__(self, site: object, status: str = "departed") -> None:
        self.site = site
        self.status = status
        super().__init__(
            f"cannot originate a query at site {site!r}: membership status is {status!r}"
        )


class QueryTimeout(HyperFileError):
    """A query's originator-side deadline expired before termination.

    The originator reclaims outstanding credit, abandons local work, and
    completes the query with whatever results arrived, flagged
    ``partial=True``.  Clients that asked for ``on_deadline="raise"`` get
    this exception instead; the partial result rides on it.
    """

    def __init__(self, qid: object, deadline_s: float, result: object = None) -> None:
        self.qid = qid
        self.deadline_s = deadline_s
        self.result = result
        super().__init__(f"query {qid} exceeded its {deadline_s}s deadline (partial results)")


class TerminationLost(HyperFileError):
    """A query can no longer terminate: detector state was lost in flight.

    Raised by ``wait`` on every transport when the cluster goes idle (or a
    hard timeout fires) before the originator's termination detector could
    declare completion — typically because work messages were dropped by
    an unreliable network and took their credit with them.

    Carries uniform diagnostics across transports: the missing credit
    (``deficit``, a :class:`fractions.Fraction` for the weighted detector,
    ``None`` for detectors without a credit ledger) and how many envelopes
    the transport recorded as undeliverable.
    """

    def __init__(
        self,
        qid: object,
        deficit: object = None,
        undeliverable: int = 0,
        site: object = None,
    ) -> None:
        self.qid = qid
        self.deficit = deficit
        self.undeliverable = undeliverable
        self.site = site
        detail = []
        if deficit is not None:
            detail.append(f"credit deficit {_exact(deficit)}")
        if undeliverable:
            detail.append(f"{undeliverable} undeliverable envelope(s)")
        if site is not None:
            detail.append(f"site {site!r} lost")
        suffix = f" ({', '.join(detail)})" if detail else ""
        super().__init__(
            f"query {qid} cannot terminate: the termination detector never fired{suffix}"
        )


class QueryLimitExceeded(HyperFileError):
    """A query exceeded a configured resource limit.

    Limits protect a shared server against runaway queries (e.g. a ``*``
    iterator over a huge connected component when the application expected
    a small neighbourhood).
    """

    def __init__(self, limit_name: str, limit: int) -> None:
        self.limit_name = limit_name
        self.limit = limit
        super().__init__(f"query exceeded limit {limit_name}={limit}")


class Overloaded(HyperFileError):
    """A submit was bounced by admission control (see docs/QOS.md).

    The per-client token bucket was empty, so the query was rejected
    *before* anything entered the cluster — an explicit bounce the
    client can retry after ``retry_after_s``, instead of work silently
    queueing behind an already-saturated service.
    """

    def __init__(self, client: str, retry_after_s: float = 0.0) -> None:
        self.client = client
        self.retry_after_s = retry_after_s
        super().__init__(
            f"submit bounced for client {client!r}: rate limit exceeded "
            f"(retry after {retry_after_s:.3f}s)"
        )


class ResultSetRetired(HyperFileError):
    """A follow-up named a source query whose distributed result set is
    no longer held at the sites.

    Sites keep a finished query's partitions only while its originator
    keeps the query in its recently-finished window (and only in
    ``result_mode="count"``: in ship mode the results left the sites
    and the contexts are purged at completion).  Seeding from a retired
    source would silently start from nothing, so it is refused instead.
    """
