#!/usr/bin/env python3
"""A distributed digital library: citations, archives, and failures.

Demonstrates the distributed-systems story of the paper on a library of
papers spread over three institutions:

* **citation closure** — "find every paper referenced directly or
  indirectly by this one that also carries a keyword", answered by
  shipping the query from site to site (paper §3);
* **archival migration** — old papers move to an archive site; queries
  keep working through birth-site naming and forwarding (paper §4);
* **partial results** — an institution goes down; queries posed at the
  others still answer with what is reachable (paper §1's autonomy goal);
* **publication-year ranges** — the paper's "published between May 1901
  and February 1902" style predicate, as a numeric range pattern.

Run:  python examples/digital_library.py
"""

import random

from repro.cluster import SimCluster
from repro.client.session import Session
from repro.core import keyword_tuple, number_tuple, pointer_tuple, string_tuple

INSTITUTIONS = ["princeton", "stanford", "archive"]
TOPICS = ["databases", "hypertext", "distribution", "storage"]


def build_library(cluster: SimCluster, n_papers: int = 60, seed: int = 11):
    """Random citation DAG: paper i cites up to three older papers."""
    rng = random.Random(seed)
    oids = []
    for i in range(n_papers):
        site = INSTITUTIONS[i % 2]  # live papers start at the two universities
        store = cluster.store(site)
        tuples = [
            string_tuple("Title", f"Paper #{i}"),
            number_tuple("Year", 1960 + i % 30),
            keyword_tuple(rng.choice(TOPICS)),
        ]
        obj = store.create(tuples)
        oids.append(obj.oid)
        cites = rng.sample(range(i), k=min(i, rng.randint(2, 5))) if i else []
        refs = [pointer_tuple("Cites", oids[j]) for j in cites]
        if not refs:
            refs = [pointer_tuple("Cites", obj.oid)]  # root papers self-cite (leaf rule)
        store.replace(store.get(obj.oid).with_tuples(refs))
    return oids


def main() -> None:
    cluster = SimCluster(INSTITUTIONS)
    oids = build_library(cluster)
    session = Session(cluster, home_site="princeton")
    # Read a paper held at our own institution so the demo's failure
    # scenario (stanford down) still leaves local work to do.
    newest = oids[-2]
    session.define_set("Reading", [newest])

    # -- citation closure + keyword filter ---------------------------------
    print("== papers cited (transitively) by the paper we are reading, on hypertext ==")
    found = session.query(
        'Reading [ (Pointer, "Cites", ?X) | ^^X ]* '
        '(Keyword, "hypertext", ?) (String, "Title", ->title) -> Hits'
    )
    for title in session.retrieve("title"):
        print("  ", title)
    print(f"  -> {len(found)} papers, {session.last_response_time*1000:.0f} ms simulated")

    # -- archival migration ------------------------------------------------------
    print("== archiving the 20 oldest papers ==")
    for oid in oids[:20]:
        cluster.migrate(oid, "archive")
    found_after = session.query(
        'Reading [ (Pointer, "Cites", ?X) | ^^X ]* '
        '(Keyword, "hypertext", ?) -> HitsAfter'
    )
    assert {o.key() for o in found_after} == {o.key() for o in found}
    fwd = cluster.total_stats().forwarded_requests
    print(f"  same answers after migration ({fwd} requests followed forwarding pointers)")

    # -- year-range selection ---------------------------------------------------
    print("== cited papers published 1970..1979 ==")
    seventies = session.query(
        'Reading [ (Pointer, "Cites", ?X) | ^^X ]* (Number, "Year", 1970..1979) -> Seventies'
    )
    print(f"  {len(seventies)} papers from the 1970s in the citation closure")

    # -- partial results when a site is down ----------------------------------
    print("== the archive goes down ==")
    cluster.set_down("archive")
    partial = session.query(
        'Reading [ (Pointer, "Cites", ?X) | ^^X ]* (Keyword, "hypertext", ?) -> Partial'
    )
    dropped = cluster.total_stats().failed_sends
    print(
        f"  partial answer: {len(partial)} of {len(found)} papers "
        f"({dropped} dereferences abandoned; query still terminated cleanly)"
    )
    assert len(partial) <= len(found)


if __name__ == "__main__":
    main()
