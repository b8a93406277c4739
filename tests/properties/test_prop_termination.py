"""Property tests for termination detection: conservation and no false
positives/negatives under randomised distributed schedules."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.core.builder import QueryBuilder
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.errors import TerminationProtocolError
from repro.sim.costs import FREE_COSTS
from repro.termination.weights import ZERO, Credit, WeightedStrategy

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = [
        draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
        for _ in range(n)
    ]
    placement = [draw(st.integers(min_value=0, max_value=2))for _ in range(n)]
    seed = draw(st.integers(min_value=0, max_value=n - 1))
    return n, edges, placement, seed


def run_scenario(n, edges, placement, seed, strategy):
    cluster = SimCluster(3, costs=FREE_COSTS, termination=strategy)
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [stores[placement[i]].create([]).oid for i in range(n)]
    for i in range(n):
        tuples = [keyword_tuple("K")] + [pointer_tuple("Edge", oids[j]) for j in edges[i]]
        stores[placement[i]].replace(stores[placement[i]].get(oids[i]).with_tuples(tuples))
    query = (
        QueryBuilder("S")
        .begin_loop()
        .select("Pointer", "Edge", "?X")
        .deref_keep("X")
        .end_loop()
        .select("Keyword", "K", "?")
        .into("T")
    )
    outcome = cluster.run_query(compile_query(query), [oids[seed]])
    return cluster, outcome


class TestWeightedConservation:
    @SETTINGS
    @given(random_scenarios())
    def test_credit_fully_recovered_at_completion(self, scenario):
        n, edges, placement, seed = scenario
        cluster, outcome = run_scenario(n, edges, placement, seed, "weighted")
        ctx = cluster.node(outcome.qid.originator).contexts[outcome.qid]
        assert ctx.term_state.recovered == Fraction(1)
        assert ctx.term_state.credit == 0

    @SETTINGS
    @given(random_scenarios())
    def test_no_credit_left_at_any_site(self, scenario):
        n, edges, placement, seed = scenario
        cluster, outcome = run_scenario(n, edges, placement, seed, "weighted")
        for node in cluster.nodes.values():
            ctx = node.contexts.get(outcome.qid)
            if ctx is not None and not ctx.is_originator:
                assert ctx.term_state.credit == 0


class TestNoFalseDetection:
    @SETTINGS
    @given(random_scenarios(), st.sampled_from(["weighted", "dijkstra-scholten"]))
    def test_detection_only_after_all_work_done(self, scenario, strategy):
        # At completion, every site's working set for the query is empty
        # and no messages are in flight (the simulator would still hold
        # events otherwise — we drain and check nothing changes).
        n, edges, placement, seed = scenario
        cluster, outcome = run_scenario(n, edges, placement, seed, strategy)
        result_size = len(outcome.result.oids)
        for node in cluster.nodes.values():
            ctx = node.contexts.get(outcome.qid)
            if ctx is not None:
                assert not ctx.busy
        cluster.run()  # drain any stragglers
        assert len(outcome.result.oids) == result_size  # nothing arrived late

    @SETTINGS
    @given(random_scenarios())
    def test_detectors_agree_on_results(self, scenario):
        n, edges, placement, seed = scenario
        _, weighted = run_scenario(n, edges, placement, seed, "weighted")
        _, ds = run_scenario(n, edges, placement, seed, "dijkstra-scholten")
        assert weighted.result.oid_keys() == ds.result.oid_keys()


class TestSplitArithmetic:
    @given(st.integers(min_value=1, max_value=200))
    def test_any_number_of_splits_conserves(self, splits):
        strategy = WeightedStrategy()
        state = strategy.new_state("s0", True)
        strategy.on_start(state)
        sent = []
        for _ in range(splits):
            sent.append(strategy.on_send_work(state)["credit"])
        assert sum(sent) + state.credit == 1
        assert all(c > 0 for c in sent)


# --------------------------------------------------------------------------
# the (mantissa, exponent) pair is the same number a Fraction would be
# --------------------------------------------------------------------------

PAIR_SEED = 20261004
SITES = 4  # site 0 is the originator

#: One step of a schedule: (operation, which site / which message in flight).
steps = st.lists(
    st.tuples(
        st.sampled_from(["split", "split", "receive", "receive", "drain", "result", "send_failed"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.booleans(),
    ),
    max_size=120,
)


class FractionLedger:
    """The detector's arithmetic in ``Fraction``s, with nothing shared with
    the implementation: the reference the pair must agree with."""

    def __init__(self):
        self.held = [Fraction(0)] * SITES
        self.held[0] = Fraction(1)
        self.recovered = Fraction(0)

    def split(self, site):
        half = self.held[site] / 2
        self.held[site] -= half
        return half

    def terminated(self):
        return self.held[0] == 0 and self.recovered == 1


def as_sent(attach, as_fraction):
    """What arrives: the detector's own value, or (as tests and tools hand
    it in) the equal ``Fraction``."""
    if not as_fraction:
        return dict(attach)
    credit = attach["credit"]
    return {"credit": Fraction(credit.numerator, credit.denominator)}


class PairAgainstFractions:
    def __init__(self):
        self.strategy = WeightedStrategy()
        self.states = [self.strategy.new_state(f"site{i}", i == 0) for i in range(SITES)]
        self.strategy.on_start(self.states[0])
        self.reference = FractionLedger()
        self.work = []     # (sender, attachment, reference credit) in flight
        self.results = []  # (attachment, reference credit) in flight
        self.landed = None  # a credit-bearing result the originator has had

    def apply(self, op, pick, as_fraction):
        strategy, states, reference = self.strategy, self.states, self.reference
        if op == "split":
            site = pick % SITES
            if reference.held[site] == 0:
                with pytest.raises(TerminationProtocolError):
                    strategy.on_send_work(states[site])
            else:
                self.work.append((site, strategy.on_send_work(states[site]), reference.split(site)))
        elif op in ("receive", "send_failed") and self.work:
            sender, attach, credit = self.work.pop(pick % len(self.work))
            if op == "receive":
                site = (pick // 7) % SITES
                strategy.on_recv_work(states[site], as_sent(attach, as_fraction), f"site{sender}", busy=True)
            else:
                site = sender
                strategy.on_send_failed(states[site], as_sent(attach, as_fraction), busy=True)
            reference.held[site] += credit
        elif op == "drain":
            site = pick % SITES
            if site == 0:
                strategy.on_originator_drain(states[0])
                reference.recovered += reference.held[0]
            else:
                attach, controls = strategy.on_drain(states[site])
                assert controls == []
                self.results.append((attach, reference.held[site]))
            reference.held[site] = Fraction(0)
        elif op == "result" and self.results:
            attach, credit = self.results.pop(pick % len(self.results))
            strategy.on_result(states[0], as_sent(attach, as_fraction))
            reference.recovered += credit
            if credit:
                self.landed = attach
        self.check()

    def check(self):
        states, reference = self.states, self.reference
        held = [state.credit for state in states]
        flying = [attach["credit"] for _, attach, _ in self.work] + [attach["credit"] for attach, _ in self.results]
        expected = [credit for _, _, credit in self.work] + [credit for _, credit in self.results]
        for got, want in zip(held + flying + [states[0].recovered], reference.held + expected + [reference.recovered]):
            assert type(got) is Credit
            assert got == want and str(got) == str(want) and hash(got) == hash(want)
            assert got.mantissa & 1 or (got.mantissa, got.exponent) == (0, 0)  # normal form
        # Conservation, exactly, in both arithmetics.
        assert sum(reference.held + expected, reference.recovered) == 1
        total = states[0].recovered
        for credit in held + flying:
            total = total + credit
        assert type(total) is Credit and (total.mantissa, total.exponent) == (1, 0)
        # Termination fires on exactly the step the reference says.
        assert self.strategy.is_terminated(states[0], busy=False) == reference.terminated()
        assert not self.strategy.is_terminated(states[0], busy=True)

    def quiesce(self):
        """Deliver and drain everything left, one message at a time."""
        while self.work:
            self.apply("receive", 0, False)
        for site in range(SITES):
            self.apply("drain", site, False)
        while self.results:
            self.apply("result", 0, False)


@seed(PAIR_SEED)
@settings(max_examples=150, deadline=None, database=None)
@given(steps)
def test_pair_and_fraction_ledgers_agree_on_every_step(schedule):
    run = PairAgainstFractions()
    for op, pick, as_fraction in schedule:
        run.apply(op, pick, as_fraction)
    run.quiesce()
    assert run.reference.terminated()  # all credit is home, in both ledgers
    # Every protocol error still raises: a duplicated result over-recovers,
    # a work message with nothing (or less) in it is refused, an idle
    # site has nothing to split.
    if run.landed is not None:
        with pytest.raises(TerminationProtocolError, match="over-recovered"):
            run.strategy.on_result(run.states[0], dict(run.landed))
    for worthless in (ZERO, Fraction(0), Fraction(-1, 2)):
        with pytest.raises(TerminationProtocolError):
            run.strategy.on_recv_work(run.states[1], {"credit": worthless}, "site0", busy=True)
    with pytest.raises(TerminationProtocolError):
        run.strategy.on_send_work(run.states[1])
