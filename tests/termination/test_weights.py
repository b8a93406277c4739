"""Unit tests for the weighted-message (credit) termination detector."""

from fractions import Fraction

import pytest

from repro.errors import TerminationProtocolError
from repro.termination.dijkstra_scholten import DijkstraScholtenStrategy
from repro.termination.weights import ONE, ZERO, Credit, WeightedStrategy, ledger_deficit, ledger_of


@pytest.fixture
def strategy():
    return WeightedStrategy()


def originator(strategy):
    state = strategy.new_state("site0", is_originator=True)
    strategy.on_start(state)
    return state


class TestCreditFlow:
    def test_originator_starts_with_unit_credit(self, strategy):
        assert originator(strategy).credit == 1

    def test_send_splits_credit_in_half(self, strategy):
        state = originator(strategy)
        attach = strategy.on_send_work(state)
        assert attach["credit"] == Fraction(1, 2)
        assert state.credit == Fraction(1, 2)

    def test_repeated_splits_never_exhaust(self, strategy):
        state = originator(strategy)
        total_sent = Fraction(0)
        for _ in range(50):
            total_sent += strategy.on_send_work(state)["credit"]
        assert state.credit > 0
        assert total_sent + state.credit == 1  # conservation

    def test_receive_accumulates(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        strategy.on_recv_work(state, {"credit": Fraction(1, 4)}, "site0", busy=True)
        strategy.on_recv_work(state, {"credit": Fraction(1, 8)}, "site2", busy=True)
        assert state.credit == Fraction(3, 8)

    def test_drain_returns_everything(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        strategy.on_recv_work(state, {"credit": Fraction(1, 4)}, "site0", busy=True)
        attach, controls = strategy.on_drain(state)
        assert attach["credit"] == Fraction(1, 4)
        assert state.credit == 0
        assert controls == []


class TestTermination:
    def test_simple_round_trip(self, strategy):
        orig = originator(strategy)
        remote = strategy.new_state("site1", is_originator=False)
        attach = strategy.on_send_work(orig)
        strategy.on_recv_work(remote, attach, "site0", busy=True)
        strategy.on_originator_drain(orig)
        assert not strategy.is_terminated(orig, busy=False)  # half still out
        returned, _ = strategy.on_drain(remote)
        strategy.on_result(orig, returned)
        assert strategy.is_terminated(orig, busy=False)

    def test_not_terminated_while_busy(self, strategy):
        orig = originator(strategy)
        strategy.on_originator_drain(orig)
        assert strategy.is_terminated(orig, busy=False)
        assert not strategy.is_terminated(orig, busy=True)

    def test_non_originator_never_terminates(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        assert not strategy.is_terminated(state, busy=False)

    def test_deep_fan_out_conserves(self, strategy):
        # site0 -> site1 -> site2 -> site3; every hop splits, every site
        # returns its remainder; the originator recovers exactly 1.
        orig = originator(strategy)
        sites = [strategy.new_state(f"site{i}", False) for i in (1, 2, 3)]
        attach = strategy.on_send_work(orig)
        strategy.on_originator_drain(orig)
        prev = None
        for state in sites:
            strategy.on_recv_work(state, attach, "prev", busy=True)
            attach = strategy.on_send_work(state)
        # last attach goes nowhere: feed it back as if a 4th site drained instantly
        last = strategy.new_state("site4", False)
        strategy.on_recv_work(last, attach, "site3", busy=True)
        ret, _ = strategy.on_drain(last)
        strategy.on_result(orig, ret)
        for state in sites:
            ret, _ = strategy.on_drain(state)
            strategy.on_result(orig, ret)
        assert strategy.is_terminated(orig, busy=False)


class TestProtocolErrors:
    def test_send_without_credit(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        with pytest.raises(TerminationProtocolError):
            strategy.on_send_work(state)

    def test_invalid_incoming_credit(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        with pytest.raises(TerminationProtocolError):
            strategy.on_recv_work(state, {"credit": 0.5}, "site0", busy=True)  # float, not Fraction
        with pytest.raises(TerminationProtocolError):
            strategy.on_recv_work(state, {}, "site0", busy=True)

    def test_over_recovery_detected(self, strategy):
        orig = originator(strategy)
        strategy.on_originator_drain(orig)
        with pytest.raises(TerminationProtocolError, match="over-recovered"):
            strategy.on_result(orig, {"credit": Fraction(1, 2)})

    def test_unexpected_control_message(self, strategy):
        orig = originator(strategy)
        with pytest.raises(TerminationProtocolError):
            strategy.on_control(orig, "ds-ack", None, "site1", busy=False)


class TestCreditValue:
    """``Credit`` is the same rational number a ``Fraction`` would be."""

    def test_normal_form(self):
        half = Credit(1, 1)
        whole = half + half
        assert (whole.mantissa, whole.exponent) == (1, 0)
        assert whole == ONE and whole == 1
        summed = Credit(3, 3) + Credit(1, 3)  # 3/8 + 1/8
        assert (summed.mantissa, summed.exponent) == (1, 1)
        assert (Credit(4, 5).mantissa, Credit(4, 5).exponent) == (1, 3)
        assert (Credit(0, 9).mantissa, Credit(0, 9).exponent) == (0, 0)
        assert Credit(6, 1) == 3  # whole numbers keep exponent 0
        assert ZERO + half == half and half + ZERO == half

    def test_addition_across_exponents(self):
        assert Credit(1, 1) + Credit(1, 300) == Fraction(1, 2) + Fraction(1, 2 ** 300)
        assert Credit(1, 300) + Credit(1, 1) == Fraction(1, 2) + Fraction(1, 2 ** 300)

    def test_reads_as_a_fraction(self):
        credit = Credit(3, 4)
        assert credit == Fraction(3, 16) and Fraction(3, 16) == credit
        assert credit != Fraction(1, 3) and credit != "3/16"
        assert hash(credit) == hash(Fraction(3, 16)) and hash(Credit(5)) == hash(5)
        assert (credit.numerator, credit.denominator) == (3, 16)
        assert str(credit) == str(Fraction(3, 16)) == "3/16"
        assert str(ONE) == "1" and str(ZERO) == "0"
        assert repr(credit) == "Credit(3, 4)"
        assert {credit: "x"}[Fraction(3, 16)] == "x"
        assert not ZERO and credit

    def test_prints_past_the_interpreter_digit_limit(self):
        # str(1 << 20000) raises ValueError where CPython caps decimal
        # conversion (3.11+); a traced send labels its credit on every hop
        # of however deep a chain.
        text = str(Credit(5, 20_000))
        assert text == "0x5/2**20000" or text.startswith("5/")
        assert str(Credit(1, 5000)) == str(Fraction(1, 2 ** 5000))

    def test_orders_like_a_fraction(self):
        values = [Credit(1, 2), Credit(3, 3), Credit(1, 1), ONE, ZERO, Credit(5, 270)]
        assert sorted(values) == sorted(values, key=lambda c: Fraction(c.numerator, c.denominator))
        assert Credit(1, 2) < Fraction(1, 3) < Credit(1, 1) <= Fraction(1, 2)
        assert Credit(3, 1) > 1 >= ONE > Credit(1, 5000) > 0
        assert Fraction(1, 2) >= Credit(1, 1) and not Fraction(1, 4) > Credit(1, 2)

    def test_mixed_arithmetic_returns_a_fraction(self):
        half = Credit(1, 1)
        for mixed in (half + Fraction(1, 3), Fraction(1, 3) + half, half + 1, 1 - half, half - Credit(1, 2), half - 1):
            assert type(mixed) is Fraction
        assert half + Fraction(1, 3) == Fraction(5, 6)
        assert 1 - half == Fraction(1, 2) and half - Credit(3, 2) == Fraction(-1, 4)
        assert sum([half, Credit(1, 2)]) == Fraction(3, 4)
        assert type(half + half) is Credit
        with pytest.raises(TypeError):
            half + 0.5

    def test_immutable(self):
        credit = Credit(1, 2)
        for name in ("mantissa", "exponent", "numerator", "denominator", "anything"):
            with pytest.raises(AttributeError):
                setattr(credit, name, 3)
        assert credit == Fraction(1, 4)

    def test_rejects_what_is_not_a_credit(self):
        for mantissa, exponent in ((-1, 0), (1, -1)):
            with pytest.raises(ValueError):
                Credit(mantissa, exponent)


class TestDetectorBoundary:
    """Messages may hand the detector a dyadic ``Fraction``; it is coerced
    on the way in, and anything else is a protocol error."""

    def test_dyadic_fraction_is_coerced(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        strategy.on_recv_work(state, {"credit": Fraction(1, 4)}, "site0", busy=True)
        assert type(state.credit) is Credit and state.credit == Fraction(1, 4)
        strategy.on_send_failed(state, {"credit": Fraction(1, 4)}, busy=True)
        assert (state.credit.mantissa, state.credit.exponent) == (1, 1)
        orig = originator(strategy)
        strategy.on_result(orig, {"credit": Fraction(1, 2)})
        assert type(orig.recovered) is Credit and orig.recovered == Fraction(1, 2)

    @pytest.mark.parametrize("credit", [Fraction(1, 3), Fraction(-1, 2), 1, 0.5, "1/2", None])
    def test_anything_else_is_a_protocol_error(self, strategy, credit):
        state = strategy.new_state("site1", is_originator=False)
        with pytest.raises(TerminationProtocolError):
            strategy.on_recv_work(state, {"credit": credit}, "site0", busy=True)
        with pytest.raises(TerminationProtocolError):
            strategy.on_send_failed(state, {"credit": credit}, busy=True)
        with pytest.raises(TerminationProtocolError):
            strategy.on_result(originator(strategy), {"credit": credit})
        assert state.credit == 0

    def test_zero_credit_is_valid_on_a_result_only(self, strategy):
        state = strategy.new_state("site1", is_originator=False)
        for zero in (ZERO, Fraction(0)):
            with pytest.raises(TerminationProtocolError):
                strategy.on_recv_work(state, {"credit": zero}, "site0", busy=True)
            strategy.on_result(originator(strategy), {"credit": zero})
        strategy.on_result(originator(strategy), {})  # no credit at all is zero

    def test_detector_hands_out_credits(self, strategy):
        state = originator(strategy)
        attach = strategy.on_send_work(state)
        assert type(attach["credit"]) is Credit and attach["credit"] is state.credit
        returned, _ = strategy.on_drain(state)
        assert type(returned["credit"]) is Credit and state.credit is ZERO


class TestLedgerDeficit:
    def test_sums_the_ledgers(self, strategy):
        orig = originator(strategy)
        remote = strategy.new_state("site1", is_originator=False)
        lost = strategy.on_send_work(orig)["credit"]  # 1/2, never delivered
        strategy.on_recv_work(remote, strategy.on_send_work(orig), "site0", busy=True)
        strategy.on_originator_drain(orig)
        deficit = ledger_deficit([ledger_of(orig), ledger_of(remote)])
        assert type(deficit) is Fraction and deficit == lost == Fraction(1, 2)

    def test_none_without_a_ledger_or_an_originator(self, strategy):
        remote = strategy.new_state("site1", is_originator=False)
        assert ledger_deficit([ledger_of(remote)]) is None
        assert ledger_deficit([]) is None
        ds = DijkstraScholtenStrategy().new_state("site0", True)
        assert ledger_deficit([ledger_of(ds)]) is None
