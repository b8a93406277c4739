"""The weighted-messages (credit-recovery) termination detector.

This is the algorithm the paper's prototype implements ("One that is
particularly appropriate to HyperFile is the weighted messages algorithm
[9, 13]"), due independently to Huang and to Mattern.  The idea:

* The originator starts with credit **1**.
* Every work message carries half of the sending site's current credit
  (the sender keeps the other half).
* A site receiving work adds the incoming credit to its own.
* When a site's working set drains, it returns its entire credit to the
  originator, piggybacked on the result message it sends anyway — so in
  the common case the detector adds **zero** extra messages.
* The originator declares termination when it is idle and the recovered
  credit sums to exactly 1.

Credit is an exact dyadic rational.  The only arithmetic the algorithm
ever does is halve a credit and add credits together, and it starts from
1, so every value it can produce is ``mantissa / 2**exponent``.
:class:`Credit` holds that pair in normal form — the mantissa odd, or the
value 0 with exponent 0 — which makes it the same rational number a
:class:`fractions.Fraction` would hold, without the ``gcd`` a ``Fraction``
pays on integers that grow with the depth of the query: halving is
``exponent + 1``, addition aligns the two mantissas by a shift and strips
trailing zero bits, equal credits are equal pairs, and the detector's
tests against 0 and 1 are integer comparisons.  Conservation is therefore
still checkable exactly: at every instant, (credit held at sites) +
(credit in flight) + (credit recovered) == 1.  Violations raise
:class:`~repro.errors.TerminationProtocolError` instead of silently
mis-detecting.

Off the per-message path a ``Credit`` mixes with ``int`` and ``Fraction``:
it compares and hashes as the rational it is, prints as ``n/d`` exactly
like a ``Fraction``, exposes ``numerator`` / ``denominator``, and ``+`` /
``-`` against an ``int`` or ``Fraction`` (and any subtraction, which the
algorithm never performs) return a ``Fraction``.  The detector accepts a
dyadic ``Fraction`` wherever a message hands it one and coerces it on the
way in; nothing on the send / receive / drain / result path builds one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import TerminationProtocolError
from .base import ControlOut, TerminationStrategy

_new = object.__new__


class Credit:
    """The non-negative dyadic rational ``mantissa / 2**exponent``.

    Always in normal form — ``mantissa`` is odd, or the value is 0 and
    ``exponent`` is 0 too; the constructor normalises — so equal values
    are equal pairs.  Immutable the way ``Fraction`` is (read-only
    properties over private slots): one instance rides a message that
    several sites may hold at once.
    """

    __slots__ = ("_mantissa", "_exponent")

    def __new__(cls, mantissa: int = 0, exponent: int = 0) -> "Credit":
        if mantissa < 0 or exponent < 0:
            raise ValueError(f"credit {mantissa}/2**{exponent} is negative or not dyadic")
        return _normal(mantissa, exponent)

    @property
    def mantissa(self) -> int:
        return self._mantissa

    @property
    def exponent(self) -> int:
        return self._exponent

    numerator = mantissa

    @property
    def denominator(self) -> int:
        return 1 << self._exponent

    def _fraction(self) -> Fraction:
        return Fraction(self._mantissa, 1 << self._exponent)

    def __add__(self, other: Any):
        if type(other) is not Credit:
            return self._fraction() + other if isinstance(other, (int, Fraction)) else NotImplemented
        shift = self._exponent - other._exponent
        if shift > 0:
            return _normal(self._mantissa + (other._mantissa << shift), self._exponent)
        return _normal((self._mantissa << -shift) + other._mantissa, other._exponent)

    __radd__ = __add__

    def __sub__(self, other: Any):
        if type(other) is Credit:
            other = other._fraction()
        return self._fraction() - other if isinstance(other, (int, Fraction)) else NotImplemented

    def __rsub__(self, other: Any):
        return other - self._fraction() if isinstance(other, (int, Fraction)) else NotImplemented

    def __eq__(self, other: Any):
        if type(other) is Credit:  # normal form: equal values are equal pairs
            return self._mantissa == other._mantissa and self._exponent == other._exponent
        return self._fraction() == other if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fraction()) if self._exponent else hash(self._mantissa)

    def _compare(self, other: Any, op: Callable[[Any, Any], bool]):
        if type(other) is not Credit:
            return op(self._fraction(), other) if isinstance(other, (int, Fraction)) else NotImplemented
        shift = self._exponent - other._exponent
        if shift > 0:
            return op(self._mantissa, other._mantissa << shift)
        return op(self._mantissa << -shift, other._mantissa)

    def __lt__(self, other: Any):
        return self._compare(other, operator.lt)

    def __le__(self, other: Any):
        return self._compare(other, operator.le)

    def __gt__(self, other: Any):
        return self._compare(other, operator.gt)

    def __ge__(self, other: Any):
        return self._compare(other, operator.ge)

    def __bool__(self) -> bool:
        return self._mantissa != 0

    def __str__(self) -> str:
        if not self._exponent:
            return str(self._mantissa)
        try:
            return f"{self._mantissa}/{1 << self._exponent}"
        except ValueError:
            # Past the interpreter's int-to-decimal digit limit (a chain
            # ~14 000 hops deep): a traced send must still get its label.
            return f"{self._mantissa:#x}/2**{self._exponent}"

    def __repr__(self) -> str:
        return f"Credit({self._mantissa}, {self._exponent})"


def _normal(mantissa: int, exponent: int) -> Credit:
    """``mantissa / 2**exponent`` (both non-negative) in normal form."""
    if exponent and not mantissa & 1:
        twos = min((mantissa & -mantissa).bit_length() - 1, exponent) if mantissa else exponent
        mantissa >>= twos
        exponent -= twos
    credit = _new(Credit)
    credit._mantissa = mantissa
    credit._exponent = exponent
    return credit


ONE = Credit(1)
ZERO = Credit(0)


def _carried(credit: Any) -> Optional[Credit]:
    """The credit a message's attachment carried — a dyadic ``Fraction`` is
    converted — or ``None`` when what it carried cannot be one."""
    if type(credit) is Credit:
        return credit
    if isinstance(credit, Fraction) and credit >= 0:
        denominator = credit.denominator
        if not denominator & (denominator - 1):
            return Credit(credit.numerator, denominator.bit_length() - 1)
    return None


def ledger_deficit(ledgers: Iterable[Tuple[Any, Any]]) -> Optional[Fraction]:
    """``1 - recovered - Σ held`` over one query's per-site ledgers.

    Each ledger is ``(credit held, credit recovered)`` as read off a
    site's detector state, the second ``None`` at every site but the
    originator.  The answer is what is in flight or lost; ``None`` when
    a state has no credit (another detector) or no originator reported.
    """
    recovered = None
    held = ZERO
    for credit, site_recovered in ledgers:
        if type(credit) is not Credit:
            return None
        held += credit
        if type(site_recovered) is Credit:
            recovered = site_recovered
    if recovered is None:
        return None
    return 1 - (recovered + held)


def ledger_of(state: Any) -> Tuple[Any, Any]:
    """One site's entry for :func:`ledger_deficit`, from its detector state."""
    recovered = getattr(state, "recovered", None) if getattr(state, "is_originator", False) else None
    return getattr(state, "credit", None), recovered


@dataclass
class WeightedState:
    """Per-(site, query) credit ledger."""

    site: str
    is_originator: bool
    credit: Credit = ZERO      #: credit currently held by this site
    recovered: Credit = ZERO   #: originator only: credit returned so far
    splits: int = 0            #: number of times this site split its credit


class WeightedStrategy(TerminationStrategy):
    """Credit-recovery termination (the paper's choice)."""

    name = "weighted"

    def new_state(self, site: str, is_originator: bool) -> WeightedState:
        return WeightedState(site=site, is_originator=is_originator)

    def on_start(self, state: WeightedState) -> None:
        state.credit = ONE

    def on_send_work(self, state: WeightedState) -> Dict[str, Any]:
        credit = state.credit
        if not credit:
            raise TerminationProtocolError(
                f"site {state.site} sending work with no credit to split"
            )
        # Half goes, half stays: the same (immutable) value twice.
        state.credit = half = _normal(credit._mantissa, credit._exponent + 1)
        state.splits += 1
        return {"credit": half}

    def on_recv_work(self, state: WeightedState, attach: Dict[str, Any], src: str, busy: bool) -> List[ControlOut]:
        credit = _carried(attach.get("credit"))
        if not credit:
            raise TerminationProtocolError(
                f"work message from {src} carried invalid credit {attach.get('credit')!r}"
            )
        state.credit += credit
        return []

    def on_drain(self, state: WeightedState) -> Tuple[Dict[str, Any], List[ControlOut]]:
        returned = state.credit
        state.credit = ZERO
        return {"credit": returned}, []

    def on_originator_drain(self, state: WeightedState) -> None:
        state.recovered += state.credit
        state.credit = ZERO

    def on_result(self, state: WeightedState, attach: Dict[str, Any]) -> None:
        credit = _carried(attach.get("credit", ZERO))
        if credit is None:
            raise TerminationProtocolError(
                f"result message carried invalid credit {attach.get('credit')!r}"
            )
        state.recovered += credit
        if state.recovered > ONE:
            raise TerminationProtocolError(
                f"credit over-recovered: {state.recovered} > 1 (duplication bug)"
            )

    def on_control(self, state: WeightedState, kind: str, payload: Any, src: str, busy: bool) -> List[ControlOut]:
        raise TerminationProtocolError(
            f"weighted strategy received unexpected control message {kind!r}"
        )

    def on_send_failed(self, state: WeightedState, attach: Dict[str, Any], busy: bool) -> List[ControlOut]:
        credit = _carried(attach.get("credit"))
        if not credit:
            raise TerminationProtocolError(
                f"undeliverable work message carried invalid credit {attach.get('credit')!r}"
            )
        # Take the in-flight credit back; the node's drain-if-idle will
        # forward it to the originator if this site is already passive.
        state.credit += credit
        return []

    def on_deadline(self, state: WeightedState) -> None:
        # Forced termination: whatever credit is still held at other
        # sites or in flight is written off as recovered.  Late result
        # messages for the query are ignored by the node (the context is
        # marked done), so over-recovery cannot trip the conservation
        # check afterwards.
        state.credit = ZERO
        state.recovered = ONE

    def is_terminated(self, state: WeightedState, busy: bool) -> bool:
        if not state.is_originator:
            return False
        return not busy and state.credit == ZERO and state.recovered == ONE
