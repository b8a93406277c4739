"""The ``E`` filter-evaluation function (paper §3.1).

``E(F_i, O) -> ({O_x, ...}, [O])`` takes the filter at ``O.next`` and the
object being processed, and returns a (possibly empty) set of new work
items produced by dereferencing, plus either the object (if it passed and
should continue) or ``None`` (if it failed, or a ``^X`` dropped it).

The implementation follows the paper's pseudocode case by case:

* **selection** — a tuple matches when all three field patterns match;
  bindings from matching tuples are applied to ``O.mvars`` *as the tuples
  are visited*, in insertion order (so a later tuple can match a variable
  bound by an earlier tuple of the same filter, exactly as the pseudocode's
  in-place "Modify O.mvars" implies); the object passes iff some tuple
  matched.  Which tuples are visited is decided by what the op's
  constructor found in its type and key patterns:

  - literal type and literal key — the object's ``(type, key)`` index
    hands over the tuples carrying both, and only the data pattern runs;
  - literal type only — the index hands over the tuples of that type,
    and the key and data patterns run over them;
  - anything else in the type field (``?``, ``?X``, ``$X``, a regex, a
    range, a set) — every tuple is visited and all three patterns run.

  A literal key that is unhashable or NaN, a type whose tuples include
  such a key and a type with a single tuple have no key map: the first
  shape then runs as the second.  The index only narrows the candidates:
  it groups by ``_values_equal``, and the patterns it stands in for bind
  nothing.
* **dereference** — every object-id binding of the variable becomes a new
  work item starting at the filter after the dereference, with the
  innermost iteration count bumped; ``⇑`` lets the source object continue,
  ``↑`` drops it.
* **iterator marker** — objects that already traversed the whole body
  (``start <= j``) or whose pointer chain has reached length ``k``
  continue past the loop; everything else is sent back to the body start
  with ``start`` rewritten so it exits on the next encounter.
* **retrieval** — a selection on (type, key) with no data pattern; every
  matching data value is emitted to the caller's sink.

:func:`evaluate` picks the case by ``type(op) is`` on
``program.ops[next - 1]``: the four op classes are final and none
subclasses another, so the exact-type test is the ``isinstance`` test
without the MRO walk.  A dereference sorts its fan-out (so traces are
stable) only when more than one value is bound — one value is already in
order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..core.objects import HFObject
from ..core.oid import Oid
from ..core.patterns import Pattern
from ..core.program import DerefOp, LoopOp, Program, RetrieveOp, SelectOp
from ..core.tuples import HFTuple
from .items import ActiveItem, WorkItem, bump_iters, iter_count

#: Sink receiving (target_variable, value) pairs from retrieval filters.
EmitSink = Callable[[str, Any], None]

EResult = Tuple[List[WorkItem], Optional[ActiveItem]]


def evaluate(program: Program, active: ActiveItem, obj: HFObject, emit: EmitSink) -> EResult:
    """Apply the filter at ``active.next`` to ``active``/``obj``."""
    op = program.ops[active.next - 1]
    kind = type(op)
    if kind is SelectOp:
        return _eval_select(op, op.data_pattern, active, obj, None)
    if kind is DerefOp:
        return _eval_deref(program, op, active)
    if kind is LoopOp:
        return _eval_loop(op, active)
    if kind is RetrieveOp:
        return _eval_select(op, None, active, obj, emit)
    raise TypeError(f"unknown op {kind.__name__}")  # pragma: no cover


def _eval_select(
    op: Union[SelectOp, RetrieveOp],
    data_pattern: Optional[Pattern],
    active: ActiveItem,
    obj: HFObject,
    emit: Optional[EmitSink],
) -> EResult:
    """Selection — and retrieval, which has no data pattern and an ``emit``."""
    # A pattern left as None has been answered by the index probe.
    type_pattern = key_pattern = None
    if op.type_probe is None:
        candidates: Sequence[HFTuple] = obj.tuples
        type_pattern, key_pattern = op.type_pattern, op.key_pattern
    else:
        candidates, keyed = obj.probe(op.type_probe, op.key_probe)
        if not keyed:
            key_pattern = op.key_pattern
    mvars = active.mvars
    matched = False
    for t in candidates:
        bindings: Tuple[Tuple[str, Any], ...] = ()
        if type_pattern is not None:
            ok, bindings = type_pattern.match(t.type, mvars)
            if not ok:
                continue
        if key_pattern is not None:
            ok, more = key_pattern.match(t.key, mvars)
            if not ok:
                continue
            bindings += more
        if data_pattern is not None:
            ok, more = data_pattern.match(t.data, mvars)
            if not ok:
                continue
            bindings += more
        matched = True
        for name, value in bindings:
            active.bind(name, value)
        if emit is not None:
            emit(op.target, t.data)
    if matched:
        active.next += 1
        return [], active
    return [], None


def _eval_deref(program: Program, op: DerefOp, active: ActiveItem) -> EResult:
    new_iters = bump_iters(active.iters, program.enclosing[op.index - 1], caps=program._loop_counts)
    start = active.next + 1
    values = active.mvars.get(op.var, ())
    if len(values) > 1:
        values = sorted(values, key=_oid_sort_key)
    produced = [
        WorkItem(oid=value, start=start, iters=new_iters)
        for value in values
        if isinstance(value, Oid)
    ]
    if op.keep_source:
        active.next += 1
        return produced, active
    return produced, None


def _eval_loop(op: LoopOp, active: ActiveItem) -> EResult:
    chain_length = iter_count(active.iters, op.index)
    done_with_body = active.start <= op.start
    chain_exhausted = op.count is not None and chain_length >= op.count
    if done_with_body or chain_exhausted:
        active.next += 1
    else:
        active.start = op.start  # so the object passes on its next encounter
        active.next = op.start
    return [], active


def _oid_sort_key(value: Any) -> Tuple[str, int]:
    """Deterministic ordering for dereference fan-out (stabilises traces)."""
    if isinstance(value, Oid):
        return (value.birth_site, value.local_id)
    return (str(value), 0)
