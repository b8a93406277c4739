"""Flattened, indexed query programs (the ``F_1 .. F_n`` form of paper §3).

The processing algorithm addresses filters by index: every object carries
``O.next`` (index of the next filter to apply) and ``O.start`` (the first
filter that processed it), and iterators are represented as a marker
``I_j^k`` sitting at the *end* of their body that redirects objects back to
index ``j``.  This module compiles the nested AST of :mod:`repro.core.ast`
into that representation.

Indices are 1-based throughout, matching the paper (``O.start = 1`` for
objects of the initial set; the query is done when ``O.next > n``).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from .ast import Deref, FilterNode, Iterate, Query, Retrieve, Select
from .objects import NO_PROBE, probe_key
from .patterns import Literal, Pattern


class Op:
    """Base class for flattened filter operations."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


def _index_probe(type_pattern: Pattern, key_pattern: Pattern) -> Tuple[Optional[str], Any]:
    """What a (type, key) pattern pair can ask of an object's tuple index.

    ``(type name, probe key)`` when both are literals the index can answer,
    ``(type name, NO_PROBE)`` when only the type is (the key pattern then
    runs over that type's tuples), ``(None, NO_PROBE)`` when the type field
    needs a pattern match and the op scans every tuple.
    """
    if type(type_pattern) is not Literal or type(type_pattern.value) is not str:
        return None, NO_PROBE
    if type(key_pattern) is not Literal:
        return type_pattern.value, NO_PROBE
    return type_pattern.value, probe_key(key_pattern.value)


class SelectOp(Op):
    """Flattened :class:`~repro.core.ast.Select`.

    ``type_probe``/``key_probe`` are derived from the patterns once, here,
    so compiled and wire-decoded programs carry them alike.
    """

    __slots__ = ("type_pattern", "key_pattern", "data_pattern", "type_probe", "key_probe")

    def __init__(self, index: int, type_pattern: Pattern, key_pattern: Pattern, data_pattern: Pattern) -> None:
        super().__init__(index)
        self.type_pattern = type_pattern
        self.key_pattern = key_pattern
        self.data_pattern = data_pattern
        self.type_probe, self.key_probe = _index_probe(type_pattern, key_pattern)

    def __repr__(self) -> str:
        return f"F{self.index}:Select({self.type_pattern}, {self.key_pattern}, {self.data_pattern})"


class RetrieveOp(Op):
    """Flattened :class:`~repro.core.ast.Retrieve` (probed like a :class:`SelectOp`)."""

    __slots__ = ("type_pattern", "key_pattern", "target", "type_probe", "key_probe")

    def __init__(self, index: int, type_pattern: Pattern, key_pattern: Pattern, target: str) -> None:
        super().__init__(index)
        self.type_pattern = type_pattern
        self.key_pattern = key_pattern
        self.target = target
        self.type_probe, self.key_probe = _index_probe(type_pattern, key_pattern)

    def __repr__(self) -> str:
        return f"F{self.index}:Retrieve({self.type_pattern}, {self.key_pattern}, ->{self.target})"


class DerefOp(Op):
    """Flattened :class:`~repro.core.ast.Deref`."""

    __slots__ = ("var", "keep_source")

    def __init__(self, index: int, var: str, keep_source: bool) -> None:
        super().__init__(index)
        self.var = var
        self.keep_source = keep_source

    def __repr__(self) -> str:
        arrow = "^^" if self.keep_source else "^"
        return f"F{self.index}:Deref({arrow}{self.var})"


class LoopOp(Op):
    """The iterator marker ``I_j^k``: redirects objects back to index ``start``.

    ``count`` of ``None`` encodes ``*`` (think of it as infinity, per the
    paper's footnote: "O.iter# >= k is not tested if k = *").
    """

    __slots__ = ("start", "count")

    def __init__(self, index: int, start: int, count: Optional[int]) -> None:
        super().__init__(index)
        self.start = start
        self.count = count

    @property
    def is_closure(self) -> bool:
        return self.count is None

    def __repr__(self) -> str:
        k = "*" if self.count is None else str(self.count)
        return f"F{self.index}:Loop(start={self.start}, k={k})"


class Program:
    """An executable, flattened query.

    Attributes
    ----------
    source, result:
        Set names carried over from the :class:`~repro.core.ast.Query`.
    ops:
        The flattened operations; ``ops[i - 1]`` is ``F_i``.
    enclosing:
        For each index ``i`` (1-based), the indices of the :class:`LoopOp`
        markers whose bodies contain position ``i``, outermost first.  The
        engine uses this to maintain per-object iteration-number stacks in
        the presence of nested iterators (paper §3.1).
    """

    __slots__ = (
        "source", "result", "ops", "enclosing", "_innermost", "_loop_counts",
        "_wire_size", "_wire_section",
    )

    def __init__(self, source: str, result: str, ops: List[Op], enclosing: List[Tuple[int, ...]]) -> None:
        self.source = source
        self.result = result
        self.ops = tuple(ops)
        self.enclosing = tuple(enclosing)
        # Cache of innermost enclosing loop per position (0 = none).
        self._innermost = tuple(chain[-1] if chain else 0 for chain in self.enclosing)
        self._loop_counts = {op.index: op.count for op in self.ops if isinstance(op, LoopOp)}
        # A program is immutable, and every message of a query carries it:
        # its modelled size and its encoded form are each derived once.
        self._wire_size: Optional[int] = None
        #: Encoded program section; owned and filled by :mod:`repro.net.codec`.
        self._wire_section: Optional[bytes] = None

    @property
    def size(self) -> int:
        """The paper's ``Q.size``: the number ``n`` of filters."""
        return len(self.ops)

    def op_at(self, index: int) -> Op:
        """Return ``F_index`` (1-based)."""
        return self.ops[index - 1]

    def innermost_loop(self, index: int) -> int:
        """Index of the innermost LoopOp enclosing position ``index`` (0 = none)."""
        return self._innermost[index - 1]

    def loops_enclosing(self, index: int) -> Tuple[int, ...]:
        """All LoopOp indices enclosing ``index``, outermost first."""
        return self.enclosing[index - 1]

    def loop_counts(self) -> Dict[int, Optional[int]]:
        """Map each LoopOp marker index to its bound (None for closures).

        Used to normalise per-object iteration counts: closure counts are
        never consulted, bounded counts saturate at k (see
        :func:`repro.engine.items.bump_iters`).
        """
        return self._loop_counts

    def wire_size(self) -> int:
        """Approximate encoded size of ``Q.body`` in bytes.

        The paper reports its experiment queries encode to roughly 40
        bytes; this estimate feeds the metrics layer, not correctness.
        Memoised: every send and receive of every message asks for it.
        """
        if self._wire_size is not None:
            return self._wire_size
        total = 8  # source/result set handles
        for op in self.ops:
            if isinstance(op, SelectOp):
                total += 2 + _pattern_size(op.type_pattern) + _pattern_size(op.key_pattern) + _pattern_size(op.data_pattern)
            elif isinstance(op, RetrieveOp):
                total += 2 + _pattern_size(op.type_pattern) + _pattern_size(op.key_pattern) + len(op.target)
            elif isinstance(op, DerefOp):
                total += 2 + len(op.var)
            else:
                total += 4
        self._wire_size = total
        return total

    def __repr__(self) -> str:
        body = "; ".join(repr(op) for op in self.ops)
        return f"Program({self.source} [{body}] -> {self.result})"


def compile_query(query: Query) -> Program:
    """Flatten a nested :class:`~repro.core.ast.Query` into a :class:`Program`.

    An iterator compiles to its body followed by a :class:`LoopOp` whose
    ``start`` is the index of the first body operation — exactly the layout
    the worked example in paper §3.1 uses (``[F1 F2]^3`` becomes
    ``F1 F2 I_1^3``).
    """
    ops: List[Op] = []
    enclosing: List[Tuple[int, ...]] = []
    placeholder_counter = itertools.count(start=1)

    def emit(node: FilterNode, loop_chain: Tuple[int, ...]) -> None:
        index = len(ops) + 1
        if isinstance(node, Select):
            ops.append(SelectOp(index, node.type_pattern, node.key_pattern, node.data_pattern))
            enclosing.append(loop_chain)
        elif isinstance(node, Retrieve):
            ops.append(RetrieveOp(index, node.type_pattern, node.key_pattern, node.target))
            enclosing.append(loop_chain)
        elif isinstance(node, Deref):
            ops.append(DerefOp(index, node.var, node.keep_source))
            enclosing.append(loop_chain)
        elif isinstance(node, Iterate):
            start = len(ops) + 1
            # Reserve the loop's own slot in the chain for its body; the
            # marker index is only known after the body is emitted, so we
            # patch the chains afterwards using a unique placeholder.
            placeholder = -next(placeholder_counter)
            for child in node.body:
                emit(child, loop_chain + (placeholder,))
            marker_index = len(ops) + 1
            ops.append(LoopOp(marker_index, start, node.count))
            enclosing.append(loop_chain + (placeholder,))
            # Patch placeholder -> real marker index.
            for i in range(start - 1, len(ops)):
                chain = enclosing[i]
                if placeholder in chain:
                    enclosing[i] = tuple(marker_index if c == placeholder else c for c in chain)
        else:
            raise TypeError(f"unknown filter node {type(node).__name__}")

    for node in query.filters:
        emit(node, ())
    return Program(query.source, query.result, ops, enclosing)


def _pattern_size(pattern: Pattern) -> int:
    text = str(pattern)
    return min(len(text), 64) + 1
