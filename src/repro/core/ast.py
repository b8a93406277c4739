"""Abstract syntax for HyperFile filtering queries (paper §2, §3).

A query is written

    Q :  S_i  F_1 F_2 ... F_n  -> S_o

where ``S_i`` names the initial set, ``S_o`` the result set, and each
``F_j`` is one of:

* a **selection** ``(type, key_pattern, data_pattern)`` — tuple pattern
  matching, possibly binding or using matching variables;
* a **dereference** ``↑X`` (keep only the referenced objects) or ``⇑X``
  (keep the pointing object as well) — follows the pointers bound to the
  matching variable ``X``;
* an **iterator** ``[ body ]^k`` (repeat ``k`` times) or ``[ body ]*``
  (transitive closure);
* a **retrieval** ``(type, key, →var)`` — ships matching data fields back
  to the application, bound to the program variable ``var``.

This module defines the *nested* form produced by the parser and builder.
:mod:`repro.core.program` flattens it into the indexed ``F_1..F_n`` form
the processing algorithm of paper §3 operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple

from .patterns import Pattern, as_pattern


class FilterNode:
    """Base class for the filter AST."""


    def walk(self) -> Iterator["FilterNode"]:
        """Yield this node and all descendants, pre-order."""
        yield self


@dataclass(frozen=True)
class Select(FilterNode):
    """Tuple-selection filter ``(type_pattern, key_pattern, data_pattern)``.

    An object passes when *any* of its tuples matches all three field
    patterns; bindings from every matching tuple accumulate into the
    object's matching-variable table.
    """

    type_pattern: Pattern
    key_pattern: Pattern
    data_pattern: Pattern


    @classmethod
    def of(cls, type_pattern: object, key_pattern: object = "?", data_pattern: object = "?") -> "Select":
        """Convenience constructor coercing plain values via :func:`as_pattern`."""
        return cls(as_pattern(type_pattern), as_pattern(key_pattern), as_pattern(data_pattern))

    def __str__(self) -> str:
        return f"({self.type_pattern}, {self.key_pattern}, {self.data_pattern})"


@dataclass(frozen=True)
class Deref(FilterNode):
    """Pointer dereference of matching variable ``var``.

    ``keep_source=True`` is the paper's ``⇑X`` (the pointing object
    continues through the remaining filters as well); ``keep_source=False``
    is ``↑X`` (only the referenced objects continue).
    """

    var: str
    keep_source: bool = True


    def __post_init__(self) -> None:
        if not self.var:
            raise ValueError("dereference requires a matching-variable name")

    def __str__(self) -> str:
        return ("^^" if self.keep_source else "^") + self.var


@dataclass(frozen=True)
class Iterate(FilterNode):
    """Iterator ``[ body ]^count`` or, when ``count`` is ``None``, ``[ body ]*``.

    The meaning of ``[parts]^k`` is to repeat the parts k times, as if the
    loop were unrolled; ``*`` computes the transitive closure of the
    pointer graph the body traverses (termination is guaranteed by the
    engine's mark table).
    """

    body: Tuple[FilterNode, ...]
    count: Optional[int] = None


    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("iterator body must contain at least one filter")
        if self.count is not None and self.count < 1:
            raise ValueError(f"iterator count must be >= 1, got {self.count}")

    @property
    def is_closure(self) -> bool:
        """True for ``*`` iterators (unbounded / transitive closure)."""
        return self.count is None

    def walk(self) -> Iterator[FilterNode]:
        yield self
        for child in self.body:
            yield from child.walk()

    def __str__(self) -> str:
        inner = " | ".join(str(f) for f in self.body)
        suffix = "*" if self.count is None else f"^{self.count}"
        return f"[ {inner} ]{suffix}"


@dataclass(frozen=True)
class Retrieve(FilterNode):
    """Field retrieval ``(type, key, →target)``.

    Matches like a selection whose data pattern is ``?``; additionally, the
    data field of every matching tuple is shipped to the query originator
    bound to ``target`` (an application-language variable name).
    """

    type_pattern: Pattern
    key_pattern: Pattern
    target: str


    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("retrieve requires a target variable name")

    @classmethod
    def of(cls, type_pattern: object, key_pattern: object, target: str) -> "Retrieve":
        return cls(as_pattern(type_pattern), as_pattern(key_pattern), target)

    def __str__(self) -> str:
        return f"({self.type_pattern}, {self.key_pattern}, ->{self.target})"


@dataclass(frozen=True)
class Query(FilterNode):
    """A complete query: initial set, filter pipeline, result-set name.

    ``source`` is the *name* of a set held by the client session (or, at
    the engine layer, resolved to explicit object ids before execution).
    ``result`` names the set the result ids will be bound to; further
    queries may use it as their source.
    """

    source: str
    filters: Tuple[FilterNode, ...]
    result: str = "_"


    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("query requires a source set name")
        for f in self.filters:
            if isinstance(f, Query):
                raise ValueError("queries cannot nest inside filter pipelines")

    def walk(self) -> Iterator[FilterNode]:
        yield self
        for child in self.filters:
            yield from child.walk()

    def variables_bound(self) -> FrozenSet[str]:
        """All matching variables bound anywhere in the query."""
        out = set()
        for node in self.walk():
            if isinstance(node, (Select, Retrieve)):
                out |= node.key_pattern.variables_bound()
                if isinstance(node, Select):
                    out |= node.type_pattern.variables_bound()
                    out |= node.data_pattern.variables_bound()
                else:
                    out |= node.type_pattern.variables_bound()
        return frozenset(out)

    def retrieval_targets(self) -> FrozenSet[str]:
        """All ``→var`` targets appearing in the query."""
        return frozenset(n.target for n in self.walk() if isinstance(n, Retrieve))

    def __str__(self) -> str:
        inner = " ".join(str(f) for f in self.filters)
        return f"{self.source} {inner} -> {self.result}"


def select(type_pattern: object, key_pattern: object = "?", data_pattern: object = "?") -> Select:
    """Shorthand for :meth:`Select.of`."""
    return Select.of(type_pattern, key_pattern, data_pattern)


def deref(var: str) -> Deref:
    """``↑X``: follow pointers bound to ``var``, dropping the pointing object."""
    return Deref(var, keep_source=False)


def deref_keep(var: str) -> Deref:
    """``⇑X``: follow pointers bound to ``var``, keeping the pointing object."""
    return Deref(var, keep_source=True)


def iterate(*body: FilterNode, count: Optional[int] = None) -> Iterate:
    """``[ body ]^count`` (or ``[ body ]*`` when count is omitted)."""
    return Iterate(tuple(body), count)


def closure(*body: FilterNode) -> Iterate:
    """``[ body ]*`` — transitive-closure iteration."""
    return Iterate(tuple(body), None)


def retrieve(type_pattern: object, key_pattern: object, target: str) -> Retrieve:
    """``(type, key, →target)`` retrieval filter."""
    return Retrieve.of(type_pattern, key_pattern, target)
