"""Patterns for tuple selection filters (paper §3.1).

A selection filter ``(type_pattern, key_pattern, data_pattern)`` matches a
tuple field-by-field.  The paper enumerates what a pattern may be:

* a **simple comparison** — equivalence against a literal, a regular
  expression for strings, or a range of values for a number;
* the wildcard ``?`` — matches anything;
* a **matching-variable setter** ``?X`` — matches anything and adds the
  field value to the object's bindings for ``X``;
* a **matching-variable use** — matches when the field value is among the
  current bindings of ``X`` (used e.g. to find routines "Maintained by"
  one of the "Author"s).

Matching is side-effect free: :meth:`Pattern.match` returns the bindings to
add rather than mutating the variable table, so the engine's ``E`` function
controls exactly when ``O.mvars`` changes (a tuple that fails on a later
field must not leave bindings behind).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Set, Tuple

from .oid import Oid

#: The variable table type: variable name -> set of bound values.
MVars = Mapping[str, Set[Any]]

#: Result of a match: (matched?, ((var, value), ...) bindings to add).
MatchResult = Tuple[bool, Tuple[Tuple[str, Any], ...]]

_NO_BINDINGS: Tuple[Tuple[str, Any], ...] = ()
_MISS: MatchResult = (False, _NO_BINDINGS)
_HIT: MatchResult = (True, _NO_BINDINGS)


class Pattern(ABC):
    """Abstract field pattern."""


    @abstractmethod
    def match(self, value: Any, mvars: MVars) -> MatchResult:
        """Test ``value``; return (matched, bindings-to-add)."""

    def variables_bound(self) -> FrozenSet[str]:
        """Names of matching variables this pattern can bind."""
        return frozenset()

    def variables_used(self) -> FrozenSet[str]:
        """Names of matching variables this pattern reads."""
        return frozenset()


@dataclass(frozen=True)
class Any_(Pattern):
    """The ``?`` wildcard: matches any field value."""


    def match(self, value: Any, mvars: MVars) -> MatchResult:
        return _HIT

    def __str__(self) -> str:
        return "?"


#: Singleton instance; patterns are immutable so sharing is safe.
ANY = Any_()


@dataclass(frozen=True)
class Literal(Pattern):
    """Equivalence against a constant.

    Numeric literals compare with numeric semantics (``5 == 5.0``); object
    ids compare by identity key so stale presumed-site hints do not break
    matching; everything else uses plain equality.
    """

    value: Any


    def match(self, value: Any, mvars: MVars) -> MatchResult:
        return (_values_equal(self.value, value), _NO_BINDINGS)

    def __str__(self) -> str:
        # Render in the textual query language's own syntax so that
        # str(query) re-parses (strings are double-quoted there).
        if isinstance(self.value, str):
            escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(self.value)


@dataclass(frozen=True)
class Regex(Pattern):
    """Regular-expression match over string fields (full-match semantics)."""

    pattern: str


    def __post_init__(self) -> None:
        re.compile(self.pattern)  # fail fast on bad regexes

    def match(self, value: Any, mvars: MVars) -> MatchResult:
        if not isinstance(value, str):
            return _MISS
        return (re.fullmatch(self.pattern, value) is not None, _NO_BINDINGS)

    def __str__(self) -> str:
        return f"/{self.pattern}/"


@dataclass(frozen=True)
class Range(Pattern):
    """Closed numeric range ``lo..hi`` (either bound may be ``None`` = open)."""

    lo: Optional[float] = None
    hi: Optional[float] = None


    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            # match() orders field values against the bounds.
            if bound is not None and (isinstance(bound, bool) or not isinstance(bound, (int, float))):
                raise ValueError(f"range bound {bound!r} is not a number")
        if self.lo is None and self.hi is None:
            raise ValueError("range must bound at least one side")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty range {self.lo}..{self.hi}")

    def match(self, value: Any, mvars: MVars) -> MatchResult:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return _MISS
        if self.lo is not None and value < self.lo:
            return _MISS
        if self.hi is not None and value > self.hi:
            return _MISS
        return _HIT

    def __str__(self) -> str:
        lo = "" if self.lo is None else self.lo
        hi = "" if self.hi is None else self.hi
        return f"{lo}..{hi}"


@dataclass(frozen=True)
class OneOf(Pattern):
    """Membership in an explicit finite set of constants."""

    values: Tuple[Any, ...]


    def __init__(self, values: Sequence[Any]) -> None:
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise ValueError("OneOf requires at least one value")

    def match(self, value: Any, mvars: MVars) -> MatchResult:
        return (any(_values_equal(v, value) for v in self.values), _NO_BINDINGS)

    def __str__(self) -> str:
        return "{" + ", ".join(map(repr, self.values)) + "}"


@dataclass(frozen=True)
class Bind(Pattern):
    """``?X`` — match anything and bind the field value to variable ``X``.

    Formally (paper §3.1): ``O.mvars(X) = O.mvars(X) ∪ {field_value}``;
    the field matches regardless of value.
    """

    name: str


    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("matching variable name must be non-empty")

    def match(self, value: Any, mvars: MVars) -> MatchResult:
        return (True, ((self.name, value),))

    def variables_bound(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Use(Pattern):
    """Match when the field value is among the bindings of variable ``X``.

    Formally: matches iff ``field_value ∈ O.mvars(X)``.  An unbound
    variable has an empty binding set and therefore never matches.
    """

    name: str


    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("matching variable name must be non-empty")

    def match(self, value: Any, mvars: MVars) -> MatchResult:
        bound = mvars.get(self.name, ())
        return (any(_values_equal(v, value) for v in bound), _NO_BINDINGS)

    def variables_used(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return f"${self.name}"


def as_pattern(value: Any) -> Pattern:
    """Coerce a convenience value into a :class:`Pattern`.

    ``Pattern`` instances pass through; ``"?"`` becomes the wildcard;
    strings beginning with ``?`` become binders; strings beginning with
    ``$`` become variable uses; anything else is a literal.  Applications
    wanting to match the literal strings ``"?"``/``"?X"``/``"$X"`` should
    construct :class:`Literal` explicitly.
    """
    if isinstance(value, Pattern):
        return value
    if isinstance(value, str):
        if value == "?":
            return ANY
        if value.startswith("?") and len(value) > 1:
            return Bind(value[1:])
        if value.startswith("$") and len(value) > 1:
            return Use(value[1:])
    return Literal(value)


def _values_equal(a: Any, b: Any) -> bool:
    """Equality with oid-hint insensitivity and cross-numeric comparison."""
    if isinstance(a, Oid) and isinstance(b, Oid):
        return a.key() == b.key()
    if isinstance(a, bool) != isinstance(b, bool):
        # bool is an int subtype; keep True distinct from 1 in patterns.
        return False
    return a == b
