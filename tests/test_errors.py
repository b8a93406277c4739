"""Tests for the exception hierarchy."""

from fractions import Fraction

import pytest

from repro import errors
from repro.core.oid import Oid
from repro.termination.weights import Credit


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.ObjectNotFound,
            errors.DuplicateObject,
            errors.QuerySyntaxError,
            errors.QueryValidationError,
            errors.UnknownSite,
            errors.SiteUnavailable,
            errors.TerminationProtocolError,
            errors.TransportClosed,
            errors.QueryLimitExceeded,
        ],
    )
    def test_all_derive_from_base(self, exc_class):
        assert issubclass(exc_class, errors.HyperFileError)

    def test_object_not_found_is_a_key_error(self):
        # Callers using dict-style access idioms can catch KeyError.
        assert issubclass(errors.ObjectNotFound, KeyError)

    def test_syntax_and_validation_are_value_errors(self):
        assert issubclass(errors.QuerySyntaxError, ValueError)
        assert issubclass(errors.QueryValidationError, ValueError)


class TestMessages:
    def test_object_not_found_carries_context(self):
        exc = errors.ObjectNotFound(Oid("s1", 7), site="s1")
        assert exc.oid == Oid("s1", 7) and exc.site == "s1"
        assert "s1:7" in str(exc) and "at site" in str(exc)

    def test_object_not_found_without_site(self):
        assert "at site" not in str(errors.ObjectNotFound(Oid("s1", 7)))

    def test_syntax_error_snippet(self):
        exc = errors.QuerySyntaxError("bad token", position=5, text="S (Keyword")
        assert exc.position == 5
        assert "position 5" in str(exc)

    def test_syntax_error_without_position(self):
        assert "position" not in str(errors.QuerySyntaxError("oops"))

    def test_limit_exceeded_names_the_limit(self):
        exc = errors.QueryLimitExceeded("max_objects", 100)
        assert exc.limit_name == "max_objects" and exc.limit == 100
        assert "max_objects=100" in str(exc)

    def test_unknown_site_and_unavailable(self):
        assert "siteX" in str(errors.UnknownSite("siteX"))
        assert "siteY" in str(errors.SiteUnavailable("siteY"))


class TestTerminationLostDeficit:
    """A credit lost very deep in a chain still yields the typed error: the
    decimal form of ``1/2**15000`` is past CPython's 4 300-digit limit."""

    def test_small_deficit_prints_as_a_ratio(self):
        assert "credit deficit 1/8" in str(errors.TerminationLost("q", deficit=Fraction(1, 8)))

    def test_deep_fraction_deficit_falls_back_to_hex(self):
        exc = errors.TerminationLost("q", deficit=Fraction(1, 2**15000))
        assert exc.deficit == Fraction(1, 2**15000)
        assert "credit deficit 0x1/2**15000" in str(exc)

    def test_deep_credit_deficit_falls_back_to_hex(self):
        exc = errors.TerminationLost("q", deficit=Credit(1, 15000))
        assert "credit deficit 0x1/2**15000" in str(exc)

    def test_deep_non_dyadic_deficit_prints_both_terms_in_hex(self):
        exc = errors.TerminationLost("q", deficit=Fraction(1, 3**10000))
        assert f"credit deficit 0x1/{3**10000:#x}" in str(exc)
