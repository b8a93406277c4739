"""Tests for the Bloom filters behind site summaries (repro.cache.bloom)."""

import pytest

from repro.cache.bloom import BloomFilter, oid_token


class TestBloomFilter:
    def test_no_false_negatives_ever(self):
        bloom = BloomFilter(bits=256, hashes=3)
        tokens = [oid_token(("site0", i)) for i in range(100)]
        for token in tokens:
            bloom.add(token)
        # The one guarantee everything else rests on: an added token is
        # always reported present, however overloaded the filter gets.
        assert all(bloom.might_contain(t) for t in tokens)

    def test_absent_tokens_mostly_rejected(self):
        bloom = BloomFilter(bits=4096, hashes=4)
        for i in range(50):
            bloom.add(oid_token(("site0", i)))
        misses = sum(
            1 for i in range(1000) if not bloom.might_contain(oid_token(("site9", i)))
        )
        # At this load factor the false-positive rate is far below 10%.
        assert misses > 900

    def test_round_trip_bytes(self):
        bloom = BloomFilter(bits=128, hashes=2)
        bloom.add("a:1")
        bloom.add("b:2")
        clone = BloomFilter.from_bytes(bloom.to_bytes(), hashes=2, count=bloom.count)
        assert clone == bloom
        assert clone.might_contain("a:1")
        assert len(bloom.to_bytes()) == bloom.wire_size() == 16

    def test_stable_across_instances(self):
        # blake2b-based positions, not hash(): two filters built the same
        # way are bit-identical (they travel over the wire).
        a = BloomFilter(bits=512, hashes=3)
        b = BloomFilter(bits=512, hashes=3)
        for token in ("x:1", "y:2", "z:3"):
            a.add(token)
            b.add(token)
        assert a.to_bytes() == b.to_bytes()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=12, hashes=2)  # not a multiple of 8
        with pytest.raises(ValueError):
            BloomFilter(bits=0, hashes=2)
        with pytest.raises(ValueError):
            BloomFilter(bits=64, hashes=0)

    def test_oid_token_is_site_and_seq(self):
        assert oid_token(("alpha", 17)) == "alpha:17"
