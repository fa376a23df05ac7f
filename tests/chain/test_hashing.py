"""Tests for deterministic hashing helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain.hashing import (
    address_from_seed,
    hash_concat,
    hash_fields,
    hash_parts,
    joinable,
    sha256_hex,
    short_hash,
)


class TestSha256Hex:
    def test_known_vector(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_length_and_charset(self):
        digest = sha256_hex(b"blockchain")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestHashFields:
    def test_deterministic(self):
        assert hash_fields("a", 1, (2, 3)) == hash_fields("a", 1, (2, 3))

    def test_field_order_matters(self):
        assert hash_fields("a", "b") != hash_fields("b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert hash_fields("ab", "c") != hash_fields("a", "bc")

    def test_type_sensitivity(self):
        assert hash_fields(1) != hash_fields("1")

    @given(st.lists(st.text(), min_size=1, max_size=5))
    def test_always_64_hex_chars(self, fields):
        digest = hash_fields(*fields)
        assert len(digest) == 64

    def test_bytes_are_the_repr_join(self):
        """Every block, transaction and root hash goes through here:
        the bytes are ``repr`` of each field joined by ``\\x1f``, for
        quotes, backslashes, nesting, floats, ``None``, bools and
        non-ASCII text alike."""
        fields = (
            "block", 7, 0.1, -2.5e-300, float("inf"), None, True, False,
            'it\'s "q" \\ back\\slash', "héllo ☃ \U0001F600",
            ("nested", (1, ("deep", None)), ()), "", "tab\tnl\n\x1f",
        )
        generator_form = "\x1f".join(repr(field) for field in fields)
        assert hash_fields(*fields) == sha256_hex(
            generator_form.encode("utf-8")
        )
        assert hash_fields(*fields) == (
            "4873b91a86716d6792ccf4f08f9dba93e2c4b5df96678b6c3455f70ddc32059c"
        )


class TestHashParts:
    def test_bytes_are_the_plain_join(self):
        assert hash_parts("a", "b", "") == sha256_hex(b"a\x1fb\x1f")

    @given(st.data())
    def test_equal_digests_iff_equal_parts(self, data):
        # Lone surrogates (category Cs) have no UTF-8 encoding; what
        # they do is test_rejects_a_lone_surrogate's.
        parts = st.lists(
            st.text(alphabet=st.characters(
                blacklist_categories=("Cs",), blacklist_characters="\x1f",
            )),
            min_size=1, max_size=4,
        )
        left, right = data.draw(parts), data.draw(parts)
        assert (hash_parts(*left) == hash_parts(*right)) == (left == right)

    def test_no_concatenation_ambiguity(self):
        assert hash_parts("ab", "c") != hash_parts("a", "bc")
        assert hash_parts("a", "") != hash_parts("a")

    @pytest.mark.parametrize(
        "parts", [("a\x1fb",), ("a", "\x1f"), ("\x1f",), ()]
    )
    def test_rejects_a_part_holding_the_separator(self, parts):
        with pytest.raises(ValueError, match="separator"):
            hash_parts(*parts)

    @pytest.mark.parametrize("parts, ok", [
        (("a", "b", ""), True),
        (("a\x1fb",), False),
        (("a", 7), False),
        ((b"a",), False),
        (("\u00e9", "b"), True),
        (("a", "b\ud800"), False),
        ((), False),
    ])
    def test_joinable_says_whether_hash_parts_takes_them(self, parts, ok):
        assert joinable(*parts) is ok
        if ok:
            hash_parts(*parts)
        else:
            with pytest.raises((ValueError, TypeError)):
                hash_parts(*parts)

    @pytest.mark.parametrize(
        "parts", [("\ud800",), ("a", "b\udfffc"), ("\udc80", "")]
    )
    def test_rejects_a_lone_surrogate(self, parts):
        """Text UTF-8 cannot encode is a ``ValueError``, as the
        docstring's ``Raises`` says: a ``UnicodeEncodeError``."""
        with pytest.raises(ValueError, match="surrogate") as caught:
            hash_parts(*parts)
        assert caught.type is UnicodeEncodeError


class TestShortHash:
    def test_prefix(self):
        assert short_hash("abcdef0123", 4) == "abcd"

    def test_default_length(self):
        assert len(short_hash("f" * 64)) == 4

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            short_hash("abcd", 0)


class TestAddressFromSeed:
    def test_shape(self):
        address = address_from_seed("user1")
        assert address.startswith("0x")
        assert len(address) == 42

    def test_distinct_seeds_distinct_addresses(self):
        assert address_from_seed("a") != address_from_seed("b")

    def test_custom_prefix(self):
        assert address_from_seed("a", prefix="zil").startswith("zil")


class TestHashConcat:
    def test_order_sensitivity(self):
        assert hash_concat(("aa", "bb")) != hash_concat(("bb", "aa"))

    def test_matches_manual_concat(self):
        assert hash_concat(("ab", "cd")) == sha256_hex(b"abcd")
