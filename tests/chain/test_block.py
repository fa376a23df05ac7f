"""Tests for blocks and headers."""

from __future__ import annotations

import pickle

import pytest

from repro.chain.block import GENESIS_PARENT, BlockHeader, build_block
from repro.chain.transaction import TransactionStub


def _stub(name: str, coinbase: bool = False) -> TransactionStub:
    return TransactionStub(tx_hash=f"hash-{name}", is_coinbase=coinbase)


def _block(names, height=0, parent=GENESIS_PARENT, timestamp=0.0):
    return build_block(
        [_stub(n, coinbase=(i == 0)) for i, n in enumerate(names)],
        height=height,
        parent_hash=parent,
        timestamp=timestamp,
    )


class TestBlockHeader:
    def test_hash_covers_all_fields(self):
        base = dict(
            height=1,
            parent_hash="p" * 64,
            merkle_root="m" * 64,
            timestamp=10.0,
            difficulty=2.0,
            nonce=7,
            miner="alice",
            extra="",
        )
        reference = BlockHeader(**base).block_hash
        for field_name, new_value in [
            ("height", 2),
            ("parent_hash", "q" * 64),
            ("merkle_root", "n" * 64),
            ("timestamp", 11.0),
            ("difficulty", 3.0),
            ("nonce", 8),
            ("miner", "bob"),
            ("extra", "shard=1"),
        ]:
            mutated = dict(base, **{field_name: new_value})
            assert BlockHeader(**mutated).block_hash != reference, field_name

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            BlockHeader(
                height=-1, parent_hash="p", merkle_root="m", timestamp=0.0
            )

    def test_rejects_non_positive_difficulty(self):
        with pytest.raises(ValueError):
            BlockHeader(
                height=0,
                parent_hash="p",
                merkle_root="m",
                timestamp=0.0,
                difficulty=0.0,
            )

    def test_hash_memo_does_not_travel_through_pickle(self):
        header = BlockHeader(
            height=3, parent_hash="p" * 64, merkle_root="m" * 64,
            timestamp=4.0, difficulty=2.0, nonce=5, miner="alice",
            extra="root",
        )
        honest = header.block_hash
        assert header.block_hash is honest          # memoised
        assert honest.encode() not in pickle.dumps(header)
        # Poison the sender's memo: the receiver hashes the fields it got.
        header.__dict__["block_hash"] = "f" * 64
        received = pickle.loads(pickle.dumps(header))
        assert received == header
        assert received.block_hash == honest
        block = _block(["cb", "a"], height=1, parent="p" * 64, timestamp=1.0)
        honest = block.block_hash
        block.header.__dict__["block_hash"] = "e" * 64
        assert pickle.loads(pickle.dumps(block)).block_hash == honest


class TestBuildBlock:
    def test_merkle_commitment_verifies(self):
        block = _block(["cb", "a", "b"])
        assert block.verify_merkle()

    def test_rejects_empty_transaction_list(self):
        with pytest.raises(ValueError):
            build_block(
                [], height=0, parent_hash=GENESIS_PARENT, timestamp=0.0
            )

    def test_non_coinbase_filters(self):
        block = _block(["cb", "a", "b"])
        hashes = [tx.tx_hash for tx in block.non_coinbase()]
        assert hashes == ["hash-a", "hash-b"]

    def test_len_and_iter(self):
        block = _block(["cb", "a"])
        assert len(block) == 2
        assert [tx.tx_hash for tx in block] == ["hash-cb", "hash-a"]

    def test_tampered_transaction_breaks_merkle(self):
        from dataclasses import replace

        block = _block(["cb", "a", "b"])
        tampered = replace(
            block,
            transactions=(
                *block.transactions[:-1],
                _stub("evil"),
            ),
        )
        assert not tampered.verify_merkle()
