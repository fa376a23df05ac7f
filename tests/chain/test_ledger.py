"""Tests for the ledger's append invariants and tamper evidence."""

from __future__ import annotations

import pytest

from repro.chain.block import GENESIS_PARENT, build_block
from repro.chain.errors import LinkError, ValidationError
from repro.chain.ledger import Ledger
from repro.chain.transaction import TransactionStub


def _block(height, parent, timestamp=None, tag=""):
    return build_block(
        [TransactionStub(tx_hash=f"tx-{height}-{tag}")],
        height=height,
        parent_hash=parent,
        timestamp=float(height) if timestamp is None else timestamp,
    )


def _chain(length: int) -> Ledger:
    ledger = Ledger()
    parent = GENESIS_PARENT
    for height in range(length):
        block = _block(height, parent)
        ledger.append(block)
        parent = block.block_hash
    return ledger


class TestAppend:
    def test_genesis_must_have_height_zero(self):
        ledger = Ledger()
        with pytest.raises(LinkError):
            ledger.append(_block(1, GENESIS_PARENT))

    def test_genesis_must_link_zero_hash(self):
        ledger = Ledger()
        with pytest.raises(LinkError):
            ledger.append(_block(0, "f" * 64))

    def test_height_must_increment(self):
        ledger = _chain(2)
        with pytest.raises(LinkError):
            ledger.append(_block(3, ledger.tip.block_hash))

    def test_parent_hash_must_match_tip(self):
        ledger = _chain(2)
        with pytest.raises(LinkError):
            ledger.append(_block(2, "0" * 64))

    def test_timestamp_must_not_regress(self):
        ledger = _chain(2)
        with pytest.raises(ValidationError):
            ledger.append(
                _block(2, ledger.tip.block_hash, timestamp=0.5)
            )

    def test_merkle_must_verify(self):
        from dataclasses import replace

        ledger = _chain(1)
        good = _block(1, ledger.tip.block_hash)
        bad = replace(
            good,
            transactions=(TransactionStub(tx_hash="swapped"),),
        )
        with pytest.raises(ValidationError):
            ledger.append(bad)


class TestLookupsAndVerification:
    def test_block_at(self):
        ledger = _chain(5)
        block = ledger.block_at(3)
        assert block.height == 3

    def test_block_at_out_of_range(self):
        ledger = _chain(2)
        with pytest.raises(IndexError):
            ledger.block_at(2)

    def test_verify_links_on_intact_chain(self):
        assert _chain(10).verify_links()

    def test_verify_links_detects_tampering(self):
        ledger = _chain(5)
        # Reach into internals to simulate on-disk corruption.
        ledger._blocks[2] = _block(2, "f" * 64, tag="tampered")
        assert not ledger.verify_links()

    def test_total_transactions(self, small_bitcoin_ledger):
        with_cb = small_bitcoin_ledger.total_transactions()
        without_cb = small_bitcoin_ledger.total_transactions(
            include_coinbase=False
        )
        assert with_cb == without_cb + len(small_bitcoin_ledger)

    def test_tip_none_when_empty(self):
        assert Ledger().tip is None
