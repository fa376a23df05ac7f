"""Tests for committee formation and sharded block production."""

from __future__ import annotations

import random

import pytest

from repro.account.transaction import make_account_transaction
from repro.chain.errors import ShardingError
from repro.chain.hashing import address_from_seed
from repro.sharding.committee import (
    CommitteeAssignment,
    NodeIdentity,
    shard_for_address,
)
from repro.sharding.zilliqa import ShardedChainBuilder


class TestShardForAddress:
    def test_deterministic(self):
        address = address_from_seed("someone")
        assert shard_for_address(address, 4) == shard_for_address(address, 4)

    def test_in_range(self):
        for index in range(100):
            address = address_from_seed(f"user{index}")
            assert 0 <= shard_for_address(address, 7) < 7

    def test_rejects_non_hex(self):
        with pytest.raises(ShardingError):
            shard_for_address("0xzzzz", 4)

    def test_rejects_zero_shards(self):
        with pytest.raises(ShardingError):
            shard_for_address("0xab", 0)

    def test_spreads_addresses(self):
        shards = {
            shard_for_address(address_from_seed(f"u{i}"), 4)
            for i in range(64)
        }
        assert shards == {0, 1, 2, 3}


class TestCommitteeAssignment:
    def _nodes(self, count):
        return [NodeIdentity(node_id=f"n{i}") for i in range(count)]

    def test_assignment_shapes(self):
        assignment = CommitteeAssignment(
            num_shards=3, shard_size=10, ds_size=10,
            rng=random.Random(1),
        )
        ds, shards = assignment.assign(self._nodes(45))
        assert len(ds) == 10
        assert [len(s) for s in shards] == [12, 12, 11][: len(shards)] or all(
            len(s) >= 10 for s in shards
        )

    def test_requires_enough_nodes(self):
        assignment = CommitteeAssignment(
            num_shards=2, shard_size=10, ds_size=10
        )
        with pytest.raises(ShardingError):
            assignment.assign(self._nodes(10))

    def test_no_node_in_two_committees(self):
        assignment = CommitteeAssignment(
            num_shards=2, shard_size=8, ds_size=8, rng=random.Random(2)
        )
        ds, shards = assignment.assign(self._nodes(24))
        all_ids = [n.node_id for n in ds]
        for shard in shards:
            all_ids.extend(n.node_id for n in shard)
        assert len(all_ids) == len(set(all_ids))

    def test_committee_minimums(self):
        with pytest.raises(ShardingError):
            CommitteeAssignment(num_shards=1, shard_size=3, ds_size=10)


class TestShardedChainBuilder:
    def _tx(self, sender_seed, receiver_seed, nonce=0):
        return make_account_transaction(
            sender=address_from_seed(sender_seed),
            receiver=address_from_seed(receiver_seed),
            value=1,
            nonce=nonce,
        )

    def test_block_is_shard_major_ordered(self):
        builder = ShardedChainBuilder(num_shards=4)
        txs = [self._tx(f"s{i}", f"r{i}") for i in range(40)]
        block = builder.build_tx_block(txs)
        shard_sequence = [
            microblock.shard_id
            for microblock in block.microblocks
            for _tx in microblock.transactions
        ]
        assert shard_sequence == sorted(shard_sequence)
        assert len(block) == 40

    def test_transactions_land_on_sender_shard(self):
        builder = ShardedChainBuilder(num_shards=4)
        txs = [self._tx(f"s{i}", f"r{i}") for i in range(20)]
        block = builder.build_tx_block(txs)
        for microblock in block.microblocks:
            for tx in microblock.transactions:
                assert builder.shard_of(tx.sender) == microblock.shard_id

    def test_cross_shard_contract_calls_rejected(self):
        # Find a contract whose shard differs from a sender's shard.
        contract = address_from_seed("contract-x")
        builder = ShardedChainBuilder(
            num_shards=4, contract_addresses={contract}
        )
        contract_shard = builder.shard_of(contract)
        sender_seed = next(
            f"s{i}"
            for i in range(1000)
            if builder.shard_of(address_from_seed(f"s{i}")) != contract_shard
        )
        cross = make_account_transaction(
            sender=address_from_seed(sender_seed),
            receiver=contract,
            value=0,
            nonce=0,
        )
        block = builder.build_tx_block([cross])
        assert len(block) == 0
        assert builder.rejected == [cross]

    def test_same_shard_contract_call_accepted(self):
        contract = address_from_seed("contract-y")
        builder = ShardedChainBuilder(
            num_shards=4, contract_addresses={contract}
        )
        contract_shard = builder.shard_of(contract)
        sender_seed = next(
            f"s{i}"
            for i in range(1000)
            if builder.shard_of(address_from_seed(f"s{i}")) == contract_shard
        )
        call = make_account_transaction(
            sender=address_from_seed(sender_seed),
            receiver=contract,
            value=0,
            nonce=0,
        )
        block = builder.build_tx_block([call])
        assert len(block) == 1

    def test_plain_transfers_cross_shards_freely(self):
        builder = ShardedChainBuilder(num_shards=4)
        txs = [self._tx(f"a{i}", "common-receiver") for i in range(12)]
        block = builder.build_tx_block(txs)
        assert len(block) == 12
        assert builder.rejected == []

    def test_epochs_increment(self):
        builder = ShardedChainBuilder(num_shards=2)
        first = builder.build_tx_block([])
        second = builder.build_tx_block([])
        assert (first.epoch, second.epoch) == (0, 1)
