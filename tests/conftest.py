"""Shared fixtures: small pre-built chains reused across test modules.

The generated chains are deterministic (fixed seeds), so session scope
is safe and keeps the suite fast: the expensive workload builders run
once per session, not once per test.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

# The CI spawn shard exports REPRO_MP_START_METHOD=spawn so the
# process-backend tests exercise the shared-memory transport instead of
# fork globals (repro.core.parallel's fan-out honours the configured
# start method).  Force it before any pool exists; tests assert the
# method actually took via test_differential.test_start_method_honoured.
_START_METHOD = os.environ.get("REPRO_MP_START_METHOD")
if _START_METHOD:
    multiprocessing.set_start_method(_START_METHOD, force=True)

from repro.workload import generate_chain
from repro.workload.account_workload import build_account_chain
from repro.workload.profiles import BITCOIN, ETHEREUM, ZILLIQA
from repro.workload.utxo_workload import UTXOWorkloadBuilder


@pytest.fixture(scope="session")
def small_bitcoin_builder():
    """A 40-block Bitcoin chain at 20% volume, with builder state."""
    builder = UTXOWorkloadBuilder(profile=BITCOIN, seed=7, scale=0.2)
    builder.build_chain(40)
    return builder


@pytest.fixture(scope="session")
def small_bitcoin_ledger(small_bitcoin_builder):
    return small_bitcoin_builder.ledger


@pytest.fixture(scope="session")
def small_ethereum_builder():
    """A 40-block Ethereum chain at 40% volume."""
    return build_account_chain(ETHEREUM, num_blocks=40, seed=7, scale=0.4)


@pytest.fixture(scope="session")
def small_zilliqa_builder():
    """A 30-block Zilliqa (sharded) chain."""
    return build_account_chain(ZILLIQA, num_blocks=30, seed=7, scale=1.0)


@pytest.fixture(scope="session")
def ethereum_history():
    """Analyzed Ethereum history (80 blocks, reduced volume)."""
    return generate_chain("ethereum", num_blocks=80, seed=3, scale=0.5).history


@pytest.fixture(scope="session")
def bitcoin_history():
    """Analyzed Bitcoin history (60 blocks, reduced volume)."""
    return generate_chain("bitcoin", num_blocks=60, seed=3, scale=0.1).history
