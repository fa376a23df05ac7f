"""Cross-executor differential harness over the replay fan-out.

Seeded UTXO and account chains replay through all seven engines on
every backend x jobs x chunk-size combination; each configuration must
produce byte-identical state roots, receipt roots, commit orders and
abort-adjusted commit sets.  The serial backend is the oracle — the
fanned-out configurations must reproduce its records exactly, and the
seven engines must agree with each other on the committed state.

Run the whole module under ``REPRO_MP_START_METHOD=spawn`` (the CI
shard does) to push the process configurations through per-chunk
slices instead of fork globals.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.execution.parallel_replay import (
    ENGINES,
    replay_block_inputs,
    replay_chain,
)
from repro.workload.profiles import BITCOIN, ETHEREUM

# (backend, jobs, chunk_size) — the fan-out matrix.  Serial with a
# forced 1-block chunk exercises the chunk loop itself; the process
# rows cover both balanced and tiny chunks so results cross worker
# boundaries in different places.
CONFIGS = [
    pytest.param("serial", None, 1, id="serial-chunk1"),
    pytest.param("process", 2, None, id="process-j2"),
    pytest.param("process", 2, 2, id="process-j2-chunk2"),
]

CHAINS = ["utxo", "account"]


@pytest.fixture(scope="module")
def inputs():
    return {
        "utxo": replay_block_inputs(BITCOIN, blocks=8, seed=11, scale=0.15),
        "account": replay_block_inputs(
            ETHEREUM, blocks=8, seed=11, scale=0.3
        ),
    }


@pytest.fixture(scope="module")
def baseline(inputs):
    """Serial-backend oracle replay, one per data model."""
    return {
        model: replay_chain(
            inputs[model], data_model=model, backend="serial"
        )
        for model in CHAINS
    }


def test_start_method_honoured():
    """The CI spawn shard really runs under the configured method."""
    configured = os.environ.get("REPRO_MP_START_METHOD")
    if not configured:
        pytest.skip("no start method forced via REPRO_MP_START_METHOD")
    assert multiprocessing.get_start_method() == configured


@pytest.mark.parametrize("model", CHAINS)
def test_engines_agree_on_state(baseline, model):
    """All seven engines commit to one state and receipt root."""
    summaries = baseline[model].summaries()
    assert len(summaries) == len(ENGINES)
    state_roots = {s.state_root for s in summaries}
    receipt_roots = {s.receipt_root for s in summaries}
    assert len(state_roots) == 1, {
        s.engine: s.state_root for s in summaries
    }
    assert len(receipt_roots) == 1
    total_tasks = summaries[0].tasks
    assert total_tasks > 0
    for summary in summaries:
        assert summary.committed == total_tasks
        assert summary.tasks == total_tasks


@pytest.mark.parametrize("model", CHAINS)
def test_sequential_commit_order_is_block_order(baseline, inputs, model):
    """The oracle's oracle: sequential commits exactly in block order."""
    by_height = {block.height: block for block in inputs[model]}
    for record in baseline[model].for_engine("sequential"):
        expected = tuple(
            task.tx_hash for task in by_height[record.height].tasks
        )
        assert record.commit_order == expected


@pytest.mark.parametrize("model", CHAINS)
def test_abort_adjusted_commit_sets(baseline, inputs, model):
    """Every task commits exactly once, whatever it aborted through.

    The *set* of committed transactions must equal the block's task
    set for every engine (aborts are retries, never drops), and the
    recorded abort events must be matched one-for-one by retries.
    """
    by_height = {block.height: block for block in inputs[model]}
    for record in baseline[model].records:
        tasks = by_height[record.height].tasks
        assert record.committed == len(tasks)
        assert len(record.commit_order) == len(tasks)
        assert set(record.commit_order) == {t.tx_hash for t in tasks}
        assert record.aborted == record.retried
        if record.engine == "sequential":
            assert record.aborted == 0


@pytest.mark.parametrize("backend,jobs,chunk_size", CONFIGS)
@pytest.mark.parametrize("model", CHAINS)
def test_fanout_matches_serial_oracle(
    baseline, inputs, model, backend, jobs, chunk_size
):
    """Any fan-out configuration reproduces the serial records exactly.

    :class:`BlockReplay` equality covers state roots, receipt roots,
    commit orders, event counts and the simulated timings — byte
    identical, not merely equivalent.
    """
    result = replay_chain(
        inputs[model],
        data_model=model,
        backend=backend,
        jobs=jobs,
        chunk_size=chunk_size,
    )
    assert result.records == baseline[model].records
    assert result.engines == baseline[model].engines


@pytest.mark.parametrize("model", CHAINS)
def test_engine_subset_matches_full_replay(baseline, inputs, model):
    """A subset replay yields the same records as the full seven."""
    subset = ("occ", "dag")
    result = replay_chain(
        inputs[model], data_model=model, engines=subset,
        backend="process", jobs=2,
    )
    for engine in subset:
        assert result.for_engine(engine) == baseline[model].for_engine(
            engine
        )
