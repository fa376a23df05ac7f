"""Property tests: replay fan-out is invariant in jobs and chunk size.

For ANY (jobs, chunk_size) drawn by Hypothesis, the chunked replay
must preserve, per (block, engine):

* the exact commit order (hence the state root), and
* the total flight-recorder event counts — scheduled, aborted,
  retried, committed.

The strategy space deliberately includes degenerate shapes (more jobs
than blocks, 1-block chunks, chunks larger than the chain) because
those are where chunk-boundary bugs live.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.execution.parallel_replay import (
    replay_block_inputs,
    replay_chain,
)
from repro.workload.profiles import BITCOIN, ETHEREUM

# A compact engine slice that still spans the interesting commit
# semantics: block-order baseline, abort/retry waves, DAG scheduling.
PROPERTY_ENGINES = ("sequential", "occ", "dag")


@pytest.fixture(scope="module")
def property_inputs():
    return {
        "utxo": replay_block_inputs(BITCOIN, blocks=5, seed=3, scale=0.1),
        "account": replay_block_inputs(
            ETHEREUM, blocks=5, seed=3, scale=0.2
        ),
    }


@pytest.fixture(scope="module")
def property_baseline(property_inputs):
    return {
        model: replay_chain(
            blocks, data_model=model, engines=PROPERTY_ENGINES,
            backend="serial",
        )
        for model, blocks in property_inputs.items()
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    jobs=st.integers(min_value=1, max_value=5),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    model=st.sampled_from(["utxo", "account"]),
)
def test_commit_order_and_event_counts_invariant(
    property_inputs, property_baseline, jobs, chunk_size, model
):
    result = replay_chain(
        property_inputs[model],
        data_model=model,
        engines=PROPERTY_ENGINES,
        backend="serial",
        jobs=jobs,
        chunk_size=chunk_size,
    )
    expected = property_baseline[model]
    assert len(result.records) == len(expected.records)
    for got, want in zip(result.records, expected.records):
        assert (got.height, got.engine) == (want.height, want.engine)
        assert got.commit_order == want.commit_order
        assert got.state_root == want.state_root
        assert (
            got.scheduled, got.aborted, got.retried, got.committed
        ) == (
            want.scheduled, want.aborted, want.retried, want.committed
        )


@settings(max_examples=6, deadline=None)
@given(
    jobs=st.integers(min_value=1, max_value=3),
    chunk_size=st.integers(min_value=1, max_value=6),
)
def test_process_backend_invariant(jobs, chunk_size):
    """The process pool (fork, or spawn with per-chunk slices) is
    invariant too.

    Kept to a small example budget — each example pays pool start-up —
    with the wider chunk shapes covered by the serial property above
    and the full matrix in test_differential.py.
    """
    inputs = replay_block_inputs(BITCOIN, blocks=4, seed=5, scale=0.1)
    expected = replay_chain(
        inputs, data_model="utxo", engines=("occ",), backend="serial"
    )
    result = replay_chain(
        inputs, data_model="utxo", engines=("occ",),
        backend="process", jobs=jobs, chunk_size=chunk_size,
    )
    assert result.records == expected.records
