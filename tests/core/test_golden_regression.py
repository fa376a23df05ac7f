"""Golden regression: the pipeline must reproduce checked-in numbers.

``golden/chain_metrics.json`` holds the full per-block metrics of two
tiny fixed-seed chains (one UTXO, one account), serialised in a stable
format.  The tests regenerate the chains and assert the rendered JSON
matches the fixture *byte for byte* — so a future refactor of the
workload builders, the TDG or the metrics cannot silently drift the
paper's numbers.

``golden/tdg_digest.json`` pins what the metrics cannot see — the
*order* of each block's dependency groups and address components: per
chain and block, a sha256 over the :class:`TDGResult` of the per-block
analysis, hashed exactly as returned.  Both data models order groups by
their first transaction and members in block order, so the digest is
the same under every ``PYTHONHASHSEED``.

To regenerate both fixtures after an *intentional* change::

    PYTHONPATH=src python tests/core/test_golden_regression.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.parallel import account_block_inputs, utxo_block_inputs
from repro.core.pipeline import (
    BlockRecord,
    ChainHistory,
    analyze_account_block,
    analyze_utxo_block,
)
from repro.core.tdg import TDGResult
from repro.workload.account_workload import build_account_chain
from repro.workload.generator import generate_chain
from repro.workload.profiles import get_profile
from repro.workload.utxo_workload import build_utxo_chain

GOLDEN_PATH = Path(__file__).parent / "golden" / "chain_metrics.json"
TDG_DIGEST_PATH = Path(__file__).parent / "golden" / "tdg_digest.json"

# Small and fixed forever: cheap to regenerate in every test run, rich
# enough (conflicts, internal txs, gas weighting) to catch drift.
GOLDEN_CHAINS = (
    ("bitcoin", dict(num_blocks=10, seed=2020, scale=0.2)),
    ("ethereum", dict(num_blocks=8, seed=2020, scale=0.4)),
)


def record_as_dict(record: BlockRecord) -> dict:
    metrics = record.metrics
    return {
        "height": record.height,
        "timestamp": record.timestamp,
        "num_transactions": record.num_transactions,
        "num_internal": record.num_internal,
        "num_input_txos": record.num_input_txos,
        "gas_used": record.gas_used,
        "size_bytes": record.size_bytes,
        "metrics": {
            "num_transactions": metrics.num_transactions,
            "num_conflicted": metrics.num_conflicted,
            "lcc_size": metrics.lcc_size,
            "total_weight": metrics.total_weight,
            "conflicted_weight": metrics.conflicted_weight,
            "lcc_weight": metrics.lcc_weight,
        },
    }


def history_as_dict(history: ChainHistory) -> dict:
    return {
        "name": history.name,
        "data_model": history.data_model,
        "start_year": history.start_year,
        "records": [record_as_dict(record) for record in history.records],
    }


def render_golden() -> str:
    """Build the golden chains and render their histories stably."""
    payload = {
        name: history_as_dict(generate_chain(name, **args).history)
        for name, args in GOLDEN_CHAINS
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_tdgs(name: str, args: dict) -> list[tuple[int, TDGResult]]:
    """``(height, TDG)`` of every block of one golden chain, through the
    same per-block entry points the pipeline calls."""
    profile = get_profile(name)
    if profile.data_model == "utxo":
        inputs = utxo_block_inputs(build_utxo_chain(profile, **args))
        analyze_block = analyze_utxo_block
    else:
        inputs = account_block_inputs(
            build_account_chain(profile, **args).executed_blocks
        )
        analyze_block = analyze_account_block
    return [
        (
            item.height,
            analyze_block(
                item.payload, height=item.height, timestamp=item.timestamp
            )[1],
        )
        for item in inputs
    ]


def tdg_digest(tdg: TDGResult) -> str:
    return hashlib.sha256(
        json.dumps([tdg.groups, tdg.address_components]).encode()
    ).hexdigest()


def render_tdg_digest() -> str:
    payload = {
        name: [
            {"height": height, "tdg": tdg_digest(tdg)}
            for height, tdg in golden_tdgs(name, args)
        ]
        for name, args in GOLDEN_CHAINS
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestGoldenRegression:
    def test_fixture_exists(self):
        assert GOLDEN_PATH.is_file(), (
            "golden fixture missing — regenerate with "
            "`PYTHONPATH=src python tests/core/test_golden_regression.py"
            " --regen`"
        )

    def test_serial_backend_reproduces_fixture_bytes(self):
        assert render_golden() == GOLDEN_PATH.read_text()

    def test_bitcoin_records_need_no_bfs_and_no_tdg_counts(
        self, monkeypatch
    ):
        """Counted, not timed: the UTXO pipeline never builds an
        adjacency map, never runs the BFS and never asks a TDG for its
        conflicted count or LCC size — the metrics loop folds both."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("BFS or TDG count on the UTXO pipeline")

        for module in ("repro.core.components", "repro.core.tdg"):
            for name in ("build_adjacency", "connected_components_bfs"):
                monkeypatch.setattr(f"{module}.{name}", refuse, raising=False)
        monkeypatch.setattr(TDGResult, "num_conflicted", property(refuse))
        monkeypatch.setattr(TDGResult, "lcc_size", property(refuse))
        with pytest.raises(AssertionError):
            TDGResult.from_groups(()).lcc_size

        name, args = GOLDEN_CHAINS[0]
        history = generate_chain(name, **args).history
        expected = json.loads(GOLDEN_PATH.read_text())[name]
        assert history_as_dict(history) == expected

    def test_fixture_is_nontrivial(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert set(payload) == {"bitcoin", "ethereum"}
        eth = payload["ethereum"]["records"]
        assert any(r["metrics"]["num_conflicted"] > 0 for r in eth)
        assert any(r["num_internal"] > 0 for r in eth)
        assert any(r["gas_used"] > 0 for r in eth)
        btc = payload["bitcoin"]["records"]
        assert any(r["num_input_txos"] > 0 for r in btc)


class TestGoldenTDGDigest:
    def test_fixture_exists(self):
        assert TDG_DIGEST_PATH.is_file(), (
            "TDG digest fixture missing — regenerate with "
            "`PYTHONPATH=src python tests/core/test_golden_regression.py"
            " --regen`"
        )

    def test_per_block_analysis_reproduces_fixture_bytes(self):
        assert render_tdg_digest() == TDG_DIGEST_PATH.read_text()

    def test_digest_sees_order(self):
        """What ``chain_metrics.json`` cannot: the same partition with
        two groups, or two address components, swapped hashes apart."""
        name, args = GOLDEN_CHAINS[1]
        tdg = next(
            tdg for _height, tdg in golden_tdgs(name, args)
            if len(tdg.groups) > 1 and len(tdg.address_components) > 1
            and any(len(group) > 1 for group in tdg.groups)
        )
        # The digest reads only these two views.
        first, second, *rest = tdg.groups
        regrouped = SimpleNamespace(
            groups=(second, first, *rest),
            address_components=tdg.address_components,
        )
        first, second, *rest = tdg.address_components
        recomponented = SimpleNamespace(
            groups=tdg.groups,
            address_components=(second, first, *rest),
        )
        digests = {
            tdg_digest(each) for each in (tdg, regrouped, recomponented)
        }
        assert len(digests) == 3


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(render_golden())
        TDG_DIGEST_PATH.write_text(render_tdg_digest())
        print(f"wrote {GOLDEN_PATH} and {TDG_DIGEST_PATH}")
    else:
        print(__doc__)
