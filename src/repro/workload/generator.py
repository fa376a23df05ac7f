"""Top-level workload entry point: profile -> analyzed chain history.

This is the function the examples and benches call.  It builds the
profile's synthetic chain (UTXO or account, sharded or not), runs the
analysis pipeline over every block, and returns the
:class:`repro.core.pipeline.ChainHistory`.

Block counts default to modest values so the full seven-chain suite runs
in seconds; ``num_blocks`` and ``scale`` let callers trade fidelity for
speed in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import (
    ChainHistory,
    analyze_account_blocks,
    analyze_utxo_ledger,
)
from repro.workload.account_workload import (
    AccountWorkloadBuilder,
    build_account_chain,
)
from repro.workload.profiles import ChainProfile, get_profile
from repro.workload.utxo_workload import build_utxo_chain

DEFAULT_NUM_BLOCKS = 400


@dataclass(frozen=True)
class GeneratedChain:
    """A built chain plus its analyzed history."""

    profile: ChainProfile
    history: ChainHistory
    account_builder: AccountWorkloadBuilder | None = None


def generate_chain(
    profile: ChainProfile | str,
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    seed: int = 0,
    scale: float = 1.0,
) -> GeneratedChain:
    """Build and analyze one chain's synthetic history.

    Args:
        profile: a :class:`ChainProfile` or its short name.
        num_blocks: blocks to simulate, spread evenly over the profile's
            calendar span (block timestamps come from the PoW simulator,
            so longer chains cover the same years at finer resolution).
        seed: determinism seed.
        scale: per-block transaction volume multiplier.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if profile.data_model == "utxo":
        ledger = build_utxo_chain(
            profile, num_blocks=num_blocks, seed=seed, scale=scale
        )
        history = analyze_utxo_ledger(
            ledger,
            name=profile.name,
            start_year=profile.start_year,
        )
        return GeneratedChain(profile=profile, history=history)
    builder = build_account_chain(
        profile, num_blocks=num_blocks, seed=seed, scale=scale
    )
    history = analyze_account_blocks(
        builder.executed_blocks,
        name=profile.name,
        start_year=profile.start_year,
    )
    return GeneratedChain(
        profile=profile, history=history, account_builder=builder
    )


def generate_all_chains(
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    seed: int = 0,
    scale: float = 1.0,
    names: tuple[str, ...] | None = None,
) -> dict[str, GeneratedChain]:
    """Generate every profile (or the named subset); keyed by chain name."""
    from repro.workload.profiles import ALL_PROFILES

    selected = [
        profile
        for profile in ALL_PROFILES
        if names is None or profile.name in names
    ]
    return {
        profile.name: generate_chain(
            profile, num_blocks=num_blocks, seed=seed, scale=scale
        )
        for profile in selected
    }
