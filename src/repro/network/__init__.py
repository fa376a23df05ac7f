"""P2P gossip substrate: block propagation and orphan-rate modelling."""

from repro.network.gossip import (
    GossipNetwork,
    PropagationResult,
    orphan_rate_estimate,
)

__all__ = [
    "GossipNetwork",
    "PropagationResult",
    "orphan_rate_estimate",
]
