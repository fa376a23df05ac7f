"""The long-running node runtime: full lifecycle as service loops.

``repro.node`` turns the repo's batch pipelines into a network of
continuously running in-process nodes — mempool ingress, push-relay
gossip, PoW/PBFT block proposal, executor-replay validation with fork
choice — over either a deterministic virtual-clock transport or real
asyncio TCP.  See ``docs/node.md`` for the architecture and the
determinism contract.
"""

from repro.node.network import (
    NetworkConfig,
    NetworkResult,
    NodeNetwork,
    NodeSnapshot,
    build_node_txs,
    lifecycle_config,
    network_fingerprint,
)
from repro.node.node import (
    Node,
    NodeConfig,
    NodeStats,
    NodeTx,
    chain_state_root,
    make_genesis,
)
from repro.node.runtime import AsyncioRuntime, VirtualRuntime
from repro.node.transport import (
    FaultProfile,
    Frame,
    MemoryTransport,
    TcpTransport,
)

__all__ = [
    "AsyncioRuntime",
    "FaultProfile",
    "Frame",
    "MemoryTransport",
    "NetworkConfig",
    "NetworkResult",
    "Node",
    "NodeConfig",
    "NodeNetwork",
    "NodeSnapshot",
    "NodeStats",
    "NodeTx",
    "TcpTransport",
    "VirtualRuntime",
    "build_node_txs",
    "chain_state_root",
    "lifecycle_config",
    "make_genesis",
    "network_fingerprint",
]
