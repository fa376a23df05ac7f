"""Golden node fingerprint: one simulated network run, hashed.

``golden/network_fingerprint.json`` holds the
:func:`~repro.node.network_fingerprint` of :data:`GOLDEN_CONFIG`, a
three-node proof-of-work network on the simulated transport: one hash
over the run's end reason, height, committed count and every node's
head, chain root and pool.  It moves when the mempool, block building,
fork choice, gossip or the engines' validation of received blocks do,
so a refactor of any of them must leave the file byte-identical.  The
run is deterministic and must not follow ``PYTHONHASHSEED``.

To regenerate the fixture after an *intentional* change::

    PYTHONPATH=src:. python tests/node/test_golden_fingerprint.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.node import NetworkConfig, NodeNetwork, network_fingerprint

GOLDEN_PATH = Path(__file__).parent / "golden" / "network_fingerprint.json"

# The virtual run of benchmarks/bench_node_throughput.py, copied so the
# pin does not move when the bench does.  Fixed forever.
GOLDEN_CONFIG = NetworkConfig(
    nodes=3, height=3, workload_blocks=3, scale=1.0, seed=2020,
)


def render_fingerprint() -> str:
    result = NodeNetwork(GOLDEN_CONFIG).run()
    doc = {"fingerprint": network_fingerprint(result)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_network_run_reproduces_fixture_bytes():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "node fingerprint fixture missing — regenerate with "
            "`PYTHONPATH=src:. python tests/node/test_golden_fingerprint.py"
            " --regen`"
        )
    assert render_fingerprint() == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(render_fingerprint())
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
