"""Golden replay digest: every engine's replay of two fixed chains.

``golden/replay_digest.json`` holds, per ``(chain, engine)``, a sha256
over every field of every :class:`BlockReplay` record of a serial
replay, a second sha256 over that engine's flight-recorder rows, and
the chain state root.  The chains are
:data:`tests.core.test_golden_regression.GOLDEN_CHAINS`.  A refactor of
the engines must leave the file byte-identical; an intentional change
shows up as a per-engine diff of it (a ``records`` hash alone moves
when only a report field changed, a ``rows`` hash when the schedule
did, ``state_root`` when the committed state did).

To regenerate the fixture after an *intentional* change::

    PYTHONPATH=src:. python tests/execution/test_golden_replay.py --regen
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import obs
from repro.execution.parallel_replay import (
    ENGINES,
    ReplayResult,
    replay_block_inputs,
    replay_chain,
)
from repro.workload.profiles import PROFILES_BY_NAME
from tests.core.test_golden_regression import GOLDEN_CHAINS

GOLDEN_PATH = Path(__file__).parent / "golden" / "replay_digest.json"
CHAIN_NAMES = [name for name, _args in GOLDEN_CHAINS]


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def replay_golden(
    instrumented: bool = True, **replay_kwargs
) -> dict[str, tuple[ReplayResult, list]]:
    """Replay the golden chains; ``chain -> (result, recorder rows)``.

    Uninstrumented, nothing records and the rows come back empty.
    """
    out = {}
    for name, args in GOLDEN_CHAINS:
        profile = PROFILES_BY_NAME[name]
        inputs = replay_block_inputs(
            profile, blocks=args["num_blocks"], seed=args["seed"],
            scale=args["scale"],
        )
        with obs.instrumented() if instrumented else nullcontext() as state:
            result = replay_chain(
                inputs, data_model=profile.data_model, engines=ENGINES,
                **replay_kwargs,
            )
            rows = state.recorder.dump_rows() if instrumented else []
        out[name] = (result, rows)
    return out


def render_digest(replays: dict[str, tuple[ReplayResult, list]]) -> str:
    payload = {
        name: {
            engine: {
                "records": sha256_json(
                    [asdict(record) for record in result.for_engine(engine)]
                ),
                # Chunk lanes (``replay.<backend>``) carry wall-clock
                # seconds and are left out by the engine filter.
                "rows": sha256_json(
                    [row for row in rows if row[0] == engine]
                ),
                "state_root": result.summary(engine).state_root,
            }
            for engine in ENGINES
        }
        for name, (result, rows) in replays.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def serial_replays():
    return replay_golden(backend="serial")


class TestGoldenReplay:
    def test_fixture_exists(self):
        assert GOLDEN_PATH.is_file(), (
            "golden fixture missing — regenerate with `PYTHONPATH=src:. "
            "python tests/execution/test_golden_replay.py --regen`"
        )

    def test_serial_backend_reproduces_fixture_bytes(self, serial_replays):
        assert render_digest(serial_replays) == GOLDEN_PATH.read_text()

    def test_process_backend_reproduces_fixture_bytes(self):
        """Under the CI spawn shard this crosses the shm transport."""
        replays = replay_golden(backend="process", jobs=2, chunk_size=3)
        assert render_digest(replays) == GOLDEN_PATH.read_text()

    def test_uninstrumented_replay_builds_the_same_records(self):
        """Records do not depend on anything recording: with nobody to
        read a row, every ``records`` hash and state root is still the
        fixture's (the ``rows`` hashes are then those of no rows)."""
        assert not obs.enabled()
        replays = replay_golden(instrumented=False, backend="serial")
        assert all(rows == [] for _result, rows in replays.values())
        rendered = json.loads(render_digest(replays))
        fixture = json.loads(GOLDEN_PATH.read_text())
        for name in CHAIN_NAMES:
            for engine in ENGINES:
                for key in ("records", "state_root"):
                    assert (
                        rendered[name][engine][key]
                        == fixture[name][engine][key]
                    ), (name, engine, key)

    def test_fixture_is_nontrivial(self, serial_replays):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert list(payload) == sorted(CHAIN_NAMES)
        for name in CHAIN_NAMES:
            assert set(payload[name]) == set(ENGINES)
            # One committed state per chain, whatever the engine.
            assert len(
                {entry["state_root"] for entry in payload[name].values()}
            ) == 1
            result, _rows = serial_replays[name]
            assert result.summary("occ").aborted > 0
            assert result.summary("speculative").retried > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chain", CHAIN_NAMES)
def test_report_counts_are_the_event_streams(serial_replays, chain, engine):
    """``aborts`` / ``reexecuted`` mean one thing for every engine: the
    number of ``abort`` / ``retry`` rows the engine recorded."""
    result, _rows = serial_replays[chain]
    for record in result.for_engine(engine):
        assert record.aborts == record.aborted, record.height
        assert record.reexecuted == record.retried, record.height
        assert (
            record.scheduled == record.committed == record.num_tasks
        ), record.height


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(render_digest(replay_golden(backend="serial")))
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
