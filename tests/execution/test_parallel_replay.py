"""Unit tests for the replay fan-out building blocks.

The differential suite (test_differential.py) proves whole-run
equivalence; this module pins the pieces — digest semantics, input
validation, the scoped observability state, chunk row dumps and the
worker-to-parent metrics merge.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import obs
from repro.chain import hashing
from repro.execution import parallel_replay
from repro.execution.engine import ExecutionReport, TxTask
from repro.execution.parallel_replay import (
    ENGINES,
    ReplayBlock,
    receipts_root,
    replay_block_inputs,
    replay_chain,
    replay_chunk,
    state_root,
    validate_engines,
)
from repro.execution.schedule import Segment, timeline_rows
from repro.obs import ObservabilityState
from repro.obs.lifecycle import NOOP_LIFECYCLE
from repro.obs.metrics import MetricsRegistry
from repro.workload.profiles import BITCOIN


@pytest.fixture(scope="module")
def tiny_inputs():
    return replay_block_inputs(BITCOIN, blocks=3, seed=9, scale=0.1)


class TestEngineRegistry:
    def test_engines_match_executor_choices(self):
        """One registry: the regress name is an alias, not a copy."""
        from repro.execution.registry import ENGINES as registry_engines
        from repro.obs.regress import EXECUTOR_CHOICES

        assert EXECUTOR_CHOICES is registry_engines is ENGINES

    def test_both_static_engines_receive_the_predictions(self, tiny_inputs):
        """Reached by name, a prediction engine must see the block's
        predictions — without them it is sequential in disguise."""
        from repro.execution.registry import (
            PREDICTION_ENGINES,
            make_executor,
            run_engine,
        )

        assert PREDICTION_ENGINES == {"static-informed", "static-grouped"}
        block = max(tiny_inputs, key=lambda b: len(b.tasks))
        by_hash = {p.tx_hash: p for p in block.predictions}
        for name in sorted(PREDICTION_ENGINES):
            by_name = run_engine(name, block, 4)
            direct = make_executor(name, 4, by_hash).run(block.tasks)
            assert by_name == direct
            assert by_name.speedup > 1.0
            blind = make_executor(name, 4).run(block.tasks)
            assert blind.wall_time == blind.total_work

    def test_every_engine_list_is_derived_from_the_one_table(self):
        from repro.execution.registry import (
            ENGINE_SPECS,
            EQ2_STRICT_EXECUTORS,
            PREDICTION_ENGINES,
            make_executor,
        )
        from repro.obs import critical_path

        assert ENGINES == tuple(ENGINE_SPECS)
        for name in ENGINES:
            assert make_executor(name, 2).name == name
        assert PREDICTION_ENGINES == {
            name for name, spec in ENGINE_SPECS.items()
            if spec.information == "predicted"
        }
        assert EQ2_STRICT_EXECUTORS == {
            name for name, spec in ENGINE_SPECS.items()
            if spec.schedule in ("sequential", "two-phase", "chain")
        }
        assert "static-grouped" in EQ2_STRICT_EXECUTORS
        assert EQ2_STRICT_EXECUTORS.isdisjoint({"occ", "dag"})
        assert critical_path.EQ2_STRICT_EXECUTORS is EQ2_STRICT_EXECUTORS

    def test_validate_preserves_order(self):
        assert validate_engines(["dag", "occ"]) == ("dag", "occ")

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_engines([])

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engines(["occ", "blockstm"])

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeat"):
            validate_engines(["occ", "occ"])


class TestValidation:
    def test_unknown_data_model(self, tiny_inputs):
        with pytest.raises(ValueError, match="data model"):
            replay_chain(tiny_inputs, data_model="eutxo")

    def test_bad_cores(self, tiny_inputs):
        with pytest.raises(ValueError, match="cores"):
            replay_chain(tiny_inputs, data_model="utxo", cores=0)

    def test_bad_backend(self, tiny_inputs):
        with pytest.raises(ValueError, match="backend"):
            replay_chain(tiny_inputs, data_model="utxo", backend="mpi")

    def test_bad_jobs(self, tiny_inputs):
        with pytest.raises(ValueError, match="jobs"):
            replay_chain(
                tiny_inputs, data_model="utxo", backend="process", jobs=0
            )

    def test_bad_chunk_size(self, tiny_inputs):
        with pytest.raises(ValueError, match="chunk"):
            replay_chain(tiny_inputs, data_model="utxo", chunk_size=0)

    def test_inputs_carry_predictions(self, tiny_inputs):
        """UTXO predictions are exact: writes mirror the task writes."""
        carried = [b for b in tiny_inputs if b.tasks]
        assert carried
        for block in carried:
            assert len(block.predictions) == len(block.tasks)
            by_hash = {p.tx_hash: p for p in block.predictions}
            for task in block.tasks:
                prediction = by_hash[task.tx_hash]
                assert prediction.writes == task.writes
                assert not prediction.global_top


class TestDigests:
    def test_state_root_tracks_per_location_order(self):
        writes = {"a": ("x",), "b": ("x",), "c": ("y",)}
        base = state_root(("a", "b", "c"), writes)
        # Swapping two writers of the SAME location changes the root.
        assert state_root(("b", "a", "c"), writes) != base
        # Moving a writer of a DIFFERENT location does not.
        assert state_root(("a", "c", "b"), writes) == base
        assert state_root(("c", "a", "b"), writes) == base

    def test_state_root_ignores_readonly_tasks(self):
        writes = {"a": ("x",), "r": ()}
        assert state_root(("a", "r"), writes) == state_root(("a",), writes)

    def test_receipt_digest_rejects_foreign_payloads(self):
        with pytest.raises(TypeError):
            receipts_root([{"gas": 21000}])

    def test_utxo_receipt_digest_is_stable(self, tiny_inputs):
        """The root is a function of the payload's contents and order:
        a pickled copy has it, a reordered or shortened payload not."""
        payload = max(tiny_inputs, key=lambda b: len(b.payload)).payload
        assert len(payload) > 2
        root = receipts_root(payload)
        assert receipts_root(pickle.loads(pickle.dumps(payload))) == root
        swapped = (payload[1], payload[0], *payload[2:])
        assert receipts_root(swapped) != root
        assert receipts_root(payload[:-1]) != root

    def test_inputs_are_picklable(self, tiny_inputs):
        clone = pickle.loads(pickle.dumps(tiny_inputs))
        assert clone == tiny_inputs
        assert isinstance(clone[0], ReplayBlock)


def records_for_orders(tasks, orders):
    """``_block_records`` for engines that committed in *orders*."""
    block = ReplayBlock(height=7, tasks=tuple(tasks), payload=())
    engines = ENGINES[:len(orders)]
    # Unit tasks back to back from -1 commit at clocks 0, 1, 2, ...
    reports = [
        ExecutionReport(
            executor=engine, cores=4, wall_time=1.0,
            total_work=float(len(tasks)), num_tasks=len(tasks),
            schedule=(Segment(
                [TxTask(tx_hash) for tx_hash in order], offset=-1.0
            ),),
        )
        for engine, order in zip(engines, orders)
    ]
    return parallel_replay._block_records(block, engines, reports)


@st.composite
def tasks_and_orders(draw):
    """A block of writers over few locations, and one commit order per
    engine: any permutation, serializable or not, and now and then one
    that leaves tasks out, commits some twice or commits a stranger."""
    count = draw(st.integers(min_value=0, max_value=8))
    tasks = [
        TxTask(
            tx_hash=f"tx{index}",
            writes=draw(st.frozensets(st.sampled_from("wxyz"), max_size=3)),
        )
        for index in range(count)
    ]
    hashes = [task.tx_hash for task in tasks]
    orders = []
    for _ in range(len(ENGINES)):
        if draw(st.integers(min_value=0, max_value=3)):
            orders.append(tuple(draw(st.permutations(hashes))))
        else:
            orders.append(tuple(draw(st.lists(
                st.sampled_from(hashes + ["stranger"]), max_size=count + 2,
            ))))
    return tasks, orders


def count_hashes(monkeypatch) -> list[str]:
    """Every SHA-256 taken from now on, as the text it hashed."""
    hashed: list[str] = []
    real = hashing.sha256_hex

    def counted(data: bytes) -> str:
        hashed.append(data.decode("utf-8"))
        return real(data)

    monkeypatch.setattr(hashing, "sha256_hex", counted)
    return hashed


def writers_by_location(order, writes):
    """Each location's writers, in the order *order* commits them."""
    writers: dict[str, list[str]] = {}
    for tx_hash in order:
        for location in writes.get(tx_hash, ()):
            writers.setdefault(location, []).append(tx_hash)
    return writers


class TestSharedFold:
    """One block's engines share one per-location fold; it must give
    every order, whole or partial or repeating, the root the public
    ``state_root`` gives it alone."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=tasks_and_orders())
    def test_each_root_equals_the_root_computed_alone(self, drawn):
        tasks, orders = drawn
        writes = {t.tx_hash: tuple(sorted(t.writes)) for t in tasks}
        records = records_for_orders(tasks, orders)
        assert [record.commit_order for record in records] == orders
        assert [record.state_root for record in records] == [
            state_root(order, writes) for order in orders
        ]

    @settings(max_examples=300, deadline=None)
    @given(drawn=tasks_and_orders())
    def test_equal_roots_iff_every_location_keeps_its_writer_order(
        self, drawn
    ):
        tasks, orders = drawn
        writes = {t.tx_hash: tuple(sorted(t.writes)) for t in tasks}
        pairs = list(zip(orders, orders[1:]))
        for order in orders:
            # Swapping two neighbours that write nothing in common keeps
            # every location's writer order: the classes must meet.
            for at in range(len(order) - 1):
                left, right = order[at], order[at + 1]
                if set(writes.get(left, ())).isdisjoint(writes.get(right, ())):
                    swapped = (
                        *order[:at], right, left, *order[at + 2:]
                    )
                    pairs.append((order, swapped))
                    break
        for first, second in pairs:
            same_writers = (
                writers_by_location(first, writes)
                == writers_by_location(second, writes)
            )
            same_root = (
                state_root(first, writes) == state_root(second, writes)
            )
            assert same_root == same_writers, (first, second)

    def test_a_block_repeating_a_hash_takes_the_general_fold(self):
        tasks = [
            TxTask("a", writes=frozenset({"x"})),
            TxTask("b", writes=frozenset({"x", "y"})),
            TxTask("a", writes=frozenset({"y"})),
        ]
        writes = {"a": ("y",), "b": ("x", "y")}
        orders = [("a", "b"), ("b", "a"), ("a", "b", "a")]
        records = records_for_orders(tasks, orders)
        assert [record.state_root for record in records] == [
            state_root(order, writes) for order in orders
        ]

    def test_reordered_chains_and_roots_are_memoised_per_block(
        self, monkeypatch
    ):
        """Five engines in three classes of order cost three state-root
        hashes between them, and no hash per write-chain link."""
        tasks = [
            TxTask("a", writes=frozenset({"x", "y"})),
            TxTask("b", writes=frozenset({"x"})),
            TxTask("c", writes=frozenset({"y", "z"})),
        ]
        hashed = count_hashes(monkeypatch)
        records = records_for_orders(tasks, [
            ("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a"),
            ("a", "c", "b"), ("b", "a", "c"),
        ])
        roots = [record.state_root for record in records]
        assert roots[0] == roots[3] != roots[1] == roots[4] != roots[2]
        # Three classes of order, three roots; one receipts root.
        assert [text.split("\x1f", 1)[0] for text in hashed] == [
            "receipts-root", "state-root", "state-root", "state-root",
        ]

    def test_a_disagreeing_engine_keeps_its_own_root(self):
        tasks = [
            TxTask("a", writes=frozenset({"x", "y"})),
            TxTask("b", writes=frozenset({"x"})),
            TxTask("c", writes=frozenset({"z"})),
        ]
        agreed, swapped, moved = records_for_orders(
            tasks, [("a", "b", "c"), ("b", "a", "c"), ("c", "a", "b")]
        )
        assert swapped.state_root != agreed.state_root
        assert moved.state_root == agreed.state_root

    def test_links_are_hashed_once_per_block(self, tiny_inputs, monkeypatch):
        """A count, not a time: eight agreeing engines cost the block
        one state-root hash and one receipts hash — none per write-chain
        link, per receipt or per engine."""
        block = max(tiny_inputs, key=lambda b: len(b.tasks))
        assert sum(len(task.writes) for task in block.tasks) > 20
        hashed = count_hashes(monkeypatch)
        result = replay_chain(
            [block], data_model="utxo", engines=ENGINES, backend="serial"
        )
        assert len({record.state_root for record in result.records}) == 1
        assert sorted(text.split("\x1f", 1)[0] for text in hashed) == [
            "receipts-root", "state-root",
        ]


class TestScopedObservability:
    def test_scoped_binds_and_restores(self):
        state = ObservabilityState(
            registry=MetricsRegistry(), lifecycle=NOOP_LIFECYCLE,
        )
        assert not obs.enabled()
        with obs.scoped(state):
            assert obs.event_rows() is state.rows
            obs.counter("scoped.test").inc()
        assert not obs.enabled()
        assert state.registry.counter("scoped.test").value == 1

    def test_scoped_nests(self):
        outer = ObservabilityState(
            registry=MetricsRegistry(), lifecycle=NOOP_LIFECYCLE,
        )
        inner = ObservabilityState(
            registry=MetricsRegistry(), lifecycle=NOOP_LIFECYCLE,
        )
        with obs.scoped(outer):
            with obs.scoped(inner):
                obs.counter("depth").inc()
            obs.counter("depth").inc(10)
        assert inner.registry.counter("depth").value == 1
        assert outer.registry.counter("depth").value == 10


class TestRecorderDump:
    def test_dump_rows_round_trips_through_extend(self, tiny_inputs):
        """A recording chunk ships its reports' rows, in block and
        engine order; they pickle and land in the parent unchanged."""
        block = max(tiny_inputs, key=lambda b: len(b.tasks))
        engines = ("occ", "dag")
        _records, _elapsed, dump, rows = replay_chunk(
            (engines, 2), [block], True
        )
        assert dump is not None
        expected = [
            row for engine in engines for row in timeline_rows(
                parallel_replay.run_engine(engine, block, 2), block.height
            )
        ]
        assert rows == expected
        assert pickle.loads(pickle.dumps(rows)) == rows
        with obs.instrumented() as state:
            replay_chain(
                [block], data_model="utxo", engines=engines, cores=2,
                backend="serial",
            )
        assert state.rows == rows

    def test_noop_recorder_dump_is_empty(self, tiny_inputs):
        records, _elapsed, dump, rows = replay_chunk(
            (("occ",), 2), tiny_inputs, False
        )
        assert records
        assert dump is None and rows is None


class TestParentObservability:
    def test_worker_obs_merges_into_instrumented_parent(self, tiny_inputs):
        """Fanned-out replay feeds the parent registry and event rows.

        The per-engine event stream must be identical to a serial
        replay's, and the worker-side ``exec.*`` counters (recorded in
        the chunk's private registry) must fold into the parent.
        """
        with obs.instrumented() as serial_state:
            replay_chain(
                tiny_inputs, data_model="utxo", engines=("occ",),
                backend="serial",
            )
        with obs.instrumented() as fanned_state:
            replay_chain(
                tiny_inputs, data_model="utxo", engines=("occ",),
                backend="process", jobs=2, chunk_size=1,
            )
        assert fanned_state.rows == serial_state.rows
        assert {row[0] for row in serial_state.rows} == {"occ"}
        serial_metrics = serial_state.registry.snapshot()
        fanned_metrics = fanned_state.registry.snapshot()
        occ_keys = [
            key for key in serial_metrics["counters"]
            if key.startswith("exec.occ.")
        ]
        assert occ_keys
        for key in occ_keys:
            assert (
                fanned_metrics["counters"][key]
                == serial_metrics["counters"][key]
            )
        assert fanned_metrics["counters"][
            "exec.replay.blocks{backend=process}"
        ] == len(tiny_inputs)

    def test_uninstrumented_run_records_nothing(self, tiny_inputs):
        result = replay_chain(
            tiny_inputs, data_model="utxo", engines=("sequential",),
            backend="serial",
        )
        assert not obs.enabled()
        assert result.summary("sequential").committed > 0


# A fresh interpreter: the spawn start method, the resource tracker and
# everything they print at exit belong to the whole process.
_SPAWN_REPLAY = """
import multiprocessing, sys
from repro.execution.parallel_replay import replay_block_inputs, replay_chain
from repro.workload.profiles import BITCOIN

multiprocessing.set_start_method("spawn", force=True)
inputs = replay_block_inputs(BITCOIN, blocks=4, seed=5, scale=0.1)
serial = replay_chain(inputs, data_model="utxo", backend="serial")
fanned = replay_chain(inputs, data_model="utxo", backend="process", jobs=2)
sys.exit(0 if fanned.records == serial.records else 3)
"""


def test_spawn_fan_out_matches_serial_and_keeps_stderr_clean():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    done = subprocess.run(
        [sys.executable, "-c", _SPAWN_REPLAY], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
