"""Flight-recorder rows: the one expander of a report's schedule
(:func:`repro.execution.schedule.timeline_rows`), the events readers
get from rows, and the instrumented state's list of them."""

from __future__ import annotations

from repro import obs
from repro.execution.engine import ExecutionReport, TxTask
from repro.execution.parallel_replay import ReplayBlock, replay_chain
from repro.execution.schedule import Segment, Wave, timeline_rows
from repro.execution.simulator import CoreSimulator
from repro.obs.timeline import EVENT_KINDS, QUEUE_LANE, as_events


def row(kind, task, *, executor="e", lane=QUEUE_LANE, clock=0.0,
        cost=0.0, round_index=0, block=None):
    """One event row, fields named as the readers name them."""
    assert kind in EVENT_KINDS
    return (executor, block, round_index, kind, task, lane, clock, cost)


def _tasks(n, cost=1.0):
    return [TxTask(tx_hash=f"tx{i}", cost=cost) for i in range(n)]


def _report(name, *schedule):
    return ExecutionReport(
        executor=name, cores=2, wall_time=0.0, total_work=0.0,
        num_tasks=0, schedule=schedule,
    )


def _events(name, *schedule, height=None):
    return as_events(timeline_rows(_report(name, *schedule), height))


class TestRecorderCore:
    def test_events_number_rows_in_order(self):
        rows = [
            row("schedule", "a", executor="occ"),
            row("start", "a", executor="occ", lane=2, clock=1.0, cost=3.0),
            row("commit", "a", executor="seq", clock=4.0, block=7),
        ]
        events = as_events(rows)
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.kind for e in events] == ["schedule", "start", "commit"]
        start = events[1]
        assert (start.executor, start.lane, start.clock, start.cost) == (
            "occ", 2, 1.0, 3.0
        )
        assert (events[2].executor, events[2].block) == ("seq", 7)

    def test_default_state_is_noop(self):
        assert not obs.enabled()
        assert obs.event_rows() == []

    def test_instrumented_installs_recording_recorder(self):
        default = obs.event_rows()
        with obs.instrumented() as state:
            assert obs.event_rows() is state.rows == []
            with obs.instrumented() as inner:
                assert obs.event_rows() is inner.rows
                assert inner.rows is not state.rows
        assert obs.event_rows() is default

    def test_noop_recorder_drops_everything(self):
        """An uninstrumented replay writes no row anywhere."""
        tasks = _tasks(3)
        replay_chain(
            [ReplayBlock(height=1, tasks=tuple(tasks), payload=())],
            data_model="utxo", backend="serial",
        )
        assert obs.event_rows() == []


class TestWaveRows:
    def test_schedule_start_finish_per_task(self):
        tasks = _tasks(3)
        run = CoreSimulator(2).run_wave(tasks)
        events = _events("spec", Wave(tasks, run, aborted=[tasks[1]]))
        assert len(events) == 9  # schedule + start + finish per task
        schedules = [e for e in events if e.kind == "schedule"]
        assert all(e.lane == QUEUE_LANE and e.clock == 0.0
                   for e in schedules)
        finishes = {
            e.task: e.kind for e in events if e.kind in ("commit", "abort")
        }
        assert finishes == {"tx0": "commit", "tx1": "abort", "tx2": "commit"}
        starts = {e.task: e for e in events if e.kind == "start"}
        assert starts["tx0"].clock == run.start_times["tx0"]
        assert starts["tx0"].lane == run.core_of["tx0"]

    def test_offset_shifts_all_clocks(self):
        """A later round re-queues its tasks at its start: ``retry``
        rows there, no ``schedule`` row."""
        tasks = _tasks(2)
        run = CoreSimulator(2).run_wave(tasks)
        events = _events("spec", Wave(tasks, run, offset=5.0, round=1))
        assert all(e.kind != "schedule" for e in events)
        assert [e.clock for e in events if e.kind == "retry"] == [5.0, 5.0]
        assert min(e.clock for e in events) == 5.0
        assert {e.round for e in events} == {1}

    def test_disabled_or_empty_records_nothing(self):
        assert _events("spec", Wave([], CoreSimulator(1).run_wave([]))) \
            == []
        assert _events("spec", Segment([])) == []

    def test_rows_carry_the_height_asked_for(self):
        tasks = _tasks(2)
        report = _report("spec", Segment(tasks))
        assert {row[1] for row in timeline_rows(report, 7)} == {7}
        assert {row[1] for row in timeline_rows(report, None)} == {None}


class TestSequentialRows:
    def test_back_to_back_on_one_lane(self):
        tasks = _tasks(3, cost=2.0)
        events = _events("seq", Segment(tasks, offset=1.0))
        starts = [e for e in events if e.kind == "start"]
        assert [e.clock for e in starts] == [1.0, 3.0, 5.0]
        assert all(e.lane == 0 for e in starts)
        commits = [e for e in events if e.kind == "commit"]
        assert [e.clock for e in commits] == [3.0, 5.0, 7.0]
        schedules = [e for e in events if e.kind == "schedule"]
        assert [e.clock for e in schedules] == [1.0, 1.0, 1.0]

    def test_retry_replaces_schedule(self):
        events = _events("spec", Segment(_tasks(2), round=1, retry=True))
        kinds = {e.kind for e in events}
        assert "schedule" not in kinds
        retries = [e for e in events if e.kind == "retry"]
        assert [e.round for e in retries] == [1, 1]
        # Retries are stamped at each task's own start, not the segment
        # start.
        assert [e.clock for e in retries] == [0.0, 1.0]


class TestWaveLogRows:
    def test_matches_per_wave_emission(self):
        """OCC's waves: wave 0 schedules every task, its aborts re-queue
        as ``retry`` rows at the boundary, in round 1, and commit
        there."""
        tasks = _tasks(4)
        run0 = CoreSimulator(2).run_wave(tasks)
        retried = tasks[2:]
        run1 = CoreSimulator(2).run_wave(retried)
        events = _events(
            "occ",
            Wave(tasks, run0, 0.0, 0, retried),
            Wave(retried, run1, run0.makespan, 1),
        )
        assert len([e for e in events if e.kind == "schedule"]) == 4
        aborts = [e for e in events if e.kind == "abort"]
        assert {e.task for e in aborts} == {"tx2", "tx3"}
        retries = [e for e in events if e.kind == "retry"]
        assert [e.task for e in retries] == ["tx2", "tx3"]
        assert all(
            e.round == 1 and e.clock == run0.makespan for e in retries
        )
        # The retries sit between wave 0's finishes and wave 1's starts.
        kinds = [e.kind for e in events]
        assert kinds.index("retry") > max(
            index for index, kind in enumerate(kinds) if kind == "abort"
        )
        round1_commits = [
            e for e in events if e.kind == "commit" and e.round == 1
        ]
        assert {e.task for e in round1_commits} == {"tx2", "tx3"}

    def test_empty_log_is_noop(self):
        assert timeline_rows(_report("occ"), 3) == []
