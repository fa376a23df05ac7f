"""Perf-regression gate: deterministic snapshots diffed against a baseline.

The simulation is deterministic: under a fixed seed, every conflict
count, simulated wall time, abort tally and timeline event is a pure
function of the code.  That makes perf regressions *exactly* detectable
— no statistical noise bands needed — by snapshotting a canonical
instrumented workload and diffing it against a checked-in baseline:

1. :func:`build_snapshot` replays a seeded chain through the execution
   engines under full instrumentation and reduces the result to a flat,
   JSON-stable document: deterministic metric values (real-time
   histograms are reduced to their counts), per-executor timeline
   aggregates (makespan, critical path, aborts, utilization) and
   measured-vs-Eq. 2 bound checks.
2. :func:`compare_snapshots` diffs a fresh snapshot against the
   baseline, key by key, under per-metric tolerance bands
   (:class:`Tolerance`; exact by default, glob-pattern overrides).  Any
   out-of-band drift — higher *or* lower — is a regression: the gate
   protects determinism and the analytical invariants, not just "don't
   get slower".
3. ``repro.cli regress`` wires this into CI: exit 0 when the fresh run
   matches the baseline, 1 on any regression, 2 on usage errors; the
   checked-in baseline under ``tests/obs/baseline/`` is refreshed with
   ``--update`` when a change *intends* to shift the numbers.

Like :mod:`repro.obs.critical_path`, this module imports the execution
and workload layers and therefore must never be imported from
``repro.obs.__init__``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Mapping, Sequence

from repro import obs
from repro.execution.parallel_replay import replay_block_inputs
from repro.execution.registry import (
    ENGINES as EXECUTOR_CHOICES,
    PREDICTION_ENGINES,
    run_engine,
    validate_engines,
)
from repro.execution.schedule import timeline_rows
from repro.obs.critical_path import (
    TimelineProfile,
    compare_to_bounds,
    profile_events,
    task_conflict_profile,
)
from repro.node.network import NodeNetwork, lifecycle_config
from repro.obs.lifecycle import join_shard_traces, stage_breakdown
from repro.obs.timeline import as_events

SNAPSHOT_SCHEMA_VERSION = 1

DEFAULT_CHAIN = "ethereum"
DEFAULT_BLOCKS = 10
DEFAULT_CORES = 4
DEFAULT_SEED = 2020
DEFAULT_EXECUTORS = (
    "speculative",
    "speculative-informed",
    "occ",
    "grouped",
    "static-informed",
    "static-grouped",
    "dag",
)

# Histogram families measured in real time (host-dependent seconds)
# keep only their observation counts in a snapshot; everything else in
# the registry is simulated units and fully deterministic.  Lifecycle
# stage histograms are simulated seconds on the pipeline clock, so
# their names deliberately avoid these markers and their sums gate.
_REALTIME_MARKERS = ("seconds", "_ns", "duration")

# Metric families the lifecycle pipeline pass contributes to the main
# snapshot.  The pass replays the executors a second time, so its
# exec.*/tdg.* recordings are dropped — merging them would double-count
# the canonical executor pass above.
_LIFECYCLE_METRIC_PREFIXES = (
    "lifecycle.", "mempool.", "gossip.", "consensus.", "sharding.",
)


# -- snapshot construction ----------------------------------------------------


def deterministic_metrics(
    snapshot: Mapping[str, Mapping[str, object]],
) -> dict[str, dict[str, object]]:
    """Reduce a registry snapshot to its deterministic content.

    Counters and gauges pass through; histograms keep ``count`` always
    and ``sum``/``min``/``max`` only when their name is in simulated
    units (real-time families — names containing ``seconds``/``_ns``/
    ``duration`` — vary run to run and would make the gate flap).
    """
    out: dict[str, dict[str, object]] = {
        "counters": dict(snapshot["counters"]),
        "gauges": dict(snapshot["gauges"]),
        "histograms": {},
    }
    for key, summary in snapshot["histograms"].items():
        realtime = any(marker in key for marker in _REALTIME_MARKERS)
        entry: dict[str, object] = {"count": summary["count"]}
        if not realtime and summary["count"]:
            entry["sum"] = summary["sum"]
            entry["min"] = summary["min"]
            entry["max"] = summary["max"]
        out["histograms"][key] = entry
    return out


def build_snapshot(
    *,
    chain: str = DEFAULT_CHAIN,
    blocks: int = DEFAULT_BLOCKS,
    cores: int = DEFAULT_CORES,
    seed: int = DEFAULT_SEED,
    executors: Sequence[str] = DEFAULT_EXECUTORS,
) -> dict[str, object]:
    """Run the canonical instrumented workload; return its snapshot.

    Raises :class:`ValueError` on an unknown chain or executor name and
    on ``cores``/``blocks`` < 1 (the CLI maps these to exit 2).
    """
    from repro.workload.profiles import PROFILES_BY_NAME

    try:
        profile = PROFILES_BY_NAME[chain]
    except KeyError:
        known = ", ".join(sorted(PROFILES_BY_NAME))
        raise ValueError(
            f"unknown chain {chain!r}; known chains: {known}"
        ) from None
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if cores < 1:
        raise ValueError("cores must be at least 1")
    executors = validate_engines(executors)

    bound_checks: dict[str, dict[str, float]] = {}
    # Per executor: one timeline profile per block, and the event count.
    profiles: dict[str, list[TimelineProfile]] = {}
    events: dict[str, int] = {}
    with obs.instrumented() as state:
        # One chain build inside the instrumented scope: its consensus.*
        # counters gate, and so do the staticcheck.* counters of the
        # prediction pass the two static executors need.
        for block in replay_block_inputs(
            profile, blocks=blocks, seed=seed,
            predict=not PREDICTION_ENGINES.isdisjoint(executors),
        ):
            if not block.tasks:
                continue
            conflict = task_conflict_profile(block.tasks)
            reports = [
                (name, run_engine(name, block, cores))
                for name in executors
            ]
            for name, report in reports:
                comparison = compare_to_bounds(report, conflict)
                stats = bound_checks.setdefault(
                    name,
                    {"blocks": 0, "measured_sum": 0.0,
                     "eq2_sum": 0.0, "eq2_exceeded": 0},
                )
                stats["blocks"] += 1
                stats["measured_sum"] += comparison.measured
                stats["eq2_sum"] += comparison.eq2
                if not comparison.within_eq2:
                    stats["eq2_exceeded"] += 1
                block_events = as_events(
                    timeline_rows(report, block.height)
                )
                events[name] = events.get(name, 0) + len(block_events)
                profiles.setdefault(name, []).append(
                    profile_events(block_events)
                )

        timeline: dict[str, dict[str, object]] = {}
        for name, block_profiles in profiles.items():
            timeline[name] = {
                "events": events[name],
                "executions": sum(p.executions for p in block_profiles),
                "aborted": sum(p.aborted for p in block_profiles),
                "retries": sum(p.retries for p in block_profiles),
                "makespan_total": sum(
                    p.makespan for p in block_profiles
                ),
                "critical_path_total": sum(
                    p.critical_chain_cost for p in block_profiles
                ),
                "mean_utilization": (
                    sum(p.mean_utilization for p in block_profiles)
                    / len(block_profiles)
                ),
            }
        # Lifecycle pass: the same seeded workload end to end on the
        # virtual node network (mempool → gossip → consensus →
        # execution) under a NESTED instrumented scope, so its
        # executor replays cannot bleed into the timeline/bounds
        # sections above.  Only the pipeline-stage metric families
        # merge back.
        with obs.instrumented() as life_state:
            network = NodeNetwork(lifecycle_config(
                chain, blocks=blocks, seed=seed, cores=cores, engine="dag",
            )).run()
            traces = join_shard_traces(life_state.lifecycle.traces())
        state.registry.merge_dump(
            record for record in life_state.registry.dump()
            if str(record["name"]).startswith(_LIFECYCLE_METRIC_PREFIXES)
        )
        outcomes = [trace.outcome for trace in traces]
        lifecycle_section: dict[str, object] = {
            "admitted": network.injected,
            "committed": outcomes.count("committed"),
            "dropped": outcomes.count("dropped"),
            "open": outcomes.count(None),
            "stages": {
                stage: {
                    "count": stats.count,
                    "sum": round(stats.total, 9),
                }
                for stage, stats in stage_breakdown(traces).items()
            },
        }

        metrics = deterministic_metrics(state.registry.snapshot())

    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "workload": {
            "chain": chain,
            "blocks": blocks,
            "cores": cores,
            "seed": seed,
            "executors": list(executors),
        },
        "metrics": metrics,
        "timeline": timeline,
        "bounds": bound_checks,
        "lifecycle": lifecycle_section,
    }


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class Tolerance:
    """Allowed absolute/relative deviation for matching keys."""

    rel: float = 0.0
    abs: float = 0.0

    def allowed(self, baseline: float) -> float:
        return max(self.abs, self.rel * abs(baseline))


EXACT = Tolerance()


def flatten_snapshot(
    snapshot: Mapping[str, object], prefix: str = ""
) -> dict[str, object]:
    """Nested snapshot dicts to dotted scalar keys (lists join by ',')."""
    flat: dict[str, object] = {}
    for key, value in snapshot.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(flatten_snapshot(value, path))
        elif isinstance(value, (list, tuple)):
            flat[path] = ",".join(str(item) for item in value)
        else:
            flat[path] = value
    return flat


@dataclass(frozen=True)
class RegressionEntry:
    """One compared key: baseline vs fresh value and its verdict."""

    key: str
    baseline: object
    current: object
    status: str  # ok | high | low | changed | missing | new
    allowed: float = 0.0

    @property
    def is_regression(self) -> bool:
        return self.status in ("high", "low", "changed", "missing")


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one baseline comparison."""

    entries: tuple[RegressionEntry, ...]

    @property
    def regressions(self) -> list[RegressionEntry]:
        return [e for e in self.entries if e.is_regression]

    @property
    def new_keys(self) -> list[RegressionEntry]:
        return [e for e in self.entries if e.status == "new"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Human-readable verdict: regressions first, then a summary."""
        lines: list[str] = []
        for entry in self.regressions:
            lines.append(
                f"REGRESSION [{entry.status}] {entry.key}: "
                f"baseline={entry.baseline!r} current={entry.current!r} "
                f"(allowed ±{entry.allowed:g})"
            )
        for entry in self.new_keys:
            lines.append(
                f"note [new] {entry.key}: {entry.current!r} "
                "(absent from baseline; refresh with --update)"
            )
        compared = len(self.entries) - len(self.new_keys)
        lines.append(
            f"{'OK' if self.ok else 'FAIL'}: "
            f"{compared} keys compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.new_keys)} new"
        )
        return "\n".join(lines)


def tolerances_from_spec(
    spec: Mapping[str, Mapping[str, float]],
) -> dict[str, Tolerance]:
    """Parse a baseline file's ``tolerances`` section.

    ``{"<glob>": {"rel": 0.05}, "<glob>": {"abs": 2}}`` — unknown keys
    raise :class:`ValueError` so typos fail loudly instead of silently
    widening the gate.
    """
    parsed: dict[str, Tolerance] = {}
    for pattern, band in spec.items():
        unknown = set(band) - {"rel", "abs"}
        if unknown:
            raise ValueError(
                f"tolerance {pattern!r}: unknown keys {sorted(unknown)}"
            )
        parsed[pattern] = Tolerance(
            rel=float(band.get("rel", 0.0)),
            abs=float(band.get("abs", 0.0)),
        )
    return parsed


def _tolerance_for(
    key: str, tolerances: Mapping[str, Tolerance]
) -> Tolerance:
    for pattern, tolerance in tolerances.items():
        if fnmatch(key, pattern):
            return tolerance
    return EXACT


def compare_snapshots(
    baseline: Mapping[str, object],
    fresh: Mapping[str, object],
    *,
    tolerances: Mapping[str, Tolerance] | None = None,
) -> RegressionReport:
    """Diff *fresh* against *baseline* key by key.

    Numeric keys compare within the first glob-matching tolerance band
    (exact by default); non-numeric keys must match exactly
    (``changed``).  Keys missing from the fresh run are ``missing``
    (regressions — a metric silently disappearing is exactly the
    blind-spot class this PR closes); keys only in the fresh run are
    ``new`` (informational).
    """
    tolerances = tolerances or {}
    base_flat = flatten_snapshot(baseline)
    fresh_flat = flatten_snapshot(fresh)
    entries: list[RegressionEntry] = []
    for key in sorted(base_flat):
        expected = base_flat[key]
        if key not in fresh_flat:
            entries.append(RegressionEntry(key, expected, None, "missing"))
            continue
        actual = fresh_flat[key]
        numeric = (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and not isinstance(expected, bool)
            and not isinstance(actual, bool)
        )
        if numeric:
            allowed = _tolerance_for(key, tolerances).allowed(
                float(expected)
            )
            delta = float(actual) - float(expected)
            if abs(delta) <= allowed + 1e-12:
                status = "ok"
            else:
                status = "high" if delta > 0 else "low"
            entries.append(
                RegressionEntry(key, expected, actual, status, allowed)
            )
        else:
            status = "ok" if actual == expected else "changed"
            entries.append(RegressionEntry(key, expected, actual, status))
    for key in sorted(set(fresh_flat) - set(base_flat)):
        entries.append(RegressionEntry(key, None, fresh_flat[key], "new"))
    return RegressionReport(entries=tuple(entries))


# -- persistence --------------------------------------------------------------


def write_snapshot(path: str | Path, snapshot: Mapping[str, object]) -> None:
    """Write a snapshot as stable JSON (sorted keys, trailing newline)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )


def load_snapshot(path: str | Path) -> dict[str, object]:
    """Read a snapshot, rejecting unknown schema versions."""
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported snapshot schema version {version!r} "
            f"(expected {SNAPSHOT_SCHEMA_VERSION})"
        )
    return data


__all__ = [
    "DEFAULT_BLOCKS",
    "DEFAULT_CHAIN",
    "DEFAULT_CORES",
    "DEFAULT_EXECUTORS",
    "DEFAULT_SEED",
    "EXACT",
    "EXECUTOR_CHOICES",
    "SNAPSHOT_SCHEMA_VERSION",
    "RegressionEntry",
    "RegressionReport",
    "Tolerance",
    "build_snapshot",
    "compare_snapshots",
    "deterministic_metrics",
    "flatten_snapshot",
    "load_snapshot",
    "tolerances_from_spec",
    "write_snapshot",
]
