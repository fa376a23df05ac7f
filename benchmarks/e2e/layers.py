"""Per-layer tracing from outside: timing wrappers on public entry points.

A traced run installs wrappers on a fixed table of public functions and
methods - each patched where its caller looks it up, each restored on
exit - and keeps one span per call in memory: ``(name, start, end,
parent, ident)``.  The benchmark's own files add spans around their
direct calls into a layer with :meth:`Tracer.span`.  A span's name is
``<layer>.<what>``; a layer's *self time* is its spans' durations minus
the part their child spans cover, so the layers of one section add up
to the section.  Counts are taken from what the calls return or raise
(bytes pickled, submissions refused, transactions packed), so ratios
are measured where the work happens.

Nothing under ``src/`` knows about any of this, and end-to-end numbers
never come from a traced run: the wrappers cost time (reported as
``bench.trace_overhead_ratio``).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


RAISED = object()


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ident=None):
        spans = self.spans
        stack = self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            spans[index] = (name, started, ended, parent, ident)

    def wrap(self, name: str, fn, note=None, ident=None):
        """*fn* timed as span *name*.

        ``note(counts, args, result)`` books counts from what the call
        returned (``result`` is :data:`RAISED` when it raised);
        ``ident(args)`` names the transaction or block.
        """
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = RAISED
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (
                    name, started, ended, parent,
                    ident(args) if ident is not None else None,
                )
                if note is not None:
                    note(counts, args, result)

        traced.__wrapped__ = fn
        return traced

    # -- reading --------------------------------------------------------------

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self seconds per span name, over the subtree of span *root*
        (every span when *root* is ``None``)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        inside = [root is None] * len(spans)
        for index, (_name, started, ended, parent, _ident) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += ended - started
                if inside[parent]:
                    inside[index] = True
            if index == root:
                inside[index] = True
        totals: dict[str, float] = defaultdict(float)
        for index, (name, started, ended, _parent, _ident) in enumerate(spans):
            if inside[index]:
                totals[name] += (ended - started) - child_time[index]
        return dict(totals)

    def calls(self, name: str, since: int = 0) -> int:
        """Spans called *name* among those opened from index *since*."""
        return sum(1 for span in self.spans[since:] if span[0] == name)

    def total(self, name: str, since: int = 0) -> float:
        """Seconds inside spans called *name*, children included."""
        return sum(
            span[2] - span[1] for span in self.spans[since:] if span[0] == name
        )

    def last(self, name: str) -> int:
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == name:
                return index
        raise KeyError(name)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, started, ended, parent, ident) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": started,
                    "end": ended, "parent": parent, "ident": ident,
                }) + "\n")


def layer_shares(self_times: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer (the part of a span name before the dot)."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in self_times.items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


# -- the patch table ----------------------------------------------------------


def _note_frame(counts, args, result) -> None:
    frame = args[0]
    kind = getattr(frame, "kind", "other")
    counts[f"frames.{kind}"] += 1
    counts[f"bytes.{kind}"] += len(result)
    if kind == "block":
        counts["block_frame_txs"] += len(frame.payload.transactions)


def _note_submit(counts, _args, result) -> None:
    if result is RAISED:
        counts["mempool.rejected"] += 1


def _note_pack(counts, _args, result) -> None:
    counts["mempool.packed"] += len(result)


def _note_build(counts, args, _result) -> None:
    counts["chain.built_txs"] += len(args[0])


def _note_round(counts, _args, result) -> None:
    counts["pbft.messages"] += result.messages_sent


def _tx_hash(args):
    """``(self, entry-or-transaction)`` -> the transaction's hash."""
    return args[1].tx_hash


def _block_of_replay(args):
    return f"block-{args[1].height}"


class _TimedPickle:
    """Stands in for the ``pickle`` module inside ``repro.node.transport``."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._real = real
        self.dumps = tracer.wrap("transport.encode", real.dumps, _note_frame)
        self.loads = tracer.wrap("transport.decode", real.loads)

    def __getattr__(self, name):
        return getattr(self._real, name)


# (module, class or None, attribute, span name, note, ident)
PATCHES = (
    ("repro.vm.vm", "VM", "execute_transaction", "vm.trace", None, None),
    ("repro.core.pipeline", None, "utxo_tdg", "core.tdg", None, None),
    ("repro.core.pipeline", None, "account_tdg", "core.tdg", None, None),
    ("repro.core.pipeline", None, "compute_block_metrics",
     "core.metrics", None, None),
    ("repro.core.parallel", None, "analyze_utxo_block",
     "core.block", None, None),
    ("repro.core.parallel", None, "analyze_account_block",
     "core.block", None, None),
    ("repro.node.node", "Node", "submit_tx", "node.submit_tx",
     None, _tx_hash),
    ("repro.node.node", None, "replay_single_block",
     "execution.single_block", None, _block_of_replay),
    ("repro.node.node", None, "build_block", "chain.build_block",
     _note_build, None),
    ("repro.node.node", None, "profile_events", "obs.profile_events",
     None, None),
    ("repro.node.node", None, "stitch_execution_events",
     "obs.stitch_events", None, None),
    ("repro.mempool.pool", "Mempool", "submit", "mempool.submit",
     _note_submit, _tx_hash),
    ("repro.mempool.pool", "Mempool", "pack_block", "mempool.pack",
     _note_pack, None),
    ("repro.chain.forkchoice", "ForkChoice", "receive",
     "chain.forkchoice_receive", None, None),
    ("repro.network.gossip", "BoundedSeenCache", "add",
     "network.seen_add", None, None),
    ("repro.consensus.pow", "PoWSimulator", "next_slot",
     "consensus.pow_slot", None, None),
    ("repro.consensus.pbft", "PBFTCommittee", "run_round",
     "consensus.pbft_round", _note_round, None),
    ("repro.node.transport", "MemoryTransport", "send",
     "transport.send", None, None),
    ("repro.node.transport", "TcpTransport", "send",
     "transport.send", None, None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry of :data:`PATCHES`; restore them on exit."""
    undo = []
    try:
        for module_name, owner, attr, name, note, ident in PATCHES:
            target = importlib.import_module(module_name)
            if owner is not None:
                target = getattr(target, owner)
            original = getattr(target, attr)
            setattr(target, attr, tracer.wrap(name, original, note, ident))
            undo.append((target, attr, original))
        pool = importlib.import_module("repro.mempool.pool").Mempool
        timed_submit = pool.submit

        def submit(self, entry):
            # Whatever an admission pushed out is an eviction (the
            # pool reports them only through ``repro.obs``).
            before = len(self)
            timed_submit(self, entry)
            tracer.counts["mempool.evicted"] += before + 1 - len(self)

        pool.submit = submit
        transport = importlib.import_module("repro.node.transport")
        undo.append((transport, "pickle", transport.pickle))
        transport.pickle = _TimedPickle(tracer, transport.pickle)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
