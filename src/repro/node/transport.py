"""Pluggable node transports: seeded in-memory faults and real TCP.

Both transports present one surface to the node layer — ``register``
an inbox per node, fire-and-forget ``send(dst, frame)``, and async
``start``/``close`` — so the node service loops never know which wire
they are on:

* :class:`MemoryTransport` — frames travel through the runtime's
  queues with *seeded* latency, jitter, loss, duplication and
  reordering drawn from one ``random.Random``.  Under the virtual
  runtime the send sequence is deterministic, so the fault schedule
  is too: the same seed yields the same drops and arrival order,
  byte-for-byte, which is what the convergence property suite leans
  on.
* :class:`TcpTransport` — header-first frames over real asyncio
  loopback sockets, one ordered connection per destination.  Nothing
  about it is deterministic; it exists so the throughput bench
  measures a real network stack.

On the wire a frame is ``length | header | body``.  The header is a
small ``struct`` record the receiver can read without touching the
body — format version, kind code, hops, ``src`` and the item's ``key``
(tx or block hash) — so the node dedups on the key *before* paying for
a decode.  The body is the pickled originating frame: it is encoded
once, where the item enters the network, and relays forward the bytes
they received.  The body is still pickle, so the TCP transport is for
trusted peers only; what the header buys is that a frame which breaks
the format is dropped and counted instead of raising out of the reader.

Fault injection happens **per send** on the sender's side (loss before
duplication before delay draws), mirroring how an unreliable link
drops a datagram before the receiver ever schedules it.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
from dataclasses import dataclass, field

from repro import obs

KINDS = ("tx", "block", "announce", "pull_chain", "chain", "pull_txs")
WIRE_VERSION = 1
MAX_FRAME = 1 << 26   # header + body; a longer length prefix ends the connection
MAX_HOPS = 0xFFFF

_LEN = struct.Struct(">I")
# version, kind code, hops, len(src), len(key); src and key bytes follow.
_HEAD = struct.Struct(">BBHBB")
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_CLOSE = object()
_UNDECODED = object()


class MalformedFrame(ValueError):
    """Bytes from a peer that break the wire format."""


class Frame:
    """One gossip/protocol message.

    ``kind`` is the protocol verb (one of :data:`KINDS`), ``src`` the
    sending node id, ``payload`` verb-specific, and ``hops`` the relay
    depth — lifecycle ``relayed`` events carry it so traces expose how
    far a transaction travelled.  ``key`` names the item a ``tx`` or
    ``block`` frame carries (its hash) and is empty for the other
    verbs; receivers dedup on it without reading the payload.

    A frame read from a socket holds its body as bytes and decodes
    ``payload`` on first access (raising :class:`MalformedFrame` when
    the bytes are not a pickled frame of the same kind).  The encoded
    body is kept on the frame so every destination of one relay, and
    every node the item is forwarded through, shares one encode.
    """

    __slots__ = (
        "kind", "src", "hops", "key", "_payload", "_body", "_wire", "_stats",
    )

    def __init__(self, kind: str, src: str, payload: object,
                 hops: int = 0, *, key: str = "") -> None:
        self.kind = kind
        self.src = src
        self.hops = hops
        self.key = key
        self._payload = payload
        self._body: bytes | None = None
        self._wire: bytes | None = None
        self._stats: TransportStats | None = None

    @property
    def payload(self) -> object:
        payload = self._payload
        if payload is _UNDECODED:
            self._stats.decoded += 1
            try:
                origin = pickle.loads(self._body)
            except Exception as exc:
                raise MalformedFrame(f"undecodable body: {exc!r}") from exc
            if type(origin) is not Frame or origin.kind != self.kind:
                raise MalformedFrame("body is not a frame of the header's kind")
            payload = self._payload = origin._payload
        return payload

    def forward(self, src: str) -> Frame:
        """This item as relayed by *src*: one hop further, same key,
        same payload and body bytes — nothing is re-encoded."""
        frame = Frame(
            self.kind, src, self._payload,
            min(self.hops + 1, MAX_HOPS), key=self.key,
        )
        frame._body = self._body
        frame._stats = self._stats
        return frame

    def __reduce__(self):
        # The body on the wire: what the originator built, nothing cached.
        return (Frame, (self.kind, self.src, self.payload, self.hops))

    def __repr__(self) -> str:
        return (
            f"Frame({self.kind!r}, {self.src!r}, hops={self.hops}, "
            f"key={self.key!r})"
        )


def encode_frame(frame: Frame, stats: TransportStats) -> bytes:
    """*frame* as ``length | header | body``, built once per frame.

    The body is pickled only when the frame does not already carry the
    bytes it was received as, and both it and the result stay on the
    frame for the next destination.
    """
    wire = frame._wire
    if wire is None:
        body = frame._body
        if body is None:
            body = frame._body = pickle.dumps(frame)
            stats.encoded += 1
        else:
            stats.forwarded += 1
        src = frame.src.encode()
        key = frame.key.encode()
        header = _HEAD.pack(
            WIRE_VERSION, _KIND_CODE[frame.kind], frame.hops,
            len(src), len(key),
        )
        wire = frame._wire = b"".join((
            _LEN.pack(len(header) + len(src) + len(key) + len(body)),
            header, src, key, body,
        ))
    return wire


def decode_frame(data: bytes, stats: TransportStats) -> Frame:
    """Parse the header of one received frame (*data* is what follows
    the length prefix); the body stays bytes.

    Raises :class:`MalformedFrame` on an unknown version or kind code,
    a header that overruns *data*, or an undecodable ``src``/``key``.
    """
    if len(data) < _HEAD.size:
        raise MalformedFrame("shorter than a header")
    version, code, hops, src_len, key_len = _HEAD.unpack_from(data)
    if version != WIRE_VERSION:
        raise MalformedFrame(f"unknown wire version {version}")
    if code >= len(KINDS):
        raise MalformedFrame(f"unknown kind code {code}")
    key_at = _HEAD.size + src_len
    body_at = key_at + key_len
    if body_at > len(data):
        raise MalformedFrame("header overruns the frame")
    try:
        src = data[_HEAD.size:key_at].decode()
        key = data[key_at:body_at].decode()
    except UnicodeDecodeError as exc:
        raise MalformedFrame("src/key is not UTF-8") from exc
    frame = Frame(KINDS[code], src, _UNDECODED, hops, key=key)
    frame._body = data[body_at:]
    frame._stats = stats
    return frame


@dataclass(frozen=True)
class FaultProfile:
    """Seeded link-fault schedule for the memory transport."""

    latency: float = 0.01
    jitter: float = 0.5
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 4.0

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError("latency must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        for name in ("loss", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")


@dataclass
class TransportStats:
    """Frame accounting (kept even with obs disabled).

    ``sent`` / ``lost`` / ``duplicated`` count sends on the sender's
    side.  The TCP wire path adds: ``encoded`` bodies pickled,
    ``forwarded`` frames relayed with the body bytes they were received
    as, ``decoded`` bodies unpickled, and ``malformed`` frames dropped for
    breaking the wire format.
    """

    sent: int = 0
    lost: int = 0
    duplicated: int = 0
    encoded: int = 0
    forwarded: int = 0
    decoded: int = 0
    malformed: int = 0


class MemoryTransport:
    """In-process queues with a seeded fault schedule."""

    def __init__(self, runtime, *, faults: FaultProfile | None = None,
                 seed: int = 0) -> None:
        self._runtime = runtime
        self.faults = faults if faults is not None else FaultProfile()
        self._rng = random.Random(f"{seed}|transport")
        self._inboxes: dict[str, object] = {}
        self.stats = TransportStats()

    def register(self, node_id: str):
        if node_id in self._inboxes:
            raise ValueError(f"node {node_id!r} already registered")
        inbox = self._runtime.new_queue()
        self._inboxes[node_id] = inbox
        return inbox

    async def start(self) -> None:
        return None

    async def close(self) -> None:
        return None

    def _delay(self) -> float:
        faults = self.faults
        spread = faults.jitter
        delay = faults.latency * (
            1.0 - spread + 2.0 * spread * self._rng.random()
        )
        if faults.reorder and self._rng.random() < faults.reorder:
            delay += (
                faults.latency * faults.reorder_delay * self._rng.random()
            )
        return delay

    def send(self, dst: str, frame: Frame) -> None:
        inbox = self._inboxes.get(dst)
        if inbox is None:
            raise KeyError(f"unknown destination {dst!r}")
        self.stats.sent += 1
        if obs.enabled():
            obs.counter("node.net.sent").inc()
        rng = self._rng
        faults = self.faults
        if faults.loss and rng.random() < faults.loss:
            self.stats.lost += 1
            if obs.enabled():
                obs.counter("node.net.lost").inc()
            return
        copies = 1
        if faults.duplicate and rng.random() < faults.duplicate:
            copies = 2
            self.stats.duplicated += 1
            if obs.enabled():
                obs.counter("node.net.duplicated").inc()
        for _ in range(copies):
            self._runtime.call_later(
                self._delay(), lambda: inbox.put_nowait(frame)
            )


class TcpTransport:
    """Header-first frames over asyncio loopback sockets.

    Each node gets a listening server on an ephemeral 127.0.0.1 port;
    each (sender-process, destination) pair shares one ordered
    connection fed by an outgoing queue, so per-destination frame
    order is preserved — the property the block sync path assumes.

    ``send`` puts finished wire bytes on the queue: a frame's body is
    pickled at most once (not at all when it was received as bytes) and
    the assembled bytes serve every destination of the same frame
    (:func:`encode_frame`).  The reader parses only the header
    (:func:`decode_frame`).
    """

    def __init__(self, runtime, *, host: str = "127.0.0.1") -> None:
        self._runtime = runtime
        self._host = host
        self._inboxes: dict[str, asyncio.Queue] = {}
        self._servers: dict[str, asyncio.AbstractServer] = {}
        self._ports: dict[str, int] = {}
        self._out: dict[str, asyncio.Queue] = {}
        self._senders: dict[str, object] = {}
        self.stats = TransportStats()

    def register(self, node_id: str) -> asyncio.Queue:
        if node_id in self._inboxes:
            raise ValueError(f"node {node_id!r} already registered")
        inbox: asyncio.Queue = asyncio.Queue()
        self._inboxes[node_id] = inbox
        return inbox

    async def start(self) -> None:
        for node_id, inbox in self._inboxes.items():
            server = await asyncio.start_server(
                lambda r, w, q=inbox: self._serve(q, r, w),
                self._host, 0,
            )
            self._servers[node_id] = server
            self._ports[node_id] = server.sockets[0].getsockname()[1]

    def _malformed(self) -> None:
        self.stats.malformed += 1
        if obs.enabled():
            obs.counter("node.net.malformed").inc()

    async def _serve(self, inbox: asyncio.Queue, reader, writer) -> None:
        mid_frame = False
        try:
            while True:
                mid_frame = False
                prefix = await reader.readexactly(_LEN.size)
                mid_frame = True
                (length,) = _LEN.unpack(prefix)
                if length > MAX_FRAME:
                    # Nothing after a bogus length can be trusted as a
                    # frame boundary, so the connection ends here.
                    self._malformed()
                    break
                data = await reader.readexactly(length)
                try:
                    inbox.put_nowait(decode_frame(data, self.stats))
                except MalformedFrame:
                    self._malformed()
        except asyncio.IncompleteReadError as exc:
            if mid_frame or exc.partial:
                self._malformed()
        except ConnectionResetError:
            pass
        finally:
            writer.close()

    async def _sender(self, dst: str) -> None:
        queue = self._out[dst]
        reader, writer = await asyncio.open_connection(
            self._host, self._ports[dst]
        )
        try:
            while True:
                data = await queue.get()
                if data is _CLOSE:
                    break
                writer.write(data)
                await writer.drain()
        finally:
            writer.close()

    def send(self, dst: str, frame: Frame) -> None:
        if dst not in self._inboxes:
            raise KeyError(f"unknown destination {dst!r}")
        self.stats.sent += 1
        if obs.enabled():
            obs.counter("node.net.sent").inc()
        wire = encode_frame(frame, self.stats)
        if len(wire) - _LEN.size > MAX_FRAME:
            # The receiver would end the connection over it.
            self._malformed()
            return
        queue = self._out.get(dst)
        if queue is None:
            queue = asyncio.Queue()
            self._out[dst] = queue
            self._senders[dst] = self._runtime.spawn(
                self._sender(dst), name=f"tcp-sender:{dst}"
            )
        queue.put_nowait(wire)

    async def close(self) -> None:
        for queue in self._out.values():
            queue.put_nowait(_CLOSE)
        if self._senders:
            await asyncio.gather(
                *self._senders.values(), return_exceptions=True
            )
        for server in self._servers.values():
            server.close()
            await server.wait_closed()


__all__ = [
    "KINDS",
    "MAX_FRAME",
    "WIRE_VERSION",
    "FaultProfile",
    "Frame",
    "MalformedFrame",
    "MemoryTransport",
    "TcpTransport",
    "TransportStats",
    "decode_frame",
    "encode_frame",
]
