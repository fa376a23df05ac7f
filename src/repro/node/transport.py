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
  measures a real network stack.  It pays per burst, not per frame:
  a reader protocol cuts every complete frame out of each chunk that
  arrives, and a sender writes everything queued for a destination
  with one ``write`` and one ``drain``.

On the wire a frame is ``length | header | body``.  The header is a
small ``struct`` record the receiver can read without touching the
body — format version, kind code, hops, ``src`` and the item's ``key``
(tx or block hash) — so the node dedups on the key *before* paying for
a decode.  The body is the pickled originating frame: it is encoded
once, where the item enters the network, and relays forward the bytes
they received.  A block body is a :class:`WireBlock`: the header and,
per transaction, its hash and its own pickled bytes, so a receiver
resolves the transactions it already pools by hash and unpickles only
the rest (:meth:`Frame.block`).  The body is still pickle, so the TCP
transport is for trusted peers only; what the header buys is that a
frame which breaks the format is dropped and counted instead of
raising out of the reader.

Fault injection happens **per send** on the sender's side (loss before
duplication before delay draws), mirroring how an unreliable link
drops a datagram before the receiver ever schedules it.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro import obs
from repro.chain.block import Block, BlockHeader

KINDS = ("tx", "block", "announce", "pull_chain", "chain", "pull_txs")
WIRE_VERSION = 2
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


class WireBlock(NamedTuple):
    """A block as a TCP ``block`` frame carries it: the header, and for
    each transaction ``(tx_hash, its own pickled bytes)``."""

    header: BlockHeader
    transactions: tuple[tuple[str, bytes], ...]


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
    the bytes are not a pickled frame of the same kind; a ``block``
    frame's payload is then a :class:`WireBlock`).  The encoded body is
    kept on the frame so every destination of one relay, and every
    node the item is forwarded through, shares one encode.
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
            origin = self._loads(self._body)
            if type(origin) is not Frame or origin.kind != self.kind:
                raise MalformedFrame("body is not a frame of the header's kind")
            payload = origin._payload
            if self.kind == "block" and type(payload) is not WireBlock:
                raise MalformedFrame("block body is not a wire block")
            self._payload = payload
        return payload

    def block(self, held: Callable[[str], object | None]) -> Block:
        """The block a ``block`` frame carries.

        A block built in this process (any frame a
        :class:`MemoryTransport` delivers) is returned as it is.  A
        :class:`WireBlock` from the socket resolves each transaction to
        ``held(tx_hash)`` — the receiver's own copy — and unpickles
        only those it does not hold, each of which must carry its
        listed hash (else :class:`MalformedFrame`).
        """
        payload = self.payload
        if type(payload) is not WireBlock:
            return payload
        txs = []
        for tx_hash, body in payload.transactions:
            tx = held(tx_hash)
            if tx is None:
                tx = self._loads(body)
                if getattr(tx, "tx_hash", None) != tx_hash:
                    raise MalformedFrame(
                        "inline transaction is not its listed hash"
                    )
            txs.append(tx)
        return Block(payload.header, tuple(txs))

    def _loads(self, body: bytes) -> object:
        self._stats.decoded += 1
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise MalformedFrame(f"undecodable body: {exc!r}") from exc

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
    frame for the next destination.  A block is pickled as a
    :class:`WireBlock`: one ``pickle.dumps`` per transaction, then one
    for the frame.
    """
    wire = frame._wire
    if wire is None:
        body = frame._body
        if body is None:
            origin = frame
            if frame.kind == "block":
                block = frame._payload
                origin = Frame("block", frame.src, WireBlock(
                    block.header,
                    tuple(
                        (tx.tx_hash, pickle.dumps(tx))
                        for tx in block.transactions
                    ),
                ), frame.hops)
                stats.encoded += len(block.transactions)
            body = frame._body = pickle.dumps(origin)
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
    side.  The TCP wire path adds: ``encoded`` bodies pickled (a frame's,
    and each transaction's inside a block frame), ``forwarded`` frames
    relayed with the body bytes they were received as, ``decoded``
    bodies unpickled (likewise), and ``malformed`` frames dropped for
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


class _FrameReader(asyncio.Protocol):
    """One inbound connection: every complete frame in what arrives is
    cut out of one buffer, header-parsed and queued in the order it
    came.  A frame still incomplete stays in the buffer; it is only
    copied out once whole, so one arriving in many chunks costs no
    more than one arriving in one."""

    def __init__(self, owner: TcpTransport, inbox: asyncio.Queue) -> None:
        self._owner = owner
        self._inbox = inbox
        self._buffer = bytearray()
        self._conn: asyncio.BaseTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._conn = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        stats = self._owner.stats
        at, end = 0, len(buffer)
        while end - at >= _LEN.size:
            (length,) = _LEN.unpack_from(buffer, at)
            if length > MAX_FRAME:
                # Nothing after a bogus length can be trusted as a
                # frame boundary, so the connection ends here.
                self._owner._malformed()
                buffer.clear()
                self._conn.close()
                return
            start = at + _LEN.size
            if end - start < length:
                break
            at = start + length
            try:
                self._inbox.put_nowait(
                    decode_frame(bytes(buffer[start:at]), stats)
                )
            except MalformedFrame:
                self._owner._malformed()
        del buffer[:at]

    def connection_lost(self, exc: Exception | None) -> None:
        if self._buffer:
            # The connection ended inside a frame.
            self._owner._malformed()
            self._buffer.clear()


class TcpTransport:
    """Header-first frames over asyncio loopback sockets.

    Each node gets a listening server on an ephemeral 127.0.0.1 port;
    each (sender-process, destination) pair shares one ordered
    connection fed by an outgoing queue, so per-destination frame
    order is preserved — the property the block sync path assumes.

    ``send`` puts finished wire bytes on the queue: a frame's body is
    pickled at most once (not at all when it was received as bytes) and
    the assembled bytes serve every destination of the same frame
    (:func:`encode_frame`).  The sender writes whatever is queued when
    it runs as one joined ``write`` and awaits one ``drain``; the
    reader (:class:`_FrameReader`) parses only headers
    (:func:`decode_frame`), every frame of a chunk in one call.
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
        loop = asyncio.get_running_loop()
        for node_id, inbox in self._inboxes.items():
            server = await loop.create_server(
                lambda q=inbox: _FrameReader(self, q), self._host, 0,
            )
            self._servers[node_id] = server
            self._ports[node_id] = server.sockets[0].getsockname()[1]

    def _malformed(self) -> None:
        self.stats.malformed += 1
        if obs.enabled():
            obs.counter("node.net.malformed").inc()

    async def _sender(self, dst: str) -> None:
        queue = self._out[dst]
        _reader, writer = await asyncio.open_connection(
            self._host, self._ports[dst]
        )
        try:
            while True:
                burst = [await queue.get()]
                while not queue.empty():
                    burst.append(queue.get_nowait())
                closing = _CLOSE in burst
                if closing:
                    del burst[burst.index(_CLOSE):]
                if burst:
                    writer.write(b"".join(burst))
                    await writer.drain()
                if closing:
                    break
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
