"""The TCP wire path: header codec, the reader and the sender,
malformed input, dedup before decode, block transactions resolved
from the pool, and the encode/decode budget of a gossiped item."""

from __future__ import annotations

import asyncio
import pickle
import struct
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, build_block
from repro.execution.parallel_replay import ReplayBlock, replay_single_block
from repro.node import (
    AsyncioRuntime,
    Frame,
    MemoryTransport,
    Node,
    NodeConfig,
    NodeTx,
    TcpTransport,
    VirtualRuntime,
    build_node_txs,
    make_genesis,
)
from repro.node import transport as wire
from repro.node.transport import (
    KINDS,
    MAX_FRAME,
    WIRE_VERSION,
    MalformedFrame,
    TransportStats,
    WireBlock,
    decode_frame,
    encode_frame,
)
from repro.workload.profiles import PROFILES_BY_NAME

PROFILE = PROFILES_BY_NAME["ethereum"]
HEAD = struct.Struct(">BBHBB")
LEN = struct.Struct(">I")


@pytest.fixture(scope="module")
def node_txs():
    return build_node_txs(PROFILE, blocks=2, seed=3, scale=0.2)


def _received(frame: Frame, stats: TransportStats | None = None) -> Frame:
    """*frame* as a receiver sees it: header parsed, body still bytes."""
    stats = stats if stats is not None else TransportStats()
    return decode_frame(encode_frame(frame, stats)[LEN.size:], stats)


def _block(txs=()) -> Block:
    """A block on the ethereum genesis: a coinbase marker, then *txs*."""
    coinbase = make_genesis("other").transactions[0]
    return build_block(
        [coinbase, *txs], height=1,
        parent_hash=make_genesis("ethereum").block_hash,
        timestamp=1.0, miner="b",
    )


def _raw(version=WIRE_VERSION, code=0, hops=0, src=b"a", key=b"",
         body=b"", src_len=None, key_len=None) -> bytes:
    """A frame (without the length prefix) with any field forged."""
    return HEAD.pack(
        version, code, hops,
        len(src) if src_len is None else src_len,
        len(key) if key_len is None else key_len,
    ) + src + key + body


class TestHeaderCodec:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_every_kind(self, kind):
        stats = TransportStats()
        # A block frame carries a block; it is pickled as a WireBlock,
        # one body per transaction (here the coinbase) plus the frame's.
        payload = _block() if kind == "block" else {"n": 1}
        bodies = 2 if kind == "block" else 1
        sent = Frame(kind, "node-7", payload, hops=3, key="ab" * 32)
        got = _received(sent, stats)
        assert (got.kind, got.src, got.hops, got.key) == (
            kind, "node-7", 3, "ab" * 32,
        )
        assert stats.decoded == 0          # the header alone gave all that
        if kind == "block":
            assert got.block(lambda _tx_hash: None) == payload
        else:
            assert got.payload == payload
        assert got.payload is got.payload
        assert (stats.encoded, stats.decoded) == (bodies, bodies)

    def test_body_is_the_pickled_originating_frame(self):
        wire_bytes = encode_frame(Frame("tx", "a", [1, 2], hops=1, key="k"),
                                  TransportStats())
        (length,) = LEN.unpack_from(wire_bytes)
        assert length == len(wire_bytes) - LEN.size
        origin = pickle.loads(wire_bytes[LEN.size + HEAD.size + 2:])
        assert (origin.kind, origin.src, origin.payload, origin.hops) == (
            "tx", "a", [1, 2], 1,
        )

    def test_forward_reuses_the_received_bytes(self):
        stats = TransportStats()
        got = _received(Frame("tx", "a", "item", hops=1, key="k"), stats)
        onward = got.forward("b")
        again = decode_frame(
            encode_frame(onward, stats)[LEN.size:], stats
        )
        assert (again.src, again.hops, again.key) == ("b", 2, "k")
        assert again.payload == "item"
        # One encode in all; the relay itself never decoded.
        assert (stats.encoded, stats.forwarded, stats.decoded) == (1, 1, 1)

    def test_one_encode_serves_every_destination(self):
        stats = TransportStats()
        frame = Frame("announce", "a", ("h", 1, ()))
        assert encode_frame(frame, stats) is encode_frame(frame, stats)
        assert stats.encoded == 1

    def test_forward_clamps_hops_to_the_header_field(self):
        got = _received(Frame("tx", "a", 0, hops=0xFFFF, key="k"))
        encode_frame(got.forward("b"), TransportStats())   # must still pack

    @pytest.mark.parametrize("data", [
        b"",
        _raw()[:HEAD.size - 1],
        _raw(version=WIRE_VERSION + 1),
        _raw(code=len(KINDS)),
        _raw(code=255),
        _raw(src=b"abc", src_len=200),
        _raw(key=b"k", key_len=9),
        _raw(src=b"\xff\xfe"),
    ])
    def test_malformed_headers_are_refused(self, data):
        with pytest.raises(MalformedFrame):
            decode_frame(data, TransportStats())

    @pytest.mark.parametrize("body", [
        b"", b"junk", pickle.dumps({"not": "a frame"}),
        pickle.dumps(Frame("block", "a", 1)),      # another kind's body
    ])
    def test_undecodable_body_raises_malformed_on_access(self, body):
        frame = decode_frame(_raw(body=body), TransportStats())
        with pytest.raises(MalformedFrame):
            frame.payload

    def test_a_block_body_must_be_a_wire_block(self):
        body = pickle.dumps(Frame("block", "a", _block(), hops=1))
        frame = decode_frame(
            _raw(code=KINDS.index("block"), body=body), TransportStats()
        )
        with pytest.raises(MalformedFrame):
            frame.block(lambda _tx_hash: None)

    def test_a_block_resolves_held_transactions_and_decodes_the_rest(
        self, node_txs
    ):
        held, missing = node_txs[0], node_txs[1]
        stats = TransportStats()
        block = _block([held, missing])
        got = _received(Frame("block", "b", block, key=block.block_hash),
                        stats)
        assert type(got.payload) is WireBlock
        assert [tx_hash for tx_hash, _body in got.payload.transactions] == [
            tx.tx_hash for tx in block.transactions
        ]
        resolved = got.block({held.tx_hash: held}.get)
        assert resolved == block
        assert resolved.transactions[1] is held
        # The frame, then the coinbase and the one transaction not held.
        assert stats.decoded == 3

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=96))
    def test_fuzz_decoder_never_raises_anything_else(self, data):
        try:
            frame = decode_frame(data, TransportStats())
            frame.payload
        except MalformedFrame:
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        cut=st.integers(min_value=0, max_value=200),
        flip=st.integers(min_value=0, max_value=200),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_fuzz_damaged_honest_frame(self, cut, flip, bit):
        """Truncate an honest frame and flip one bit of what is left:
        either it still parses, or it is refused as malformed."""
        honest = encode_frame(
            Frame("tx", "n1", ("payload", 7), hops=2, key="f" * 64),
            TransportStats(),
        )[LEN.size:]
        data = bytearray(honest[:max(1, len(honest) - cut)])
        data[flip % len(data)] ^= 1 << bit
        try:
            decode_frame(bytes(data), TransportStats()).payload
        except MalformedFrame:
            pass


class _Conn:
    """The socket side a reader protocol sees: only ``close`` is used."""

    closed = False

    def close(self) -> None:
        self.closed = True


def _stream(count: int) -> bytes:
    """*count* honest tx frames, back to back, keyed ``k0``, ``k1``..."""
    return b"".join(
        encode_frame(Frame("tx", "a", i, key=f"k{i}"), TransportStats())
        for i in range(count)
    )


class TestReader:
    """Raw bytes against the reader protocol, alone and behind a live
    ``TcpTransport`` server."""

    @staticmethod
    def _protocol():
        """A reader on a connection of its own: the reader, what it
        queued, the transport's stats, the connection."""
        queued: list[Frame] = []
        owner = TcpTransport(AsyncioRuntime())
        reader = wire._FrameReader(
            owner, SimpleNamespace(put_nowait=queued.append)
        )
        conn = _Conn()
        reader.connection_made(conn)
        return reader, queued, owner.stats, conn

    def test_a_frame_split_at_every_byte_boundary(self):
        stream = _stream(3)
        reader, queued, stats, _conn = self._protocol()
        for at in range(len(stream)):
            reader.data_received(stream[at:at + 1])
        reader.connection_lost(None)
        assert [frame.payload for frame in queued] == [0, 1, 2]
        assert stats.malformed == 0
        for cut in range(len(stream) + 1):
            reader, queued, stats, _conn = self._protocol()
            reader.data_received(stream[:cut])
            reader.data_received(stream[cut:])
            reader.connection_lost(None)
            assert [frame.key for frame in queued] == ["k0", "k1", "k2"]
            assert stats.malformed == 0

    def test_many_frames_in_one_chunk(self):
        reader, queued, stats, _conn = self._protocol()
        reader.data_received(_stream(200))
        assert [frame.payload for frame in queued] == list(range(200))
        assert stats.malformed == 0

    def test_an_oversized_length_drops_the_rest_of_the_connection(self):
        honest = _stream(1)
        reader, queued, stats, conn = self._protocol()
        reader.data_received(honest + LEN.pack(MAX_FRAME + 1) + honest)
        reader.connection_lost(None)
        assert [frame.key for frame in queued] == ["k0"]
        assert conn.closed
        assert stats.malformed == 1

    @pytest.mark.parametrize("cut", [1, LEN.size, LEN.size + 3, -1])
    def test_eof_mid_frame_is_counted_once(self, cut):
        honest = _stream(1)
        reader, queued, stats, _conn = self._protocol()
        reader.data_received(honest + honest[:cut])
        reader.connection_lost(None)
        reader.connection_lost(None)
        assert len(queued) == 1
        assert stats.malformed == 1

    @staticmethod
    def _run(chunks: list[bytes]):
        """One connection per chunk to node ``b``, each closed after
        writing; then an honest frame on a connection of its own.
        Returns that frame, how many others were queued, the stats."""
        runtime = AsyncioRuntime()
        raised: list[dict] = []

        async def main():
            # Whatever escapes a reader task ends up here.
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: raised.append(context)
            )
            transport = TcpTransport(runtime)
            transport.register("a")
            inbox = transport.register("b")
            await transport.start()
            port = transport._ports["b"]
            for chunk in chunks:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(chunk)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            transport.send("b", Frame("tx", "a", "honest", key="honest"))
            passed = -1     # frames that got through ahead of the honest one
            frame = None
            while frame is None or frame.key != "honest":
                frame = await asyncio.wait_for(inbox.get(), timeout=10.0)
                passed += 1
            await asyncio.sleep(0.05)
            await transport.close()
            return frame, passed + inbox.qsize(), transport.stats

        result = runtime.run_until_complete(main())
        assert not raised, raised
        return result

    @staticmethod
    def _framed(data: bytes) -> bytes:
        return LEN.pack(len(data)) + data

    def test_each_kind_of_damage_is_dropped_and_counted(self):
        good = _raw(body=pickle.dumps(Frame("tx", "a", 1)))
        chunks = [
            self._framed(good)[:-3],                 # truncated body
            LEN.pack(10)[:2],                        # truncated length
            LEN.pack(MAX_FRAME + 1) + b"x" * 64,     # oversized length
            self._framed(_raw(version=9)),           # unknown version
            self._framed(_raw(code=77)),             # unknown kind
            self._framed(_raw(src=b"ab", src_len=99)),   # header overrun
        ]
        frame, left, stats = self._run(chunks)
        assert frame.payload == "honest"
        assert left == 0
        assert stats.malformed == len(chunks)

    @settings(max_examples=25, deadline=None)
    @given(chunks=st.lists(
        st.one_of(
            st.binary(max_size=48),
            # A believable length prefix in front of junk.
            st.binary(max_size=48).map(
                lambda data: LEN.pack(len(data)) + data
            ),
        ),
        max_size=4,
    ))
    def test_fuzz_streams_never_raise_or_block_honest_traffic(self, chunks):
        frame, _others, _stats = self._run(chunks)
        assert frame.payload == "honest"

    def test_bad_frame_does_not_end_the_connection(self):
        stream = (
            self._framed(_raw(code=77))
            + self._framed(_raw(body=pickle.dumps(Frame("tx", "x", "kept"))))
        )
        runtime = AsyncioRuntime()

        async def main():
            transport = TcpTransport(runtime)
            inbox = transport.register("b")
            await transport.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport._ports["b"]
            )
            writer.write(stream)
            await writer.drain()
            frame = await asyncio.wait_for(inbox.get(), timeout=10.0)
            writer.close()
            await transport.close()
            return frame, transport.stats

        frame, stats = runtime.run_until_complete(main())
        assert frame.payload == "kept"
        assert stats.malformed == 1

    def test_clean_close_is_not_malformed(self):
        _frame, _left, stats = self._run([b""])
        assert stats.malformed == 0

    def test_oversized_outgoing_frame_is_dropped_not_sent(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 256)
        runtime = AsyncioRuntime()

        async def main():
            transport = TcpTransport(runtime)
            transport.register("a")
            inbox = transport.register("b")
            await transport.start()
            transport.send("b", Frame("chain", "a", "x" * 500))
            transport.send("b", Frame("tx", "a", 1))
            frame = await asyncio.wait_for(inbox.get(), timeout=10.0)
            await transport.close()
            return frame, transport.stats

        frame, stats = runtime.run_until_complete(main())
        assert frame.kind == "tx"
        assert stats.malformed == 1


def _drive(frames, *, tcp_like: bool = True, pooled=()):
    """Feed *frames* to node ``a`` (peer ``b``) under the virtual clock,
    after submitting the transactions *pooled* to it.

    Returns the node, the wire stats, and what it relayed to ``b``.
    """
    runtime = VirtualRuntime()
    transport = MemoryTransport(runtime)
    relayed = transport.register("b")
    node = Node(
        "a", runtime=runtime, transport=transport, peers=("b",),
        config=NodeConfig(consensus="pbft", heartbeat=1e6),
        genesis=make_genesis("ethereum"),
    )
    stats = TransportStats()
    out: list[Frame] = []

    async def main():
        node.start()
        for ntx in pooled:
            assert node.submit_tx(ntx)
        for frame in frames:
            node.inbox.put_nowait(
                _received(frame, stats)
                if tcp_like and isinstance(frame, Frame) else frame
            )
        await runtime.sleep(5.0)
        node.stop()
        while relayed.qsize():
            out.append(await relayed.get())

    runtime.run_until_complete(main())
    return node, stats, out


def _tx_frame(ntx, *, key=None, src="b", hops=1) -> Frame:
    return Frame(
        "tx", src, ntx, hops=hops,
        key=ntx.tx_hash if key is None else key,
    )


class TestSender:
    def test_frames_queued_before_the_sender_runs_go_out_in_one_write(
        self, monkeypatch
    ):
        writes: list[int] = []
        write = asyncio.StreamWriter.write

        def counted(self, data):
            writes.append(len(data))
            write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        runtime = AsyncioRuntime()

        async def main():
            transport = TcpTransport(runtime)
            transport.register("a")
            inbox = transport.register("b")
            await transport.start()
            for i in range(50):
                transport.send("b", Frame("tx", "a", i, key=f"k{i}"))
            got = [
                await asyncio.wait_for(inbox.get(), timeout=10.0)
                for _ in range(50)
            ]
            await transport.close()
            return got

        got = runtime.run_until_complete(main())
        assert [frame.payload for frame in got] == list(range(50))
        assert writes == [len(_stream(50))]


class TestNodeDedupBeforeDecode:
    def test_replayed_tx_is_decoded_once(self, node_txs):
        ntx = node_txs[0]
        node, stats, _out = _drive([_tx_frame(ntx, src="c")] * 4)
        assert ntx.tx_hash in node.pool
        assert node.stats.duplicate_txs == 3
        assert stats.decoded == 1

    def test_tx_already_pooled_is_not_decoded(self, node_txs):
        ntx = node_txs[0]
        runtime = VirtualRuntime()
        transport = MemoryTransport(runtime)
        transport.register("b")
        node = Node(
            "a", runtime=runtime, transport=transport, peers=("b",),
            config=NodeConfig(consensus="pbft", heartbeat=1e6),
            genesis=make_genesis("ethereum"),
        )
        stats = TransportStats()

        async def main():
            node.start()
            assert node.submit_tx(ntx)
            node.seen_txs.clear()      # as if the LRU had evicted it
            node.inbox.put_nowait(_received(_tx_frame(ntx), stats))
            await runtime.sleep(1.0)
            node.stop()

        runtime.run_until_complete(main())
        assert stats.decoded == 0
        assert ntx.tx_hash in node.seen_txs

    def test_relay_forwards_bytes_and_adds_a_hop(self, node_txs):
        ntx = node_txs[0]
        _node, stats, out = _drive([_tx_frame(ntx, src="c", hops=4)])
        (onward,) = [f for f in out if f.kind == "tx"]
        assert (onward.src, onward.hops, onward.key) == (
            "a", 5, ntx.tx_hash,
        )
        before = stats.encoded
        encode_frame(onward, stats)
        assert stats.encoded == before and stats.forwarded == 1

    def test_key_mismatch_is_dropped_and_does_not_censor(self, node_txs):
        victim, other = node_txs[0], node_txs[1]
        node, _stats, _out = _drive([
            _tx_frame(other, key=victim.tx_hash),    # junk under its hash
            _tx_frame(victim),                       # then the real one
        ])
        assert node.stats.rejected == 1
        assert victim.tx_hash in node.pool
        assert other.tx_hash not in node.pool

    def test_key_mismatch_on_a_pulled_tx_keeps_it_wanted(self, node_txs):
        victim, other = node_txs[0], node_txs[1]
        announce = Frame(
            "announce", "b",
            (make_genesis("ethereum").block_hash, 0, (victim.tx_hash,)),
        )
        node, _stats, _out = _drive([
            announce,
            _tx_frame(other, key=victim.tx_hash),
            _tx_frame(victim),
        ])
        assert node.stats.rejected == 1
        assert victim.tx_hash in node.pool
        assert not node._wanted

    def test_block_key_mismatch_is_dropped_then_honest_block_applies(
        self, node_txs
    ):
        genesis = make_genesis("ethereum")
        coinbase = make_genesis("other").transactions[0]
        block = build_block(
            [coinbase], height=1, parent_hash=genesis.block_hash,
            timestamp=1.0, miner="b",
        )
        forged = build_block(
            [coinbase], height=1, parent_hash=genesis.block_hash,
            timestamp=2.0, miner="b",
        )
        node, stats, out = _drive([
            Frame("block", "b", forged, hops=1, key=block.block_hash),
            Frame("block", "b", block, hops=1, key=block.block_hash),
            Frame("block", "b", block, hops=1, key=block.block_hash),
        ])
        assert node.stats.rejected == 1
        assert node.stats.duplicate_blocks == 1
        assert node.head_hash == block.block_hash
        # Two block bodies, and the honest block's coinbase marker,
        # which no pool holds; the forged header stopped before its own.
        assert stats.decoded == 3
        assert forged.block_hash not in node.forkchoice.tree

    def test_sender_memo_of_the_block_hash_is_not_trusted(self, node_txs):
        genesis = make_genesis("ethereum")
        coinbase = make_genesis("other").transactions[0]
        block = build_block(
            [coinbase], height=1, parent_hash=genesis.block_hash,
            timestamp=1.0, miner="b",
        )
        honest_hash = block.block_hash
        lie = "e" * 64
        block.header.__dict__["block_hash"] = lie
        node, _stats, _out = _drive(
            [Frame("block", "b", block, hops=1, key=lie)]
        )
        assert node.stats.rejected == 1
        assert lie not in node.seen_blocks
        assert honest_hash not in node.forkchoice.tree


class TestBlockFromPool:
    def test_a_transaction_never_pooled_is_decoded_inline(self, node_txs):
        pooled, stranger = node_txs[0], node_txs[1]
        block = _block([pooled, stranger])
        node, stats, _out = _drive(
            [Frame("block", "c", block, hops=1, key=block.block_hash)],
            pooled=[pooled],
        )
        head = node.forkchoice.head_block()
        assert head.block_hash == block.block_hash
        assert head.transactions[1] is pooled
        assert head.transactions[2] == stranger
        assert {pooled.tx_hash, stranger.tx_hash} <= node.chain_txs
        # The block body, then the coinbase and the stranger inline.
        assert stats.decoded == 3

    def test_an_inline_body_under_another_hash_does_not_censor(
        self, node_txs
    ):
        victim, other = node_txs[0], node_txs[1]
        block = _block([victim])
        coinbase = block.transactions[0]
        lying = WireBlock(block.header, (
            (coinbase.tx_hash, pickle.dumps(coinbase)),
            (victim.tx_hash, pickle.dumps(other)),
        ))
        forged = decode_frame(_raw(
            code=KINDS.index("block"), src=b"c",
            key=block.block_hash.encode(),
            body=pickle.dumps(Frame("block", "c", lying, hops=1)),
        ), TransportStats())
        node, _stats, out = _drive([
            forged,
            Frame("block", "c", block, hops=1, key=block.block_hash),
        ])
        assert node.stats.rejected == 1
        assert node.stats.duplicate_blocks == 0      # never marked seen
        assert node.head_hash == block.block_hash
        assert victim.tx_hash in node.chain_txs
        assert other.tx_hash not in node.chain_txs
        assert [frame.key for frame in out if frame.kind == "block"] == [
            block.block_hash,
        ]


class TestClaimedRoot:
    def test_a_wrong_claimed_root_is_neither_applied_nor_relayed(
        self, node_txs
    ):
        """``header.extra`` is the proposer's state root; a block whose
        replay gives another root marks the node diverged and goes no
        further, and the same transactions under the true root apply."""
        genesis = make_genesis("ethereum")
        coinbase = make_genesis("other").transactions[0]
        ntxs = node_txs[:4]
        config = NodeConfig(consensus="pbft", heartbeat=1e6)
        replay, _recorder = replay_single_block(
            config.data_model,
            ReplayBlock(
                height=1,
                tasks=tuple(ntx.task for ntx in ntxs),
                payload=tuple(ntx.payload for ntx in ntxs),
            ),
            config.engine, config.cores,
        )

        def block(extra: str):
            return build_block(
                [coinbase, *ntxs], height=1,
                parent_hash=genesis.block_hash, timestamp=1.0, miner="b",
                extra=extra,
            )

        lying, honest = block("f" * 64), block(replay.state_root)
        assert replay.state_root != "f" * 64
        node, _stats, out = _drive([
            Frame("block", "c", lying, hops=1, key=lying.block_hash),
            Frame("block", "c", honest, hops=1, key=honest.block_hash),
        ])
        assert node.diverged
        assert node.stats.root_mismatches == 1
        assert lying.block_hash not in node.forkchoice.tree
        assert node.head_hash == honest.block_hash
        assert node.block_roots[honest.block_hash] == replay.state_root
        assert [frame.key for frame in out if frame.kind == "block"] == [
            honest.block_hash,
        ]


class TestReceiveLoopSurvives:
    def test_unknown_kind_and_bad_bodies_are_counted(self, node_txs):
        ntx = node_txs[0]
        stats = TransportStats()
        junk_body = decode_frame(
            _raw(code=KINDS.index("tx"), key=b"k", body=b"\x80junk"), stats
        )
        junk_announce = decode_frame(
            _raw(code=KINDS.index("announce"), body=b""), stats
        )
        node, _stats, _out = _drive([
            Frame("gossip-v2", "b", None),
            junk_body,
            junk_announce,
            _tx_frame(ntx),
        ], tcp_like=False)
        assert node.stats.rejected == 3
        assert ntx.tx_hash in node.pool     # the loop was still running


class _CountingPickle:
    """Stands where the benchmark's tracer stands: the ``pickle``
    attribute of ``repro.node.transport``."""

    def __init__(self) -> None:
        self.dumped: Counter = Counter()   # by frame kind; "tx body" else
        self.block_txs = 0     # transactions listed by block frames dumped
        self.frames: Counter = Counter()   # frames loaded, by kind
        self.loaded = 0
        self.bodies: Counter = Counter()   # tx hash -> NodeTx unpickled

    def dumps(self, item):
        kind = getattr(item, "kind", "tx body")
        self.dumped[kind] += 1
        if kind == "block":
            self.block_txs += len(item.payload.transactions)
        return pickle.dumps(item)

    def loads(self, data):
        item = pickle.loads(data)
        self.loaded += 1
        payload = item
        if isinstance(item, Frame):
            self.frames[item.kind] += 1
            payload = item.payload
        for ntx in (payload, *getattr(payload, "transactions", ())):
            if isinstance(ntx, NodeTx):
                self.bodies[ntx.tx_hash] += 1
        return item

class TestEncodeDecodeBudget:
    def test_four_node_mesh_pays_for_each_item_once(
        self, node_txs, monkeypatch
    ):
        """PBFT over loopback TCP: one body encode per distinct item in
        the whole network, and each transaction body decoded at most
        once per node, although every transaction travels twice: in its
        own frame and in the block that carries it."""
        counting = _CountingPickle()
        monkeypatch.setattr(wire, "pickle", counting)
        txs = node_txs[:40]
        ids = [f"n{i}" for i in range(4)]
        runtime = AsyncioRuntime()
        config = NodeConfig(
            consensus="pbft", num_nodes=4, block_interval=0.05,
            # No heartbeat inside the run: an anti-entropy pull answers
            # with a fresh frame, which is a second origin by design.
            heartbeat=600.0, stop_height=10 ** 9,
        )

        async def main():
            transport = TcpTransport(runtime)
            genesis = make_genesis("ethereum")
            nodes = [
                Node(
                    node_id, runtime=runtime, transport=transport,
                    peers=tuple(p for p in ids if p != node_id),
                    config=config, genesis=genesis,
                )
                for node_id in ids
            ]
            await transport.start()
            for node in nodes:
                node.start()
            for index, ntx in enumerate(txs):
                assert nodes[index % 4].submit_tx(ntx)
            hashes = {ntx.tx_hash for ntx in txs}
            for _ in range(400):
                await asyncio.sleep(0.05)
                if all(hashes <= node.chain_txs for node in nodes) and (
                    len({node.head_hash for node in nodes}) == 1
                ):
                    break
            for node in nodes:
                node.stop()
            await asyncio.sleep(0.05)
            await transport.close()
            await asyncio.sleep(0.05)
            return nodes, transport.stats

        nodes, stats = runtime.run_until_complete(main())
        hashes = {ntx.tx_hash for ntx in txs}
        assert all(hashes <= node.chain_txs for node in nodes)
        blocks = sum(node.stats.proposed for node in nodes)
        assert blocks >= 1
        # One dumps per frame, plus one per transaction inside a block
        # frame (each block's coinbase marker among them).
        assert set(counting.dumped) <= {"tx", "block", "tx body"}
        assert counting.dumped["tx"] == len(txs)
        assert counting.dumped["block"] == blocks
        assert counting.dumped["tx body"] == counting.block_txs
        assert counting.frames["tx"] <= 3 * len(txs)
        assert counting.frames["block"] <= 3 * blocks
        # Each transaction body is unpickled at most once per node that
        # did not originate it, whichever frame brought it: its own tx
        # frame, or a block whose receiver did not pool it.
        assert hashes <= set(counting.bodies)
        assert max(counting.bodies.values()) <= 3
        assert stats.encoded == sum(counting.dumped.values())
        assert stats.decoded == counting.loaded
        # 3 sends by the origin, then each of 3 peers relays to 2 more:
        # every one of those relays went out as the bytes it came in as.
        assert stats.forwarded == 3 * (len(txs) + blocks)
        assert stats.sent == 9 * (len(txs) + blocks)
        assert stats.malformed == 0
