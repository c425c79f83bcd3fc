"""Wire framing: corrupt, short, alien, and oversized frames must be
rejected immediately — never hang a receiver on a read that cannot
complete."""

import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib import protocol
from repro.distrib.protocol import ConnectionClosedError
from repro.errors import WorkerProtocolError


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestRoundTrip:
    def test_payload_survives(self, pair):
        a, b = pair
        sent = protocol.send_frame(a, protocol.MSG_BATCH, {"cells": [1, 2, 3]})
        msg_type, payload, received = protocol.recv_frame(b)
        assert msg_type == protocol.MSG_BATCH
        assert payload == {"cells": [1, 2, 3]}
        assert sent == received > protocol.HEADER.size

    def test_expect_frame_matches(self, pair):
        a, b = pair
        protocol.send_frame(a, protocol.MSG_WELCOME, {"pid": 1})
        payload, _ = protocol.expect_frame(b, protocol.MSG_WELCOME)
        assert payload == {"pid": 1}

    def test_expect_frame_surfaces_peer_error(self, pair):
        a, b = pair
        protocol.send_frame(a, protocol.MSG_ERROR, {"error": "boom"})
        with pytest.raises(WorkerProtocolError, match="boom"):
            protocol.expect_frame(b, protocol.MSG_RESULT)

    def test_expect_frame_rejects_wrong_type(self, pair):
        a, b = pair
        protocol.send_frame(a, protocol.MSG_BYE, {})
        with pytest.raises(WorkerProtocolError, match="expected message type"):
            protocol.expect_frame(b, protocol.MSG_RESULT)


class TestCorruptFrames:
    def test_bad_magic(self, pair):
        a, b = pair
        a.sendall(protocol.HEADER.pack(b"EVIL", protocol.PROTOCOL_VERSION,
                                       protocol.MSG_BATCH, 0))
        with pytest.raises(WorkerProtocolError, match="magic"):
            protocol.recv_frame(b)

    def test_version_mismatch(self, pair):
        a, b = pair
        a.sendall(protocol.HEADER.pack(protocol.MAGIC, 255,
                                       protocol.MSG_BATCH, 0))
        with pytest.raises(WorkerProtocolError, match="version"):
            protocol.recv_frame(b)

    def test_unknown_message_type(self, pair):
        a, b = pair
        a.sendall(protocol.HEADER.pack(protocol.MAGIC,
                                       protocol.PROTOCOL_VERSION, 99, 0))
        with pytest.raises(WorkerProtocolError, match="unknown message type"):
            protocol.recv_frame(b)

    def test_oversized_length_rejected_before_payload(self, pair):
        """A corrupt length prefix must not trigger a gigabyte read."""
        a, b = pair
        a.sendall(protocol.HEADER.pack(protocol.MAGIC,
                                       protocol.PROTOCOL_VERSION,
                                       protocol.MSG_BATCH,
                                       protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(WorkerProtocolError, match="ceiling"):
            protocol.recv_frame(b)

    def test_garbage_payload(self, pair):
        a, b = pair
        junk = b"\x00not a pickle\xff"
        a.sendall(protocol.HEADER.pack(protocol.MAGIC,
                                       protocol.PROTOCOL_VERSION,
                                       protocol.MSG_BATCH, len(junk)))
        a.sendall(junk)
        with pytest.raises(WorkerProtocolError, match="unpickle"):
            protocol.recv_frame(b)

    def test_short_frame_peer_died_mid_payload(self, pair):
        a, b = pair
        body = pickle.dumps({"x": 1})
        a.sendall(protocol.HEADER.pack(protocol.MAGIC,
                                       protocol.PROTOCOL_VERSION,
                                       protocol.MSG_BATCH, len(body)))
        a.sendall(body[: len(body) // 2])
        a.close()
        with pytest.raises(ConnectionClosedError, match="outstanding"):
            protocol.recv_frame(b)

    def test_clean_close_between_frames(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosedError):
            protocol.recv_frame(b)

    def test_hung_peer_surfaces_as_timeout(self, pair):
        """A peer that sends nothing hits the socket timeout, not a hang."""
        a, b = pair
        b.settimeout(0.05)
        with pytest.raises(socket.timeout):
            protocol.recv_frame(b)

    def test_truncated_header(self, pair):
        a, b = pair
        a.sendall(b"RP")  # 2 of 10 header bytes
        a.close()
        with pytest.raises(ConnectionClosedError):
            protocol.recv_frame(b)


class TestSendLimits:
    def test_oversized_send_rejected(self, pair, monkeypatch):
        a, _ = pair
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(WorkerProtocolError, match="exceeds"):
            protocol.send_frame(a, protocol.MSG_BATCH, "x" * 64)

    def test_header_layout_is_stable(self):
        # the frame header is part of the cross-version contract
        assert protocol.HEADER.size == struct.calcsize(">4sBBI") == 10
        assert protocol.MAGIC == b"RPRO"


@st.composite
def _wire_bytes(draw):
    """A header (valid-looking or arbitrary) followed by a body."""
    body = draw(st.one_of(
        st.binary(max_size=256),
        st.builds(pickle.dumps, st.integers() | st.text(max_size=32)),
    ))
    header = draw(st.one_of(
        st.binary(max_size=protocol.HEADER.size),
        st.builds(
            protocol.HEADER.pack,
            st.sampled_from([protocol.MAGIC, b"XXXX"]),
            st.sampled_from([protocol.PROTOCOL_VERSION, 0, 255]),
            st.sampled_from([protocol.MSG_BATCH, 0, 255]),
            st.one_of(
                st.just(len(body)),
                st.integers(0, 2 * len(body) + 16),
                st.just(protocol.MAX_FRAME_BYTES + 1),
            ),
        ),
    ))
    return header + body


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(wire=_wire_bytes())
    def test_arbitrary_bytes_return_a_frame_or_a_protocol_error(self, wire):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5.0)
            a.sendall(wire)
            a.shutdown(socket.SHUT_WR)
            try:
                protocol.recv_frame(b)
            except (WorkerProtocolError, ConnectionClosedError):
                pass
