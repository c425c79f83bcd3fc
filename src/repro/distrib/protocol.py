"""Wire protocol for distributed sweeps: framed, version-stamped pickles.

Every message travels as one *frame*:

========  ======  =====================================================
bytes     field   meaning
========  ======  =====================================================
0..3      magic   ``b"RPRO"`` — rejects cross-talk from non-repro peers
4         ver     :data:`PROTOCOL_VERSION`; mismatches are rejected at
                  the first frame, never half-interpreted
5         type    message kind (:data:`MSG_HELLO` ...)
6..9      length  payload byte count, unsigned big-endian
10..      payload ``pickle`` of the message body
========  ======  =====================================================

Receivers validate magic, version, type, and length *before* reading the
payload; a corrupt, short, oversized, or alien frame raises
:class:`~repro.errors.WorkerProtocolError` immediately instead of
blocking on a read that will never complete.  Short reads (the peer died
mid-frame) raise :class:`ConnectionClosedError`.  All socket reads honor
the socket's configured timeout, so a hung peer surfaces as
``socket.timeout`` to the caller, which treats it like a dead one.

Payloads are pickles, so the two ends must mutually trust each other —
the trust model is documented in ``docs/distributed.md``.

Message kinds
-------------
``MSG_HELLO`` (client -> worker)
    Session handshake: ``{"protocol", "detail", "jobs", "snapshot"}``.
    The parent's :func:`repro.cache.snapshot_stores` bundle rides along
    *once per session* here — never per cell — so remote warm-cache hit
    rates match local runs.
``MSG_WELCOME`` (worker -> client)
    Handshake accept: ``{"pid", "installed", "jobs"}``.
``MSG_BATCH`` (client -> worker)
    One unit of pull-based work: ``{"batch_id", "cells"}``.
``MSG_CELL`` (worker -> client)
    One **streamed** result: ``{"batch_id", "pos", "artifact"}`` — sent
    the moment cell ``pos`` (its position inside the batch) finishes,
    while the rest of the batch is still executing.  Streaming per cell
    is what lets the client overlap reporting with execution and feed
    observed per-cell latency into its adaptive dispatch sizing.
``MSG_RESULT`` (worker -> client)
    End-of-batch marker: ``{"batch_id", "cells_done", "cache_delta"}``.
    Artifacts no longer ride here (v1 buffered the whole batch into this
    frame); ``cells_done`` lets the client cross-check it saw every
    ``MSG_CELL``, and ``cache_delta`` is the worker-side
    :func:`repro.cache.stats_delta` of the batch window (feeds the
    per-remote-worker hit-rate report).
``MSG_ERROR`` (worker -> client)
    ``{"batch_id", "error"}`` — the batch *executed* and failed
    deterministically (unknown app, inapplicable strategy ...).  The
    client raises instead of re-dispatching: the same cells would fail
    on every worker.
``MSG_BYE`` (client -> worker)
    Polite end of session; the worker goes back to accepting sessions.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

from repro.errors import WorkerProtocolError

#: bump on any frame-layout or payload-shape change; peers must match
#: (v2: per-cell MSG_CELL streaming; MSG_RESULT became the end-of-batch
#: marker and stopped carrying artifacts; v3: a full-detail artifact's
#: trace pickles as its TraceStore, without the label-string column)
PROTOCOL_VERSION = 3

#: frame magic: rejects peers that are not speaking this protocol at all
MAGIC = b"RPRO"

#: header layout: magic, version, message type, payload length
HEADER = struct.Struct(">4sBBI")

#: hard ceiling on one frame's payload; a corrupt length prefix must not
#: make the receiver try to allocate/stream gigabytes (full-detail
#: artifact batches are the largest legitimate frames, well under this)
MAX_FRAME_BYTES = 1 << 30

MSG_HELLO = 1
MSG_WELCOME = 2
MSG_BATCH = 3
MSG_RESULT = 4
MSG_ERROR = 5
MSG_BYE = 6
MSG_CELL = 7

#: message kinds a receiver will accept (anything else is a bad frame)
_KNOWN_TYPES = frozenset(
    (MSG_HELLO, MSG_WELCOME, MSG_BATCH, MSG_RESULT, MSG_ERROR, MSG_BYE,
     MSG_CELL)
)


class ConnectionClosedError(WorkerProtocolError):
    """The peer closed the connection (cleanly or mid-frame)."""


def send_frame(sock: socket.socket, msg_type: int, payload: Any) -> int:
    """Send one frame; returns the total bytes put on the wire."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise WorkerProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, len(body))
    sock.sendall(header)
    sock.sendall(body)
    return len(header) + len(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosedError`.

    Honors the socket timeout per ``recv`` call; a peer that stops
    sending mid-frame therefore surfaces as ``socket.timeout`` rather
    than blocking forever.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosedError(
                f"peer closed the connection with {remaining} of {n} "
                "bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, Any, int]:
    """Receive one frame; returns ``(msg_type, payload, wire_bytes)``.

    Raises :class:`~repro.errors.WorkerProtocolError` on a malformed
    header (bad magic, unknown version or type, oversized length) and
    :class:`ConnectionClosedError` on a clean close before a frame or a
    short read inside one.  The payload pickle is only read once the
    header validated, so a garbage frame never triggers a huge read.
    """
    raw = _recv_exact(sock, HEADER.size)
    magic, version, msg_type, length = HEADER.unpack(raw)
    if magic != MAGIC:
        raise WorkerProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); peer is not "
            "speaking the repro.distrib protocol"
        )
    if version != PROTOCOL_VERSION:
        raise WorkerProtocolError(
            f"protocol version mismatch: peer speaks v{version}, this end "
            f"speaks v{PROTOCOL_VERSION}"
        )
    if msg_type not in _KNOWN_TYPES:
        raise WorkerProtocolError(f"unknown message type {msg_type}")
    if length > MAX_FRAME_BYTES:
        raise WorkerProtocolError(
            f"frame announces {length} payload bytes, above the "
            f"{MAX_FRAME_BYTES}-byte ceiling — rejecting as corrupt"
        )
    body = _recv_exact(sock, length)
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise WorkerProtocolError(f"frame payload failed to unpickle: {exc}")
    return msg_type, payload, HEADER.size + length


def expect_frame(sock: socket.socket, msg_type: int) -> tuple[Any, int]:
    """Receive one frame and require its type; ``(payload, wire_bytes)``."""
    got, payload, nbytes = recv_frame(sock)
    if got != msg_type:
        if got == MSG_ERROR and isinstance(payload, dict):
            raise WorkerProtocolError(
                f"peer reported an error: {payload.get('error')}"
            )
        raise WorkerProtocolError(
            f"expected message type {msg_type}, got {got}"
        )
    return payload, nbytes
