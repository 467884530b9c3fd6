"""The serve tier's wire format: answer frames and HTTP/1.1 framing.

Both ends of the serve tier, :mod:`repro.serve.server` and
:mod:`repro.serve.client`, speak through this module.

**Answer frames.**  An answer without an array field is its compact JSON
object, nothing else.  The ``fact_ids`` and ``vectors`` of ``/fetch`` and
``/slice`` answers are sent as raw bytes instead: the body is the JSON
object on one line with each array field replaced by ``{"dtype":
"<i8"|"<f8", "shape": [...]}``, then ``\\n``, then the little-endian
int64/float64 bytes of each field in :data:`ARRAY_DTYPES` order.
``Content-Length`` counts the whole body.  :func:`encode_frame` gives
the body as buffers (the arrays are sent from their own memory) and
:func:`decode_frame` turns it back into the lists
:class:`~repro.serve.backend.LocalBackend` returns.  No float passes
through decimal text, so the decoded lists equal the backend's bit for
bit, ``-0.0``, infinities, NaN and subnormals included.  A frame whose
shapes and byte count disagree raises ValueError; it never decodes to
wrong data.

**Framing.**  :class:`Wire` is one end of a connection: its socket and a
read buffer.  :meth:`Wire.read_head` reads a start line, then header lines
up to the blank line; a line over :data:`MAX_LINE_BYTES` or more than
:data:`MAX_HEADERS` headers raise :class:`Refused` (414/431, the bounds
``http.server`` applies), as does a head the peer cuts off (400).
:meth:`Wire.read_body` reads exactly ``Content-Length`` bytes.  A
``deadline`` (``time.monotonic`` seconds) bounds the whole read, not each
``recv``: a peer trickling one byte at a time cannot stretch it.
"""

from __future__ import annotations

import json
import math
import socket
import time

import numpy as np

#: Longest start or header line accepted, line terminator included.
MAX_LINE_BYTES = 65536
#: Most header lines one message may carry.
MAX_HEADERS = 100
#: Bytes asked of the socket per ``recv``.
RECV_BYTES = 65536

#: The array fields of an answer, in the order their bytes follow its head,
#: and their little-endian dtypes.
ARRAY_DTYPES = {"fact_ids": "<i8", "vectors": "<f8"}


class Refused(ValueError):
    """A request refused at the edge: ``status`` answers it, ``reason`` counts it."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason


# ---------------------------------------------------------------- frames


def encode_frame(payload: dict) -> list:
    """``payload`` as the buffers of one answer body, in order.

    Without an array field the body is the compact JSON of ``payload``
    alone.  Otherwise each array field is replaced by ``{"dtype", "shape"}``
    in a one-line JSON head, and ``\\n`` plus the raw bytes of each field, in
    :data:`ARRAY_DTYPES` order, follow it.  The array buffers are views of
    the arrays, not copies: send them as they are.
    """
    head = dict(payload)
    arrays = []
    for name, dtype in ARRAY_DTYPES.items():
        if name in payload:
            array = np.ascontiguousarray(payload[name], dtype=dtype)
            head[name] = {"dtype": dtype, "shape": list(array.shape)}
            arrays.append(array.reshape(-1).view(np.uint8))
    # ensure_ascii: the head holds no raw newline, so the first one ends it
    text = json.dumps(head, separators=(",", ":")).encode("ascii")
    return [text + b"\n", *arrays] if arrays else [text]


def decode_frame(body: bytes) -> dict:
    """An answer body back to the dict of lists ``LocalBackend`` returns.

    Raises ValueError for any frame that does not parse exactly: a head
    that is not a JSON object, an array field whose dtype or shape is
    malformed, a missing ``\\n`` before the bytes, or too few or too many
    bytes for the declared shapes.  A damaged frame never decodes to wrong
    data, and a declared size is checked against the body before anything
    is allocated for it.
    """
    newline = body.find(b"\n")
    head = json.loads(body[:newline] if newline >= 0 else body or b"{}")
    if not isinstance(head, dict):
        raise ValueError("answer head is not a JSON object")
    offset = newline + 1
    for name, dtype in ARRAY_DTYPES.items():
        if name not in head:
            continue
        if newline < 0:
            raise ValueError("array answer without a newline after its head")
        shape = _shape(head[name], dtype)
        count = math.prod(shape)
        size = count * np.dtype(dtype).itemsize
        if size > len(body) - offset:
            raise ValueError(
                f"{name}: shape {shape} needs {size} bytes, "
                f"{len(body) - offset} remain"
            )
        array = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
        head[name] = array.reshape(shape).tolist()
        offset += size
    if newline >= 0 and offset != len(body):
        raise ValueError(f"{len(body) - offset} bytes after the answer's arrays")
    return head


def _shape(field: object, dtype: str) -> list[int]:
    """The checked shape of one array field of an answer head."""
    if not isinstance(field, dict) or field.get("dtype") != dtype:
        raise ValueError(f"array field is not a {dtype} array: {field!r:.80}")
    shape = field.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"malformed array shape {shape!r:.80}")
    return shape


# --------------------------------------------------------------- framing


class Wire:
    """One end of an HTTP/1.1 connection: a socket and its read buffer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()
        self.bytes_read = 0
        """Bytes received over the connection's life."""

    def _fill(self, deadline: float | None) -> bool:
        """Append the socket's next bytes to the buffer; False at EOF."""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("read deadline passed")
            self.sock.settimeout(remaining)
        chunk = self.sock.recv(RECV_BYTES)
        self.bytes_read += len(chunk)
        self._buffer += chunk
        return bool(chunk)

    def read_head(
        self, deadline: float | None = None
    ) -> tuple[str, dict[str, str]] | None:
        """The next message's start line and headers (names lower-cased).

        None when the peer closed before sending any of it.  Blank lines
        before the start line are skipped (RFC 9112 §2.2).  The head's end
        is found by one scan of the bytes as they arrive; the bounds are
        checked on the same pass, so a trickling peer costs linear time.
        """
        buffer = self._buffer
        if not buffer and not self._fill(deadline):
            return None
        scanned = newlines = line_start = 0
        while True:
            end = _head_end(buffer, max(0, scanned - 2))
            if end >= 0:
                lines = buffer[:end].decode("latin-1").split("\n")
                del buffer[: end + (3 if buffer[end + 1] == 13 else 2)]
                while lines and not lines[0].rstrip("\r"):
                    del lines[0]
                if lines:
                    break
                scanned = newlines = line_start = 0  # only blank lines so far
                continue
            newlines += buffer.count(b"\n", scanned)
            last = buffer.rfind(b"\n", scanned)
            line_start = line_start if last < 0 else last + 1
            scanned = len(buffer)
            if newlines > MAX_HEADERS + 1:
                raise _too_many_headers()
            if scanned - line_start >= MAX_LINE_BYTES:
                raise _line_too_long(start_line=not buffer[:line_start].strip())
            if not self._fill(deadline):
                if not buffer.strip():
                    return None
                raise Refused(400, "truncated_head", "connection closed inside the head")
        if len(lines) > MAX_HEADERS + 1:
            raise _too_many_headers()
        if len(lines[0]) >= MAX_LINE_BYTES:
            raise _line_too_long(start_line=True)
        if max(map(len, lines)) >= MAX_LINE_BYTES:
            raise _line_too_long(start_line=False)
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                raise Refused(400, "malformed_header", f"malformed header line {name!r:.80}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise Refused(400, "content_length", "conflicting Content-Length headers")
            headers[name] = value
        return lines[0].rstrip("\r"), headers

    def read_body(self, length: int, deadline: float | None = None) -> bytes:
        """Exactly ``length`` bytes; ConnectionError if the peer closes first."""
        while len(self._buffer) < length:
            if not self._fill(deadline):
                raise ConnectionError("connection closed inside the body")
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        return body


def _head_end(buffer: bytearray, start: int) -> int:
    """Index of the newline that ends a head's last line, or -1.

    The blank line after it may end in CRLF or, as RFC 9112 §2.2 lets a
    recipient accept, in a bare LF.
    """
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start, None if crlf < 0 else crlf + 2)
    return crlf if lf < 0 else lf


def _line_too_long(start_line: bool) -> Refused:
    if start_line:
        return Refused(414, "start_line_too_long", f"start line over {MAX_LINE_BYTES} bytes")
    return Refused(431, "header_line_too_long", f"header line over {MAX_LINE_BYTES} bytes")


def _too_many_headers() -> Refused:
    return Refused(431, "too_many_headers", f"more than {MAX_HEADERS} headers")
