"""The serve tier's wire format: binary array fields and HTTP/1.1 framing.

Both ends of the serve tier, :mod:`repro.serve.server` and
:mod:`repro.serve.client`, speak through this module.

**Array fields.**  The ``fact_ids`` and ``vectors`` of ``/fetch`` and
``/slice`` responses travel as ``{"dtype": "<i8"|"<f8", "shape": [...],
"b64": "..."}``: base64 of the array's little-endian int64/float64 bytes.
No float passes through decimal text, so the decoded lists equal what
:class:`~repro.serve.backend.LocalBackend` returned bit for bit, ``-0.0``,
infinities, NaN and subnormals included.  Every other field stays JSON.

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

import base64
import binascii
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

#: The binary array fields of a response and their little-endian dtypes.
ARRAY_DTYPES = {"fact_ids": "<i8", "vectors": "<f8"}


class Refused(ValueError):
    """A request refused at the edge: ``status`` answers it, ``reason`` counts it."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason


# ---------------------------------------------------------------- arrays


def encode_arrays(payload: dict) -> dict:
    """Pack ``payload``'s array fields as little-endian bytes, in place."""
    for name, dtype in ARRAY_DTYPES.items():
        if name in payload:
            array = np.asarray(payload[name], dtype=dtype)
            payload[name] = {
                "dtype": dtype,
                "shape": list(array.shape),
                "b64": base64.b64encode(array.tobytes()).decode("ascii"),
            }
    return payload


def decode_arrays(payload: dict) -> dict:
    """Unpack ``payload``'s array fields back to nested lists, in place.

    Raises ValueError for a field whose dtype, shape or byte count does not
    match: a truncated or mis-shaped payload never decodes to wrong data.
    """
    for name, dtype in ARRAY_DTYPES.items():
        if name in payload:
            payload[name] = decode_array(payload[name], dtype)
    return payload


def decode_array(field: object, dtype: str) -> list:
    """One encoded array field as the nested list ``ndarray.tolist`` gives."""
    if not isinstance(field, dict) or field.get("dtype") != dtype:
        raise ValueError(f"array field is not a {dtype} array: {field!r:.80}")
    shape, b64 = field.get("shape"), field.get("b64")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ValueError(f"malformed array shape {shape!r:.80}")
    if not isinstance(b64, str):
        raise ValueError("array field carries no base64 text")
    data = binascii.a2b_base64(b64, strict_mode=True)
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    if len(data) != expected:
        raise ValueError(
            f"array field holds {len(data)} bytes, shape {shape} needs {expected}"
        )
    return np.frombuffer(data, dtype=dtype).reshape(shape).tolist()


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
