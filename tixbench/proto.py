"""Blocking client for the tixd frame protocol (docs/SERVING.md).

Frames are ``[u32 length LE][u8 type][payload]`` where ``length`` counts
the type byte plus the payload. One request, one response, in order.
"""

import socket
import struct

QUERY = 0x01
QUERY_EXPLAIN = 0x02
STATS = 0x03
SHUTDOWN = 0x05
INGEST = 0x06
DELETE = 0x07
COMPACT = 0x08

RESULT = 0x81
ERROR = 0x82
STATS_JSON = 0x83
PONG = 0x84

# StatusCode values (src/common/status.h) the benchmark tells apart.
NOT_FOUND = 2
RESOURCE_EXHAUSTED = 9


class ServerError(Exception):
    """An ERROR frame: the server-side Status code and message."""

    def __init__(self, code, message):
        super().__init__(f"status {code}: {message}")
        self.code = code
        self.message = message


class Client:
    """A connection to a tixd on loopback; `timeout` bounds each socket
    operation, in seconds."""

    def __init__(self, port, timeout):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _recv_exact(self, n):
        chunks = []
        while n > 0:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise ConnectionError("tixd closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def round_trip(self, frame_type, payload=b""):
        """Sends one frame; returns (type, payload) of the response."""
        self.sock.sendall(struct.pack("<IB", len(payload) + 1, frame_type) + payload)
        length, = struct.unpack("<I", self._recv_exact(4))
        body = self._recv_exact(length)
        return body[0], body[1:]

    def _expect(self, frame_type, payload, expected):
        got, body = self.round_trip(frame_type, payload)
        if got == ERROR:
            raise ServerError(body[0] if body else -1,
                              body[1:].decode("utf-8", "replace"))
        if got != expected:
            raise ConnectionError(f"unexpected frame 0x{got:02x}")
        return body

    def query(self, text):
        return self._expect(QUERY, text.encode(), RESULT)

    def explain(self, text):
        return self._expect(QUERY_EXPLAIN, text.encode(), RESULT)

    def stats(self):
        return self._expect(STATS, b"", STATS_JSON).decode()

    def ingest(self, name, xml):
        raw = name.encode()
        return int(self._expect(INGEST, struct.pack("<I", len(raw)) + raw + xml.encode(),
                                RESULT))

    def delete(self, name):
        self._expect(DELETE, name.encode(), RESULT)

    def compact(self):
        self._expect(COMPACT, b"", RESULT)

    def shutdown(self):
        self._expect(SHUTDOWN, b"", PONG)
