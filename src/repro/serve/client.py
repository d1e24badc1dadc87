"""Clients for :mod:`repro.serve`.

Two transports, one request surface:

* :class:`ServeClient` — in-process: drives a :class:`~repro.serve
  .server.ServeServer` running on a background loop directly (no
  sockets), which is what tests and the benchmark suites use — the
  measured path is admission → batching → execution, not TCP;
* :class:`SocketClient` — a small synchronous NDJSON/TCP client for the
  CLI load generator and cross-process smoke tests.  One request in
  flight per call; responses are matched by the ``id`` field.

Both expose ``submit`` / ``cancel`` / ``stats`` / ``ping`` / ``drain``
returning the raw response dicts from :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import itertools
import socket
import threading

from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.server import ServeConfig, ServeHandle, start_in_thread
from repro.util.errors import ServeError

__all__ = ["ServeClient", "SocketClient"]

_ids = itertools.count(1)


def _next_id(prefix: str) -> str:
    return f"{prefix}-{next(_ids)}"


class _RequestMixin:
    """The shared op surface; subclasses provide :meth:`request`."""

    def request(self, payload: dict, timeout: "float | None" = None) -> dict:
        raise NotImplementedError

    def ping(self) -> dict:
        return self.request({"op": "ping", "id": _next_id("ping")})

    def stats(self) -> dict:
        return self.request({"op": "stats", "id": _next_id("stats")})

    def submit(
        self,
        job: dict,
        *,
        deadline_ms: "float | None" = None,
        priority: int = 0,
        job_id: "str | None" = None,
        timeout: "float | None" = None,
    ) -> dict:
        req: dict = {"op": "submit", "id": _next_id("job"), "job": job}
        if deadline_ms is not None:
            req["deadline_ms"] = float(deadline_ms)
        if priority:
            req["priority"] = int(priority)
        if job_id is not None:
            # Pre-naming the job lets another thread/connection cancel it
            # before the (completion-time) submit response arrives.
            req["job_id"] = str(job_id)
        return self.request(req, timeout=timeout)

    def cancel(self, job_id: str) -> dict:
        return self.request(
            {"op": "cancel", "id": _next_id("cancel"), "job_id": job_id}
        )

    def drain(self, timeout: "float | None" = 120.0) -> dict:
        return self.request({"op": "drain", "id": _next_id("drain")},
                            timeout=timeout)


class ServeClient(_RequestMixin):
    """In-process client over a :class:`ServeHandle`.

    Either wrap an existing handle or let the client own a fresh
    socketless server (``port=None``)::

        with ServeClient.start() as client:
            resp = client.submit({"tensor": {...}, "rank": 8})
    """

    def __init__(self, handle: ServeHandle, *, owns_server: bool = False) -> None:
        self.handle = handle
        self._owns = owns_server

    @classmethod
    def start(cls, config: "ServeConfig | None" = None) -> "ServeClient":
        if config is None:
            config = ServeConfig(port=None)
        return cls(start_in_thread(config), owns_server=True)

    def request(self, payload: dict, timeout: "float | None" = None) -> dict:
        return self.handle.request(
            payload, timeout=120.0 if timeout is None else timeout
        )

    def close(self) -> "dict | None":
        """Drain and stop the server when this client owns it."""
        if self._owns:
            return self.handle.drain_and_stop()
        return None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SocketClient(_RequestMixin):
    """Blocking NDJSON client over TCP (thread-safe via an I/O lock)."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self._timeout = timeout
        self._sock = socket.create_connection((host, self.port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def request(self, payload: dict, timeout: "float | None" = None) -> dict:
        with self._lock:
            self._sock.settimeout(self._timeout if timeout is None else timeout)
            self._sock.sendall(encode_frame(payload))
            want = payload.get("id")
            while True:
                line = self._file.readline()
                if not line:
                    raise ServeError("server closed the connection")
                resp = decode_frame(line)
                # Responses to *this* request (or server-initiated errors
                # carrying no id, e.g. oversized-frame) end the wait;
                # pipelined strangers would be a misuse of this client.
                if resp.get("id") in (want, None):
                    return resp

    def send_raw(self, data: bytes) -> dict:
        """Ship arbitrary bytes and read one response line (protocol
        edge-case tests: oversized / malformed frames)."""
        with self._lock:
            self._sock.sendall(data)
            line = self._file.readline()
            if not line:
                raise ServeError("server closed the connection")
            return decode_frame(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
