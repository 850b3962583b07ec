"""Shared plumbing: one threaded listener for every port (the frame loop, the
local-only admin dump channel, the harness's capture proxy), the server
process shell (start-up and shutdown), the keep-alive client side of a frame
exchange, the one config file reader, and every file cloudvault keeps: the
private, durable writers (append, replace, cut back), the RSA key file and
crash-safe little table files."""

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import select
import signal
import socket
import socketserver
import sys
import threading
import types
import typing
import urllib.parse

from . import protocol
from .crypto_core import RsaKeyPair
from .errors import (
    CloudVaultError,
    ConnectionFailure,
    InvalidKey,
    IoFailure,
    StartupFailure,
)


# How often a listener's accept loop looks for a stop request: the most a
# stop waits for it.
POLL_INTERVAL = 0.05


class Listener(socketserver.ThreadingTCPServer):
    """Listens on ``host:port`` from a daemon thread and runs
    ``serve_connection(sock)`` for each connection on a daemon thread of its
    own; the socket is closed after it returns."""

    allow_reuse_address = True
    daemon_threads = True
    # A burst of connects beyond the backlog waits a second for a SYN retry.
    request_queue_size = 32

    def __init__(self, host: str, port: int, serve_connection):
        self.serve_connection = serve_connection
        super().__init__((host, port), None)
        threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL,), daemon=True
        ).start()

    def finish_request(self, request, client_address):
        self.serve_connection(request)

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


# Once a frame has started, the rest of it must arrive within this many
# seconds, or the connection is dropped; an idle connection is kept.
FRAME_STALL_TIMEOUT = 30.0


def _serve_frames(frame_handler, sock: socket.socket) -> None:
    """One request frame, one response frame, repeated until the peer hangs
    up. ``frame_handler(frame, conn)`` gets this connection's
    ``protocol.ConnectionState``: the sealed channel's key and ``seq`` live
    here, on this thread, and go when the connection does."""
    conn = protocol.ConnectionState()
    while True:
        try:
            frame = protocol.read_frame(sock, FRAME_STALL_TIMEOUT)
        except (OSError, CloudVaultError):
            return  # reset, stalled or garbled stream; drop the connection
        if frame is None:
            return
        reply = frame_handler(frame, conn)
        try:
            protocol.write_frame(sock, reply)
        except OSError:
            return


def start_frame_server(host: str, port: int, handler) -> Listener:
    """Answer each frame with ``handler(frame, conn)``, ``conn`` being the
    ``protocol.ConnectionState`` of the connection it came on."""
    return Listener(host, port, functools.partial(_serve_frames, handler))


class FrameConnection:
    """One keep-alive socket to a frame server; one request, one reply per turn.

    A socket the peer has hung up on since the last reply is replaced before
    the request is written. Once a request is written it is never resent: the
    peer may already have acted on it, so any later failure reaches the caller
    as ``ConnectionFailure``, and the socket is closed. Each new socket gets
    a new ``protocol.ConnectionState``: the client end of its sealed
    channel. Calls from several threads are serialized.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None
        self._state = None  # the socket's ConnectionState
        self._lock = threading.Lock()

    def round_trip(self, frame: protocol.Frame) -> protocol.Frame:
        return self.exchange(lambda conn: frame, lambda reply, conn: reply)

    def exchange(self, seal, open_reply):
        """Send the frame ``seal(conn)`` makes once the socket is chosen, and
        return ``open_reply(reply, conn)``, ``conn`` being that socket's
        state. If ``open_reply`` raises a CloudVaultError, the two ends may
        no longer agree on that state, so the socket is closed and the next
        exchange opens a new one."""
        with self._lock:
            if self._sock is not None and _peer_hung_up(self._sock):
                self._close()
            if self._sock is None:
                self._state = protocol.ConnectionState()
            frame = seal(self._state)
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                protocol.write_frame(self._sock, frame)
                reply = protocol.read_frame(self._sock)
            except (OSError, CloudVaultError) as exc:
                self._close()
                raise ConnectionFailure(f"{self.host}:{self.port}: {exc}") from exc
            if reply is None:
                self._close()
                raise ConnectionFailure(
                    f"{self.host}:{self.port} closed the connection without replying"
                )
            try:
                return open_reply(reply, self._state)
            except CloudVaultError:
                self._close()
                raise

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def _peer_hung_up(sock: socket.socket) -> bool:
    """True if the idle socket is readable: between replies a frame server
    sends nothing, so that is an EOF, a reset or a stream gone out of step."""
    poller = select.poll()  # not select.select, which fails on fds >= 1024
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _send_dump(dump_tables, sock: socket.socket) -> None:
    """Write a JSON snapshot of persisted state to whoever connected."""
    payload = json.dumps(
        {name: data.hex() for name, data in sorted(dump_tables().items())},
        sort_keys=True,
    ).encode("ascii")
    try:
        sock.sendall(payload)
    except OSError:
        pass


class Listeners:
    """A running service's admin tap and frame port.

    The admin tap is bound to loopback only: it is the audit tap, not a
    public endpoint. It is bound first, so once the frame port answers, the
    admin dump is readable too.
    """

    def __init__(self, config, service):
        self.admin = Listener(
            "127.0.0.1", config.admin_port,
            functools.partial(_send_dump, service.dump_tables),
        )
        try:
            self.frame = start_frame_server(config.host, config.port, service.handle_frame)
        except (OSError, OverflowError):  # OverflowError: a port past 65535
            self.admin.stop()
            raise

    def close(self) -> None:
        self.frame.stop()
        self.admin.stop()


def run_server(argv, config_cls, service_cls) -> int:
    """A server process from start to exit: read ``--config`` with
    ``load_config``, serve ``service_cls(config)`` until SIGTERM or SIGINT,
    then close both listeners and return 0. A server that cannot start
    prints one ``CODE: message`` line on stderr and returns 1: a config that
    does not load, a file or directory it cannot make or open, and a port
    taken are each ``STARTUP_FAILURE``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True, help="JSON config path")
    args = parser.parse_args(argv)
    try:
        try:
            config = load_config(args.config, config_cls)
            service = service_cls(config)
        except (IoFailure, OSError) as exc:  # each message names its path
            raise StartupFailure(str(exc)) from exc
        try:
            listeners = Listeners(config, service)
        except (OSError, OverflowError) as exc:
            raise StartupFailure(
                f"ports {config.port} and {config.admin_port}: {exc}"
            ) from exc
    except CloudVaultError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    print(f"{service_cls.__name__} on {config.host}:{config.port}", flush=True)
    stop.wait()
    listeners.close()
    return 0


def load_config(path: str, cls):
    """``cls(**obj)`` for the JSON object in the file at ``path``, or
    IoFailure naming ``path``. A config's own CloudVaultError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))
    # ValueError: not JSON, or a value out of range; TypeError: not an object
    # of known settings, or a value of the wrong type (check_types)
    except (OSError, ValueError, TypeError) as exc:
        raise IoFailure(f"config {path}: {exc}") from exc


def check_types(config) -> None:
    """Raise TypeError naming the first field of the dataclass ``config``
    whose value is not exactly of its annotated type, never the value: a
    bool is no int. ``X | None`` also takes None, ``list[X]`` a list of X."""
    for field in dataclasses.fields(config):
        if not _has_type(getattr(config, field.name), field.type):
            expected = field.type
            if isinstance(expected, type):
                expected = expected.__name__
            raise TypeError(f"{field.name} must be {expected}")


def check_port(name: str, port: int) -> None:
    """Raise ValueError naming ``name`` unless ``port`` fits in 16 bits: a
    connect keeps only the low 16, so 70000 would reach port 4464."""
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"{name} must be in 0..65535")


def _has_type(value, annotation) -> bool:
    if isinstance(annotation, types.UnionType):
        return any(_has_type(value, arm) for arm in typing.get_args(annotation))
    if isinstance(annotation, types.GenericAlias):
        (item,) = typing.get_args(annotation)
        return type(value) is typing.get_origin(annotation) and all(
            _has_type(each, item) for each in value
        )
    return type(value) is annotation


def fetch_admin_dump(host: str, port: int, timeout: float = 10.0) -> dict[str, bytes]:
    """Pull a server's snapshot: file name -> raw bytes."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            with sock.makefile("rb") as stream:
                data = stream.read()
    except OSError as exc:
        raise ConnectionFailure(f"admin dump from {host}:{port}: {exc}") from exc
    obj = json.loads(data.decode("ascii"))
    return {name: bytes.fromhex(data) for name, data in obj.items()}


# ---------------------------------------------------------------------------
# Files: every file cloudvault keeps is written here, mode 0600, durably.

@contextlib.contextmanager
def _private_file(path: str, flags: int, mode: str):
    """A binary write handle on ``path``, mode 0600, fsynced on a clean exit.
    O_CREAT's mode covers only a new file; the fchmod also tightens a stale
    tmp file or a table an older build left world-readable."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT | flags, 0o600), mode) as fh:
        os.fchmod(fh.fileno(), 0o600)
        yield fh
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(path: str) -> None:
    # POSIX makes only a file's data durable through its fsync, not its name.
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_bytes(path: str, *parts: bytes) -> int:
    """Durably append ``parts``, one after another, and return the offset the
    first starts at. Each part is written as it is, never joined to another,
    and one fsync covers them all. The directory is fsynced too when the file
    was empty, so the first bytes cannot vanish with the file's name. An
    append that fails with OSError is cut back off first, so no torn tail is
    left for the next append to land on. The caller serializes appends."""
    start = None
    try:
        with _private_file(path, os.O_APPEND, "ab") as fh:
            start = os.fstat(fh.fileno()).st_size
            for part in parts:
                fh.write(part)
        if start == 0:
            _fsync_dir(path)
    except OSError:
        if start is not None:
            with contextlib.suppress(OSError):  # the append's error is the one to see
                cut_back(path, start)
        raise
    return start


def append_line(path: str, line: str) -> None:
    """Durably append one record line."""
    append_bytes(path, line.encode("utf-8") + b"\n")


def write_atomic(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``: a crash leaves the old file or
    the new one. The directory is fsynced after the rename."""
    tmp = path + ".tmp"
    with _private_file(tmp, os.O_TRUNC, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    _fsync_dir(path)


def cut_back(path: str, end: int) -> None:
    """Durably cut ``path`` back to its first ``end`` bytes: the tail that an
    append nobody acknowledged left behind."""
    with open(path, "r+b") as fh:
        fh.truncate(end)
        os.fsync(fh.fileno())


def read_files(root: str, names) -> dict[str, bytes]:
    """Name -> raw bytes of each of ``names`` under ``root`` that exists."""
    snapshot = {}
    for name in names:
        try:
            with open(os.path.join(root, name), "rb") as fh:
                snapshot[name] = fh.read()
        except FileNotFoundError:
            pass
    return snapshot


def write_keypair(path: str, pair: RsaKeyPair) -> None:
    """Write the key file: JSON ``{n, e, d}`` as decimal strings."""
    data = json.dumps({"n": str(pair.n), "e": str(pair.e), "d": str(pair.d)})
    try:
        write_atomic(path, data.encode("ascii"))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_keypair(path: str) -> RsaKeyPair:
    """Load a key file written by write_keypair, recovering p and q. Error
    messages never quote the file's contents."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    try:
        obj = json.loads(raw)
        n, e, d = (int(obj[name]) for name in ("n", "e", "d"))
    except (ValueError, KeyError, TypeError):
        raise InvalidKey("key file needs a JSON object of integer n, e, d") from None
    return RsaKeyPair(n=n, e=e, d=d)


# ---------------------------------------------------------------------------
# Table files

# A column codec is a (value -> cell, cell -> value) pair; a table's layout is
# one tuple of them. Decoding raises ValueError on a cell it cannot read.

def _hex16(cell: str) -> bytes:
    raw = bytes.fromhex(cell)
    if len(raw) != 16:
        raise ValueError("expected 16 bytes")
    return raw


HEX16 = (bytes.hex, _hex16)  # an MD5 digest or an AES-128 key
INT = (str, int)
TEXT = (functools.partial(urllib.parse.quote, safe=""), urllib.parse.unquote)
WORD = (str, str)  # stored as it is, so it must hold no tab or newline


def encode_row(columns: tuple, values) -> str:
    """One row's line, without its newline: ``values`` encoded under
    ``columns``, joined by tabs."""
    return "\t".join(
        encode(value) for (encode, _), value in zip(columns, values, strict=True)
    )


def decode_row(line: bytes, columns: tuple) -> tuple:
    """The cells of one row's line, its newline optional, decoded under
    ``columns``; ValueError if it does not decode."""
    cells = line.decode("utf-8").rstrip("\n").split("\t")
    if len(cells) != len(columns):
        raise ValueError(f"expected {len(columns)} cells, got {len(cells)}")
    return tuple(decode(cell) for (_, decode), cell in zip(columns, cells))


def append_row(path: str, columns: tuple, record) -> None:
    """Durably append ``record``, a dataclass whose fields are the row's
    cells in order, encoded under ``columns``. The fields are read as they
    are: ``dataclasses.astuple`` would deep-copy every cell."""
    values = (getattr(record, field.name) for field in dataclasses.fields(record))
    append_line(path, encode_row(columns, values))


def read_rows(path: str, columns: tuple) -> list[tuple]:
    """Every row of a table file decoded under ``columns``; [] if it is absent.

    An unterminated last line is a torn append. It was never acknowledged,
    because the ack follows the fsync, so it is dropped and the file is cut
    back to its last newline; the next append then starts a row of its own.
    """
    torn = []

    def whole_lines(fh):
        for line in fh:
            if line.endswith(b"\n"):
                yield line
            else:
                torn.append(line)  # only the last line can lack its newline

    try:
        with open(path, "rb") as fh:
            rows = decode_rows(whole_lines(fh), columns, path)
            end = fh.tell() - sum(map(len, torn))
    except FileNotFoundError:
        return []
    if torn:
        try:
            cut_back(path, end)
        except OSError as exc:
            raise StartupFailure(f"{path}: cannot cut off a torn row: {exc}") from exc
    return rows


def decode_rows(lines, columns: tuple, source: str) -> list[tuple]:
    """Decode byte lines; blank lines are skipped. A row that does not decode
    raises StartupFailure naming ``source`` and the line, never a cell: the
    cells may be keys."""
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append(decode_row(line, columns))
        except ValueError:
            raise StartupFailure(f"{source}: row {number} does not decode") from None
    return rows
