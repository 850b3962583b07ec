"""Table rows, the keep-alive frame exchange and the server process shell
that both servers share."""

import ast
import contextlib
import json
import os
import signal
import socket
import stat
import subprocess
import sys
import threading
import time

import pytest

from cloudvault import client_cli, crypto_core, harness, mailbox, netutil, protocol
from cloudvault import storage_server as storage_mod
from cloudvault import system_server as system_mod
from cloudvault.client_cli import ClientConfig, ClientSession
from cloudvault.crypto_core import md5_digest
from cloudvault.errors import (
    ConnectionFailure,
    DecryptionFailure,
    InvalidKey,
    IoFailure,
    StartupFailure,
    StorageUnavailable,
)
from cloudvault.system_server import StorageClient

ALICE = md5_digest(b"alice")
KEY = bytes(range(16))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------
# table rows

def test_table_rows_keep_their_format(local_stack, monkeypatch):
    otps = iter(["otp-one", "otp-two", "otp-three"])
    monkeypatch.setattr(crypto_core, "generate_otp", lambda: next(otps))
    monkeypatch.setattr(crypto_core, "generate_symmetric_key", lambda: KEY)
    stack = local_stack()
    stack.service.register("alice", "alice smith@example.test")
    token = stack.service.login("alice", "otp-one")
    stack.service.upload(token, "notes/2024 q1.txt", b"quarterly")

    system_dir = stack.config.data_dir
    storage_dir = stack.storages[0].config.data_dir
    assert _read(os.path.join(system_dir, "accounts.tsv")) == (
        b"6384e2b2184bcbf58eccf10ca7a6563c\t3ca2df10f6a1e66ac1999b85dc641213\t"
        b"alice%20smith%40example.test\n"
        b"6384e2b2184bcbf58eccf10ca7a6563c\t7ef2e1c62b6445b9c2735028fdb93a3f\t"
        b"alice%20smith%40example.test\n"
    )
    assert _read(os.path.join(system_dir, "keys.tsv")) == (
        b"6384e2b2184bcbf58eccf10ca7a6563c\tnotes%2F2024%20q1.txt\t1\t"
        b"000102030405060708090a0b0c0d0e0f\ts1\n"
    )
    assert _read(os.path.join(system_dir, "counter.txt")) == b"1024\n"
    # The entry: its header line, then the blob: a 16-byte nonce, the 9 bytes
    # of "quarterly", a 16-byte tag.
    log = _read(os.path.join(storage_dir, "blobs.dat"))
    assert log.startswith(b"1\t1\t0\t41\n") and len(log) == 9 + 41

    service, storage = stack.service, stack.storages[0]
    reloaded = stack.reload()
    assert reloaded.accounts == service.accounts
    assert reloaded.key_records == service.key_records
    assert stack.storages[0].records == storage.records
    account = reloaded.accounts[ALICE]
    assert account.mail_address == "alice smith@example.test"
    token = reloaded.login("alice", "otp-two")
    assert reloaded.download(token, "notes/2024 q1.txt") == b"quarterly"


DIGEST = ALICE.hex()
GOOD_ACCOUNT = f"{DIGEST}\t{DIGEST}\tmail"
GOOD_KEY = f"{DIGEST}\tlabel\t1\t{KEY.hex()}\ts1"
SHORT_KEY = "ab" * 15


@pytest.mark.parametrize(
    "name, row",
    [
        ("accounts.tsv", f"{DIGEST}\t{DIGEST}"),  # torn mid-row
        ("accounts.tsv", f"{DIGEST}\t{'zz' * 16}\tmail"),
        ("accounts.tsv", f"{DIGEST[:-2]}\t{DIGEST}\tmail"),
        ("keys.tsv", f"{DIGEST}\tlabel\t2\t{SHORT_KEY}\ts1"),
        ("keys.tsv", f"{DIGEST}\tlabel\t2\t{'zz' * 16}\ts1"),
        ("keys.tsv", f"{DIGEST}\tlabel\ttwo\t{SHORT_KEY}ab\ts1"),
        ("keys.tsv", f"{DIGEST}\tlabel\t2\t{SHORT_KEY}ab\ts1\textra"),
        ("counter.txt", "seven"),
    ],
)
def test_system_server_refuses_a_row_that_does_not_decode(local_stack, name, row):
    stack = local_stack()
    good = {"accounts.tsv": GOOD_ACCOUNT, "keys.tsv": GOOD_KEY, "counter.txt": ""}[name]
    with open(os.path.join(stack.config.data_dir, name), "w", encoding="utf-8") as fh:
        fh.write(f"{good}\n{row}\n")
    with pytest.raises(StartupFailure, match=rf"{name}: row 2 does not decode") as info:
        stack.reload()
    for cell in row.split("\t"):
        if len(cell) >= 16:  # digests and keys; never quoted
            assert cell not in str(info.value)
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_an_accounts_row_with_a_client_key_is_refused(local_stack):
    # The five-column row that builds with a client key pair wrote; cut -f1-3
    # converts such a file.
    stack = local_stack()
    otp_digest = md5_digest(b"otp-one").hex()
    with open(os.path.join(stack.config.data_dir, "accounts.tsv"), "w") as fh:
        fh.write(f"{DIGEST}\t{otp_digest}\talice%40example.test\t3233\t17\n")
    with pytest.raises(StartupFailure, match=r"accounts\.tsv: row 1 ") as info:
        stack.reload()
    assert DIGEST not in str(info.value)
    assert otp_digest not in str(info.value)


@pytest.mark.parametrize(
    "header",
    [
        "1\t1\t0",  # a cell short
        "1\t1\tzero\t32",
        f"{SHORT_KEY}\t1\t0\t32",
    ],
)
def test_storage_server_refuses_a_header_that_does_not_decode(local_stack, header):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "first", b"one")
    path = os.path.join(stack.storages[0].config.data_dir, "blobs.dat")
    end = os.path.getsize(path)
    with open(path, "ab") as fh:
        fh.write(header.encode() + b"\n" + bytes(64))
    with pytest.raises(
        StartupFailure, match=rf"blobs\.dat: entry at byte {end} does not decode$"
    ) as info:
        stack.reload()
    assert SHORT_KEY not in str(info.value)


@pytest.mark.parametrize("name", ["accounts.tsv", "keys.tsv", "blobs.dat"])
def test_a_torn_final_row_is_dropped_and_cut_off(local_stack, name):
    # A crash inside an append leaves an unterminated last line, or a log
    # entry cut short. It was never acknowledged (the ack follows the fsync),
    # so start-up drops it and cuts the file back, and the next append starts
    # a row or entry of its own.
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "first", b"one")
    owner = stack.storages[0] if name == "blobs.dat" else stack
    path = os.path.join(owner.config.data_dir, name)
    whole = _read(path)
    # blobs.dat holds the one entry, which may hold a newline of its own.
    last_row = whole.splitlines(keepends=True)[-1] if name != "blobs.dat" else whole
    with open(path, "ab") as fh:
        fh.write(last_row[: len(last_row) // 2])

    service = stack.reload()
    assert _read(path) == whole
    token = service.login("alice", stack.mail.latest("a@example.test"))
    assert service.download(token, "first") == b"one"
    service.upload(token, "second", b"two")

    service = stack.reload()
    assert _read(path).startswith(whole) and len(_read(path)) > len(whole)
    assert name == "blobs.dat" or _read(path).endswith(b"\n")
    token = service.login("alice", stack.mail.latest("a@example.test"))
    assert service.download(token, "first") == b"one"
    assert service.download(token, "second") == b"two"


def test_a_torn_row_that_cannot_be_cut_off_stops_start_up(tmp_path, monkeypatch):
    path = str(tmp_path / "keys.tsv")
    with open(path, "wb") as fh:
        fh.write(b"1\tone\n2\ttw")

    def refuse(fd):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(netutil.os, "fsync", refuse)
    with pytest.raises(StartupFailure, match=r"keys\.tsv: cannot cut off a torn row"):
        netutil.read_rows(path, (netutil.INT, netutil.WORD))


WRITERS = {
    "write_atomic": lambda path, pair: netutil.write_atomic(path, b"7\n"),
    "write_keypair": lambda path, pair: netutil.write_keypair(path, pair),
    "append_line": lambda path, pair: netutil.append_line(path, "7"),
    "append_bytes": lambda path, pair: netutil.append_bytes(path, b"7"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_write_atomic_fsyncs_the_file_then_its_directory(
    tmp_path, monkeypatch, client_keypair, writer
):
    path = str(tmp_path / "state")
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append(("dir" if is_dir else "file", _read(path) if is_dir else None))
        real_fsync(fd)

    monkeypatch.setattr(netutil.os, "fsync", recording_fsync)
    WRITERS[writer](path, client_keypair)
    # The directory is synced once the new name holds the data, so a power
    # loss cannot undo the rename or the create.
    assert synced == [("file", None), ("dir", _read(path))]
    synced.clear()
    WRITERS[writer](path, client_keypair)
    if writer.startswith("append_"):  # the name is durable already
        assert synced == [("file", None)]
    else:
        assert synced == [("file", None), ("dir", _read(path))]


# ---------------------------------------------------------------------
# file modes

PRIVATE_FILES = {
    "accounts.tsv", "keys.tsv", "counter.txt", "server_key.json",  # system
    "blobs.dat",  # storage
    "a%40example.test.mbox", "user.key",
}


def test_every_file_written_is_private(local_stack, tmp_path, client_keypair):
    old_umask = os.umask(0o022)
    try:
        stack = local_stack()
        token = stack.register_and_login("alice", "a@example.test")
        stack.service.upload(token, "first", b"one")
        mailbox.FileMailbox(str(tmp_path / "mail")).deliver("a@example.test", "otp")
        netutil.write_keypair(str(tmp_path / "user.key"), client_keypair)
    finally:
        os.umask(old_umask)
    modes = {
        name: stat.S_IMODE(os.stat(os.path.join(root, name)).st_mode)
        for root, _, names in os.walk(tmp_path)
        for name in names
    }
    assert PRIVATE_FILES <= set(modes)
    assert {name: oct(mode) for name, mode in modes.items() if mode != 0o600} == {}


def test_append_bytes_returns_where_the_data_starts(tmp_path):
    path = str(tmp_path / "blobs.dat")
    assert netutil.append_bytes(path, b"abc") == 0
    assert netutil.append_bytes(path, b"defg") == 3
    assert _read(path) == b"abcdefg"


def test_append_bytes_writes_each_part_as_it_is_under_one_fsync(tmp_path, monkeypatch):
    path = str(tmp_path / "blobs.dat")
    netutil.append_bytes(path, b"abc")
    parts = (b"de", bytearray(b"fgh"), memoryview(b"ij"))
    written, synced = [], []
    real = netutil._private_file

    @contextlib.contextmanager
    def recording_file(path, flags, mode):
        with real(path, flags, mode) as fh:
            real_write = fh.write

            def write(data):
                written.append(data)
                return real_write(data)

            fh.write = write
            yield fh

    real_fsync = os.fsync
    monkeypatch.setattr(netutil, "_private_file", recording_file)
    monkeypatch.setattr(netutil.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    assert netutil.append_bytes(path, *parts) == 3
    monkeypatch.undo()
    # Each part reaches the file object itself: none is joined to another.
    assert [id(data) for data in written] == [id(part) for part in parts]
    assert len(synced) == 1
    assert _read(path) == b"abcdefghij"


def test_an_older_world_readable_file_is_private_after_its_next_write(tmp_path):
    table, tmp = tmp_path / "keys.tsv", tmp_path / "counter.txt.tmp"
    table.write_bytes(b"1\tone\n")
    tmp.write_bytes(b"stale")
    for path in (table, tmp):
        os.chmod(path, 0o644)
    netutil.append_line(str(table), "2\ttwo")
    netutil.write_atomic(str(tmp_path / "counter.txt"), b"7\n")
    assert table.read_bytes() == b"1\tone\n2\ttwo\n"
    assert stat.S_IMODE(table.stat().st_mode) == 0o600
    assert stat.S_IMODE((tmp_path / "counter.txt").stat().st_mode) == 0o600


DURABLE_CALLS = {"fsync", "replace", "fchmod"}


def _durable_calls(tree: ast.AST):
    """Line numbers of the calls to os.fsync, os.replace and os.fchmod in
    ``tree``, however os or the function was imported."""
    os_names = {"os"}
    direct = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {a.asname for a in node.names if a.name == "os" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            direct |= {a.asname or a.name for a in node.names if a.name in DURABLE_CALLS}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute) and func.attr in DURABLE_CALLS
            and isinstance(func.value, ast.Name) and func.value.id in os_names
        ) or (isinstance(func, ast.Name) and func.id in direct):
            yield node.lineno


def test_only_netutil_makes_a_file_durable_or_sets_its_mode():
    # Every durable write goes through netutil's writers, the one seam a
    # crash explorer has to record.
    src_dir = os.path.dirname(netutil.__file__)
    offenders = {}
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py") and name != "netutil.py":
            with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
                found = list(_durable_calls(ast.parse(fh.read(), name)))
            if found:
                offenders[name] = found
    assert offenders == {}
    sample = "import os as o\nfrom os import replace as r\no.fsync(1)\nr('a', 'b')\n"
    assert list(_durable_calls(ast.parse(sample))) == [3, 4]


# ---------------------------------------------------------------------
# key file

def test_key_file_round_trip(tmp_path):
    pair = crypto_core.rsa_generate(1024)
    path = str(tmp_path / "key.json")
    netutil.write_keypair(path, pair)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    with open(path) as fh:
        assert set(json.load(fh)) == {"n", "e", "d"}
    assert netutil.read_keypair(path) == pair
    with open(path, "w", encoding="ascii") as fh:  # as perfbench/topology.py does
        json.dump({"n": str(pair.n), "e": str(pair.e), "d": str(pair.d)}, fh)
    assert netutil.read_keypair(path) == pair


def test_malformed_key_file_is_rejected_without_quoting_it(tmp_path):
    path = tmp_path / "key.json"
    for text in ("not json", '{"n": "12345678901", "e": "3"}', '["12345678901"]'):
        path.write_text(text)
        with pytest.raises(InvalidKey) as excinfo:
            netutil.read_keypair(str(path))
        assert "12345678901" not in str(excinfo.value)


# ---------------------------------------------------------------------
# keep-alive exchange

RESTART = "restart"


class FakePeer:
    """A frame server run by a script, one connection at a time.

    Each request frame is recorded, then answered with the script's next
    step: a Frame is sent back, a callable is called with the request and
    its result sent back, None hangs up without replying. A RESTART
    step, taken right after a reply, closes the connection and the listener
    and listens again on the same port. Once the script runs out, every
    request is recorded and hung up on.
    """

    def __init__(self, script):
        self.script = list(script)
        self.seen = []
        self.restarted = threading.Event()
        self._conn = None
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # stopped
            self._conn = conn
            with conn:
                while True:
                    if self.script and self.script[0] == RESTART:
                        self.script.pop(0)
                        conn.close()
                        self._listener.close()
                        self._listener = socket.create_server(("127.0.0.1", self.port))
                        self.restarted.set()
                        break
                    frame = protocol.read_frame(conn)
                    if frame is None:
                        break
                    self.seen.append(frame)
                    reply = self.script.pop(0) if self.script else None
                    if callable(reply):
                        reply = reply(frame)
                    if reply is None:
                        break
                    protocol.write_frame(conn, reply)

    def stop(self):
        for sock in (self._conn, self._listener):
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept or read
            except OSError:
                pass
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture
def peer():
    peers = []

    def start(script) -> FakePeer:
        peers.append(FakePeer(script))
        return peers[-1]

    yield start
    for p in peers:
        p.stop()


FETCH = protocol.FetchBlob(file_number=1)
STORE = protocol.StoreBlob(file_number=1, blob=b"\x00" * 32)
BLOB_REPLY = protocol.send_plain(protocol.BlobPayload(blob=b"\x00" * 32))
def registered(system_keypair):
    """A script step that answers a sealed Register as the system server does."""

    def answer(frame):  # only the first request on a connection opens
        conn = protocol.ConnectionState()
        protocol.recv_sealed(frame, system_keypair, conn)
        reply = protocol.LoginResponse(session_token="", status="REGISTERED")
        return protocol.send_reply(reply, conn)

    return answer


def test_storage_client_never_resends_a_written_request(peer):
    fake = peer([BLOB_REPLY, None])
    conn = netutil.FrameConnection("127.0.0.1", fake.port, timeout=10.0)
    client = StorageClient("s1", conn.round_trip)
    try:
        assert client.fetch(1) == b"\x00" * 32
        with pytest.raises(StorageUnavailable):
            # the peer read it, so it may have stored the blob
            client.store(1, b"\x00" * 32)
        assert [protocol.recv_plain(f) for f in fake.seen] == [FETCH, STORE]
    finally:
        conn.close()


@pytest.fixture
def session_for(tmp_path, client_keypair):
    # client_keypair stands in for the system key; the client holds none.
    sessions = []

    def build(port: int) -> ClientSession:
        public = {"n": str(client_keypair.n), "e": str(client_keypair.e)}
        config = ClientConfig("127.0.0.1", port, public, str(tmp_path / "client"))
        sessions.append(ClientSession(config))
        return sessions[-1]

    yield build
    for session in sessions:
        session.close()


def test_client_session_never_resends_a_written_request(
    peer, session_for, client_keypair
):
    fake = peer([registered(client_keypair), None])
    session = session_for(fake.port)
    session.register("alice", "a@example.test")
    with pytest.raises(ConnectionFailure, match="without replying"):
        session.register("alice", "a@example.test")
    assert len(fake.seen) == 2


def test_storage_client_reconnects_after_the_peer_restarts(peer):
    fake = peer([BLOB_REPLY, RESTART, BLOB_REPLY])
    conn = netutil.FrameConnection("127.0.0.1", fake.port, timeout=10.0)
    client = StorageClient("s1", conn.round_trip)
    try:
        assert client.fetch(1) == b"\x00" * 32
        first = conn._sock
        assert fake.restarted.wait(timeout=10)
        assert client.fetch(1) == b"\x00" * 32
        assert conn._sock is not first
        assert len(fake.seen) == 2
    finally:
        conn.close()


def test_client_session_reconnects_after_the_peer_restarts(
    peer, session_for, client_keypair
):
    fake = peer([registered(client_keypair), RESTART, registered(client_keypair)])
    session = session_for(fake.port)
    session.register("alice", "a@example.test")
    first = session._conn._sock
    assert fake.restarted.wait(timeout=10)
    session.register("bob", "b@example.test")
    assert session._conn._sock is not first
    assert len(fake.seen) == 2



def test_each_new_socket_gets_a_new_connection_state(peer):
    fake = peer([BLOB_REPLY, BLOB_REPLY, RESTART, BLOB_REPLY])
    conn = netutil.FrameConnection("127.0.0.1", fake.port, timeout=10.0)
    sealed_in, opened_in = [], []

    def seal(state):
        sealed_in.append(state)
        return protocol.send_plain(FETCH)

    def open_reply(reply, state):
        opened_in.append(state)
        return reply

    try:
        conn.exchange(seal, open_reply)
        conn.exchange(seal, open_reply)
        assert fake.restarted.wait(timeout=10)
        conn.exchange(seal, open_reply)
    finally:
        conn.close()
    assert all(s is o for s, o in zip(sealed_in, opened_in, strict=True))
    assert sealed_in[0] is sealed_in[1] and sealed_in[1] is not sealed_in[2]
    assert sealed_in[2] == protocol.ConnectionState()


def test_a_reply_that_does_not_open_closes_the_socket_and_the_next_request_rekeys(
    peer, session_for, client_keypair
):
    # The second reply is plain, so the client cannot open it: the two ends
    # may disagree on the connection's state from there on.
    forged = protocol.send_plain(protocol.LoginResponse(session_token="", status="OK"))
    fake = peer([registered(client_keypair), forged, registered(client_keypair)])
    session = session_for(fake.port)
    session.register("alice", "a@example.test")
    with pytest.raises(DecryptionFailure, match=protocol.UNOPENABLE_TEXT):
        session.register("bob", "b@example.test")
    assert session._conn._sock is None
    session.register("carol", "c@example.test")
    assert [frame.tag for frame in fake.seen] == [
        protocol.SEALED_TAG, protocol.KEYED_TAG, protocol.SEALED_TAG
    ]


def test_a_frame_server_gives_each_connection_its_own_state():
    states = []

    def handler(frame, conn):
        conn.seq += 1
        states.append(conn)
        return protocol.Frame(frame.tag, str(conn.seq).encode())

    server = netutil.start_frame_server("127.0.0.1", 0, handler)
    replies = []
    try:
        for _ in range(2):
            conn = netutil.FrameConnection("127.0.0.1", server.server_address[1], 10.0)
            try:
                for _ in range(2):
                    replies.append(conn.round_trip(protocol.Frame(0, b"")).payload)
            finally:
                conn.close()
    finally:
        server.stop()
    assert replies == [b"1", b"2", b"1", b"2"]
    assert states[0] is states[1] and states[1] is not states[2]


# ---------------------------------------------------------------------
# frame server

@pytest.fixture
def echo_server(monkeypatch):
    """A frame server that echoes each frame, with a 0.2 s stall bound. Its
    ``handlers`` list gains each connection's handler thread."""
    monkeypatch.setattr(netutil, "FRAME_STALL_TIMEOUT", 0.2)
    serve_frames = netutil._serve_frames
    handlers = []

    def recorded(frame_handler, sock):
        handlers.append(threading.current_thread())
        serve_frames(frame_handler, sock)

    monkeypatch.setattr(netutil, "_serve_frames", recorded)
    server = netutil.start_frame_server("127.0.0.1", 0, lambda frame, conn: frame)
    server.handlers = handlers
    yield server
    server.shutdown()
    server.server_close()


def _hang_up_time(sock, seconds: float, trickle: bool = False) -> float:
    """When the server closed ``sock``, sending one byte each 20 ms meanwhile
    if ``trickle``; fails after ``seconds``."""
    started = time.monotonic()
    sock.settimeout(0.02)
    while time.monotonic() - started < seconds:
        try:
            if not sock.recv(1):
                return time.monotonic()
        except TimeoutError:
            pass
        except ConnectionResetError:
            return time.monotonic()
        if trickle:
            sock.sendall(b"0")
    raise AssertionError(f"the server kept the connection for {seconds} s")


@pytest.mark.parametrize("trickle", [False, True], ids=["stalled", "trickling"])
def test_a_frame_that_does_not_arrive_in_time_is_dropped(echo_server, trickle):
    with socket.create_connection(echo_server.server_address, timeout=5.0) as sock:
        sent = time.monotonic()
        sock.sendall(b"\x0b\x00\x01\x00\x00" + b'{"file')  # 64 KiB declared
        assert _hang_up_time(sock, 5.0, trickle) - sent >= 0.2
    (handler,) = echo_server.handlers
    handler.join(timeout=5.0)
    assert not handler.is_alive()


def test_an_idle_connection_is_kept_between_frames(echo_server):
    frame = protocol.send_plain(FETCH)
    with socket.create_connection(echo_server.server_address, timeout=5.0) as sock:
        for _ in range(2):
            time.sleep(0.5)  # idle for more than the stall bound
            protocol.write_frame(sock, frame)
            assert protocol.read_frame(sock) == frame


# ---------------------------------------------------------------------
# server process shell

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(netutil.__file__)))
SERVER_CONFIGS = {
    "system_server": {
        "storage": [{"server_id": "s1", "host": "127.0.0.1", "port": 1}],
        "rsa_bits": 1024,
    },
    "storage_server": {"server_id": "s1"},
}


def _storage_config(tmp_path, **changes) -> str:
    port, admin_port = harness._free_ports(2)
    config = dict(
        server_id="s1", host="127.0.0.1", port=port, admin_port=admin_port,
        data_dir=str(tmp_path / "data"), seed=100,
    )
    config.update(changes)
    path = tmp_path / "storage.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_a_server_that_cannot_start_prints_one_coded_line(tmp_path, capsys):
    path = _storage_config(tmp_path, seed=0)
    assert storage_mod.main(["--config", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "INVALID_SEED: seed must be a positive integer, got 0"
    ]
    path = _storage_config(tmp_path, colour="blue")
    assert storage_mod.main(["--config", path]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"STARTUP_FAILURE: config {path}: ")
    assert "'colour'" in line
    path = _storage_config(tmp_path)
    (tmp_path / "data" / "blobs").mkdir(parents=True)
    assert storage_mod.main(["--config", path]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("STARTUP_FAILURE: ") and "blobs" in line
    for bad in ("{", "[]"):
        (tmp_path / "storage.json").write_text(bad)
        assert storage_mod.main(["--config", path]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"STARTUP_FAILURE: config {path}: ")


def test_a_system_server_with_no_storage_prints_one_coded_line(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "host": "127.0.0.1", "port": 0, "admin_port": 0, "storage": [],
        "data_dir": str(tmp_path / "data"), "mailbox_dir": str(tmp_path / "mail"),
    }))
    assert system_mod.main(["--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "STARTUP_FAILURE: at least one storage server is required"
    ]


def test_a_server_whose_port_is_taken_prints_one_coded_line(tmp_path, capsys):
    path = _storage_config(tmp_path)
    port = json.loads((tmp_path / "storage.json").read_text())["port"]
    with socket.create_server(("127.0.0.1", port)):
        assert storage_mod.main(["--config", path]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"STARTUP_FAILURE: ports {port} and ")
    for changes in ({"port": 65536}, {"admin_port": 65536}):  # no such port
        path = _storage_config(tmp_path, **changes)
        assert storage_mod.main(["--config", path]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("STARTUP_FAILURE: ports ") and "65536" in line


def _loading_config(tmp_path, module: str) -> dict:
    """A config that ``module``'s ``main`` loads; port 1 is never bound, as
    each case fails first."""
    storage = [{"server_id": "s1", "host": "127.0.0.1", "port": 1}]
    return {
        "storage_server": dict(
            server_id="s1", host="127.0.0.1", port=1, admin_port=1,
            data_dir=str(tmp_path / "data"), seed=100,
        ),
        "system_server": dict(
            host="127.0.0.1", port=1, admin_port=1, data_dir=str(tmp_path / "data"),
            storage=storage, mailbox_dir=str(tmp_path / "mail"), rsa_bits=1024,
        ),
        "client_cli": dict(
            system_host="127.0.0.1", system_port=1,
            system_public_key={"n": "3233", "e": "17"},
            keypair_path=str(tmp_path / "client"),
        ),
        "harness": dict(workdir=str(tmp_path / "work")),
    }[module]


# module -> (its main, the argv around "--config PATH", the code of a
# config that does not load)
MAINS = {
    "storage_server": (storage_mod.main, [], [], "STARTUP_FAILURE"),
    "system_server": (system_mod.main, [], [], "STARTUP_FAILURE"),
    "client_cli": (client_cli.main, [], ["list"], "IO_FAILURE"),
    "harness": (harness.main, ["audit"], [], "IO_FAILURE"),
}


@pytest.mark.parametrize(
    "module, key, value, message",
    [
        ("storage_server", "port", "x", "port must be int"),
        ("storage_server", "seed", True, "seed must be int"),
        ("storage_server", "admin_port", 1.0, "admin_port must be int"),
        ("system_server", "rsa_bits", "2048", "rsa_bits must be int"),
        ("system_server", "storage", ["s1"],
         "storage must be list[cloudvault.system_server.StorageTarget]"),
        ("system_server", "storage",
         [{"server_id": "s1", "host": "127.0.0.1", "port": "1"}], "port must be int"),
        ("client_cli", "system_port", "1", "system_port must be int"),
        ("harness", "storage_count", "2", "storage_count must be int"),
        ("harness", "sabotage", 1, "sabotage must be str | None"),
    ],
)
def test_a_config_value_of_the_wrong_type_is_one_coded_line(
    tmp_path, capsys, module, key, value, message
):
    main, before, after, code = MAINS[module]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_loading_config(tmp_path, module), key: value}))
    assert main([*before, "--config", str(path), *after]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{code}: config {path}: {message}"]
    assert sorted(os.listdir(tmp_path)) == ["config.json"]  # nothing was started


@pytest.mark.parametrize(
    "module, key, value",
    [("system_server", "sabotage", "keys_on_storage"),
     ("client_cli", "sabotage_plaintext_channel", True)],
)
def test_a_config_that_sets_a_removed_mis_build_switch_is_one_coded_line(
    tmp_path, capsys, module, key, value
):
    # The audit's mutations are made by the harness; no program ships one.
    main, before, after, code = MAINS[module]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_loading_config(tmp_path, module), key: value}))
    assert main([*before, "--config", str(path), *after]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{code}: config {path}: ") and key in line
    assert sorted(os.listdir(tmp_path)) == ["config.json"]  # nothing was started


def test_a_storage_port_past_16_bits_is_refused(tmp_path):
    # A connect keeps a port's low 16 bits: 70000 would reach port 4464.
    for port in (-1, 65536, 70000):
        with pytest.raises(ValueError, match=r"^port must be in 0\.\.65535$"):
            system_mod.StorageTarget(server_id="s1", host="127.0.0.1", port=port)
    assert system_mod.StorageTarget("s1", "127.0.0.1", 65535).port == 65535
    config = _loading_config(tmp_path, "system_server")
    config["storage"][0]["port"] = 70000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(IoFailure) as excinfo:
        netutil.load_config(str(path), system_mod.SystemConfig)
    assert str(excinfo.value) == f"config {path}: port must be in 0..65535"


def test_a_client_system_port_past_16_bits_is_one_coded_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    config = {**_loading_config(tmp_path, "client_cli"), "system_port": 70000}
    path.write_text(json.dumps(config))
    assert client_cli.main(["--config", str(path), "list"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"IO_FAILURE: config {path}: system_port must be in 0..65535"
    ]
    assert sorted(os.listdir(tmp_path)) == ["config.json"]  # nothing was started


@pytest.mark.parametrize(
    "module, key",
    [("storage_server", "data_dir"), ("system_server", "mailbox_dir"),
     ("storage_server", None)],
    ids=["data_dir under a file", "mailbox_dir under a file", "blobs.dat a directory"],
)
def test_a_path_a_server_cannot_use_is_one_coded_line(tmp_path, capsys, module, key):
    config = _loading_config(tmp_path, module)
    if key is None:
        bad_path = os.path.join(config["data_dir"], storage_mod.BLOBS_FILE)
        os.makedirs(bad_path)
    else:
        (tmp_path / "file").write_text("")
        bad_path = config[key] = str(tmp_path / "file" / key)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    main, *_ = MAINS[module]
    assert main(["--config", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("STARTUP_FAILURE: ") and bad_path in line


def _unknown_tag_reply(port: int, proc, timeout: float = 15.0) -> protocol.Frame:
    deadline = time.monotonic() + timeout
    while True:
        assert proc.poll() is None, f"exited with {proc.returncode}"
        assert time.monotonic() < deadline, f"port {port} never answered"
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
                protocol.write_frame(sock, protocol.Frame(tag=0x7F, payload=b""))
                return protocol.read_frame(sock)
        except OSError:
            time.sleep(0.02)


@pytest.mark.integration
@pytest.mark.parametrize("module", sorted(SERVER_CONFIGS))
def test_server_process_answers_then_exits_zero_on_sigterm(tmp_path, module):
    port, admin_port = harness._free_ports(2)
    config = dict(
        SERVER_CONFIGS[module], host="127.0.0.1", port=port, admin_port=admin_port,
        data_dir=str(tmp_path / "data"), seed=100,
    )
    if module == "system_server":  # it will not start without a mailbox
        config["mailbox_dir"] = str(tmp_path / "mailbox")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    proc = subprocess.Popen(
        [sys.executable, "-m", f"cloudvault.{module}", "--config", str(config_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    try:
        reply = _unknown_tag_reply(port, proc)
        assert isinstance(protocol.recv_plain(reply), protocol.ErrorFrame)
        netutil.fetch_admin_dump("127.0.0.1", admin_port)
        # A peer that reads only part of a reply and closes resets the
        # connection; the server drops it without a traceback.
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            protocol.write_frame(sock, protocol.Frame(tag=0x7F, payload=b""))
            assert sock.recv(1)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert stderr == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
