"""A keep-alive client connection pays the system server's RSA private
operation once: its first sealed exchange keys it, and each later request
on it is numbered and sealed under the connection key alone. These tests run
the system service behind a real frame server, where each connection's key
and ``seq`` live."""

import dataclasses
import json
import select
import socket
import sys
import threading

import pytest

from cloudvault import client_cli, crypto_core, netutil, protocol
from cloudvault.errors import DecryptionFailure

from conftest import frame_bytes
from test_system_server import _data_files
from test_tamper import REFUSAL


class Wire:
    """A raw socket to the system server, keyed through the protocol
    functions, so tests can capture and resend its frames."""

    def __init__(self, port: int, pub):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.pub = pub
        self.conn = protocol.ConnectionState()

    def send(self, frame: protocol.Frame) -> protocol.Frame:
        protocol.write_frame(self.sock, frame)
        return protocol.read_frame(self.sock)

    def request(self, msg):
        """Seal ``msg`` as this connection's next request; returns the frame
        sent, a copy of the state its reply opens in, and the reply message."""
        frame = protocol.send_sealed(msg, self.pub, self.conn)
        sent = dataclasses.replace(self.conn)
        return frame, sent, protocol.recv_reply(self.send(frame), self.conn)


class Served:
    """A LocalStack's system service behind a frame server on a free port.
    ``sockets`` gains the server's end of each connection. Unless it
    ``keys_connections``, the server handles every frame on a fresh
    connection state, as a server from before keyed connections did."""

    def __init__(self, stack, monkeypatch, keys_connections: bool = True):
        self.stack = stack
        self.sockets = []
        serve_frames = netutil._serve_frames

        def recorded(frame_handler, sock):
            self.sockets.append(sock)
            serve_frames(frame_handler, sock)

        monkeypatch.setattr(netutil, "_serve_frames", recorded)
        handler = stack.service.handle_frame
        if not keys_connections:
            def handler(frame, conn):
                return stack.service.handle_frame(frame, protocol.ConnectionState())
        self.server = netutil.start_frame_server("127.0.0.1", 0, handler)
        self.port = self.server.server_address[1]
        self.wires = []

    def wire(self) -> Wire:
        self.wires.append(Wire(self.port, self.stack.service.keypair.public))
        return self.wires[-1]

    def stop(self):
        for wire in self.wires:
            wire.sock.close()
        self.server.stop()

    def client_config(self, tmp_path) -> dict:
        n, e = self.stack.service.keypair.public
        return {
            "system_host": "127.0.0.1",
            "system_port": self.port,
            "system_public_key": {"n": str(n), "e": str(e)},
            "keypair_path": str(tmp_path / "client"),
            "token_path": str(tmp_path / "client.session"),
        }


@pytest.fixture
def served(local_stack, monkeypatch):
    servers = []

    def build(keys_connections: bool = True) -> Served:
        servers.append(Served(local_stack(), monkeypatch, keys_connections))
        return servers[-1]

    yield build
    for s in servers:
        s.stop()


@pytest.fixture
def rsa_private_calls(monkeypatch):
    calls = []
    unwrap = crypto_core.rsa_decrypt_block

    def counted(wrapped, priv):
        calls.append(1)
        return unwrap(wrapped, priv)

    monkeypatch.setattr(crypto_core, "rsa_decrypt_block", counted)
    return calls


def _state(stack):
    """Everything a carried-out request could change: the data files and
    each session's owner and last use."""
    sessions = {
        token: (session.user_digest, session.last_used)
        for token, session in stack.service._sessions.items()
    }
    return _data_files(stack), sessions


def test_one_rsa_private_operation_per_connection(served, tmp_path, rsa_private_calls):
    s = served()
    config = client_cli.ClientConfig(**s.client_config(tmp_path))
    with client_cli.ClientSession(config) as session:
        session.register("alice", "a@example.test")
        session.login("alice", s.stack.mail.latest("a@example.test"))
        for i in range(5):
            session.upload(f"doc-{i}", f"file {i}".encode())
            assert session.download(f"doc-{i}") == f"file {i}".encode()
        assert len(session.list_labels()) == 5
        assert len(rsa_private_calls) == 1

        # the server drops the socket: the next request keys a new one
        (server_end,) = s.sockets
        server_end.shutdown(socket.SHUT_RDWR)
        assert select.select([session._conn._sock], [], [], 10)[0]
        for _ in range(3):
            assert len(session.list_labels()) == 5
        assert len(s.sockets) == 2
        assert len(rsa_private_calls) == 2

    # a CLI verb is one process making one request on one connection
    path = tmp_path / "client.json"
    path.write_text(json.dumps(s.client_config(tmp_path)))
    assert client_cli.main(["--config", str(path), "list"]) == 0
    assert len(rsa_private_calls) == 3


def test_threads_sharing_a_session_keep_its_seq_in_step(
    served, tmp_path, rsa_private_calls
):
    s = served()
    config = client_cli.ClientConfig(**s.client_config(tmp_path))
    errors = []

    def lists(session):
        try:
            for _ in range(25):
                assert session.list_labels() == []
        except Exception as exc:  # reported below, with the thread's failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with client_cli.ClientSession(config) as session:
            session.register("alice", "a@example.test")
            session.login("alice", s.stack.mail.latest("a@example.test"))
            threads = [threading.Thread(target=lists, args=(session,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(rsa_private_calls) == 1


@pytest.mark.parametrize("kind", ["upload", "download"])
def test_a_replayed_keyed_request_gets_the_one_refusal_and_changes_nothing(served, kind):
    s = served()
    token = s.stack.register_and_login("alice", "a@example.test")
    s.stack.service.upload(token, "doc", b"stored")
    listing = protocol.ListRequest(session_token=token)
    msg = {
        "upload": protocol.UploadRequest(session_token=token, label="new", file_bytes=b"x"),
        "download": protocol.DownloadRequest(session_token=token, label="doc"),
    }[kind]
    own = s.wire()
    own.request(listing)  # keys the connection
    captured, _, reply = own.request(msg)
    assert captured.tag == protocol.KEYED_TAG
    assert not isinstance(reply, protocol.ErrorFrame)
    unkeyed = s.wire()
    keyed = s.wire()
    keyed.request(listing)
    for wire in (own, unkeyed, keyed):
        before = _state(s.stack)
        assert frame_bytes(wire.send(captured)) == REFUSAL
        assert _state(s.stack) == before
    # a refusal moves no connection's seq: each still carries its next request
    labels = protocol.ListResponse(labels=tuple(s.stack.service.list_labels(token)))
    for wire in (own, keyed):
        assert wire.request(listing)[2] == labels


def test_a_replayed_first_request_is_still_carried_out(served):
    # The gap left open: an envelope stands on its own, so a captured one is
    # answered again on a new connection, sealed to its session key.
    s = served()
    token = s.stack.register_and_login("alice", "a@example.test")
    s.stack.service.upload(token, "doc", b"stored")
    captured, sent, reply = s.wire().request(
        protocol.DownloadRequest(session_token=token, label="doc")
    )
    assert captured.tag == protocol.SEALED_TAG
    assert reply == protocol.FilePayload(label="doc", file_bytes=b"stored")
    assert protocol.recv_reply(s.wire().send(captured), sent) == reply


def test_an_old_client_sending_only_envelopes_keeps_working(served, rsa_private_calls):
    s = served()
    token = s.stack.register_and_login("alice", "a@example.test")
    wire = s.wire()
    for _ in range(3):
        conn = protocol.ConnectionState()  # keeps no key: each request is an envelope
        frame = protocol.send_sealed(
            protocol.ListRequest(session_token=token), wire.pub, conn
        )
        assert protocol.recv_reply(wire.send(frame), conn) == protocol.ListResponse(
            labels=()
        )
    assert len(rsa_private_calls) == 3


def test_a_server_that_keys_no_connection_refuses_the_second_request(served, tmp_path):
    # A system server from before keyed connections takes envelopes only:
    # the client's second request fails, and the next one keys a new socket.
    s = served(keys_connections=False)
    config = client_cli.ClientConfig(**s.client_config(tmp_path))
    with client_cli.ClientSession(config) as session:
        session.register("alice", "a@example.test")
        with pytest.raises(DecryptionFailure, match=protocol.UNOPENABLE_TEXT):
            session.login("alice", s.stack.mail.latest("a@example.test"))
        session.login("alice", s.stack.mail.latest("a@example.test"))
        assert len(s.sockets) == 2
