"""The benchmark in ``perfbench/`` traces cloudvault by wrapping its functions
by name. A rename in ``src/`` would silently zero a per-layer metric or the
wire count; these tests make it fail loudly instead. They only import
``perfbench/``, never modify it."""

import json
import os
import subprocess
import sys

import pytest

from cloudvault import crypto_core, netutil, protocol

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import sys

import run
import spans
from cloudvault import protocol

spans.install(sys.argv[1], spans.Recorder())
run.WireCounter().install()
assert callable(protocol.write_frame) and callable(protocol.read_frame)
"""


# One client exchange in a process that has only the client side, so the
# count is the client's own frames.
EXCHANGE = """
import sys

import run
from cloudvault import client_cli

counter = run.WireCounter()
counter.install()
port, n, e, keypair_path = sys.argv[1:]
config = client_cli.ClientConfig("127.0.0.1", int(port), {"n": n, "e": e}, keypair_path)
with client_cli.ClientSession(config) as session:
    session.register("wire", "wire@bench.test")
print(counter.bytes)
"""


# Register, login, upload and download through an in-process system server,
# with one role's wrappers installed: every traced crypto_core call (request,
# reply and blob, sealed and opened) must run through its wrapper's info.
TRACED_EXCHANGE = """
import json
import sys
import tempfile

import spans
from cloudvault import mailbox, protocol, storage_server, system_server

recorder = spans.Recorder()
spans.install(sys.argv[1], recorder)
with tempfile.TemporaryDirectory() as root:
    storage = storage_server.StorageService(storage_server.StorageConfig(
        "s1", "127.0.0.1", 0, 0, root + "/s1", seed=100))
    mail = mailbox.InMemoryMailbox()
    service = system_server.SystemService(
        system_server.SystemConfig(
            "127.0.0.1", 0, 0, root + "/system", storage=[], rsa_bits=1024),
        mail_channel=mail,
        storage_clients=[system_server.StorageClient("s1", storage.handle_frame)],
    )

    def exchange(msg):
        client = protocol.ConnectionState()
        frame = protocol.send_sealed(msg, service.keypair.public, client)
        return protocol.recv_reply(
            service.handle_frame(frame, protocol.ConnectionState()), client)

    exchange(protocol.Register(username="u", mail_address="u@bench.test"))
    otp = mail.latest("u@bench.test")
    token = exchange(protocol.LoginRequest(username="u", otp=otp)).session_token
    exchange(protocol.UploadRequest(
        session_token=token, label="f", file_bytes=bytes(1000)))
    reply = exchange(protocol.DownloadRequest(session_token=token, label="f"))
    assert reply.file_bytes == bytes(1000)
print(json.dumps([span[5] for span in recorder.spans if span[0] == "crypto_core.aes"]))
"""


def _run(script: str, *args) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        ),
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("role", ["client", "system", "storage"])
def test_perfbench_hooks_find_every_traced_function(role):
    proc = _run(INSTALL, role)
    assert proc.returncode == 0, proc.stderr
    assert "not found; not traced" not in proc.stderr


def test_wire_counter_sees_a_client_exchange(tmp_path, client_keypair):
    keypair_path = str(tmp_path / "client")  # names no file; clients hold no key
    requests = []
    replies = []

    def handler(frame, conn):  # client_keypair is the system key in this exchange
        requests.append(frame)
        protocol.recv_sealed(frame, client_keypair, conn)
        reply = protocol.LoginResponse(session_token="", status="REGISTERED")
        replies.append(protocol.send_reply(reply, conn))
        return replies[-1]

    server = netutil.start_frame_server("127.0.0.1", 0, handler)
    try:
        proc = _run(
            EXCHANGE, str(server.server_address[1]),
            str(client_keypair.n), str(client_keypair.e), keypair_path,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert proc.returncode == 0, proc.stderr
    (request,) = requests
    (reply,) = replies
    frame_bytes = 2 * protocol.HEADER_LEN + len(request.payload) + len(reply.payload)
    assert int(proc.stdout) == frame_bytes


@pytest.mark.parametrize("role", ["client", "system"])
def test_traced_crypto_wrappers_accept_every_seal_and_open(role):
    proc = _run(TRACED_EXCHANGE, role)
    assert proc.returncode == 0, proc.stderr
    infos = json.loads(proc.stdout)
    # 4 round trips, each sealing and opening a request and a reply, then
    # the upload's blob sealed (1000 bytes in) and the download's opened
    # (1000 bytes and the 16-byte tag in)
    assert len(infos) == 4 * 4 + 2
    assert all(isinstance(size, int) and size > 0 for size in infos)
    assert 1000 in infos and 1000 + crypto_core.TAG_BYTES in infos
