"""The benchmark in ``perfbench/`` traces cloudvault by wrapping its functions
by name. A rename in ``src/`` would silently zero a per-layer metric or the
wire count; these tests make it fail loudly instead. They only import
``perfbench/``, never modify it."""

import os
import subprocess
import sys

import pytest

from cloudvault import netutil, protocol

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

    def handler(frame):  # client_keypair is the system key in this exchange
        requests.append(frame)
        _, session_key = protocol.recv_sealed(frame, client_keypair)
        reply = protocol.LoginResponse(session_token="", status="REGISTERED")
        replies.append(protocol.send_reply(reply, session_key))
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
