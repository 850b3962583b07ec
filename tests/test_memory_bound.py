"""Per-request memory, as a multiple of the file size. Each frame is written
once, into one buffer, so a 4 MiB file costs a fixed few copies of itself
per request. Each bound is the multiple reached when every frame writer
started writing in place; a change that adds a whole-file copy fails here,
and a bound is never raised to let one pass."""

import os
import tracemalloc

import pytest

from cloudvault import protocol
from conftest import LocalStack

FILE_BYTES = 4 * 1024 * 1024
# Room for what does not grow with the file: hex chunks, small frames, keys.
SLACK = 0.1

BOUNDS = {
    "system and storage: upload": 5,
    "system and storage: download": 5,
    "client: seal an upload": 4,
    "client: open a download reply": 3,
    # The decoded blob only: its header is written beside it, never joined.
    "storage: store a blob": 1,
}


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """A system server and one storage server, in-process, holding one
    4 MiB file, with a session."""
    stack = LocalStack(tmp_path_factory.mktemp("memory"))
    stack.token = stack.register_and_login("alice", "a@example.test")
    stack.data = os.urandom(FILE_BYTES)
    stack.service.upload(stack.token, "stored", stack.data)
    return stack


def _seal(stack, msg):
    """``msg`` sealed as the first request on a new connection, and the
    client's state of that connection."""
    client = protocol.ConnectionState()
    return protocol.send_sealed(msg, stack.service.keypair.public, client), client


def _handle(stack, frame) -> protocol.Frame:
    return stack.service.handle_frame(frame, protocol.ConnectionState())


def _case(stack, name):
    """The step to trace, its input built first, and a check of its result."""
    upload = protocol.UploadRequest(
        session_token=stack.token, label=name, file_bytes=stack.data
    )
    download = protocol.DownloadRequest(session_token=stack.token, label="stored")
    if name == "system and storage: upload":
        frame, client = _seal(stack, upload)
        return (
            lambda: _handle(stack, frame),
            lambda reply: isinstance(protocol.recv_reply(reply, client), protocol.UploadAck),
        )
    if name == "system and storage: download":
        frame, client = _seal(stack, download)
        return (
            lambda: _handle(stack, frame),
            lambda reply: protocol.recv_reply(reply, client).file_bytes == stack.data,
        )
    if name == "storage: store a blob":
        frame = protocol.send_plain(
            protocol.StoreBlob(file_number=10**6, blob=stack.data)
        )
        return (
            lambda: stack.storages[0].handle_frame(frame),
            lambda reply: isinstance(protocol.recv_plain(reply), protocol.UploadAck),
        )
    if name == "client: seal an upload":
        return (
            lambda: _seal(stack, upload),
            lambda sealed: protocol.recv_sealed(
                sealed[0], stack.service.keypair, protocol.ConnectionState()
            ) == upload,
        )
    frame, client = _seal(stack, download)
    reply = _handle(stack, frame)
    return (
        lambda: protocol.recv_reply(reply, client),
        lambda msg: msg.file_bytes == stack.data,
    )


@pytest.mark.parametrize("name", BOUNDS)
def test_a_request_holds_a_fixed_multiple_of_its_file(stack, name):
    step, check = _case(stack, name)
    tracemalloc.start()
    try:
        result = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check(result)
    assert peak / FILE_BYTES <= BOUNDS[name] + SLACK
