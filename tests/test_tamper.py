"""Tampered ciphertext is refused, never opened into something else: every
byte of a sealed request and of a stored blob is covered by a GCM tag, a
blob's tag also binds the user and file number it was stored under, and a
request on a keyed connection and its reply bind the request's number."""

import dataclasses
import os

import pytest

from cloudvault import crypto_core, protocol
from cloudvault.errors import DecryptionFailure, IntegrityFailure

from test_protocol import old_cbc_seal
from test_system_server import CountingMailbox, _data_files, _seal

REFUSAL = protocol.send_plain(
    protocol.ErrorFrame(code="DECRYPTION_FAILURE", text=protocol.UNOPENABLE_TEXT)
).to_bytes()


def _flips(payload: bytes):
    for index in range(len(payload)):
        for mask in (0x01, 0x80):
            flipped = bytearray(payload)
            flipped[index] ^= mask
            yield index, bytes(flipped)


def _assert_refused_and_unchanged(
    stack, payload: bytes, where, tag=protocol.SEALED_TAG, conn=None
):
    files, mails = _data_files(stack), stack.mail.deliveries
    if conn is None:
        conn = protocol.ConnectionState()
    state = dataclasses.replace(conn)
    reply = stack.service.handle_frame(protocol.Frame(tag, payload), conn)
    assert reply.to_bytes() == REFUSAL, where
    assert _data_files(stack) == files, where
    assert stack.mail.deliveries == mails, where
    assert conn == state, where


@pytest.fixture
def stack(local_stack):
    stack = local_stack()
    stack.mail = CountingMailbox()
    stack.reload()
    return stack


def _request(kind: str, token: str):
    return {
        "register": protocol.Register(username="bob", mail_address="b@example.test"),
        "upload": protocol.UploadRequest(
            session_token=token, label="new", file_bytes=b"fresh bytes"
        ),
        "download": protocol.DownloadRequest(session_token=token, label="aaa"),
    }[kind]


@pytest.mark.parametrize("kind", ["register", "upload", "download"])
def test_every_byte_flip_of_a_sealed_request_gets_the_one_refusal(stack, kind):
    # wrapped key, nonce, body and GCM tag alike: nothing runs, nothing changes
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "aaa", b"stored")
    payload = _seal(stack, _request(kind, token)).payload
    for index, flipped in _flips(payload):
        _assert_refused_and_unchanged(stack, flipped, (kind, index))


def _keyed(stack, token: str):
    """A client's and the server's state of one connection, keyed by a
    genuine first exchange."""
    client, server = protocol.ConnectionState(), protocol.ConnectionState()
    frame = protocol.send_sealed(
        protocol.ListRequest(session_token=token), stack.service.keypair.public, client
    )
    protocol.recv_reply(stack.service.handle_frame(frame, server), client)
    return client, server


@pytest.mark.parametrize("kind", ["register", "upload", "download"])
def test_every_byte_flip_of_a_keyed_request_gets_the_one_refusal(stack, kind):
    # seq, nonce, body and GCM tag alike: nothing runs, nothing changes, and
    # the connection still waits for the same seq
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "aaa", b"stored")
    client, server = _keyed(stack, token)
    frame = protocol.send_sealed(_request(kind, token), None, client)
    assert frame.tag == protocol.KEYED_TAG
    for index, flipped in _flips(frame.payload):
        _assert_refused_and_unchanged(
            stack, flipped, (kind, index), protocol.KEYED_TAG, server
        )
    reply = protocol.recv_reply(stack.service.handle_frame(frame, server), client)
    assert not isinstance(reply, protocol.ErrorFrame)


def test_a_reply_opens_only_as_the_answer_to_its_own_request(stack):
    token = stack.register_and_login("alice", "a@example.test")
    client, server = _keyed(stack, token)
    replies = {}
    for _ in range(2):
        frame = protocol.send_sealed(protocol.ListRequest(session_token=token), None, client)
        replies[client.seq] = stack.service.handle_frame(frame, server)
    for answered, reply in replies.items():
        for seq in (1, 2):
            asked = protocol.ConnectionState(key=client.key, keyed=True, seq=seq)
            if seq == answered:
                assert protocol.recv_reply(reply, asked) == protocol.ListResponse(labels=())
            else:
                with pytest.raises(DecryptionFailure, match=protocol.UNOPENABLE_TEXT):
                    protocol.recv_reply(reply, asked)


def test_rewriting_the_first_block_of_a_download_is_refused(stack):
    # Under CBC, XOR on the IV rewrote the inner frame's first block: this
    # turned a download of "aaa" into a download of "baa" that nobody sent.
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "aaa", b"asked for")
    stack.service.upload(token, "baa", b"never asked for")
    request = protocol.DownloadRequest(session_token=token, label="aaa")
    payload = bytearray(_seal(stack, request).payload)
    inner = protocol.encode_frame(request)
    assert inner[15:16] == b"a"  # the label's first letter ends the first block
    k = crypto_core.modulus_bytes(stack.service.keypair.n)
    payload[k + 15] ^= ord("a") ^ ord("b")
    _assert_refused_and_unchanged(stack, bytes(payload), "first block")


def _stored(stack, file_number: int):
    """The storage service that holds ``file_number`` and its record."""
    for storage in stack.storages:
        record = storage.records.get(file_number)
        if record is not None:
            return storage, record
    raise AssertionError(f"no blob {file_number}")


def _log_path(storage) -> str:
    return os.path.join(storage.config.data_dir, "blobs.dat")


def _read_blob(stack, file_number: int) -> bytes:
    storage, record = _stored(stack, file_number)
    with open(_log_path(storage), "rb") as fh:
        fh.seek(record.start)
        return fh.read(record.length)


def _write_blob(stack, file_number: int, blob: bytes):
    """Overwrite the blob's region of blobs.dat in place."""
    storage, record = _stored(stack, file_number)
    assert len(blob) == record.length
    with open(_log_path(storage), "r+b") as fh:
        fh.seek(record.start)
        fh.write(blob)


def _repoint(stack, regions: dict) -> None:
    """Rewrite each named file number's records.tsv row to name another
    (start, length) region of blobs.dat, then restart the stack."""
    for storage in stack.storages:
        path = os.path.join(storage.config.data_dir, "records.tsv")
        with open(path, encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        for cells in rows:
            if int(cells[0]) in regions:
                cells[3:5] = map(str, regions[int(cells[0])])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("\t".join(cells) + "\n" for cells in rows))
    stack.reload()


def test_every_byte_flip_of_a_stored_blob_raises_integrity_failure(stack):
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", b"precious bytes")
    record = stack.service.key_records[(crypto_core.md5_digest(b"alice"), "doc")]
    blob = _read_blob(stack, record.file_number)
    for index, flipped in _flips(blob):
        _write_blob(stack, record.file_number, flipped)
        with pytest.raises(IntegrityFailure):
            stack.service.download(token, "doc")
    _write_blob(stack, record.file_number, blob)
    assert stack.service.download(token, "doc") == b"precious bytes"


def _swap(stack, first: int, second: int):
    # Blobs may differ in length, so each row is pointed at the other's region.
    a, b = _stored(stack, first)[1], _stored(stack, second)[1]
    _repoint(stack, {first: (b.start, b.length), second: (a.start, a.length)})


@pytest.mark.parametrize(
    "owners", [("alice", "alice"), ("alice", "bob")], ids=["file numbers", "users"]
)
def test_blobs_swapped_between_file_numbers_or_users_are_detected(stack, owners):
    tokens = {}
    for i, name in enumerate(owners):
        if name not in tokens:
            tokens[name] = stack.register_and_login(name, f"{name}@example.test")
        stack.service.upload(tokens[name], f"doc{i}", f"{name}'s doc {i}".encode())
    _swap(stack, *(r.file_number for r in stack.service.key_records.values()))
    for name in tokens:  # the restart ended every session
        tokens[name] = stack.service.login(
            name, stack.mail.latest(f"{name}@example.test")
        )
    for i, name in enumerate(owners):
        with pytest.raises(IntegrityFailure):
            stack.service.download(tokens[name], f"doc{i}")


def test_a_blob_stored_before_aes_gcm_is_refused(stack):
    # Old AES-CBC blobs (iv ‖ PKCS#7 body) are refused, not converted.
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "old", b"stored by an older build")
    record = stack.service.key_records[(crypto_core.md5_digest(b"alice"), "old")]
    old = old_cbc_seal(b"stored by an older build", record.key)
    storage, _ = _stored(stack, record.file_number)
    with open(_log_path(storage), "ab") as fh:
        start = fh.tell()
        fh.write(old)
    _repoint(stack, {record.file_number: (start, len(old))})
    token = stack.service.login("alice", stack.mail.latest("a@example.test"))
    with pytest.raises(IntegrityFailure):
        stack.service.download(token, "old")
