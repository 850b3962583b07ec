import hashlib
import json
import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from cloudvault import crypto_core, mailbox, protocol
from cloudvault import system_server as system_mod
from cloudvault.crypto_core import md5_digest
from cloudvault.errors import (
    AuthFailed,
    DecryptionFailure,
    DuplicateLabel,
    DuplicateUser,
    FileTooLarge,
    InvalidSession,
    MailDeliveryFailure,
    MalformedPayload,
    NoSuchLabel,
    StartupFailure,
    StorageUnavailable,
)
from cloudvault.system_server import StorageClient


class FailingMailbox:
    def deliver(self, address, body):
        raise MailDeliveryFailure("smtp down")


class SimulatedCrash(RuntimeError):
    pass


# ---------------------------------------------------------------------
# registration

def test_register_mails_one_otp_and_stores_digests(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    mails = stack.mail.messages("a@example.test")
    assert len(mails) == 1
    assert len(mails[0]) == 16
    account = stack.service.accounts[md5_digest(b"alice")]
    assert account.otp_digest == md5_digest(mails[0].encode())
    with open(os.path.join(stack.config.data_dir, "accounts.tsv"), "rb") as fh:
        table = fh.read()
    assert b"alice" not in table
    assert mails[0].encode() not in table
    assert md5_digest(b"alice").hex().encode() in table


def test_register_twice_fails(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    with pytest.raises(DuplicateUser):
        stack.service.register("alice", "other@example.test")


def test_usernames_are_case_sensitive(local_stack):
    stack = local_stack()
    stack.service.register("Alice", "a1@example.test")
    stack.service.register("alice", "a2@example.test")
    # Independent digest check: the two accounts sit under different md5 rows.
    assert hashlib.md5(b"Alice").digest() != hashlib.md5(b"alice").digest()
    assert len(stack.service.accounts) == 2


def test_failed_mail_rolls_back_registration(local_stack):
    stack = local_stack()
    stack.service.mail = FailingMailbox()
    with pytest.raises(MailDeliveryFailure):
        stack.service.register("alice", "a@example.test")
    assert stack.service.accounts == {}
    assert not os.path.exists(os.path.join(stack.config.data_dir, "accounts.tsv"))


# ---------------------------------------------------------------------
# login and OTP rotation

def test_login_rotates_the_password(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    first_otp = stack.mail.latest("a@example.test")
    token = stack.service.login("alice", first_otp)
    assert len(token) == 32
    mails = stack.mail.messages("a@example.test")
    assert len(mails) == 2 and mails[1] != first_otp


def test_replayed_otp_fails(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    otp = stack.mail.latest("a@example.test")
    stack.service.login("alice", otp)
    with pytest.raises(AuthFailed):
        stack.service.login("alice", otp)


def test_unknown_user_and_wrong_otp_fail_identically(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    with pytest.raises(AuthFailed) as wrong_otp:
        stack.service.login("alice", "A" * 16)
    with pytest.raises(AuthFailed) as unknown:
        stack.service.login("nobody", "A" * 16)
    assert str(wrong_otp.value) == str(unknown.value)


def test_otp_digest_history_never_validates_twice(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    digests = []
    for _ in range(4):
        otp = stack.mail.latest("a@example.test")
        stack.service.login("alice", otp)
        digests.append(stack.service.accounts[md5_digest(b"alice")].otp_digest)
        with pytest.raises(AuthFailed):
            stack.service.login("alice", otp)
    assert len(set(digests)) == 4


# ---------------------------------------------------------------------
# sessions

def test_sessions_expire(local_stack, monkeypatch):
    monkeypatch.setattr(system_mod, "DEFAULT_SESSION_TTL", 0.05)
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "one", b"data")
    time.sleep(0.1)
    with pytest.raises(InvalidSession):
        stack.service.upload(token, "two", b"data")


def test_bogus_token_rejected(local_stack):
    stack = local_stack()
    with pytest.raises(InvalidSession):
        stack.service.upload("ff" * 16, "doc", b"data")


def test_logins_keep_only_the_newest_sessions_per_user(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    tokens = [
        stack.service.login("alice", stack.mail.latest("a@example.test"))
        for _ in range(200)
    ]
    assert len(stack.service._sessions) <= system_mod.MAX_SESSIONS_PER_USER
    assert stack.service.list_labels(tokens[-1]) == []
    with pytest.raises(InvalidSession):
        stack.service.list_labels(tokens[0])


def test_a_login_drops_expired_sessions(local_stack, monkeypatch):
    monkeypatch.setattr(system_mod, "DEFAULT_SESSION_TTL", 0.05)
    stack = local_stack()
    stack.register_and_login("alice", "a@example.test")
    time.sleep(0.1)
    token = stack.register_and_login("bob", "b@example.test")
    assert list(stack.service._sessions) == [token]


def test_restart_invalidates_sessions(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    service = stack.reload()
    with pytest.raises(InvalidSession):
        service.list_labels(token)


# ---------------------------------------------------------------------
# upload / download

def test_upload_download_round_trip(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    payload = os.urandom(5000)
    stack.service.upload(token, "doc", payload)
    assert stack.service.download(token, "doc") == payload


def test_every_upload_uses_a_fresh_key(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for i in range(8):
        stack.service.upload(token, f"doc-{i}", b"same content")
    keys = [record.key for record in stack.service.key_records.values()]
    assert len(set(keys)) == 8


def test_duplicate_label_rejected_cleanly(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", b"one")
    with pytest.raises(DuplicateLabel):
        stack.service.upload(token, "doc", b"two")
    assert stack.service.download(token, "doc") == b"one"


def test_same_label_different_users_is_fine(local_stack):
    stack = local_stack()
    token_a = stack.register_and_login("alice", "a@example.test")
    token_b = stack.register_and_login("bob", "b@example.test")
    stack.service.upload(token_a, "doc", b"alice bytes")
    stack.service.upload(token_b, "doc", b"bob bytes")
    assert stack.service.download(token_a, "doc") == b"alice bytes"
    assert stack.service.download(token_b, "doc") == b"bob bytes"


def test_empty_label_rejected(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    with pytest.raises(MalformedPayload):
        stack.service.upload(token, "", b"data")


def test_file_size_cap(local_stack, monkeypatch):
    monkeypatch.setattr(system_mod, "DEFAULT_MAX_FILE_BYTES", 100)
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    with pytest.raises(FileTooLarge):
        stack.service.upload(token, "big", b"x" * 101)


def test_download_unknown_label(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    with pytest.raises(NoSuchLabel):
        stack.service.download(token, "ghost")


def test_labels_survive_awkward_characters(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    label = "we\tird\nname éü%"
    stack.service.upload(token, label, b"data")
    service = stack.reload()
    token2 = service.login("alice", stack.mail.latest("a@example.test"))
    assert service.list_labels(token2) == [label]
    assert service.download(token2, label) == b"data"


def test_storage_outage_persists_no_key_record(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")

    def dead_transport(frame):
        raise StorageUnavailable("cable cut")

    stack.service.storage_clients = [StorageClient("s1", dead_transport)]
    with pytest.raises(StorageUnavailable):
        stack.service.upload(token, "doc", b"data")
    assert stack.service.key_records == {}
    assert not os.path.exists(os.path.join(stack.config.data_dir, "keys.tsv"))


def test_storage_client_refuses_an_ack_that_is_not_stored():
    def answers_ok(frame):
        return protocol.send_plain(protocol.UploadAck(label="1", status="OK"))

    with pytest.raises(StorageUnavailable, match="unexpected ack 'OK'"):
        StorageClient("s1", answers_ok).store(md5_digest(b"alice"), 1, bytes(32))


def test_uploaded_bytes_never_reach_system_persistence(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    marker = b"NEEDLE-IN-THE-TABLES"
    stack.service.upload(token, "doc", marker * 20)
    for name, data in stack.service.dump_tables().items():
        assert marker not in data, name
        assert marker.hex().encode() not in data, name


def test_ciphertext_bodies_never_reach_system_persistence(local_stack):
    # The system server keeps keys and metadata; blob bytes live on storage only.
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", os.urandom(600))
    record = next(iter(stack.service.key_records.values()))
    blob = stack.storages[0].fetch_blob(record.user_digest, record.file_number)
    sample = blob[16:48]  # a slice of the ciphertext body
    for name, data in stack.service.dump_tables().items():
        assert sample not in data, name
        assert sample.hex().encode() not in data, name


# ---------------------------------------------------------------------
# file numbering

def test_file_numbers_start_at_one(local_stack):
    stack = local_stack()
    assert stack.service.next_file_number() == 1


def test_file_numbers_follow_uploads(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for i in range(3):
        stack.service.upload(token, f"doc-{i}", b"data")
    assert stack.service.next_file_number() == 4


def test_counter_survives_restart(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for i in range(3):
        stack.service.upload(token, f"doc-{i}", b"data")
    service = stack.reload()
    assert service.next_file_number() == 4


def test_file_numbers_survive_a_lost_counter(local_stack):
    # A rename the directory never recorded can leave counter.txt behind
    # keys.tsv; the numbers in the key table still bound the sequence.
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for i in range(3):
        stack.service.upload(token, f"doc-{i}", b"data")
    os.unlink(os.path.join(stack.config.data_dir, "counter.txt"))
    service = stack.reload()
    token = service.login("alice", stack.mail.latest("a@example.test"))
    service.upload(token, "doc-3", b"data")
    assert service.key_records[(md5_digest(b"alice"), "doc-3")].file_number == 4


def test_burned_numbers_are_never_reissued(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", b"data")

    def dead_transport(frame):
        raise StorageUnavailable("down")

    good_clients = stack.service.storage_clients
    stack.service.storage_clients = [StorageClient("s1", dead_transport)]
    with pytest.raises(StorageUnavailable):
        stack.service.upload(token, "lost", b"data")
    stack.service.storage_clients = good_clients
    stack.service.upload(token, "after", b"data")
    numbers = sorted(r.file_number for r in stack.service.key_records.values())
    assert numbers == [1, 3]  # 2 burned by the failed attempt


# ---------------------------------------------------------------------
# round-robin placement across storage servers

def test_round_robin_across_three_storages(local_stack):
    stack = local_stack(storage_count=3)
    token = stack.register_and_login("alice", "a@example.test")
    for i in range(6):
        stack.service.upload(token, f"doc-{i}", b"data")
    counts = {s.config.server_id: len(s.records) for s in stack.storages}
    assert counts == {"s1": 2, "s2": 2, "s3": 2}


def test_concurrent_uploads_take_different_storages(local_stack):
    stack = local_stack(storage_count=2)
    token = stack.register_and_login("alice", "a@example.test")
    # Each store blocks until both uploads are inside one, so both have
    # picked their storage before either records its key.
    both_storing = threading.Barrier(2, timeout=10)

    def blocking_transport(storage):
        def transport(frame):
            if isinstance(protocol.recv_plain(frame), protocol.StoreBlob):
                both_storing.wait()
            return storage.handle_frame(frame)

        return transport

    stack.service.storage_clients = [
        StorageClient(s.config.server_id, blocking_transport(s)) for s in stack.storages
    ]
    failures = []

    def upload(label):
        try:
            stack.service.upload(token, label, b"data")
        except Exception as exc:  # surface into the main thread
            failures.append(exc)

    threads = [threading.Thread(target=upload, args=(f"doc-{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
        assert not thread.is_alive()
    assert failures == []
    used = sorted(r.storage_id for r in stack.service.key_records.values())
    assert used == ["s1", "s2"]


def test_round_robin_continues_after_restart(local_stack):
    stack = local_stack(storage_count=2)
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "before", b"data")
    service = stack.reload()
    token = service.login("alice", stack.mail.latest("a@example.test"))
    service.upload(token, "after", b"data")
    stored = {label: r.storage_id for (_, label), r in service.key_records.items()}
    assert stored == {"before": "s1", "after": "s2"}


def test_inconsistent_server_key_file_fails_startup(local_stack):
    stack = local_stack()
    pair = stack.service.keypair
    bad_d = str(pair.d + 2)
    path = os.path.join(stack.config.data_dir, "server_key.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"n": str(pair.n), "e": str(pair.e), "d": bad_d}, fh)
    with pytest.raises(StartupFailure) as excinfo:
        stack.reload()
    message = str(excinfo.value)
    assert bad_d not in message and str(pair.n) not in message


# ---------------------------------------------------------------------
# concurrency

def test_concurrent_sessions_for_distinct_users(local_stack):
    import threading

    stack = local_stack(storage_count=2)
    tokens = {
        name: stack.register_and_login(name, f"{name}@example.test")
        for name in ("ann", "ben", "cas", "dee")
    }
    failures = []

    def work(name, token):
        try:
            for i in range(5):
                payload = f"{name}-{i}".encode() * 50
                stack.service.upload(token, f"doc-{i}", payload)
                assert stack.service.download(token, f"doc-{i}") == payload
        except Exception as exc:  # surface into the main thread
            failures.append((name, exc))

    threads = [
        threading.Thread(target=work, args=item) for item in tokens.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(stack.service.key_records) == 20
    keys = [record.key for record in stack.service.key_records.values()]
    assert len(set(keys)) == 20


def test_concurrent_same_label_has_one_winner(local_stack):
    import threading

    stack = local_stack()
    token = stack.register_and_login("race", "race@example.test")
    barrier = threading.Barrier(2)
    outcomes = []

    def attempt(payload):
        barrier.wait()
        try:
            stack.service.upload(token, "contested", payload)
            outcomes.append(("ok", payload))
        except DuplicateLabel:
            outcomes.append(("duplicate", payload))

    threads = [
        threading.Thread(target=attempt, args=(payload,))
        for payload in (b"first-writer", b"second-writer")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(result for result, _ in outcomes) == ["duplicate", "ok"]
    winner = next(payload for result, payload in outcomes if result == "ok")
    assert stack.service.download(token, "contested") == winner


# ---------------------------------------------------------------------
# crash consistency (fault injection between the two writes)

def test_crash_between_store_and_key_write(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")

    def crash():
        raise SimulatedCrash()

    stack.service.after_blob_store = crash
    with pytest.raises(SimulatedCrash):
        stack.service.upload(token, "doc", b"data")
    stack.service.after_blob_store = None

    # No key record in memory or on disk; the blob may exist as an orphan.
    assert stack.service.key_records == {}
    assert not os.path.exists(os.path.join(stack.config.data_dir, "keys.tsv"))
    service = stack.reload()
    assert service.key_records == {}
    # Every surviving key record must reference an acknowledged blob.
    for record in service.key_records.values():
        stack.storages[0].fetch_blob(record.user_digest, record.file_number)
    # The label is free for a clean retry.
    token = service.login("alice", stack.mail.latest("a@example.test"))
    service.upload(token, "doc", b"data")
    assert service.download(token, "doc") == b"data"


# ---------------------------------------------------------------------
# audit snapshot

def test_dump_contains_keys_but_no_identities(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", b"file body")
    dump = stack.service.dump_tables()
    record = next(iter(stack.service.key_records.values()))
    assert record.key.hex().encode() in dump["keys.tsv"]
    assert md5_digest(b"alice").hex().encode() in dump["keys.tsv"]
    for data in dump.values():
        assert b"alice" not in data


# ---------------------------------------------------------------------
# protocol dispatch

def _seal(stack, msg, session_key=None) -> protocol.Frame:
    session_key = session_key or crypto_core.generate_symmetric_key()
    return protocol.send_sealed(msg, stack.service.keypair.public, session_key)


def _sealed_exchange(stack, msg):
    session_key = crypto_core.generate_symmetric_key()
    reply = stack.service.handle_frame(_seal(stack, msg, session_key))
    if reply.tag == protocol.REPLY_TAG:
        return protocol.recv_reply(reply, session_key)
    return protocol.recv_plain(reply)


def test_register_over_the_wire(local_stack):
    stack = local_stack()
    reply = _sealed_exchange(
        stack, protocol.Register(username="wire-user", mail_address="w@example.test")
    )
    assert reply == protocol.LoginResponse(session_token="", status="REGISTERED")
    assert stack.mail.messages("w@example.test")


def test_a_taken_username_is_refused_in_a_sealed_reply(local_stack):
    # A Register identifies its sender: only it can open the reply.
    stack = local_stack()
    msg = protocol.Register(username="wire-user", mail_address="w@example.test")
    _sealed_exchange(stack, msg)
    session_key = crypto_core.generate_symmetric_key()
    reply = stack.service.handle_frame(_seal(stack, msg, session_key))
    assert reply.tag == protocol.REPLY_TAG
    error = protocol.recv_reply(reply, session_key)
    assert error == protocol.ErrorFrame(
        code="DUPLICATE_USER", text="that username is taken"
    )


def _seal_by_hand(stack, tag, obj, session_key) -> protocol.Frame:
    """Seal a request whose JSON payload the message writer would refuse. The
    payload keeps the writer's layout, so the reader gets as far as the field
    codecs."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    inner = protocol.Frame(tag=tag, payload=payload.encode("ascii")).to_bytes()
    return protocol.Frame(
        tag=protocol.SEALED_TAG,
        payload=crypto_core.seal_envelope(
            inner, stack.service.keypair.public, session_key
        ),
    )


def test_an_old_register_with_a_client_key_is_refused(local_stack):
    # Register used to carry the client's public key; an old client gets
    # the one plain refusal, and nothing is registered or mailed.
    stack = local_stack()
    pair = crypto_core.rsa_generate(1024)
    old = {
        "username": "old-user",
        "mail_address": "o@example.test",
        "client_public_key": {"e": str(pair.e), "n": str(pair.n)},
    }
    tag = protocol._TAG_BY_TYPE[protocol.Register]
    files = _data_files(stack)
    reply = stack.service.handle_frame(
        _seal_by_hand(stack, tag, old, crypto_core.generate_symmetric_key())
    )
    assert reply.tag != protocol.REPLY_TAG
    error = protocol.recv_plain(reply)
    assert isinstance(error, protocol.ErrorFrame)
    assert error.code == "DECRYPTION_FAILURE"
    assert _data_files(stack) == files
    assert not stack.mail.messages("o@example.test")


def test_full_wire_flow(local_stack):
    stack = local_stack()
    _sealed_exchange(
        stack, protocol.Register(username="wire-user", mail_address="w@example.test")
    )
    otp = stack.mail.latest("w@example.test")
    login = _sealed_exchange(
        stack, protocol.LoginRequest(username="wire-user", otp=otp)
    )
    assert login.status == "OK" and login.session_token
    token = login.session_token
    ack = _sealed_exchange(
        stack,
        protocol.UploadRequest(session_token=token, label="w.bin", file_bytes=b"abc"),
    )
    assert ack == protocol.UploadAck(label="w.bin", status="OK")
    payload = _sealed_exchange(
        stack,
        protocol.DownloadRequest(session_token=token, label="w.bin"),
    )
    assert payload == protocol.FilePayload(label="w.bin", file_bytes=b"abc")
    listing = _sealed_exchange(
        stack, protocol.ListRequest(session_token=token)
    )
    assert listing == protocol.ListResponse(labels=("w.bin",))


def test_a_reply_to_one_request_does_not_answer_another(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    request = protocol.ListRequest(session_token=token)
    key_a, key_b = (crypto_core.generate_symmetric_key() for _ in range(2))
    reply_a = stack.service.handle_frame(_seal(stack, request, key_a))
    stack.service.handle_frame(_seal(stack, request, key_b))  # request B
    assert protocol.recv_reply(reply_a, key_a) == protocol.ListResponse(labels=())
    with pytest.raises(DecryptionFailure) as excinfo:
        protocol.recv_reply(reply_a, key_b)
    assert str(excinfo.value) == protocol.UNOPENABLE_TEXT


def test_wire_errors_are_error_frames(local_stack):
    stack = local_stack()
    reply = _sealed_exchange(
        stack,
        protocol.LoginRequest(username="ghost", otp="A" * 16),
    )
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "AUTH_FAILED"


def test_failed_logins_answer_byte_identically(local_stack):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    replies = [
        stack.service.handle_frame(
            _seal(stack, protocol.LoginRequest(username=username, otp="A" * 16))
        ).to_bytes()
        for username in ("alice", "ghost")  # wrong OTP, unknown user
    ]
    assert replies[0] == replies[1]


def test_over_cap_sealed_reply_is_an_error_frame(local_stack, monkeypatch):
    stack = local_stack()
    token = stack.register_and_login("big", "big@example.test")
    stack.service.upload(token, "big.bin", bytes(4096))
    request = protocol.DownloadRequest(session_token=token, label="big.bin")
    reply_len = len(stack.service.handle_frame(_seal(stack, request)).payload)
    monkeypatch.setattr(protocol, "MAX_FRAME_LEN", reply_len - 1)
    reply = _sealed_exchange(stack, request)
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "MALFORMED_PAYLOAD"


def test_plain_frames_rejected_without_sabotage(local_stack):
    stack = local_stack()
    frame = protocol.send_plain(protocol.ListRequest(session_token="ab"))
    reply = protocol.recv_plain(stack.service.handle_frame(frame))
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "MALFORMED_PAYLOAD"


def test_response_messages_rejected_as_requests(local_stack):
    stack = local_stack()
    reply = _sealed_exchange(
        stack, protocol.UploadAck(label="x", status="OK")
    )
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "MALFORMED_PAYLOAD"


# ---------------------------------------------------------------------
# every client request gets one reply, and a refusal changes nothing

CLIENT_REQUESTS = (
    protocol.Register,
    protocol.LoginRequest,
    protocol.UploadRequest,
    protocol.DownloadRequest,
    protocol.ListRequest,
)
# Text with lone surrogates (category Cs): JSON can carry them as "\ud800"
# escapes, and they do not encode as UTF-8.
ANY_TEXT = st.text(
    st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=6
)
FIELD_VALUES = {protocol._STR: ANY_TEXT, protocol._BYTES: st.binary(max_size=64)}
LIVE_TOKEN = object()  # stands for the stack's logged-in session token


@st.composite
def _hand_built_requests(draw):
    """(tag, field values) of a client request. The frame is built by hand:
    the message writer refuses text that is not valid Unicode."""
    cls = draw(st.sampled_from(CLIENT_REQUESTS))
    fields = {}
    for name, codec in protocol._SCHEMAS[cls].items():
        values = FIELD_VALUES[codec]
        if name == "session_token":
            values = st.one_of(st.just(LIVE_TOKEN), values)
        fields[name] = draw(values)
    return protocol._TAG_BY_TYPE[cls], fields


class CountingMailbox(mailbox.InMemoryMailbox):
    def __init__(self):
        super().__init__()
        self.deliveries = 0

    def deliver(self, address, body):
        super().deliver(address, body)
        self.deliveries += 1


def _data_files(stack) -> dict:
    files = {}
    for root in [stack.config.data_dir] + [s.config.data_dir for s in stack.storages]:
        for folder, _, names in os.walk(root):
            for name in names:
                with open(os.path.join(folder, name), "rb") as fh:
                    files[os.path.join(folder, name)] = fh.read()
    return files


def test_every_request_gets_one_reply_and_a_refusal_changes_nothing(local_stack):
    stack = local_stack()
    stack.mail = CountingMailbox()
    stack.reload()
    token = stack.register_and_login("alice", "a@example.test")

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_hand_built_requests())
    def check(request):
        tag, fields = request
        obj = {}
        for name, value in fields.items():
            if value is LIVE_TOKEN:
                value = token
            obj[name] = value.hex() if isinstance(value, bytes) else value
        session_key = crypto_core.generate_symmetric_key()
        frame = _seal_by_hand(stack, tag, obj, session_key)
        files, mails = _data_files(stack), stack.mail.deliveries
        reply = stack.service.handle_frame(frame)
        assert isinstance(reply, protocol.Frame)
        if reply.tag == protocol.REPLY_TAG:
            msg = protocol.recv_reply(reply, session_key)
        else:
            msg = protocol.recv_plain(reply)
        if isinstance(msg, protocol.ErrorFrame):
            assert _data_files(stack) == files
            assert stack.mail.deliveries == mails

    check()
