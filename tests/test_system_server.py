import hashlib
import json
import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from cloudvault import crypto_core, mailbox, netutil, protocol
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
    PersistenceFailure,
    StartupFailure,
    StorageUnavailable,
    TableFull,
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


def test_file_size_cap(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    over = bytes(protocol.MAX_FILE_BYTES + 1)
    with pytest.raises(FileTooLarge):
        stack.service.upload(token, "big", over)
    # The sealed request still fits a frame, so the wire reaches the check.
    request = protocol.UploadRequest(session_token=token, label="big", file_bytes=over)
    reply = _sealed_exchange(stack, request)
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "FILE_TOO_LARGE"
    assert stack.service.key_records == {}
    assert not os.path.exists(os.path.join(stack.config.data_dir, "keys.tsv"))
    assert stack.storages[0].records == {}


def test_download_unknown_label(local_stack):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    with pytest.raises(NoSuchLabel):
        stack.service.download(token, "ghost")


def test_every_storage_refusal_of_a_download_is_storage_unavailable(local_stack):
    # A storage server of another version answers MALFORMED_PAYLOAD, a
    # failing disk DISK_FAILURE: either way the file cannot be served, and
    # the client is told so in one code, never the storage's own.
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    stack.service.upload(token, "doc", b"data")
    (client,) = stack.service.storage_clients
    for code in ("MALFORMED_PAYLOAD", "DISK_FAILURE"):
        refusal = protocol.send_plain(protocol.ErrorFrame(code=code, text="refused"))
        client._round_trip = lambda frame, refusal=refusal: refusal
        with pytest.raises(StorageUnavailable, match="^storage s1, file 1: refused$"):
            stack.service.download(token, "doc")
        request = protocol.DownloadRequest(session_token=token, label="doc")
        reply = _sealed_exchange(stack, request)
        assert isinstance(reply, protocol.ErrorFrame)
        assert reply.code == "STORAGE_UNAVAILABLE", code


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


def test_a_key_row_torn_by_a_full_disk_is_cut_back(local_stack, torn_append):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    files = {label: os.urandom(3000) for label in ("before", "after")}
    stack.service.upload(token, "before", files["before"])
    torn_append("keys.tsv")
    with pytest.raises(PersistenceFailure):
        stack.service.upload(token, "refused", os.urandom(3000))
    stack.service.upload(token, "after", files["after"])
    stack.reload()  # refused at the parent: "keys.tsv: row 2 does not decode"
    token = stack.service.login("alice", stack.mail.latest("a@example.test"))
    assert stack.service.list_labels(token) == sorted(files)
    for label, data in files.items():
        assert stack.service.download(token, label) == data


def test_storage_client_refuses_an_ack_that_is_not_stored():
    def answers_ok(frame):
        return protocol.send_plain(protocol.UploadAck(label="1", status="OK"))

    with pytest.raises(StorageUnavailable, match="unexpected ack 'OK'"):
        StorageClient("s1", answers_ok).store(1, bytes(32))


def test_a_full_storage_table_reaches_the_client_as_table_full(local_stack):
    stack = local_stack()  # one storage, S = 100
    token = stack.register_and_login("alice", "a@example.test")
    files = {f"doc-{i}": f"file {i}".encode() for i in range(1, 101)}
    for label, data in files.items():
        stack.service.upload(token, label, data)
    before = _data_files(stack)
    with pytest.raises(TableFull):
        stack.service.upload(token, "doc-101", b"one too many")
    request = protocol.UploadRequest(
        session_token=token, label="doc-101", file_bytes=b"one too many"
    )
    reply = _sealed_exchange(stack, request)
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "TABLE_FULL"
    # No key row, no record, no bytes appended to blobs.dat.
    assert _data_files(stack) == before
    assert len(stack.service.key_records) == len(stack.storages[0].records) == 100
    for label, data in files.items():
        assert stack.service.download(token, label) == data


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
    blob = stack.storages[0].fetch_blob(record.file_number)
    sample = blob[16:48]  # a slice of the ciphertext body
    for name, data in stack.service.dump_tables().items():
        assert sample not in data, name
        assert sample.hex().encode() not in data, name


# ---------------------------------------------------------------------
# file numbering

LEASE = system_mod.FILE_NUMBER_LEASE


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
    assert service.next_file_number() == LEASE + 1


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


def _counter_file(stack) -> int:
    with open(os.path.join(stack.config.data_dir, "counter.txt"), "rb") as fh:
        return int(fh.read())


def test_counter_file_covers_every_issued_number(local_stack):
    stack = local_stack()
    lease_ends = set()
    for expected in range(1, 2 * LEASE + 3):
        # Numbers only grow, so covering the latest covers every earlier one.
        assert stack.service.next_file_number() == expected
        durable = _counter_file(stack)
        assert durable >= expected
        lease_ends.add(durable)
    assert sorted(lease_ends) == [LEASE, 2 * LEASE, 3 * LEASE]


def test_a_failed_lease_write_fails_the_upload_cleanly(local_stack, monkeypatch):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for _ in range(LEASE):
        stack.service.next_file_number()

    def disk_full(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(netutil, "write_atomic", disk_full)
    with pytest.raises(PersistenceFailure) as failure:
        stack.service.upload(token, "doc", b"data")
    assert failure.value.code == "PERSISTENCE_FAILURE"
    assert stack.service.key_records == {}
    assert not os.path.exists(os.path.join(stack.config.data_dir, "keys.tsv"))
    assert stack.storages[0].records == {}
    assert _counter_file(stack) == LEASE
    monkeypatch.undo()
    stack.service.upload(token, "doc", b"data")
    assert stack.service.download(token, "doc") == b"data"


@pytest.mark.parametrize(
    "burned, resumes_at",
    [(3, LEASE + 1), (LEASE, LEASE + 1), (LEASE + 1, 2 * LEASE + 1)],
    ids=["mid-lease", "boundary before the lease write", "boundary after it"],
)
def test_a_restart_resumes_past_every_issued_number(local_stack, burned, resumes_at):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    for _ in range(burned - 1):
        stack.service.next_file_number()

    def dead_transport(frame):
        raise StorageUnavailable("down")

    good_clients = stack.service.storage_clients
    stack.service.storage_clients = [StorageClient("s1", dead_transport)]
    with pytest.raises(StorageUnavailable):
        stack.service.upload(token, "lost", b"data")  # burns number `burned`
    stack.service.storage_clients = good_clients
    service = stack.reload()
    token = service.login("alice", stack.mail.latest("a@example.test"))
    service.upload(token, "after", b"data")
    number = service.key_records[(md5_digest(b"alice"), "after")].file_number
    assert number > burned
    assert number == resumes_at


def test_an_upload_makes_one_durable_write_until_its_lease_runs_out(
    local_stack, monkeypatch
):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")

    def stores_anything(frame):  # more blobs than a test storage has slots
        return protocol.send_plain(protocol.UploadAck(label="", status="STORED 1"))

    stack.service.storage_clients = [StorageClient("s1", stores_anything)]
    system_dir = stack.config.data_dir
    writes = []
    for name in ("write_atomic", "append_line"):
        def counted(path, data, write=getattr(netutil, name)):
            if os.path.dirname(path) == system_dir:
                writes.append(path)
            write(path, data)

        monkeypatch.setattr(netutil, name, counted)
    per_upload = []
    for i in range(LEASE + 1):
        before = len(writes)
        stack.service.upload(token, f"doc-{i}", b"data")
        per_upload.append(len(writes) - before)
    # Upload 1 writes the lease and its key row; the next 1023 only their
    # key rows; upload 1025 writes the second lease and its key row.
    assert per_upload == [2] + [1] * (LEASE - 1) + [2]


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


def test_a_key_too_small_to_make_fails_startup_naming_rsa_bits(local_stack):
    with pytest.raises(StartupFailure, match="^rsa_bits 512: "):
        local_stack(rsa_bits=512)


def test_a_server_with_nowhere_to_mail_passwords_fails_startup(local_stack):
    # With no mail channel given, the one-time passwords go to mailbox_dir;
    # an empty one would leave every account unable to log in.
    stack = local_stack()
    config = system_mod.SystemConfig(
        **{**vars(stack.config), "data_dir": stack.config.data_dir + "-nomail"}
    )
    with pytest.raises(StartupFailure, match="mailbox_dir"):
        system_mod.SystemService(config, storage_clients=stack.service.storage_clients)
    assert not os.path.exists(config.data_dir)


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
        stack.storages[0].fetch_blob(record.file_number)
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


def test_storage_never_sees_whose_blob_it_holds(local_stack, monkeypatch):
    # The plain channel bypasses any capture proxy, so record it here.
    payloads = []
    real_init = StorageClient.__init__

    def recording_init(self, server_id, round_trip):
        def recorded(frame):
            reply = round_trip(frame)
            payloads.extend((frame.payload, reply.payload))
            return reply

        real_init(self, server_id, recorded)

    monkeypatch.setattr(StorageClient, "__init__", recording_init)
    stack = local_stack(storage_count=2)
    files = {}
    for name in ("alice", "bob"):
        token = stack.register_and_login(name, f"{name}@example.test")
        for i in range(2):
            files[name, f"doc{i}"] = os.urandom(500)
            stack.service.upload(token, f"doc{i}", files[name, f"doc{i}"])
    for restarted in (False, True):
        if restarted:
            stack.reload()
        for name in ("alice", "bob"):
            token = stack.service.login(name, stack.mail.latest(f"{name}@example.test"))
            for (owner, label), data in files.items():
                if owner == name:
                    assert stack.service.download(token, label) == data
    assert len(payloads) == 2 * (4 + 4 + 4)  # request and reply per call
    seen = [bytes(p) for p in payloads]
    seen += [data for s in stack.storages for data in s.dump_tables().values()]
    for name in ("alice", "bob"):
        digest = md5_digest(name.encode())
        for needle in (digest, digest.hex().encode()):
            assert not any(needle in data for data in seen), name


# ---------------------------------------------------------------------
# protocol dispatch

def _seal(stack, msg, client=None) -> protocol.Frame:
    client = client or protocol.ConnectionState()
    return protocol.send_sealed(msg, stack.service.keypair.public, client)


def _handle(stack, frame) -> protocol.Frame:
    """The reply to ``frame``, the first request on a connection of its own."""
    return stack.service.handle_frame(frame, protocol.ConnectionState())


def _sealed_exchange(stack, msg):
    client = protocol.ConnectionState()
    return protocol.recv_reply(_handle(stack, _seal(stack, msg, client)), client)


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
    client = protocol.ConnectionState()
    reply = _handle(stack, _seal(stack, msg, client))
    assert reply.tag == protocol.REPLY_TAG
    error = protocol.recv_reply(reply, client)
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
    reply = _handle(
        stack, _seal_by_hand(stack, tag, old, crypto_core.generate_symmetric_key())
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
    client_a, client_b = protocol.ConnectionState(), protocol.ConnectionState()
    reply_a = _handle(stack, _seal(stack, request, client_a))
    _handle(stack, _seal(stack, request, client_b))  # request B
    assert protocol.recv_reply(reply_a, client_a) == protocol.ListResponse(labels=())
    with pytest.raises(DecryptionFailure) as excinfo:
        protocol.recv_reply(reply_a, client_b)
    assert str(excinfo.value) == protocol.UNOPENABLE_TEXT


def test_wire_errors_are_error_frames(local_stack):
    stack = local_stack()
    reply = _sealed_exchange(
        stack,
        protocol.LoginRequest(username="ghost", otp="A" * 16),
    )
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "AUTH_FAILED"


def test_failed_logins_answer_alike(local_stack):
    # Each reply has a fresh nonce, so two are never byte-equal; what must
    # match is everything a wire observer or the requester can see.
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    replies = []
    for username in ("alice", "ghost"):  # wrong OTP, unknown user
        client = protocol.ConnectionState()
        request = protocol.LoginRequest(username=username, otp="A" * 16)
        frame = _handle(stack, _seal(stack, request, client))
        assert frame.tag == protocol.REPLY_TAG
        replies.append((len(frame.payload), protocol.recv_reply(frame, client)))
    assert replies[0] == replies[1]
    assert replies[0][1].code == "AUTH_FAILED"


@pytest.mark.parametrize(
    "msg",
    [
        protocol.LoginRequest(username="alice", otp="A" * 16),
        protocol.LoginRequest(username="ghost", otp="A" * 16),
        protocol.ListRequest(session_token="ab" * 16),
        protocol.DownloadRequest(session_token="ab" * 16, label="x"),
    ],
    ids=["wrong password", "unknown user", "unknown session", "unknown session download"],
)
def test_a_refusal_is_sealed_and_names_no_code_on_the_wire(local_stack, msg):
    stack = local_stack()
    stack.service.register("alice", "a@example.test")
    wire = _handle(stack, _seal(stack, msg)).to_bytes()
    for code in (b"AUTH_FAILED", b"INVALID_SESSION"):
        assert code not in wire
        assert code.hex().encode() not in wire


def test_over_cap_sealed_reply_is_an_error_frame(local_stack, monkeypatch):
    stack = local_stack()
    token = stack.register_and_login("big", "big@example.test")
    stack.service.upload(token, "big.bin", bytes(4096))
    request = protocol.DownloadRequest(session_token=token, label="big.bin")
    reply_len = len(_handle(stack, _seal(stack, request)).payload)
    # The blob's own frame is longer than the reply: fetch it under the real
    # cap, so the lowered cap refuses the reply and not the storage's frame.
    (client,) = stack.service.storage_clients
    blob = client.fetch(stack.service.key_records[(md5_digest(b"big"), "big.bin")].file_number)
    monkeypatch.setattr(client, "fetch", lambda file_number: blob)
    monkeypatch.setattr(protocol, "MAX_FRAME_LEN", reply_len - 1)
    reply = _sealed_exchange(stack, request)
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "MALFORMED_PAYLOAD"


def test_plain_frames_rejected_without_sabotage(local_stack):
    stack = local_stack()
    frame = protocol.send_plain(protocol.ListRequest(session_token="ab"))
    reply = protocol.recv_plain(_handle(stack, frame))
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


# The one reply that is not sealed: a request that does not open.
UNOPENABLE_REPLY = protocol.send_plain(
    protocol.error_frame(DecryptionFailure(protocol.UNOPENABLE_TEXT))
)


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
        reply = _handle(stack, frame)
        assert isinstance(reply, protocol.Frame)
        if reply == UNOPENABLE_REPLY:
            msg = protocol.recv_plain(reply)
        else:
            assert reply.tag == protocol.REPLY_TAG
            msg = protocol.recv_reply(reply, protocol.ConnectionState(key=session_key))
        if isinstance(msg, protocol.ErrorFrame):
            assert _data_files(stack) == files
            assert stack.mail.deliveries == mails

    check()
