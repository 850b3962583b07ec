import dataclasses
import os

import pytest

from cloudvault import netutil, protocol
from cloudvault.crypto_core import md5_digest
from cloudvault.errors import (
    DiskFailure,
    DuplicateFileNumber,
    MalformedPayload,
    NotFound,
    StartupFailure,
)
from cloudvault.placement import PlacementEntry
from cloudvault.storage_server import StorageConfig, StorageService
from cloudvault.system_server import StorageClient

from test_protocol import REFUSED_PAYLOADS

ALICE = md5_digest(b"alice")
BOB = md5_digest(b"bob")


@pytest.fixture
def service(tmp_path):
    config = StorageConfig(
        server_id="s1",
        host="127.0.0.1",
        port=0,
        admin_port=0,
        data_dir=str(tmp_path / "s1"),
        seed=100,
    )
    return StorageService(config)


def test_first_blob_lands_on_slot_one(service):
    assert service.store_blob(ALICE, 1, b"\x00" * 32) == PlacementEntry(1, 0)


def test_fifteenth_sequential_blob_probes_once(service):
    for n in range(1, 15):
        service.store_blob(ALICE, n, b"\x00" * 32)
    assert service.store_blob(ALICE, 15, b"\x00" * 32) == PlacementEntry(26, 1)


def test_duplicate_file_number(service):
    service.store_blob(ALICE, 1, b"\x00" * 32)
    with pytest.raises(DuplicateFileNumber):
        service.store_blob(ALICE, 1, b"\x11" * 32)


def test_fetch_round_trip(service):
    blob = os.urandom(96)
    service.store_blob(ALICE, 7, blob)
    assert service.fetch_blob(ALICE, 7) == blob
    assert service.fetch_blob(ALICE, 7) == blob  # repeatable, byte-stable


def test_wrong_digest_is_not_found(service):
    service.store_blob(ALICE, 7, b"\x00" * 32)
    with pytest.raises(NotFound):
        service.fetch_blob(BOB, 7)


def test_unknown_number_is_not_found(service):
    with pytest.raises(NotFound):
        service.fetch_blob(ALICE, 99)


def test_blob_path_derives_from_position(service):
    service.store_blob(ALICE, 1, b"\x00" * 32)
    record = service.records[1]
    assert record.path == "blobs/1.bin"
    assert os.path.exists(os.path.join(service.config.data_dir, record.path))


def test_placement_consistency(service):
    for n in (1, 2, 5, 11, 15):
        service.store_blob(ALICE, n, b"\x00" * 32)
    for record in service.records.values():
        assert service.table.locate(record.file_number) == record.entry


def test_restart_preserves_records(service):
    blob = os.urandom(64)
    for n in range(1, 6):
        service.store_blob(ALICE, n, blob)
    reloaded = StorageService(service.config)
    assert reloaded.fetch_blob(ALICE, 3) == blob
    assert reloaded.table.slot_contents() == service.table.slot_contents()
    for record in reloaded.records.values():
        assert reloaded.table.locate(record.file_number) == record.entry
    # The sequence keeps going where it left off.
    assert reloaded.store_blob(ALICE, 6, blob) == PlacementEntry(36, 0)


def test_disk_failure_leaves_no_partial_record(service, monkeypatch):
    def boom(path, data):
        raise OSError("disk gone")

    monkeypatch.setattr(netutil, "write_atomic", boom)
    with pytest.raises(DiskFailure):
        service.store_blob(ALICE, 1, b"\x00" * 32)
    monkeypatch.undo()
    assert 1 not in service.records
    reloaded = StorageService(service.config)
    assert reloaded.records == {}
    # The number is usable again after the failed attempt.
    assert reloaded.store_blob(ALICE, 1, b"\x00" * 32) == PlacementEntry(1, 0)


def test_failed_record_row_removes_the_blob(service, monkeypatch):
    def boom(path, line):
        raise OSError("disk gone")

    monkeypatch.setattr(netutil, "append_line", boom)
    with pytest.raises(DiskFailure):
        service.store_blob(ALICE, 1, b"\x00" * 32)
    monkeypatch.undo()
    assert os.listdir(os.path.join(service.config.data_dir, "blobs")) == []
    assert "blobs/1.bin" not in service.dump_tables()


class ProcessDeath(BaseException):
    """Stands in for the process dying: no ``except`` in the code catches it."""


def test_crash_before_the_record_row_frees_the_slot(service, monkeypatch):
    for n in range(1, 4):
        service.store_blob(ALICE, n, b"\x00" * 32)

    def die(path, line):
        raise ProcessDeath

    monkeypatch.setattr(netutil, "append_line", die)
    with pytest.raises(ProcessDeath):
        service.store_blob(ALICE, 4, b"\x00" * 32)
    monkeypatch.undo()
    reloaded = StorageService(service.config)
    assert sorted(reloaded.records) == [1, 2, 3]
    assert reloaded.table.count == len(reloaded.records)
    assert sorted(os.listdir(os.path.join(service.config.data_dir, "blobs"))) == [
        "1.bin", "4.bin", "9.bin"
    ]
    assert reloaded.store_blob(ALICE, 4, b"\x11" * 32) == PlacementEntry(16, 0)
    assert reloaded.fetch_blob(ALICE, 4) == b"\x11" * 32


def test_crash_inside_the_blob_write_leaves_no_temp_file(service, monkeypatch):
    service.store_blob(ALICE, 1, b"\x00" * 32)

    def die(src, dst):
        raise ProcessDeath

    monkeypatch.setattr(os, "replace", die)
    with pytest.raises(ProcessDeath):
        service.store_blob(ALICE, 2, b"\x00" * 32)
    monkeypatch.undo()
    blobs = os.path.join(service.config.data_dir, "blobs")
    assert sorted(os.listdir(blobs)) == ["1.bin", "4.bin.tmp"]
    StorageService(service.config)
    assert os.listdir(blobs) == ["1.bin"]


def test_placement_modulus_comes_only_from_config(service):
    for n in range(1, 4):  # positions 1, 4, 9 hold under S=1000 too
        service.store_blob(ALICE, n, b"\x00" * 32)
    wider = StorageService(dataclasses.replace(service.config, seed=1000))
    assert wider.table.seed == 1000
    for n in range(4, 16):
        service.store_blob(ALICE, n, b"\x00" * 32)
    # File 10 sits at 100 mod 100 = 0, which is not 100 mod 101.
    with pytest.raises(StartupFailure, match="S=101"):
        StorageService(dataclasses.replace(service.config, seed=101))


def test_a_store_makes_two_durable_writes(service, monkeypatch):
    service.store_blob(ALICE, 1, b"\x00" * 32)
    calls = []
    for name in ("write_atomic", "append_line"):
        def counted(*args, _name=name, _real=getattr(netutil, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(netutil, name, counted)
    service.store_blob(ALICE, 2, b"\x00" * 32)
    assert calls == ["write_atomic", "append_line"]
    monkeypatch.undo()
    service.store_blob(ALICE, 3, b"\x00" * 32)
    assert sorted(os.listdir(service.config.data_dir)) == ["blobs", "records.tsv"]


def test_dump_contains_ciphertext_and_digests(service):
    blob = os.urandom(48)
    service.store_blob(ALICE, 1, blob)
    dump = service.dump_tables()
    assert dump["blobs/1.bin"] == blob
    assert ALICE.hex().encode() in dump["records.tsv"]
    assert dump["placement.tbl"].startswith(b"S=100\n")


def test_dump_never_contains_usernames(service):
    service.store_blob(ALICE, 1, b"\x00" * 32)
    for data in service.dump_tables().values():
        assert b"alice" not in data


# ---------------------------------------------------------------------
# protocol dispatch

def _exchange(service, msg):
    return protocol.recv_plain(service.handle_frame(protocol.send_plain(msg)))


def test_store_ack_carries_the_entry(service):
    for n in range(1, 15):
        reply = _exchange(
            service,
            protocol.StoreBlob(user_digest=ALICE, file_number=n, blob=b"\x00" * 32),
        )
        assert isinstance(reply, protocol.UploadAck)
    reply = _exchange(
        service,
        protocol.StoreBlob(user_digest=ALICE, file_number=15, blob=b"\x00" * 32),
    )
    assert reply == protocol.UploadAck(label="15", status="STORED 26 1")


def test_fetch_unknown_file_yields_not_found_error_frame(service):
    reply = _exchange(service, protocol.FetchBlob(user_digest=ALICE, file_number=1234))
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "NOT_FOUND"


def test_client_messages_rejected_on_storage_channel(service):
    reply = _exchange(service, protocol.ListRequest(session_token="ab"))
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "MALFORMED_PAYLOAD"


def test_table_full_surfaces_over_protocol(tmp_path):
    config = StorageConfig(
        server_id="tiny",
        host="127.0.0.1",
        port=0,
        admin_port=0,
        data_dir=str(tmp_path / "tiny"),
        seed=2,
    )
    service = StorageService(config)
    service.store_blob(ALICE, 1, b"\x00" * 32)
    service.store_blob(ALICE, 2, b"\x00" * 32)
    reply = _exchange(
        service,
        protocol.StoreBlob(user_digest=ALICE, file_number=3, blob=b"\x00" * 32),
    )
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "TABLE_FULL"


def test_handle_frame_round_trip(service):
    blob = os.urandom(64)
    service.store_blob(ALICE, 4, blob)
    request = protocol.send_plain(protocol.FetchBlob(user_digest=ALICE, file_number=4))
    reply = protocol.recv_plain(service.handle_frame(request))
    assert reply == protocol.BlobPayload(blob=blob)


def _data_files(root: str) -> dict[str, bytes]:
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_file_number_zero_gets_one_error_frame_and_changes_nothing(service):
    # File numbers start at 1; the codec refuses 0 before the placement
    # table or the records see it. The frame is edited by hand because the
    # writer refuses to encode 0 at all.
    service.store_blob(ALICE, 1, b"\x00" * 32)
    before = _data_files(service.config.data_dir)
    for msg in (
        protocol.StoreBlob(user_digest=ALICE, file_number=1, blob=b"\x11" * 32),
        protocol.FetchBlob(user_digest=ALICE, file_number=1),
    ):
        frame = protocol.send_plain(msg)
        payload = frame.payload.replace(b'"file_number":1', b'"file_number":0')
        assert payload != frame.payload
        reply = service.handle_frame(protocol.Frame(tag=frame.tag, payload=payload))
        error = protocol.recv_plain(reply)
        assert isinstance(error, protocol.ErrorFrame)
        assert error.code == "MALFORMED_PAYLOAD"
    assert _data_files(service.config.data_dir) == before
    with pytest.raises(MalformedPayload):
        protocol.send_plain(protocol.FetchBlob(user_digest=ALICE, file_number=0))


@pytest.mark.parametrize("name", REFUSED_PAYLOADS)
def test_a_payload_off_the_writers_layout_gets_one_error_frame_and_changes_nothing(
    service, name
):
    service.store_blob(ALICE, 1, b"\x00" * 32)
    before = _data_files(service.config.data_dir)
    kind, payload = REFUSED_PAYLOADS[name]
    reply = service.handle_frame(
        protocol.Frame(tag=protocol._TAG_BY_TYPE[kind], payload=payload)
    )
    error = protocol.recv_plain(reply)
    assert isinstance(error, protocol.ErrorFrame)
    assert error.code == "MALFORMED_PAYLOAD"
    assert _data_files(service.config.data_dir) == before


@pytest.mark.integration
def test_contracts_hold_over_tcp(tmp_path):
    config = StorageConfig(
        server_id="net",
        host="127.0.0.1",
        port=0,  # OS-assigned
        admin_port=0,
        data_dir=str(tmp_path / "net"),
        seed=100,
    )
    listeners = netutil.Listeners(config, StorageService(config))
    conn = netutil.FrameConnection("127.0.0.1", listeners.frame.server_address[1], 30.0)
    client = StorageClient("net", conn.round_trip)
    try:
        with pytest.raises(
            NotFound, match="^no blob for that user digest and file number$"
        ):
            client.fetch(ALICE, 77)
        blob = os.urandom(80)
        store = protocol.StoreBlob(user_digest=ALICE, file_number=1, blob=blob)
        ack = protocol.recv_plain(conn.round_trip(protocol.send_plain(store)))
        assert ack == protocol.UploadAck(label="1", status="STORED 1 0")
        assert client.fetch(ALICE, 1) == blob
        dump = netutil.fetch_admin_dump("127.0.0.1", listeners.admin.server_address[1])
        assert dump["blobs/1.bin"] == blob
    finally:
        conn.close()
        listeners.close()


@pytest.mark.integration
def test_over_cap_store_fails_before_the_socket(tmp_path):
    config = StorageConfig(
        server_id="cap",
        host="127.0.0.1",
        port=0,
        admin_port=0,
        data_dir=str(tmp_path / "cap"),
        seed=100,
    )
    listeners = netutil.Listeners(config, StorageService(config))
    conn = netutil.FrameConnection("127.0.0.1", listeners.frame.server_address[1], 30.0)
    client = StorageClient("cap", conn.round_trip)
    try:
        with pytest.raises(NotFound):
            client.fetch(ALICE, 1)
        sock = conn._sock
        blob = bytes(protocol.MAX_FRAME_LEN // 2 + 1)  # hex form exceeds the cap
        with pytest.raises(MalformedPayload):
            client.store(ALICE, 1, blob)
        assert conn._sock is sock
        with pytest.raises(NotFound):
            client.fetch(ALICE, 1)
    finally:
        conn.close()
        listeners.close()
