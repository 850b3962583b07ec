import dataclasses
import os
import subprocess
import sys
import threading

import pytest

from cloudvault import netutil, protocol
from cloudvault.crypto_core import md5_digest
from cloudvault.errors import (
    DiskFailure,
    DuplicateFileNumber,
    MalformedPayload,
    NotFound,
    StartupFailure,
    StorageUnavailable,
)
from cloudvault.placement import PlacementEntry
from cloudvault.storage_server import StorageConfig, StorageService
from cloudvault.system_server import StorageClient

from test_protocol import REFUSED_PAYLOADS

ALICE = md5_digest(b"alice")


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
    assert service.store_blob(1, b"\x00" * 32) == PlacementEntry(1, 0)


def test_fifteenth_sequential_blob_probes_once(service):
    for n in range(1, 15):
        service.store_blob(n, b"\x00" * 32)
    assert service.store_blob(15, b"\x00" * 32) == PlacementEntry(26, 1)


def test_duplicate_file_number(service):
    service.store_blob(1, b"\x00" * 32)
    with pytest.raises(DuplicateFileNumber):
        service.store_blob(1, b"\x11" * 32)


def test_fetch_round_trip(service):
    blob = os.urandom(96)
    service.store_blob(7, blob)
    assert service.fetch_blob(7) == blob
    assert service.fetch_blob(7) == blob  # repeatable, byte-stable


def test_unknown_number_is_not_found(service):
    with pytest.raises(NotFound):
        service.fetch_blob(99)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _log(service) -> bytes:
    return _read(os.path.join(service.config.data_dir, "blobs.dat"))


def test_blobs_are_appended_to_one_log(service):
    blobs = [os.urandom(n) for n in (32, 17, 64)]
    for n, blob in enumerate(blobs, 1):
        service.store_blob(n, blob)
    regions = [(r.start, r.length) for r in service.records.values()]
    assert regions == [(0, 32), (32, 17), (49, 64)]
    assert _log(service) == b"".join(blobs)


def test_placement_consistency(service):
    for n in (1, 2, 5, 11, 15):
        service.store_blob(n, b"\x00" * 32)
    for record in service.records.values():
        assert service.table.locate(record.file_number) == record.entry


def test_concurrent_stores_and_fetches_keep_every_region_whole(service):
    # Fetches read the log outside the lock while stores append to it.
    blobs = {n: os.urandom(16 + n) for n in range(1, 81)}
    errors = []

    def worker(numbers):
        try:
            for n in numbers:
                service.store_blob(n, blobs[n])
                for m in range(numbers[0], n + 1, 4):
                    assert service.fetch_blob(m) == blobs[m]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(list(range(k, 81, 4)),))
            for k in range(1, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(_log(service)) == sum(map(len, blobs.values()))
    reloaded = StorageService(service.config)
    for n, blob in blobs.items():
        assert reloaded.fetch_blob(n) == blob


def test_restart_preserves_records(service):
    blob = os.urandom(64)
    for n in range(1, 6):
        service.store_blob(n, blob)
    reloaded = StorageService(service.config)
    assert reloaded.fetch_blob(3) == blob
    assert reloaded.table.slot_contents() == service.table.slot_contents()
    for record in reloaded.records.values():
        assert reloaded.table.locate(record.file_number) == record.entry
    # The sequence keeps going where it left off.
    assert reloaded.store_blob(6, blob) == PlacementEntry(36, 0)


def _fail_halfway(path, data, _real=netutil.append_bytes):
    _real(path, data[: len(data) // 2])
    raise OSError("disk gone")


def _fail(path, line):
    raise OSError("disk gone")


@pytest.mark.parametrize(
    "name, fail",
    [("append_bytes", _fail_halfway), ("append_line", _fail)],
    ids=["blob append", "record row"],
)
def test_a_failed_store_cuts_the_log_back_and_frees_its_number(
    service, monkeypatch, name, fail
):
    first = os.urandom(40)
    service.store_blob(1, first)
    monkeypatch.setattr(netutil, name, fail)
    with pytest.raises(DiskFailure):
        service.store_blob(2, b"\x11" * 32)
    monkeypatch.undo()
    assert sorted(service.records) == [1]
    assert _log(service) == first
    assert service.dump_tables()["blobs.dat"] == first
    reloaded = StorageService(service.config)
    assert sorted(reloaded.records) == [1]
    # The number is usable again, at its own slot, right after the first blob.
    assert reloaded.store_blob(2, b"\x22" * 32) == PlacementEntry(4, 0)
    assert reloaded.records[2].start == len(first)
    assert reloaded.fetch_blob(2) == b"\x22" * 32


def test_a_record_row_torn_by_a_full_disk_is_cut_back(local_stack, torn_append):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    files = {label: os.urandom(3000) for label in ("before", "after")}
    stack.service.upload(token, "before", files["before"])
    torn_append("records.tsv")
    with pytest.raises(StorageUnavailable):
        stack.service.upload(token, "refused", os.urandom(3000))
    stack.service.upload(token, "after", files["after"])
    stack.reload()  # refused at the parent: "records.tsv: row 2 does not decode"
    token = stack.service.login("alice", stack.mail.latest("a@example.test"))
    for label, data in files.items():
        assert stack.service.download(token, label) == data
    assert len(stack.storages[0].records) == 2


class ProcessDeath(BaseException):
    """Stands in for the process dying: no ``except`` in the code catches it."""


def _torn_blob(path, data, _real=netutil.append_bytes):
    _real(path, data[: len(data) // 2])
    raise ProcessDeath


def _no_row(path, line):
    raise ProcessDeath


def _torn_row(path, line):
    netutil.append_bytes(path, line.encode()[: len(line) // 2])
    raise ProcessDeath


def _whole_row(path, line, _real=netutil.append_line):
    _real(path, line)
    raise ProcessDeath  # after the row, before the ack


# The four states one store can leave on disk: what the process was doing
# when it died.
CRASH_STATES = {
    "blob append torn": ("append_bytes", _torn_blob),
    "whole blob, no row": ("append_line", _no_row),
    "row torn": ("append_line", _torn_row),
    "blob and row whole": ("append_line", _whole_row),
}


@pytest.mark.parametrize("state", CRASH_STATES)
def test_a_crash_inside_a_store_loses_no_acknowledged_blob(service, monkeypatch, state):
    earlier = {n: os.urandom(30 + n) for n in (1, 2, 3)}
    for n, blob in earlier.items():
        service.store_blob(n, blob)
    log, rows = _log(service), _read(os.path.join(service.config.data_dir, "records.tsv"))
    name, die = CRASH_STATES[state]
    monkeypatch.setattr(netutil, name, die)
    new = os.urandom(48)
    with pytest.raises(ProcessDeath):
        service.store_blob(4, new)
    monkeypatch.undo()

    reloaded = StorageService(service.config)
    for n, blob in earlier.items():
        assert reloaded.fetch_blob(n) == blob
    records = _read(os.path.join(service.config.data_dir, "records.tsv"))
    if state == "blob and row whole":  # committed, only the ack was lost
        assert reloaded.fetch_blob(4) == new
        assert _log(reloaded) == log + new
        following, entry = 5, PlacementEntry(25, 0)
    else:
        assert sorted(reloaded.records) == [1, 2, 3]
        assert reloaded.table.count == 3
        with pytest.raises(NotFound):
            reloaded.fetch_blob(4)
        assert _log(reloaded) == log
        assert records == rows
        following, entry = 4, PlacementEntry(16, 0)  # file 4's slot is free
    end = len(_log(reloaded))
    assert reloaded.store_blob(following, b"\x11" * 32) == entry
    assert reloaded.records[following].start == end
    assert StorageService(service.config).fetch_blob(following) == b"\x11" * 32


def _edit_row(service, row: int, column: int, value: int) -> None:
    path = os.path.join(service.config.data_dir, "records.tsv")
    lines = _read(path).decode().splitlines()
    cells = lines[row - 1].split("\t")
    cells[column] = str(value)
    lines[row - 1] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


START, LENGTH = 3, 4  # records.tsv columns


@pytest.mark.parametrize(
    "column, value, problem",
    [
        (START, 16, "overlaps another region"),
        (START, -1, "names a negative region"),
        (LENGTH, -1, "names a negative region"),
        (LENGTH, 10**6, "runs past the end"),
    ],
)
def test_a_record_whose_region_is_not_its_own_stops_start_up(
    service, column, value, problem
):
    for n in (1, 2, 3):
        service.store_blob(n, b"\x00" * 32)
    _edit_row(service, 2, column, value)
    with pytest.raises(
        StartupFailure, match=rf"records\.tsv: row 2 {problem} of blobs\.dat$"
    ):
        StorageService(service.config)


def test_a_log_shorter_than_its_records_stops_start_up(service):
    for n in (1, 2, 3):
        service.store_blob(n, b"\x00" * 32)
    os.truncate(os.path.join(service.config.data_dir, "blobs.dat"), 95)
    with pytest.raises(
        StartupFailure, match=r"records\.tsv: row 3 runs past the end of blobs\.dat$"
    ):
        StorageService(service.config)


def test_a_data_dir_with_a_blobs_directory_is_refused(service):
    # Builds before the blob log kept one file per blob under blobs/.
    os.mkdir(os.path.join(service.config.data_dir, "blobs"))
    with pytest.raises(StartupFailure, match=r"/blobs: one file per blob") as info:
        StorageService(service.config)
    assert "README" in str(info.value)


@pytest.mark.parametrize(
    "row",
    [
        # Builds before the blob log: the last cell was the blob's path.
        f"{ALICE.hex()}\t1\t1\t0\tblobs/1.bin",
        # Builds that named each blob's owner: a digest cell came first.
        f"{ALICE.hex()}\t1\t1\t0\t0\t32",
    ],
    ids=["path cell", "owner cell"],
)
def test_a_record_row_without_a_region_is_refused(service, row):
    path = os.path.join(service.config.data_dir, "records.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(StartupFailure, match=r"records\.tsv: row 1 does not decode$") as info:
        StorageService(service.config)
    assert ALICE.hex() not in str(info.value)


def test_the_readme_upgrade_drops_the_owner_cell_and_keeps_every_blob(service):
    blobs = {n: os.urandom(20 + n) for n in (1, 2, 3)}
    for n, blob in blobs.items():
        service.store_blob(n, blob)
    data_dir = service.config.data_dir
    path = os.path.join(data_dir, "records.tsv")
    log, records = _log(service), _read(path)
    owners = [ALICE, md5_digest(b"bob"), ALICE]
    rows = records.decode().splitlines()
    with open(path, "w", encoding="utf-8") as fh:  # as owner-naming builds wrote it
        fh.writelines(f"{d.hex()}\t{row}\n" for d, row in zip(owners, rows))
    with pytest.raises(StartupFailure, match=r"records\.tsv: row 1 does not decode$"):
        StorageService(service.config)
    subprocess.run(
        "umask 077; cut -f2- records.tsv > records.tsv.new"
        " && mv records.tsv.new records.tsv",
        shell=True, cwd=data_dir, check=True,
    )
    assert _read(path) == records
    assert os.stat(path).st_mode & 0o777 == 0o600
    assert sorted(os.listdir(data_dir)) == ["blobs.dat", "records.tsv"]
    reloaded = StorageService(service.config)
    for n, blob in blobs.items():
        assert reloaded.fetch_blob(n) == blob
    assert _log(reloaded) == log


def test_placement_modulus_comes_only_from_config(service):
    for n in range(1, 4):  # positions 1, 4, 9 hold under S=1000 too
        service.store_blob(n, b"\x00" * 32)
    wider = StorageService(dataclasses.replace(service.config, seed=1000))
    assert wider.table.seed == 1000
    for n in range(4, 16):
        service.store_blob(n, b"\x00" * 32)
    # File 10 sits at 100 mod 100 = 0, which is not 100 mod 101.
    with pytest.raises(StartupFailure, match="S=101"):
        StorageService(dataclasses.replace(service.config, seed=101))


def test_a_store_makes_two_durable_writes(service, monkeypatch):
    service.store_blob(1, b"\x00" * 32)
    data_dir = service.config.data_dir
    names = {
        os.stat(os.path.join(data_dir, name)).st_ino: name
        for name in ("blobs.dat", "records.tsv")
    }
    calls, synced = [], []
    for name in ("append_bytes", "append_line", "write_atomic"):
        def counted(path, data, _name=name, _real=getattr(netutil, name)):
            calls.append((_name, os.path.basename(path)))
            return _real(path, data)

        monkeypatch.setattr(netutil, name, counted)
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(names.get(os.fstat(fd).st_ino, "another file"))
        real_fsync(fd)

    monkeypatch.setattr(netutil.os, "fsync", recording_fsync)
    service.store_blob(2, b"\x00" * 32)
    monkeypatch.undo()
    # append_line is a thin call to append_bytes, so the row passes both.
    assert calls == [
        ("append_bytes", "blobs.dat"),
        ("append_line", "records.tsv"),
        ("append_bytes", "records.tsv"),
    ]
    # Two appends to files that exist: no directory fsync, no new file.
    assert synced == ["blobs.dat", "records.tsv"]
    for n in range(3, 60):
        service.store_blob(n, b"\x00" * 32)
    assert sorted(os.listdir(data_dir)) == ["blobs.dat", "records.tsv"]


def test_dump_holds_the_blob_and_a_row_of_numbers(service):
    blob = os.urandom(48)
    service.store_blob(1, blob)
    dump = service.dump_tables()
    assert dump["blobs.dat"] == blob
    assert dump["records.tsv"] == b"1\t1\t0\t0\t48\n"
    assert dump["placement.tbl"].startswith(b"S=100\n")


def test_dump_never_contains_usernames(service):
    service.store_blob(1, b"\x00" * 32)
    for data in service.dump_tables().values():
        assert b"alice" not in data


# ---------------------------------------------------------------------
# protocol dispatch

def _exchange(service, msg):
    return protocol.recv_plain(service.handle_frame(protocol.send_plain(msg)))


def test_store_ack_carries_the_entry(service):
    for n in range(1, 15):
        reply = _exchange(service, protocol.StoreBlob(file_number=n, blob=b"\x00" * 32))
        assert isinstance(reply, protocol.UploadAck)
    reply = _exchange(service, protocol.StoreBlob(file_number=15, blob=b"\x00" * 32))
    assert reply == protocol.UploadAck(label="15", status="STORED 26 1")


def test_fetch_unknown_file_yields_not_found_error_frame(service):
    reply = _exchange(service, protocol.FetchBlob(file_number=1234))
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
    service.store_blob(1, b"\x00" * 32)
    service.store_blob(2, b"\x00" * 32)
    reply = _exchange(service, protocol.StoreBlob(file_number=3, blob=b"\x00" * 32))
    assert isinstance(reply, protocol.ErrorFrame)
    assert reply.code == "TABLE_FULL"


def test_handle_frame_round_trip(service):
    blob = os.urandom(64)
    service.store_blob(4, blob)
    request = protocol.send_plain(protocol.FetchBlob(file_number=4))
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
    service.store_blob(1, b"\x00" * 32)
    before = _data_files(service.config.data_dir)
    for msg in (
        protocol.StoreBlob(file_number=1, blob=b"\x11" * 32),
        protocol.FetchBlob(file_number=1),
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
        protocol.send_plain(protocol.FetchBlob(file_number=0))


@pytest.mark.parametrize("name", REFUSED_PAYLOADS)
def test_a_payload_off_the_writers_layout_gets_one_error_frame_and_changes_nothing(
    service, name
):
    service.store_blob(1, b"\x00" * 32)
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
        with pytest.raises(NotFound, match="^no blob for that file number$"):
            client.fetch(77)
        blob = os.urandom(80)
        store = protocol.StoreBlob(file_number=1, blob=blob)
        ack = protocol.recv_plain(conn.round_trip(protocol.send_plain(store)))
        assert ack == protocol.UploadAck(label="1", status="STORED 1 0")
        assert client.fetch(1) == blob
        dump = netutil.fetch_admin_dump("127.0.0.1", listeners.admin.server_address[1])
        assert dump["blobs.dat"] == blob
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
            client.fetch(1)
        sock = conn._sock
        blob = bytes(protocol.MAX_FRAME_LEN // 2 + 1)  # hex form exceeds the cap
        with pytest.raises(MalformedPayload):
            client.store(1, blob)
        assert conn._sock is sock
        with pytest.raises(NotFound):
            client.fetch(1)
    finally:
        conn.close()
        listeners.close()
