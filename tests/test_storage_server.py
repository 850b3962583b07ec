import dataclasses
import os
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
from cloudvault.storage_server import (
    HEADER_LIMIT,
    StorageConfig,
    StorageService,
    stored_blobs,
)
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


def _log_path(service) -> str:
    return os.path.join(service.config.data_dir, "blobs.dat")


def _log(service) -> bytes:
    return _read(_log_path(service))


def _append_to_log(service, data: bytes) -> None:
    with open(_log_path(service), "ab") as fh:
        fh.write(data)


def _entry(record, blob: bytes) -> bytes:
    """A blobs.dat entry as the writer lays it out: header line, then blob."""
    return (
        f"{record.file_number}\t{record.position}\t{record.offset}\t{len(blob)}\n"
    ).encode() + blob


def test_blobs_are_appended_to_one_log_each_behind_its_header(service):
    blobs = [os.urandom(n) for n in (32, 17, 64)]
    for n, blob in enumerate(blobs, 1):
        service.store_blob(n, blob)
    assert _log(service) == (
        b"1\t1\t0\t32\n" + blobs[0] + b"2\t4\t0\t17\n" + blobs[1]
        + b"3\t9\t0\t64\n" + blobs[2]
    )
    regions = [(r.start, r.length) for r in service.records.values()]
    assert regions == [(9, 32), (50, 17), (76, 64)]


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
    in_log_order = sorted(service.records.values(), key=lambda r: r.start)
    assert _log(service) == b"".join(
        _entry(r, blobs[r.file_number]) for r in in_log_order
    )
    reloaded = StorageService(service.config)
    for n, blob in blobs.items():
        assert reloaded.fetch_blob(n) == blob


def test_restart_preserves_records(service):
    blob = os.urandom(64)
    for n in range(1, 6):
        service.store_blob(n, blob)
    reloaded = StorageService(service.config)
    assert reloaded.fetch_blob(3) == blob
    assert reloaded.records == service.records
    assert reloaded.table.slot_contents() == service.table.slot_contents()
    for record in reloaded.records.values():
        assert reloaded.table.locate(record.file_number) == record.entry
    # The sequence keeps going where it left off.
    assert reloaded.store_blob(6, blob) == PlacementEntry(36, 0)


def test_start_up_and_the_audit_read_the_same_entries(service):
    blobs = {n: os.urandom(20 + n) for n in (1, 2, 3)}
    for n, blob in blobs.items():
        service.store_blob(n, blob)
    _append_to_log(service, b"4\t16\t0\t40\n" + b"\x11" * 8)  # a torn entry
    dump = service.dump_tables()
    seen = list(stored_blobs(dump))
    assert seen == [
        (f"blobs.dat offset {r.start}", blobs[r.file_number])
        for r in service.records.values()
    ]
    reloaded = StorageService(service.config)
    assert reloaded.records == service.records
    assert list(stored_blobs(reloaded.dump_tables())) == seen


# What a failed append leaves on disk before it raises: the header cut in
# half, or the whole header and half the blob.
def _half_header(header, blob):
    return (header[: len(header) // 2],)


def _half_blob(header, blob):
    return (header, blob[: len(blob) // 2])


def _whole_header(header, blob):
    return (header,)


def _whole_entry(header, blob):
    return (header, blob)


def _append_then_raise(written, exc):
    """An ``append_bytes`` that durably writes ``written(*parts)`` and then
    raises ``exc``."""

    def append_bytes(path, *parts, _real=netutil.append_bytes):
        _real(path, *written(*parts))
        raise exc

    return append_bytes


@pytest.mark.parametrize(
    "written", [_half_header, _half_blob], ids=["header torn", "blob torn"]
)
def test_a_failed_store_cuts_the_log_back_and_frees_its_number(
    service, monkeypatch, written
):
    service.store_blob(1, os.urandom(40))
    first = _log(service)
    monkeypatch.setattr(
        netutil, "append_bytes", _append_then_raise(written, OSError("disk gone"))
    )
    with pytest.raises(DiskFailure):
        service.store_blob(2, b"\x11" * 32)
    monkeypatch.undo()
    assert sorted(service.records) == [1]
    assert _log(service) == first
    assert service.dump_tables()["blobs.dat"] == first
    reloaded = StorageService(service.config)
    assert sorted(reloaded.records) == [1]
    # The number is usable again, at its own slot, right after the first entry.
    assert reloaded.store_blob(2, b"\x22" * 32) == PlacementEntry(4, 0)
    assert _log(reloaded) == first + b"2\t4\t0\t32\n" + b"\x22" * 32
    assert reloaded.fetch_blob(2) == b"\x22" * 32


def test_a_torn_entry_that_cannot_be_cut_off_stops_stores_until_a_restart(
    service, monkeypatch
):
    service.store_blob(1, os.urandom(40))
    first = _log(service)

    def refuse(path, end):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(netutil, "cut_back", refuse)
    monkeypatch.setattr(
        netutil, "append_bytes", _append_then_raise(_half_blob, OSError("disk gone"))
    )
    with pytest.raises(DiskFailure):
        service.store_blob(2, b"\x11" * 32)
    monkeypatch.undo()
    # No later entry may land behind the torn one, where a scan cannot reach.
    with pytest.raises(DiskFailure, match="torn entry"):
        service.store_blob(3, b"\x33" * 32)
    assert _log(service).startswith(first) and len(_log(service)) > len(first)
    reloaded = StorageService(service.config)
    assert _log(reloaded) == first
    assert reloaded.store_blob(3, b"\x33" * 32) == PlacementEntry(9, 0)
    assert StorageService(service.config).fetch_blob(3) == b"\x33" * 32


def test_an_entry_torn_by_a_full_disk_is_cut_back(local_stack, torn_append):
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    files = {label: os.urandom(3000) for label in ("before", "after")}
    stack.service.upload(token, "before", files["before"])
    log = _log(stack.storages[0])
    torn_append("blobs.dat")
    with pytest.raises(StorageUnavailable):
        stack.service.upload(token, "refused", os.urandom(3000))
    assert _log(stack.storages[0]) == log
    stack.service.upload(token, "after", files["after"])
    stack.reload()
    token = stack.service.login("alice", stack.mail.latest("a@example.test"))
    for label, data in files.items():
        assert stack.service.download(token, label) == data
    assert len(stack.storages[0].records) == 2


class ProcessDeath(BaseException):
    """Stands in for the process dying: no ``except`` in the code catches it."""


# The states one store can leave on disk: what the process had written when
# it died.
CRASH_STATES = {
    "header torn": _half_header,
    "header whole, no blob": _whole_header,
    "blob torn": _half_blob,
    "entry whole, not acknowledged": _whole_entry,
}


@pytest.mark.parametrize("state", CRASH_STATES)
def test_a_crash_inside_a_store_loses_no_acknowledged_blob(service, monkeypatch, state):
    earlier = {n: os.urandom(30 + n) for n in (1, 2, 3)}
    for n, blob in earlier.items():
        service.store_blob(n, blob)
    log = _log(service)
    monkeypatch.setattr(
        netutil, "append_bytes", _append_then_raise(CRASH_STATES[state], ProcessDeath)
    )
    new = os.urandom(48)
    with pytest.raises(ProcessDeath):
        service.store_blob(4, new)
    monkeypatch.undo()

    reloaded = StorageService(service.config)
    for n, blob in earlier.items():
        assert reloaded.fetch_blob(n) == blob
    if state == "entry whole, not acknowledged":  # only the ack was lost
        assert reloaded.fetch_blob(4) == new
        assert _log(reloaded) == log + b"4\t16\t0\t48\n" + new
        following, entry = 5, PlacementEntry(25, 0)
    else:
        assert sorted(reloaded.records) == [1, 2, 3]
        assert reloaded.table.count == 3
        with pytest.raises(NotFound):
            reloaded.fetch_blob(4)
        assert _log(reloaded) == log  # the torn tail is cut off
        following, entry = 4, PlacementEntry(16, 0)  # file 4's slot is free
    end = len(_log(reloaded))
    assert reloaded.store_blob(following, b"\x11" * 32) == entry
    header = f"{following}\t{entry.position}\t0\t32\n".encode()
    assert reloaded.records[following].start == end + len(header)
    assert _log(reloaded)[end:] == header + b"\x11" * 32
    assert StorageService(service.config).fetch_blob(following) == b"\x11" * 32


def test_a_log_cut_inside_its_last_entry_loses_only_that_blob(local_stack):
    # Cut inside its last entry, the log looks just like a torn append, so the
    # entry is cut off at start, as a torn one is. The blob is lost, and its
    # download is refused; it never returns other bytes.
    stack = local_stack()
    token = stack.register_and_login("alice", "a@example.test")
    kept = os.urandom(3000)
    stack.service.upload(token, "kept", kept)
    end = len(_log(stack.storages[0]))
    stack.service.upload(token, "lost", os.urandom(3000))
    os.truncate(_log_path(stack.storages[0]), len(_log(stack.storages[0])) - 10)
    stack.reload()
    assert len(_log(stack.storages[0])) == end
    token = stack.service.login("alice", stack.mail.latest("a@example.test"))
    assert stack.service.download(token, "kept") == kept
    with pytest.raises(StorageUnavailable):
        stack.service.download(token, "lost")
    stack.service.upload(token, "later", b"later bytes")
    assert stack.reload().download(
        stack.service.login("alice", stack.mail.latest("a@example.test")), "later"
    ) == b"later bytes"


@pytest.mark.parametrize(
    "header",
    [
        b"2\t4\t0\n",
        b"2\t4\t0\t32\t0\n",
        b"2\t4\tzero\t32\n",
        b"2\t4\t0\t-1\n",
        b"\n",
        b"2" * HEADER_LIMIT,
    ],
    ids=["three cells", "five cells", "not an integer", "negative length",
         "blank line", "no line end"],
)
def test_a_header_that_does_not_decode_stops_start_up(service, header):
    service.store_blob(1, b"\x00" * 32)
    _append_to_log(service, header + b"\x00" * 100)
    with pytest.raises(
        StartupFailure, match=r"blobs\.dat: entry at byte 41 does not decode$"
    ) as info:
        StorageService(service.config)
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_a_file_number_stored_twice_stops_start_up(service):
    # Accepted, a fetch would serve the later blob, and the earlier entry's
    # slot would stay taken for good.
    service.store_blob(1, b"\x00" * 32)
    _append_to_log(service, b"1\t2\t1\t32\n" + b"\x11" * 32)  # slot 1 + 1 probe
    with pytest.raises(
        StartupFailure, match=r"blobs\.dat: entry at byte 41 stores a file number again$"
    ):
        StorageService(service.config)


@pytest.mark.parametrize(
    "header, problem",
    [
        (b"2\t5\t0\t32\n", r"row \(5, 2, 0\) breaks the placement law under S=100"),
        (b"101\t1\t0\t32\n", "slot 1 assigned twice"),  # 101 * 101 mod 100 = 1
        (b"2\t100\t96\t32\n", r"position 100 outside \[0, 100\)"),
    ],
)
def test_a_header_off_the_placement_table_stops_start_up(service, header, problem):
    service.store_blob(1, b"\x00" * 32)
    _append_to_log(service, header + b"\x11" * 32)
    with pytest.raises(StartupFailure, match=rf"blobs\.dat: {problem}$"):
        StorageService(service.config)


def test_a_torn_entry_that_cannot_be_cut_off_stops_start_up(service, monkeypatch):
    service.store_blob(1, b"\x00" * 32)
    _append_to_log(service, b"2\t4\t0\t32\n" + b"\x11" * 8)

    def refuse(path, end):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(netutil, "cut_back", refuse)
    with pytest.raises(StartupFailure, match=r"blobs\.dat: cannot cut off a torn entry"):
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
        # Builds whose records named each blob's region of blobs.dat.
        "1\t1\t0\t0\t32",
    ],
    ids=["path cell", "owner cell", "region cells"],
)
def test_a_data_dir_with_a_record_table_is_refused_and_left_as_it_is(service, row):
    data_dir = service.config.data_dir
    with open(os.path.join(data_dir, "records.tsv"), "w", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with open(_log_path(service), "wb") as fh:
        fh.write(b"\x00" * 32)
    before = _data_files(data_dir)
    with pytest.raises(StartupFailure, match=r"/records\.tsv: a record table") as info:
        StorageService(service.config)
    assert "README" in str(info.value)
    assert ALICE.hex() not in str(info.value)
    assert _data_files(data_dir) == before


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


def test_a_store_makes_one_durable_write(service, monkeypatch):
    service.store_blob(1, b"\x00" * 32)
    log_inode = os.stat(_log_path(service)).st_ino
    calls, synced = [], []
    for name in ("append_bytes", "append_line", "write_atomic"):
        def counted(path, *data, _name=name, _real=getattr(netutil, name)):
            calls.append((_name, os.path.basename(path)))
            return _real(path, *data)

        monkeypatch.setattr(netutil, name, counted)
    real_fsync = os.fsync

    def recording_fsync(fd):
        is_log = os.fstat(fd).st_ino == log_inode
        synced.append("blobs.dat" if is_log else "another file")
        real_fsync(fd)

    monkeypatch.setattr(netutil.os, "fsync", recording_fsync)
    service.store_blob(2, b"\x00" * 32)
    monkeypatch.undo()
    assert calls == [("append_bytes", "blobs.dat")]
    # One append to a file that exists: no directory fsync, no new file.
    assert synced == ["blobs.dat"]
    for n in range(3, 61):
        service.store_blob(n, b"\x00" * 32)
    assert len(service.records) == 60
    assert os.listdir(service.config.data_dir) == ["blobs.dat"]


def test_dump_holds_the_log_of_headers_and_blobs(service):
    blob = os.urandom(48)
    service.store_blob(1, blob)
    dump = service.dump_tables()
    assert sorted(dump) == ["blobs.dat", "placement.tbl"]
    assert dump["blobs.dat"] == b"1\t1\t0\t48\n" + blob
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
        assert dump["blobs.dat"] == b"1\t1\t0\t80\n" + blob
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
