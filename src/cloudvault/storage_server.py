"""Storage server: ciphertext blobs, placement slots, blob regions — and
nothing else.

Rows are keyed by file number alone: numbers are global and never reused,
and nothing here names a blob's owner. The system server binds each blob to
its owner and number in the GCM tag, so a blob served for the wrong request
fails to open there. No message kind arriving on this channel can carry a
symmetric key, and none of the persisted state ever holds one.

``records.tsv`` and ``blobs.dat`` are the only persisted state. Every blob is
appended to the one log ``blobs.dat``, and its ``records.tsv`` row names the
region ``[start, start + length)`` that holds it. The placement table is
rebuilt at start from each record's (position, file number, offset) under the
configured seed, and the log is cut back to the end of the last record: bytes
past it were never acknowledged.
"""

import contextlib
import os
import threading
from dataclasses import dataclass

from . import netutil, protocol
from .errors import (
    CloudVaultError,
    DiskFailure,
    DuplicateFileNumber,
    MalformedPayload,
    NotFound,
    StartupFailure,
)
from .placement import PlacementEntry, PlacementTable

RECORDS_FILE = "records.tsv"
BLOBS_FILE = "blobs.dat"
# Where builds before the blob log kept one file per blob.
OLD_BLOBS_DIR = "blobs"


@dataclass(frozen=True)
class BlobRecord:
    """One ``records.tsv`` row; the fields are its columns, in order."""

    file_number: int
    position: int
    offset: int
    start: int  # the blob's region of blobs.dat
    length: int

    @property
    def entry(self) -> PlacementEntry:
        return PlacementEntry(position=self.position, offset=self.offset)

    @property
    def end(self) -> int:
        return self.start + self.length


RECORD_COLUMNS = (netutil.INT,) * 5


@dataclass
class StorageConfig:
    server_id: str
    host: str
    port: int
    admin_port: int
    data_dir: str
    seed: int


class StorageService:
    """The storage node's state machine, independent of any socket."""

    def __init__(self, config: StorageConfig):
        self.config = config
        self._lock = threading.RLock()
        os.makedirs(config.data_dir, exist_ok=True)
        if os.path.isdir(self._path(OLD_BLOBS_DIR)):
            raise StartupFailure(
                f"{self._path(OLD_BLOBS_DIR)}: one file per blob is the layout "
                f"before {BLOBS_FILE}; see the README upgrade note"
            )
        records_path = self._path(RECORDS_FILE)
        rows = netutil.read_rows(records_path, RECORD_COLUMNS)
        records = [BlobRecord(*row) for row in rows]
        self.records = {r.file_number: r for r in records}
        try:
            self.table = PlacementTable.restore(
                config.seed,
                [(r.position, r.file_number, r.offset) for r in records],
            )
        except ValueError as exc:
            raise StartupFailure(f"{records_path}: {exc}") from exc
        log_path = self._path(BLOBS_FILE)
        try:
            size = os.path.getsize(log_path)
        except FileNotFoundError:
            size = 0
        self._log_end = self._check_regions(records, size)
        # A store acknowledges only after its record row, so bytes past the
        # last record's region were never acknowledged.
        if size > self._log_end:
            try:
                netutil.cut_back(log_path, self._log_end)
            except OSError as exc:
                raise StartupFailure(
                    f"{log_path}: cannot cut back to the last record: {exc}"
                ) from exc

    def _path(self, name: str) -> str:
        return os.path.join(self.config.data_dir, name)

    def _check_regions(self, records: list, size: int) -> int:
        """The end of the last region, once every row names a region of its
        own inside the ``size`` bytes of blobs.dat. A refusal names the row,
        never a cell."""
        end = 0
        for start, stop, row in sorted(
            (r.start, r.end, row) for row, r in enumerate(records, 1)
        ):
            if start < 0 or stop < start:
                problem = "names a negative region"
            elif start < end:
                problem = "overlaps another region"
            elif stop > size:
                problem = "runs past the end"
            else:
                end = stop
                continue
            raise StartupFailure(
                f"{self._path(RECORDS_FILE)}: row {row} {problem} of {BLOBS_FILE}"
            )
        return end

    def store_blob(self, file_number: int, blob: bytes) -> PlacementEntry:
        """Assign a slot, append the blob, persist the record.

        Write order is blob, then record row; a crash leaves at worst bytes
        past the last record, cut off at the next start, never a record
        without its bytes, and its slot comes back free because the table is
        rebuilt from the records. A failed store cuts the log back at once,
        if it can.
        """
        log_path = self._path(BLOBS_FILE)
        with self._lock:
            if file_number in self.records:
                raise DuplicateFileNumber(f"file number {file_number} already stored")
            entry = self.table.insert(file_number)
            try:
                start = netutil.append_bytes(log_path, blob)
                record = BlobRecord(
                    file_number=file_number,
                    position=entry.position,
                    offset=entry.offset,
                    start=start,
                    length=len(blob),
                )
                netutil.append_row(self._path(RECORDS_FILE), RECORD_COLUMNS, record)
            except OSError as exc:
                self.table.remove(file_number)
                with contextlib.suppress(OSError):
                    netutil.cut_back(log_path, self._log_end)
                raise DiskFailure(str(exc)) from exc
            self.records[file_number] = record
            self._log_end = record.end
            return entry

    def fetch_blob(self, file_number: int) -> bytes:
        """The bytes stored under ``file_number``."""
        with self._lock:
            record = self.records.get(file_number)
            if record is None:
                raise NotFound("no blob for that file number")
        try:
            with open(self._path(BLOBS_FILE), "rb", buffering=0) as fh:
                blob = os.pread(fh.fileno(), record.length, record.start)
        except OSError as exc:
            raise DiskFailure(str(exc)) from exc
        if len(blob) != record.length:
            raise DiskFailure(f"{BLOBS_FILE} ends inside the blob of file {file_number}")
        return blob

    def dump_tables(self) -> dict[str, bytes]:
        """Byte-faithful copy of everything persisted, plus the in-memory
        placement table rendered as ``placement.tbl`` (audit channel)."""
        with self._lock:
            return {
                "placement.tbl": self.table.serialize().encode(),
                **netutil.read_files(self.config.data_dir, (RECORDS_FILE, BLOBS_FILE)),
            }

    # -- protocol dispatch ----------------------------------------------------

    def handle_frame(self, frame: protocol.Frame, conn=None) -> protocol.Frame:
        # conn: the frame server's connection state; this channel is not sealed
        try:
            msg = protocol.recv_plain(frame)
            if isinstance(msg, protocol.StoreBlob):
                entry = self.store_blob(msg.file_number, msg.blob)
                reply = protocol.UploadAck(
                    label=str(msg.file_number),
                    status=f"STORED {entry.position} {entry.offset}",
                )
            elif isinstance(msg, protocol.FetchBlob):
                reply = protocol.BlobPayload(blob=self.fetch_blob(msg.file_number))
            else:
                raise MalformedPayload(
                    f"{type(msg).__name__} is not valid on the storage channel"
                )
        except CloudVaultError as exc:
            reply = protocol.error_frame(exc)
        return protocol.send_plain(reply)


def stored_blobs(dump: dict[str, bytes]):
    """(name, bytes) of each blob in a ``dump_tables`` snapshot: the region
    of ``blobs.dat`` that its ``records.tsv`` row names."""
    rows = netutil.decode_rows(
        dump.get(RECORDS_FILE, b"").splitlines(), RECORD_COLUMNS, RECORDS_FILE
    )
    log = dump.get(BLOBS_FILE, b"")
    for record in (BlobRecord(*row) for row in rows):
        yield f"{BLOBS_FILE} offset {record.start}", log[record.start : record.end]


def main(argv=None) -> int:
    return netutil.run_server(argv, StorageConfig, StorageService)


if __name__ == "__main__":
    raise SystemExit(main())
