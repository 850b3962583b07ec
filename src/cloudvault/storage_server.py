"""Storage server: ciphertext blobs, placement slots, paths — and nothing else.

Rows are keyed by (md5 user digest, file number); the digest must match on
fetch, so a guessed file number alone never returns a blob. No message kind
arriving on this channel can carry a symmetric key, and none of the persisted
state ever holds one.

``records.tsv`` and ``blobs/`` are the only persisted state: the placement
table is rebuilt at start from each record's (position, file number, offset)
under the configured seed, and a blob that no record names is deleted.
"""

import contextlib
import os
import threading
from dataclasses import astuple, dataclass

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
BLOBS_DIR = "blobs"


@dataclass(frozen=True)
class BlobRecord:
    """One ``records.tsv`` row; the fields are its columns, in order."""

    user_digest: bytes
    file_number: int
    position: int
    offset: int
    path: str  # relative to the data dir; derived from the position

    @property
    def entry(self) -> PlacementEntry:
        return PlacementEntry(position=self.position, offset=self.offset)


RECORD_COLUMNS = (netutil.HEX16, netutil.INT, netutil.INT, netutil.INT, netutil.WORD)


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
        os.makedirs(os.path.join(config.data_dir, BLOBS_DIR), exist_ok=True)
        self.records = {}
        for row in netutil.read_rows(self._path(RECORDS_FILE), RECORD_COLUMNS):
            record = BlobRecord(*row)
            self.records[record.file_number] = record
        rows = [(r.position, r.file_number, r.offset) for r in self.records.values()]
        try:
            self.table = PlacementTable.restore(config.seed, rows)
        except ValueError as exc:
            raise StartupFailure(f"{self._path(RECORDS_FILE)}: {exc}") from exc
        # A store acknowledges only after its record row, so a blob no record
        # names (or a ``*.tmp`` from an interrupted write) was never acked.
        named = {r.path for r in self.records.values()}
        for name in os.listdir(self._path(BLOBS_DIR)):
            if f"{BLOBS_DIR}/{name}" not in named:
                os.unlink(os.path.join(self._path(BLOBS_DIR), name))

    def _path(self, name: str) -> str:
        return os.path.join(self.config.data_dir, name)

    def store_blob(
        self, user_digest: bytes, file_number: int, blob: bytes
    ) -> PlacementEntry:
        """Assign a slot, write the blob, persist the record.

        Write order is blob file, then record row; a crash leaves at worst an
        unreachable blob, deleted at the next start, never a record without
        its bytes, and its slot comes back free because the table is rebuilt
        from the records.
        """
        with self._lock:
            if file_number in self.records:
                raise DuplicateFileNumber(f"file number {file_number} already stored")
            entry = self.table.insert(file_number)
            record = BlobRecord(
                user_digest=user_digest,
                file_number=file_number,
                position=entry.position,
                offset=entry.offset,
                path=f"{BLOBS_DIR}/{entry.position}.bin",
            )
            try:
                netutil.write_atomic(self._path(record.path), blob)
                netutil.append_row(
                    self._path(RECORDS_FILE), RECORD_COLUMNS, astuple(record)
                )
            except OSError as exc:
                self.table.remove(file_number)
                with contextlib.suppress(OSError):
                    os.unlink(self._path(record.path))
                raise DiskFailure(str(exc)) from exc
            self.records[file_number] = record
            return entry

    def fetch_blob(self, user_digest: bytes, file_number: int) -> bytes:
        """Blob bytes iff both the number and the digest match; the caller
        cannot tell a wrong digest from a missing file."""
        with self._lock:
            record = self.records.get(file_number)
            if record is None or record.user_digest != user_digest:
                raise NotFound("no blob for that user digest and file number")
            path = self._path(record.path)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise DiskFailure(str(exc)) from exc

    def dump_tables(self) -> dict[str, bytes]:
        """Byte-faithful copy of everything persisted, plus the in-memory
        placement table rendered as ``placement.tbl`` (audit channel)."""
        with self._lock:
            blobs = sorted(os.listdir(self._path(BLOBS_DIR)))
            return {
                "placement.tbl": self.table.serialize().encode(),
                **netutil.read_files(
                    self.config.data_dir,
                    (RECORDS_FILE, *(f"{BLOBS_DIR}/{name}" for name in blobs)),
                ),
            }

    # -- protocol dispatch ----------------------------------------------------

    def handle_frame(self, frame: protocol.Frame) -> protocol.Frame:
        try:
            msg = protocol.recv_plain(frame)
            if isinstance(msg, protocol.StoreBlob):
                entry = self.store_blob(msg.user_digest, msg.file_number, msg.blob)
                reply = protocol.UploadAck(
                    label=str(msg.file_number),
                    status=f"STORED {entry.position} {entry.offset}",
                )
            elif isinstance(msg, protocol.FetchBlob):
                reply = protocol.BlobPayload(
                    blob=self.fetch_blob(msg.user_digest, msg.file_number)
                )
            else:
                raise MalformedPayload(
                    f"{type(msg).__name__} is not valid on the storage channel"
                )
        except CloudVaultError as exc:
            reply = protocol.error_frame(exc)
        return protocol.send_plain(reply)


def main(argv=None) -> int:
    return netutil.run_server(argv, StorageConfig, StorageService)


if __name__ == "__main__":
    raise SystemExit(main())
