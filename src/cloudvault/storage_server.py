"""Storage server: ciphertext blobs, placement slots, blob regions — and
nothing else.

Rows are keyed by file number alone: numbers are global and never reused,
and nothing here names a blob's owner. The system server binds each blob to
its owner and number in the GCM tag, so a blob served for the wrong request
fails to open there. No message kind arriving on this channel can carry a
symmetric key, and none of the persisted state ever holds one.

The one log ``blobs.dat`` is the only persisted state. Each store appends one
entry, a header line ``file_number position offset length`` and then the
blob, with one fsync, and is acknowledged after it (a Haystack needle: Beaver
et al., OSDI 2010). At start the log is scanned, the records and the
placement table are rebuilt from the headers under the configured seed, and
a torn last entry is cut off: an entry is acknowledged only once it is whole
on disk, so a crash can leave nothing else to recover (Pillai et al., OSDI
2014).
"""

import io
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

BLOBS_FILE = "blobs.dat"
# What older builds kept, and the layout each belongs to; a data dir holding
# one is refused, not converted.
OLD_LAYOUTS = {
    "blobs": "one file per blob",
    "records.tsv": "a record table beside the blob log",
}

# An entry's header line: file_number position offset length.
HEADER_COLUMNS = (netutil.INT,) * 4
# The longest header line a scan reads: four integers of up to 20 digits.
HEADER_LIMIT = 4 * 21


@dataclass(frozen=True)
class BlobRecord:
    """One entry of blobs.dat: its header's cells, and where its blob starts."""

    file_number: int
    position: int
    offset: int
    length: int
    start: int  # the blob's region of blobs.dat is [start, end)

    @property
    def entry(self) -> PlacementEntry:
        return PlacementEntry(position=self.position, offset=self.offset)

    @property
    def end(self) -> int:
        return self.start + self.length


def read_log(fh, source: str) -> list[BlobRecord]:
    """The whole entries of the blob log open as ``fh``, in order, up to a
    torn last entry: a header cut off by the end of the file, or a blob that
    runs past it. A header line that does not decode, or that repeats a file
    number, raises StartupFailure naming ``source`` and the entry's byte
    offset, never a cell."""
    size = fh.seek(0, os.SEEK_END)
    records, seen = [], set()
    end = 0
    while end < size:
        fh.seek(end)
        header = fh.readline(HEADER_LIMIT)
        if not header.endswith(b"\n") and end + len(header) == size:
            break  # a torn header
        try:
            if not header.endswith(b"\n"):
                raise ValueError("no header line")
            file_number, position, offset, length = netutil.decode_row(
                header, HEADER_COLUMNS
            )
            if length < 0:
                raise ValueError("negative length")
        except ValueError:
            raise StartupFailure(
                f"{source}: entry at byte {end} does not decode"
            ) from None
        record = BlobRecord(
            file_number, position, offset, length, start=end + len(header)
        )
        if record.end > size:
            break  # a torn blob
        if file_number in seen:
            raise StartupFailure(
                f"{source}: entry at byte {end} stores a file number again"
            )
        seen.add(file_number)
        records.append(record)
        end = record.end
    return records


@dataclass
class StorageConfig:
    server_id: str
    host: str
    port: int
    admin_port: int
    data_dir: str
    seed: int

    def __post_init__(self):
        netutil.check_types(self)


class StorageService:
    """The storage node's state machine, independent of any socket."""

    def __init__(self, config: StorageConfig):
        self.config = config
        self._lock = threading.RLock()
        os.makedirs(config.data_dir, exist_ok=True)
        for name, layout in OLD_LAYOUTS.items():
            if os.path.exists(self._path(name)):
                raise StartupFailure(
                    f"{self._path(name)}: {layout} is the layout before each "
                    f"{BLOBS_FILE} entry carried its own record; see the README "
                    f"upgrade note"
                )
        log_path = self._path(BLOBS_FILE)
        try:
            with open(log_path, "rb") as fh:
                records = read_log(fh, log_path)
                size = fh.seek(0, os.SEEK_END)
        except FileNotFoundError:
            records, size = [], 0
        self.records = {r.file_number: r for r in records}
        try:
            self.table = PlacementTable.restore(
                config.seed,
                [(r.position, r.file_number, r.offset) for r in records],
            )
        except ValueError as exc:
            raise StartupFailure(f"{log_path}: {exc}") from exc
        # Where the next entry starts; None while a failed store's torn
        # entry could not be cut off, so that no entry lands behind it.
        self._log_end = records[-1].end if records else 0
        if size > self._log_end:
            try:
                netutil.cut_back(log_path, self._log_end)
            except OSError as exc:
                raise StartupFailure(
                    f"{log_path}: cannot cut off a torn entry: {exc}"
                ) from exc

    def _path(self, name: str) -> str:
        return os.path.join(self.config.data_dir, name)

    def store_blob(self, file_number: int, blob: bytes) -> PlacementEntry:
        """Assign a slot and append the entry, header and blob, with one fsync.

        A crash leaves at worst a torn last entry, cut off at the next start,
        and its slot comes back free because the table is rebuilt from the
        log. A failed store cuts its entry back off at once; if that fails
        too, stores are refused until a restart cuts it.
        """
        log_path = self._path(BLOBS_FILE)
        with self._lock:
            if self._log_end is None:
                raise DiskFailure(
                    f"{BLOBS_FILE} ends in a torn entry that could not be cut off"
                )
            if file_number in self.records:
                raise DuplicateFileNumber(f"file number {file_number} already stored")
            entry = self.table.insert(file_number)
            header = netutil.encode_row(
                HEADER_COLUMNS, (file_number, entry.position, entry.offset, len(blob))
            ).encode("ascii") + b"\n"
            try:
                start = netutil.append_bytes(log_path, header, blob) + len(header)
            except OSError as exc:
                self.table.remove(file_number)
                try:
                    netutil.cut_back(log_path, self._log_end)
                except FileNotFoundError:
                    pass  # no log, so no torn entry
                except OSError:
                    self._log_end = None
                raise DiskFailure(str(exc)) from exc
            record = BlobRecord(
                file_number, entry.position, entry.offset, len(blob), start
            )
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
                **netutil.read_files(self.config.data_dir, (BLOBS_FILE,)),
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
    """(name, bytes) of each blob in a ``dump_tables`` snapshot, read from
    ``blobs.dat`` by the scan that start-up runs."""
    log = dump.get(BLOBS_FILE, b"")
    for record in read_log(io.BytesIO(log), BLOBS_FILE):
        yield f"{BLOBS_FILE} offset {record.start}", log[record.start : record.end]


def main(argv=None) -> int:
    return netutil.run_server(argv, StorageConfig, StorageService)


if __name__ == "__main__":
    raise SystemExit(main())
