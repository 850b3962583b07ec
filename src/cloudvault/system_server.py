"""System server: accounts, one-time-password rotation, the per-file key
table, file-number sequencing, and upload/download orchestration.

File numbers are leased: ``counter.txt`` holds the end of the current lease,
written durably before any number in it is handed out, so it is at least
every number ever issued. One write covers ``FILE_NUMBER_LEASE`` uploads; a
restart resumes after the lease end, so numbers are never reused and the
unissued rest of a lease is a gap.

Identity hygiene: usernames and OTPs exist in persistent state only as MD5
digests. Every uploaded file gets a fresh single-use AES-128 key; the key
stays here, the AES-GCM blob, bound to its owner and file number, goes to a
storage server (round-robin), and a key record is written only after storage
acknowledges the blob, so a crash can strand a blob but never a key without
one. A blob that was changed or moved fails to open: IntegrityFailure.
"""

import os
import secrets
import threading
import time
from dataclasses import dataclass, replace

from . import crypto_core, mailbox as mailbox_mod, netutil, protocol
from .crypto_core import RsaKeyPair, md5_digest
from .errors import (
    AuthFailed,
    CloudVaultError,
    ConnectionFailure,
    DuplicateLabel,
    DuplicateUser,
    FileTooLarge,
    IntegrityFailure,
    InvalidKey,
    InvalidSession,
    IoFailure,
    MalformedPayload,
    NoSuchLabel,
    PersistenceFailure,
    StartupFailure,
    StorageUnavailable,
    TableFull,
    error_for_code,
)

ACCOUNTS_FILE = "accounts.tsv"
KEYS_FILE = "keys.tsv"
COUNTER_FILE = "counter.txt"
SERVER_KEY_FILE = "server_key.json"

FILE_NUMBER_LEASE = 1024  # file numbers made durable by one counter.txt write
DEFAULT_SESSION_TTL = 30 * 60.0
MAX_SESSIONS_PER_USER = 16  # a login past this ends the user's oldest session


@dataclass(frozen=True)
class AccountRecord:
    """One ``accounts.tsv`` row; the fields are its columns, in order."""

    user_digest: bytes
    otp_digest: bytes
    mail_address: str


@dataclass(frozen=True)
class KeyRecord:
    """One ``keys.tsv`` row; the fields are its columns, in order."""

    user_digest: bytes
    label: str
    file_number: int
    key: bytes
    storage_id: str


ACCOUNT_COLUMNS = (netutil.HEX16, netutil.HEX16, netutil.TEXT)
KEY_COLUMNS = (netutil.HEX16, netutil.TEXT, netutil.INT, netutil.HEX16, netutil.WORD)


@dataclass(frozen=True)
class StorageTarget:
    server_id: str
    host: str
    port: int

    def __post_init__(self):
        netutil.check_types(self)
        netutil.check_port("port", self.port)


@dataclass
class SystemConfig:
    host: str
    port: int
    admin_port: int
    data_dir: str
    storage: list[StorageTarget]  # given as {server_id, host, port} objects
    # Read by nothing: it stays because perfbench/topology.py writes it and
    # unknown keys are refused. Deleted with that writer (ROADMAP item 1).
    seed: int = 100
    mailbox_dir: str = ""
    rsa_bits: int = crypto_core.DEFAULT_RSA_BITS

    def __post_init__(self):
        if type(self.storage) is list:
            self.storage = [
                StorageTarget(**target) if type(target) is dict else target
                for target in self.storage
            ]
        netutil.check_types(self)


# ---------------------------------------------------------------------------
# Storage access: plain frames to one storage server and plain frames back.

class StorageClient:
    """``round_trip`` takes a request frame and returns the reply frame: a
    ``netutil.FrameConnection``'s in a server process, an in-process storage
    service's ``handle_frame`` in tests. Both run the same plain codec."""

    def __init__(self, server_id: str, round_trip):
        self.server_id = server_id
        self._round_trip = round_trip

    def _call(self, msg, expected: type):
        try:
            frame = self._round_trip(protocol.send_plain(msg))
        except ConnectionFailure as exc:
            raise StorageUnavailable(str(exc)) from exc
        reply = protocol.recv_plain(frame)
        if isinstance(reply, protocol.ErrorFrame):
            raise error_for_code(reply.code, reply.text)
        if not isinstance(reply, expected):
            raise StorageUnavailable(f"unexpected reply {type(reply).__name__}")
        return reply

    def store(self, file_number: int, blob: bytes) -> None:
        ack = self._call(
            protocol.StoreBlob(file_number=file_number, blob=blob), protocol.UploadAck
        )
        if not ack.status.startswith("STORED "):
            raise StorageUnavailable(f"unexpected ack {ack.status!r}")

    def fetch(self, file_number: int) -> bytes:
        return self._call(
            protocol.FetchBlob(file_number=file_number), protocol.BlobPayload
        ).blob


def _blob_aad(user_digest: bytes, file_number: int) -> bytes:
    """What a blob's GCM tag binds it to. Ownership is checked here, where
    the key is: storage knows only file numbers, and a blob it serves under
    another number, or another user's blob, fails to open."""
    return user_digest + file_number.to_bytes(8, "big")


@dataclass
class _Session:
    user_digest: bytes
    last_used: float


class SystemService:
    """Account/key/session state machine, independent of any socket."""

    def __init__(self, config: SystemConfig, mail_channel=None, storage_clients=None):
        self.config = config
        if mail_channel is None:
            if not config.mailbox_dir:
                raise StartupFailure(
                    "mailbox_dir is empty: one-time passwords would reach no one"
                )
            mail_channel = mailbox_mod.FileMailbox(config.mailbox_dir)
        self.mail = mail_channel
        os.makedirs(config.data_dir, exist_ok=True)
        if storage_clients is None:
            storage_clients = [
                StorageClient(
                    t.server_id, netutil.FrameConnection(t.host, t.port, 30.0).round_trip
                )
                for t in config.storage
            ]
        self.storage_clients = list(storage_clients)
        if not self.storage_clients:
            raise StartupFailure("at least one storage server is required")
        self._lock = threading.RLock()
        self.keypair = self._load_or_create_keypair()
        self.accounts: dict[bytes, AccountRecord] = {}
        self.key_records: dict[tuple, KeyRecord] = {}
        self._counter = 0  # the last file number issued
        self._lease_end = 0  # the number counter.txt durably holds
        self._next_storage = 0  # round-robin position of the next upload
        self._sessions: dict[str, _Session] = {}
        self._pending_labels: set = set()
        self._load_state()
        # Fault-injection seam for crash-consistency tests: called between the
        # storage acknowledgment and the key-record write.
        self.after_blob_store = None

    # -- persistence ----------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.config.data_dir, name)

    def _load_or_create_keypair(self) -> RsaKeyPair:
        path = self._path(SERVER_KEY_FILE)
        if not os.path.exists(path):
            try:
                pair = crypto_core.rsa_generate(self.config.rsa_bits)
            except ValueError as exc:
                raise StartupFailure(f"rsa_bits {self.config.rsa_bits}: {exc}") from exc
            netutil.write_keypair(path, pair)
            return pair
        try:
            return netutil.read_keypair(path)
        except (InvalidKey, IoFailure) as exc:
            raise StartupFailure(f"server key file {path}: {exc}") from exc

    def _load_state(self):
        for row in netutil.read_rows(self._path(ACCOUNTS_FILE), ACCOUNT_COLUMNS):
            record = AccountRecord(*row)
            self.accounts[record.user_digest] = record  # later rows win
        for row in netutil.read_rows(self._path(KEYS_FILE), KEY_COLUMNS):
            record = KeyRecord(*row)
            self.key_records[(record.user_digest, record.label)] = record
        self._next_storage = len(self.key_records)
        # A counter file that is missing or behind keys.tsv (lost, or left by
        # a build whose ``write_atomic`` did not fsync the directory) must
        # not re-issue a number that a key row holds.
        self._counter = max(
            (r.file_number for r in self.key_records.values()), default=0
        )
        for (counter,) in netutil.read_rows(self._path(COUNTER_FILE), (netutil.INT,)):
            self._counter = max(self._counter, counter)
        self._lease_end = self._counter

    def _append_row(self, name: str, columns: tuple, record):
        try:
            netutil.append_row(self._path(name), columns, record)
        except OSError as exc:
            raise PersistenceFailure(str(exc)) from exc

    # -- account lifecycle ------------------------------------------------------

    def register(self, username: str, mail_address: str):
        """Create an account keyed by md5(username); mail the first OTP.

        Nothing is persisted until the OTP is in the mailbox, so a delivery
        failure leaves no trace of the attempt.
        """
        if not username:
            raise MalformedPayload("username must be non-empty")
        digest = md5_digest(username.encode("utf-8"))
        with self._lock:
            if digest in self.accounts:
                raise DuplicateUser("that username is taken")
            otp = crypto_core.generate_otp()
            self.mail.deliver(mail_address, otp)
            record = AccountRecord(
                user_digest=digest,
                otp_digest=md5_digest(otp.encode("ascii")),
                mail_address=mail_address,
            )
            self._append_row(ACCOUNTS_FILE, ACCOUNT_COLUMNS, record)
            self.accounts[digest] = record

    def login(self, username: str, otp: str) -> str:
        """Validate the current OTP, rotate it, and open a session.

        Unknown users and wrong passwords fail identically; a matched OTP is
        consumed before the response leaves, and its replacement is already
        in the mailbox.
        """
        digest = md5_digest(username.encode("utf-8"))
        with self._lock:
            record = self.accounts.get(digest)
            if record is None or md5_digest(otp.encode("utf-8")) != record.otp_digest:
                raise AuthFailed("unknown user or invalid one-time password")
            next_otp = crypto_core.generate_otp()
            self.mail.deliver(record.mail_address, next_otp)
            rotated = replace(record, otp_digest=md5_digest(next_otp.encode("ascii")))
            # The last row wins on reload.
            self._append_row(ACCOUNTS_FILE, ACCOUNT_COLUMNS, rotated)
            self.accounts[digest] = rotated
            token = secrets.token_bytes(16).hex()
            now = time.monotonic()
            self._sessions[token] = _Session(user_digest=digest, last_used=now)
            self._prune_sessions(digest, now)
            return token

    def _prune_sessions(self, digest: bytes, now: float) -> None:
        """Drop expired sessions and all but the user's newest
        ``MAX_SESSIONS_PER_USER``, so logins cannot grow the table."""
        expired = [
            token for token, session in self._sessions.items()
            if now - session.last_used > DEFAULT_SESSION_TTL
        ]
        mine = [  # in login order: dicts keep insertion order
            token for token, session in self._sessions.items()
            if session.user_digest == digest
        ]
        for token in expired + mine[:-MAX_SESSIONS_PER_USER]:
            self._sessions.pop(token, None)

    def _session_digest(self, token: str) -> bytes:
        with self._lock:
            session = self._sessions.get(token)
            now = time.monotonic()
            if session is None:
                raise InvalidSession("no such session")
            if now - session.last_used > DEFAULT_SESSION_TTL:
                del self._sessions[token]
                raise InvalidSession("session expired")
            session.last_used = now
            return session.user_digest

    # -- files ------------------------------------------------------------------

    def next_file_number(self) -> int:
        """Monotone global sequence, durable before first use: a number past
        the lease end is issued only once the next lease is written."""
        with self._lock:
            number = self._counter + 1
            if number > self._lease_end:
                lease_end = number + FILE_NUMBER_LEASE - 1
                try:
                    netutil.write_atomic(
                        self._path(COUNTER_FILE), f"{lease_end}\n".encode()
                    )
                except OSError as exc:
                    raise PersistenceFailure(str(exc)) from exc
                self._lease_end = lease_end
            self._counter = number
            return number

    def upload(self, token: str, label: str, file_bytes: bytes):
        digest = self._session_digest(token)
        if not label:
            raise MalformedPayload("label must be non-empty")
        if len(file_bytes) > protocol.MAX_FILE_BYTES:
            raise FileTooLarge(
                f"{len(file_bytes)} bytes exceeds cap {protocol.MAX_FILE_BYTES}"
            )
        claim = (digest, label)
        with self._lock:
            if claim in self.key_records or claim in self._pending_labels:
                raise DuplicateLabel(f"label {label!r} already uploaded")
            self._pending_labels.add(claim)
            upload_index = self._next_storage
            self._next_storage += 1
        try:
            number = self.next_file_number()
            key = crypto_core.generate_symmetric_key()
            blob = crypto_core.encrypt_file(
                file_bytes, key, crypto_core.BLOB_INFO, _blob_aad(digest, number)
            )
            client = self.storage_clients[upload_index % len(self.storage_clients)]
            try:
                client.store(number, blob)
            except TableFull:
                raise  # the storage answered; it is full, not unavailable
            except CloudVaultError as exc:
                raise StorageUnavailable(
                    f"storage {client.server_id}: {exc}"
                ) from exc
            if self.after_blob_store is not None:
                self.after_blob_store()
            record = KeyRecord(
                user_digest=digest,
                label=label,
                file_number=number,
                key=key,
                storage_id=client.server_id,
            )
            with self._lock:
                self._append_row(KEYS_FILE, KEY_COLUMNS, record)
                self.key_records[claim] = record
        finally:
            with self._lock:
                self._pending_labels.discard(claim)

    def download(self, token: str, label: str) -> bytes:
        digest = self._session_digest(token)
        with self._lock:
            record = self.key_records.get((digest, label))
            if record is None:
                raise NoSuchLabel(f"no file labelled {label!r}")
            client = next(
                (c for c in self.storage_clients if c.server_id == record.storage_id),
                None,
            )
        if client is None:
            raise StorageUnavailable(f"storage {record.storage_id} not configured")
        try:
            blob = client.fetch(record.file_number)
        except CloudVaultError as exc:  # lost the blob, or refused to serve it
            raise StorageUnavailable(
                f"storage {record.storage_id}, file {record.file_number}: {exc}"
            ) from exc
        try:
            return crypto_core.decrypt_file(
                crypto_core.Ciphertext.from_bytes(blob), record.key,
                crypto_core.BLOB_INFO, _blob_aad(digest, record.file_number),
            )
        except CloudVaultError as exc:
            raise IntegrityFailure(f"blob {record.file_number} corrupted") from exc

    def list_labels(self, token: str) -> list[str]:
        digest = self._session_digest(token)
        with self._lock:
            return sorted(
                label for (d, label) in self.key_records if d == digest
            )

    def dump_tables(self) -> dict[str, bytes]:
        """Byte-faithful copy of the persisted tables (audit channel)."""
        with self._lock:
            return netutil.read_files(
                self.config.data_dir, (ACCOUNTS_FILE, KEYS_FILE, COUNTER_FILE)
            )

    # -- protocol dispatch --------------------------------------------------------

    def dispatch(self, msg):
        """Map one request message to its reply; a refusal is an ``ErrorFrame``."""
        try:
            if isinstance(msg, protocol.Register):
                self.register(msg.username, msg.mail_address)
                return protocol.LoginResponse(session_token="", status="REGISTERED")
            if isinstance(msg, protocol.LoginRequest):
                token = self.login(msg.username, msg.otp)
                return protocol.LoginResponse(session_token=token, status="OK")
            if isinstance(msg, protocol.UploadRequest):
                self.upload(msg.session_token, msg.label, msg.file_bytes)
                return protocol.UploadAck(label=msg.label, status="OK")
            if isinstance(msg, protocol.DownloadRequest):
                data = self.download(msg.session_token, msg.label)
                return protocol.FilePayload(label=msg.label, file_bytes=data)
            if isinstance(msg, protocol.ListRequest):
                labels = self.list_labels(msg.session_token)
                return protocol.ListResponse(labels=tuple(labels))
            raise MalformedPayload(f"{type(msg).__name__} is not a client request")
        except CloudVaultError as exc:
            return protocol.error_frame(exc)

    def handle_frame(
        self, frame: protocol.Frame, conn: protocol.ConnectionState
    ) -> protocol.Frame:
        """A sealed request that opens gets a sealed reply, refusals
        included. Any other frame gets a plain ``ErrorFrame`` and changes
        nothing: ``MALFORMED_PAYLOAD`` if it is not sealed, and the one
        ``DECRYPTION_FAILURE`` for every sealed frame that does not open.
        ``conn`` is the state of the connection the frame came on: its first
        exchange keys it, and later requests open under that key alone."""
        try:
            if frame.tag not in (protocol.SEALED_TAG, protocol.KEYED_TAG):
                raise MalformedPayload("client traffic must be sealed")
            msg = protocol.recv_sealed(frame, self.keypair, conn)
        except CloudVaultError as exc:
            return protocol.send_plain(protocol.error_frame(exc))
        reply = self.dispatch(msg)
        try:
            return protocol.send_reply(reply, conn)
        except CloudVaultError as exc:  # a reply over the frame cap
            return protocol.send_reply(protocol.error_frame(exc), conn)


def main(argv=None) -> int:
    return netutil.run_server(argv, SystemConfig, SystemService)


if __name__ == "__main__":
    raise SystemExit(main())
