"""Wire protocol for both channels.

Frame layout (normative): 1 tag byte, 4-byte big-endian payload length,
payload. A message payload is a canonical JSON object — keys sorted,
compact separators, binary fields as lowercase hex — so equal messages
produce byte-identical frames on the plain channel. The writer assembles
that object itself, splicing each binary field's hex in unescaped (lowercase
hex never needs escaping); the bytes are exactly what
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` would write.
Reading goes through ``json.loads``.

A client request is sealed: a ``SEALED_TAG`` frame whose payload is the raw
bytes ``wrapped_key ‖ iv ‖ body``. ``wrapped_key`` is the RSA-wrapped
session key, k bytes for the receiver's k-byte modulus; ``iv`` is 16 bytes;
``body`` is the AES-CBC encryption of the encoded inner frame. The layout is
``crypto_core``'s envelope; the receiver splits it at its own k, so no length
field is carried. Every sealed frame that does not open or decode gets the
same ``DecryptionFailure`` text.
The system server answers a sealed request with a ``REPLY_TAG`` frame whose
payload is ``nonce(16) ‖ AES-128-GCM body ‖ tag(16)`` under a key derived
from that request's session key (``crypto_core.seal_reply``). The client
opens it with the session key it chose, so a forged reply, or a genuine
reply to another request, does not open. A request that does not open, and
a refusal sent before the peer is identified, are answered with a plain
``ErrorFrame``.
System/storage traffic is framed in the clear; every file byte on that
channel is already ciphertext, and no message kind that could carry a
symmetric key exists, so keys structurally cannot cross it.
"""

import binascii
import json
import socket
import struct
from dataclasses import dataclass, make_dataclass

from . import crypto_core
from .errors import (
    CloudVaultError,
    DecryptionFailure,
    MalformedPayload,
    TruncatedFrame,
    UnknownTag,
)

MAX_FRAME_LEN = 16 * 1024 * 1024
HEADER_LEN = 5
SEALED_TAG = 0x10
REPLY_TAG = 0x11
UNOPENABLE_TEXT = "sealed frame does not open"


@dataclass(frozen=True)
class Frame:
    tag: int
    payload: bytes

    def __post_init__(self):
        # Checked here, not when writing, so an over-cap message fails before
        # any socket is touched.
        if len(self.payload) > MAX_FRAME_LEN:
            raise MalformedPayload(f"payload of {len(self.payload)} bytes exceeds cap")

    def to_bytes(self) -> bytes:
        return struct.pack(">BI", self.tag, len(self.payload)) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        if len(data) < HEADER_LEN:
            raise TruncatedFrame(f"{len(data)} bytes, header needs {HEADER_LEN}")
        tag, length = struct.unpack(">BI", data[:HEADER_LEN])
        if length > MAX_FRAME_LEN:
            raise MalformedPayload(f"declared length {length} exceeds cap")
        if len(data) < HEADER_LEN + length:
            raise TruncatedFrame(f"payload truncated at {len(data) - HEADER_LEN} bytes")
        if len(data) > HEADER_LEN + length:
            raise MalformedPayload("trailing bytes after frame")
        return cls(tag=tag, payload=data[HEADER_LEN:])


# ---------------------------------------------------------------------------
# Field codecs: one (python value -> JSON value, JSON value -> python value)
# pair per field kind; each check is written once and run in both directions.
# A binary field encodes to ASCII hex ``bytes``, which the payload writer
# quotes and splices in as it is.

def _str(value):
    if not isinstance(value, str):
        raise MalformedPayload(f"expected str, got {type(value).__name__}")
    try:  # JSON's \ud800 escapes reach here as lone surrogates
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedPayload("text is not valid Unicode") from None
    return value


def _positive_int(value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MalformedPayload(f"expected positive int, got {value!r}")
    return value


def _bytes(value) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise MalformedPayload(f"expected bytes, got {type(value).__name__}")
    return bytes(value)


def _from_hex(value) -> bytes:
    if not isinstance(value, str):
        raise MalformedPayload("binary fields travel as hex strings")
    try:
        return bytes.fromhex(value)
    except ValueError as exc:
        raise MalformedPayload(f"invalid hex: {exc}") from exc


def _digest(raw: bytes) -> bytes:
    if len(raw) != crypto_core.DIGEST_BYTES:
        raise MalformedPayload(f"digest must be 16 bytes, got {len(raw)}")
    return raw


def pubkey_from_json(value) -> tuple:
    """The ``{"e": dec-string, "n": dec-string}`` form of a public key, as
    client config files give the system key."""
    if not isinstance(value, dict) or set(value) != {"e", "n"}:
        raise MalformedPayload("public key must be an {e, n} object")
    try:
        n, e = int(value["n"]), int(value["e"])
    except (TypeError, ValueError) as exc:
        raise MalformedPayload("public key components must be decimal") from exc
    if n < 1 or e < 1:
        raise MalformedPayload("public key components must be positive ints")
    return (n, e)


def _strs(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise MalformedPayload("label list must be a list")
    return tuple(_str(item) for item in value)


_STR = (_str, _str)
_POSITIVE_INT = (_positive_int, _positive_int)
_BYTES = (lambda value: binascii.hexlify(_bytes(value)), _from_hex)  # lowercase hex
_DIGEST = (
    lambda value: binascii.hexlify(_digest(_bytes(value))),
    lambda value: _digest(_from_hex(value)),
)
_STRLIST = (lambda value: list(_strs(value)), _strs)


# ---------------------------------------------------------------------------
# Message kinds: one row each, giving the kind's name, its tag and its fields
# in order, each with its codec. The row builds the frozen dataclass and fills
# both the schema and the tag maps.

_SCHEMAS: dict[type, dict[str, tuple]] = {}
_TAG_BY_TYPE: dict[type, int] = {}
_TYPE_BY_TAG: dict[int, type] = {}


def _kind(name: str, tag: int, **codecs) -> type:
    cls = make_dataclass(name, list(codecs), frozen=True)
    cls.__module__ = __name__  # make_dataclass has no module= before 3.12
    _SCHEMAS[cls] = codecs
    _TAG_BY_TYPE[cls] = tag
    _TYPE_BY_TAG[tag] = cls
    return cls


Register = _kind("Register", 0x01, username=_STR, mail_address=_STR)
LoginRequest = _kind("LoginRequest", 0x02, username=_STR, otp=_STR)
LoginResponse = _kind("LoginResponse", 0x03, session_token=_STR, status=_STR)
UploadRequest = _kind(
    "UploadRequest", 0x04, session_token=_STR, label=_STR, file_bytes=_BYTES
)
UploadAck = _kind("UploadAck", 0x05, label=_STR, status=_STR)
DownloadRequest = _kind("DownloadRequest", 0x06, session_token=_STR, label=_STR)
FilePayload = _kind("FilePayload", 0x07, label=_STR, file_bytes=_BYTES)
ListRequest = _kind("ListRequest", 0x08, session_token=_STR)
ListResponse = _kind("ListResponse", 0x09, labels=_STRLIST)
StoreBlob = _kind(
    "StoreBlob", 0x0A, user_digest=_DIGEST, file_number=_POSITIVE_INT, blob=_BYTES
)
FetchBlob = _kind("FetchBlob", 0x0B, user_digest=_DIGEST, file_number=_POSITIVE_INT)
BlobPayload = _kind("BlobPayload", 0x0C, blob=_BYTES)
ErrorFrame = _kind("ErrorFrame", 0x0E, code=_STR, text=_STR)


def error_frame(exc: CloudVaultError):
    """The one reply every server sends for a refused request."""
    return ErrorFrame(code=exc.code, text=str(exc))


def tag_of(msg) -> int:
    try:
        return _TAG_BY_TYPE[type(msg)]
    except KeyError:
        raise UnknownTag(f"not a protocol message: {type(msg).__name__}") from None


def _payload_of(msg) -> bytes:
    """The canonical JSON object, written field by field in sorted order and
    joined once; hex from a binary field is never scanned for escapes."""
    parts = []
    for name, (encode, _) in sorted(_SCHEMAS[type(msg)].items()):
        parts += (b"," if parts else b"{", json.dumps(name).encode("ascii"), b":")
        value = encode(getattr(msg, name))
        if isinstance(value, bytes):
            parts += (b'"', value, b'"')
        else:
            parts.append(
                json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
            )
    parts.append(b"}")
    return b"".join(parts)


def encode_frame(msg) -> bytes:
    """Canonical bytes for a message: equal messages, identical frames."""
    return Frame(tag=tag_of(msg), payload=_payload_of(msg)).to_bytes()


def _message_from_frame(frame: Frame):
    cls = _TYPE_BY_TAG.get(frame.tag)
    if cls is None:
        raise UnknownTag(f"tag 0x{frame.tag:02x} is not a known message kind")
    try:
        obj = json.loads(frame.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the interpreter's stack
        raise MalformedPayload(f"payload is not valid JSON: {exc}") from exc
    schema = _SCHEMAS[cls]
    if not isinstance(obj, dict) or set(obj) != set(schema):
        raise MalformedPayload(
            f"{cls.__name__} payload must have exactly fields {sorted(schema)}"
        )
    values = {name: decode(obj[name]) for name, (_, decode) in schema.items()}
    return cls(**values)


def decode_frame(data: bytes):
    """Inverse of encode_frame on complete frame bytes."""
    return _message_from_frame(Frame.from_bytes(data))


# ---------------------------------------------------------------------------
# Plain channel (system <-> storage): payload is already ciphertext

def send_plain(msg) -> Frame:
    return Frame(tag=tag_of(msg), payload=_payload_of(msg))


def recv_plain(frame: Frame):
    if frame.tag == SEALED_TAG:
        raise MalformedPayload("sealed frame on the plain channel")
    return _message_from_frame(frame)


# ---------------------------------------------------------------------------
# Sealed channel (client <-> system)

def send_sealed(msg, pub: tuple[int, int], session_key: bytes) -> Frame:
    """Envelope the encoded message to ``pub`` under ``session_key``, a fresh
    key the caller keeps to open the reply."""
    payload = crypto_core.seal_envelope(encode_frame(msg), pub, session_key)
    return Frame(tag=SEALED_TAG, payload=payload)


def recv_sealed(frame: Frame, priv: crypto_core.RsaKeyPair) -> tuple:
    """Open and decode a sealed frame into ``(message, session_key)``. Every
    way of failing raises the same DecryptionFailure, so no reply tells a bad
    wrapped key from bad AES padding or a bad inner frame (Bleichenbacher,
    CRYPTO '98; Vaudenay, EUROCRYPT '02)."""
    if frame.tag != SEALED_TAG:
        raise MalformedPayload(f"expected a sealed frame, got tag 0x{frame.tag:02x}")
    try:
        inner, session_key = crypto_core.open_envelope(frame.payload, priv)
        return decode_frame(inner), session_key
    except CloudVaultError:
        raise DecryptionFailure(UNOPENABLE_TEXT) from None


def send_reply(msg, session_key: bytes) -> Frame:
    """Seal a reply under the session key of the request it answers."""
    return Frame(
        tag=REPLY_TAG, payload=crypto_core.seal_reply(encode_frame(msg), session_key)
    )


def recv_reply(frame: Frame, session_key: bytes):
    """Open and decode a reply to the request sealed under ``session_key``.
    A wrong tag, a short payload, a bad GCM tag and an inner frame that does
    not decode all raise the same DecryptionFailure."""
    if frame.tag != REPLY_TAG:
        raise DecryptionFailure(UNOPENABLE_TEXT)
    try:
        return decode_frame(crypto_core.open_reply(frame.payload, session_key))
    except CloudVaultError:
        raise DecryptionFailure(UNOPENABLE_TEXT) from None


# ---------------------------------------------------------------------------
# Socket transport: one frame at a time

def read_frame(sock: socket.socket):
    """Next frame off the socket, or None on a clean EOF between frames."""
    header = _read_exact(sock, HEADER_LEN, allow_eof=True)
    if header is None:
        return None
    tag, length = struct.unpack(">BI", header)
    if length > MAX_FRAME_LEN:
        raise MalformedPayload(f"declared length {length} exceeds cap")
    payload = _read_exact(sock, length) if length else b""
    return Frame(tag=tag, payload=payload)


def write_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(frame.to_bytes())


def _read_exact(sock: socket.socket, count: int, allow_eof: bool = False):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TruncatedFrame(f"peer closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def schema_field_inventory() -> dict[str, tuple[str, ...]]:
    """Message kind -> field names; lets tests freeze the full wire surface."""
    return {cls.__name__: tuple(schema) for cls, schema in _SCHEMAS.items()}
