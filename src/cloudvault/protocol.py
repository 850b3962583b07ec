"""Wire protocol for both channels.

Frame layout (normative): 1 tag byte, 4-byte big-endian payload length,
payload. A message payload is a canonical JSON object — keys sorted,
compact separators, binary fields as lowercase hex — so equal messages
produce byte-identical frames on the plain channel. The writer assembles
that object itself, splicing each binary field's hex in unescaped (lowercase
hex never needs escaping); the bytes are exactly what
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` would write.
The reader accepts that layout and nothing else: ASCII only, ``{``, each
field in sorted order as ``"name":value`` joined by ``,``, then ``}``. It
unhexlifies a binary field where it lies (either case of hex) and parses any
other value in place, which must be written as the writer writes it. Any
other payload (whitespace, keys out of order or repeated, escapes in hex)
raises ``MalformedPayload``.

A client request is sealed. A connection's first is a ``SEALED_TAG``
frame whose payload is the raw bytes ``wrapped_key ‖ nonce ‖ body``.
``wrapped_key`` is the RSA-wrapped session key, k bytes for the receiver's
k-byte modulus; ``nonce`` is 16 bytes; ``body`` is the AES-128-GCM seal of
the encoded inner frame, with the wrapped key as its AAD
(``crypto_core.seal_envelope``). The receiver splits it at its own k, so no
length field is carried. Every sealed frame that does
not open or decode gets the same ``DecryptionFailure`` text; a changed byte
anywhere in it fails the GCM tag, so no part of a request can be rewritten.
The system server answers a sealed request with a ``REPLY_TAG`` frame whose
payload is ``nonce(16) ‖ AES-128-GCM body ‖ tag(16)`` under a key derived
from that request's session key. The client opens it with the session key it
chose, so a forged reply, or a genuine reply to another request, does not
open. Every request that opens gets a sealed reply, a refusal included. A
sealed frame that does not open gets the one plain ``ErrorFrame`` with code
``DECRYPTION_FAILURE`` and text ``UNOPENABLE_TEXT``, and ``recv_reply``
turns any frame that is not ``REPLY_TAG`` into that same failure.

The reply to a ``SEALED_TAG`` request keys its connection
(``crypto_core.connection_key``), and each later request on it is a
``KEYED_TAG`` frame, ``seq(8) ‖ nonce ‖ body``: AES-128-GCM under the
connection key with ``seq`` as AAD (``crypto_core.seal_numbered``). Its
reply is a ``REPLY_TAG`` frame under the connection key with the same AAD,
so it opens only as the answer to that request. The server takes only
``seq`` = last + 1, and any ``SEALED_TAG`` request re-keys the connection
and restarts ``seq``. Each end keeps the key and ``seq`` in memory, in the
socket's ``ConnectionState``: ``netutil._serve_frames`` holds the server's,
``netutil.FrameConnection`` the client's.

System/storage traffic is framed in the clear; every file byte on that
channel is already ciphertext, and no message kind that could carry a
symmetric key exists, so keys structurally cannot cross it.

Each frame is written once, into one buffer (``encode_frame``'s holds the
header too): a binary field longer than 64 KiB is hexlified into its place
64 KiB of input at a time, and a shorter one is joined in; a seal goes into
one more buffer behind its prefix
(``crypto_core.encrypt_file``). ``write_frame`` hands header and payload to
one ``sendmsg``, and ``read_frame`` receives a payload into one buffer. A
request thus holds a fixed few copies of its file on each side
(``tests/test_memory_bound.py``).
"""

import binascii
import json
import socket
import struct
import time
from dataclasses import dataclass, make_dataclass
from typing import Callable, NamedTuple

from . import crypto_core
from .errors import (
    CloudVaultError,
    DecryptionFailure,
    MalformedPayload,
    TruncatedFrame,
    UnknownTag,
)

MAX_FRAME_LEN = 16 * 1024 * 1024
# The largest frame a file travels in is the sealed UploadRequest: the file
# as hex, two bytes per byte, and FRAME_ALLOWANCE bytes for the rest. The
# allowance holds a label of up to 2048 bytes of JSON text and a wrapped key
# of up to 1024 bytes (an 8192-bit RSA modulus); the nonce, GCM tag, inner
# header, session token and JSON keys take under 200 more. StoreBlob,
# BlobPayload and the sealed FilePayload carry the file's hex, a 32-byte blob
# nonce and tag as hex, and less besides, so a file at the cap fits all four.
FRAME_ALLOWANCE = 4096
MAX_FILE_BYTES = (MAX_FRAME_LEN - FRAME_ALLOWANCE) // 2
HEADER_LEN = 5
SEALED_TAG = 0x10
REPLY_TAG = 0x11
KEYED_TAG = 0x12
UNOPENABLE_TEXT = "sealed frame does not open"


@dataclass(frozen=True)
class Frame:
    tag: int
    payload: bytes  # or the bytearray a frame was written or read into

    def __post_init__(self):
        # Checked here, not when writing, so an over-cap message fails before
        # any socket is touched.
        if len(self.payload) > MAX_FRAME_LEN:
            raise MalformedPayload(f"payload of {len(self.payload)} bytes exceeds cap")

    def to_bytes(self) -> bytes:
        return struct.pack(">BI", self.tag, len(self.payload)) + self.payload

# ---------------------------------------------------------------------------
# Field codecs: one (python value -> JSON value, JSON value -> python value)
# pair per field kind; each check is written once and run in both directions.
# A binary field's codec takes and gives raw bytes: the payload writer
# hexlifies them into their place in the frame, and the payload reader
# unhexlifies them where they lie.

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
    return value  # uncopied: the payload writer reads it where it lies


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
    try:
        _str("".join(value))  # one UTF-8 check for every label
    except TypeError:
        raise MalformedPayload("labels must be str") from None
    return tuple(value)


class _Codec(NamedTuple):
    encode: Callable
    decode: Callable
    binary: bool = False  # travels as lowercase hex, between quotes


_STR = _Codec(_str, _str)
_POSITIVE_INT = _Codec(_positive_int, _positive_int)
_BYTES = _Codec(_bytes, _bytes, binary=True)
_STRLIST = _Codec(lambda value: list(_strs(value)), _strs)


# ---------------------------------------------------------------------------
# Message kinds: one row each, giving the kind's name, its tag and its fields
# in order, each with its codec. The row builds the frozen dataclass and fills
# the schema, the payload layout and the tag maps.

_SCHEMAS: dict[type, dict[str, _Codec]] = {}
_LAYOUTS: dict[type, tuple] = {}  # (name, b'{"name":' or b',"name":', codec), sorted
_TAG_BY_TYPE: dict[type, int] = {}
_TYPE_BY_TAG: dict[int, type] = {}


def _kind(name: str, tag: int, **codecs) -> type:
    cls = make_dataclass(name, list(codecs), frozen=True)
    cls.__module__ = __name__  # make_dataclass has no module= before 3.12
    _SCHEMAS[cls] = codecs
    _LAYOUTS[cls] = tuple(
        (field, (b"," if i else b"{") + json.dumps(field).encode("ascii") + b":", codec)
        for i, (field, codec) in enumerate(sorted(codecs.items()))
    )
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
StoreBlob = _kind("StoreBlob", 0x0A, file_number=_POSITIVE_INT, blob=_BYTES)
FetchBlob = _kind("FetchBlob", 0x0B, file_number=_POSITIVE_INT)
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


_JSON_WRITER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_READER = json.JSONDecoder()


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``; an int
    skips the encoder, which is most of the cost of a small frame's int."""
    return str(value) if type(value) is int else _JSON_WRITER.encode(value)


# Input bytes hexlified per step: a binary field's only temporary, bounded
# whatever the field's size.
_HEX_CHUNK = 64 * 1024


def _payload_of(msg, head: int = 0) -> bytearray:
    """The canonical JSON object, written field by field in sorted order into
    one buffer after ``head`` reserved bytes; a binary field's hex is never
    scanned for escapes. A payload whose binary fields each fit one
    ``_HEX_CHUNK`` step is joined from its parts, which skips the zero fill
    of a preallocated buffer. A longer field makes the buffer preallocated
    and is hexlified into its place a step at a time, so its whole hex never
    exists twice. A payload over the frame cap is refused before any buffer
    is made, and so is a value the reader would refuse (an int past Python's
    int/str digit limit): both raise MalformedPayload."""
    parts = [bytes(head)]  # bytes as written, or a memoryview still to hexlify
    size = head + 1  # the closing brace
    in_place = False
    for name, key, codec in _LAYOUTS[type(msg)]:
        value = codec.encode(getattr(msg, name))
        if codec.binary:
            size += len(key) + 2 * len(value) + 2
            if len(value) > _HEX_CHUNK:
                value, in_place = memoryview(value), True
            else:
                value = binascii.hexlify(value)
            parts += (key, b'"', value, b'"')
            continue
        try:
            value = _json_text(value).encode("ascii")
        except ValueError as exc:
            raise MalformedPayload(f"{name} cannot be written: {exc}") from None
        size += len(key) + len(value)
        parts += (key, value)
    parts.append(b"}")
    if size - head > MAX_FRAME_LEN:
        raise MalformedPayload(f"payload of {size - head} bytes exceeds cap")
    if not in_place:
        return bytearray().join(parts)
    buf = bytearray(size)
    pos = 0
    for part in parts:
        if isinstance(part, memoryview):
            for start in range(0, len(part), _HEX_CHUNK):
                hexed = binascii.hexlify(part[start:start + _HEX_CHUNK])
                buf[pos:pos + len(hexed)] = hexed
                pos += len(hexed)
        else:
            buf[pos:pos + len(part)] = part
            pos += len(part)
    return buf


def encode_frame(msg) -> bytearray:
    """Canonical bytes for a message: equal messages, identical frames. The
    header and payload are written into one buffer."""
    buf = _payload_of(msg, HEADER_LEN)
    struct.pack_into(">BI", buf, 0, tag_of(msg), len(buf) - HEADER_LEN)
    return buf


def _fields_of(cls, data: bytes, pos: int) -> dict:
    """Field values read back from the layout ``_payload_of`` writes, and no
    other, from the payload that starts at ``data[pos]`` and runs to its end:
    each key in sorted order, no whitespace, ASCII only, each JSON value
    written as the writer writes it. A binary field's hex is unhexlified
    where it lies; any other value is parsed in place and must re-encode to
    the same text. Raises ValueError or RecursionError on anything else."""
    values = {}
    text, base = None, 0  # data[base:] as str, made at the first JSON value
    for name, key, codec in _LAYOUTS[cls]:
        if not data.startswith(key, pos):
            raise ValueError(f"expected {key.decode()} at byte {pos}")
        pos += len(key)
        if codec.binary:
            end = data.find(b'"', pos + 1)
            if data[pos:pos + 1] != b'"' or end < 0:
                raise ValueError(f"{name} is not a hex string")
            raw = binascii.unhexlify(memoryview(data)[pos + 1:end])
            pos = end + 1
        else:
            if text is None:
                text, base = data[pos:].decode("ascii"), pos
            raw, end = _JSON_READER.raw_decode(text, pos - base)
            if text[pos - base:end] != _json_text(raw):
                raise ValueError(f"{name} is not written as the writer writes it")
            pos = base + end
        values[name] = codec.decode(raw)
    if data[pos:] != b"}":
        raise ValueError(f"expected }} at byte {pos}")
    return values


def _message_from(tag: int, data: bytes, start: int):
    """The message of kind ``tag`` whose payload is ``data[start:]``."""
    cls = _TYPE_BY_TAG.get(tag)
    if cls is None:
        raise UnknownTag(f"tag 0x{tag:02x} is not a known message kind")
    try:
        return cls(**_fields_of(cls, data, start))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, non-ASCII bytes, bad hex and integers
        # too long to convert; RecursionError, values nested too deep
        raise MalformedPayload(
            f"{cls.__name__} payload is not its canonical JSON object: {exc}"
        ) from exc


def decode_frame(data: bytes):
    """Inverse of encode_frame on complete frame bytes. The payload is read
    where it lies in ``data``, not copied out."""
    if len(data) < HEADER_LEN:
        raise TruncatedFrame(f"{len(data)} bytes, header needs {HEADER_LEN}")
    tag, length = struct.unpack_from(">BI", data)
    if length > MAX_FRAME_LEN:
        raise MalformedPayload(f"declared length {length} exceeds cap")
    if len(data) < HEADER_LEN + length:
        raise TruncatedFrame(f"payload truncated at {len(data) - HEADER_LEN} bytes")
    if len(data) > HEADER_LEN + length:
        raise MalformedPayload("trailing bytes after frame")
    return _message_from(tag, data, HEADER_LEN)


# ---------------------------------------------------------------------------
# Plain channel (system <-> storage): payload is already ciphertext

def send_plain(msg) -> Frame:
    return Frame(tag=tag_of(msg), payload=_payload_of(msg))


def recv_plain(frame: Frame):
    if frame.tag == SEALED_TAG:
        raise MalformedPayload("sealed frame on the plain channel")
    return _message_from(frame.tag, frame.payload, 0)


# ---------------------------------------------------------------------------
# Sealed channel (client <-> system)

@dataclass
class ConnectionState:
    """One end's state of one connection's sealed channel. Until the reply
    to an envelope keys the connection, ``key`` is that envelope's session
    key; then ``keyed`` is True, ``key`` is the connection key, and ``seq``
    numbers the last request sealed under it."""

    key: bytes | None = None
    keyed: bool = False
    seq: int = 0


def send_sealed(msg, pub: tuple[int, int], conn: ConnectionState) -> Frame:
    """Seal a request as the next on ``conn``. On a keyed ``conn`` it goes
    under the connection key alone, numbered ``conn.seq + 1``, and
    ``conn.seq`` advances. Otherwise it goes in an envelope to ``pub`` under
    a fresh session key, which ``conn`` keeps to open the reply."""
    inner = encode_frame(msg)
    if conn.keyed:
        frame = Frame(KEYED_TAG, crypto_core.seal_numbered(inner, conn.key, conn.seq + 1))
        conn.seq += 1
    else:
        key = crypto_core.generate_symmetric_key()
        frame = Frame(SEALED_TAG, crypto_core.seal_envelope(inner, pub, key))
        conn.key = key
    return frame


def recv_sealed(frame: Frame, priv: crypto_core.RsaKeyPair, conn: ConnectionState):
    """Open and decode a sealed request; ``send_reply`` seals its reply. A
    ``SEALED_TAG`` envelope opens with ``priv``; it unkeys ``conn``, whose
    ``key`` becomes the session key inside, until ``send_reply`` keys the
    connection anew. A ``KEYED_TAG`` request opens only on a keyed
    ``conn``, under its key, and only as request ``conn.seq + 1``;
    ``conn.seq`` advances once it opens. Every way of failing raises the
    same DecryptionFailure and changes nothing in ``conn``, so no reply
    tells a bad wrapped key from a bad GCM tag, a stale ``seq`` or a bad
    inner frame (Bleichenbacher, CRYPTO '98)."""
    if frame.tag not in (SEALED_TAG, KEYED_TAG):
        raise MalformedPayload(f"expected a sealed frame, got tag 0x{frame.tag:02x}")
    try:
        if frame.tag == SEALED_TAG:
            inner, key = crypto_core.open_envelope(frame.payload, priv)
            msg = decode_frame(inner)
            conn.key, conn.keyed, conn.seq = key, False, 0
            return msg
        if not conn.keyed:
            raise DecryptionFailure("the connection is not keyed")
        msg = decode_frame(
            crypto_core.open_numbered(frame.payload, conn.key, conn.seq + 1)
        )
        conn.seq += 1
        return msg
    except CloudVaultError:
        raise DecryptionFailure(UNOPENABLE_TEXT) from None


def send_reply(msg, conn: ConnectionState) -> Frame:
    """Seal the reply to the request ``recv_sealed`` opened last on
    ``conn``. On a keyed ``conn`` it goes under the connection key with
    ``conn.seq`` as its AAD. The reply to an envelope goes under its
    session key with no AAD, and then keys ``conn`` from that key and the
    reply's own fresh nonce."""
    sealed = crypto_core.encrypt_file(
        encode_frame(msg), conn.key, crypto_core.REPLY_INFO,
        crypto_core.seq_aad(conn.seq) if conn.keyed else None,
    )
    frame = Frame(tag=REPLY_TAG, payload=sealed.to_bytes())
    if not conn.keyed:
        conn.key, conn.keyed = crypto_core.connection_key(conn.key, sealed.nonce), True
    return frame


def recv_reply(frame: Frame, conn: ConnectionState):
    """Open and decode the reply to the request ``send_sealed`` sealed last
    on ``conn``, as ``send_reply`` sealed it; the reply to an envelope keys
    ``conn``. A wrong tag, a short payload, a bad GCM tag and an inner frame
    that does not decode all raise the same DecryptionFailure and change
    nothing in ``conn``."""
    if frame.tag != REPLY_TAG:
        raise DecryptionFailure(UNOPENABLE_TEXT)
    try:
        sealed = crypto_core.Ciphertext.from_bytes(frame.payload)
        msg = decode_frame(crypto_core.decrypt_file(
            sealed, conn.key, crypto_core.REPLY_INFO,
            crypto_core.seq_aad(conn.seq) if conn.keyed else None,
        ))
    except CloudVaultError:
        raise DecryptionFailure(UNOPENABLE_TEXT) from None
    if not conn.keyed:
        conn.key, conn.keyed = crypto_core.connection_key(conn.key, sealed.nonce), True
    return msg


# ---------------------------------------------------------------------------
# Socket transport: one frame at a time

def read_frame(sock: socket.socket, stall_timeout: float | None = None):
    """Next frame off the socket, or None on a clean EOF between frames.

    The wait for a frame to start is unbounded. With ``stall_timeout``, the
    whole frame must then arrive within that many seconds of its first byte,
    or ``TimeoutError`` is raised."""
    deadline = None
    if stall_timeout is not None:
        sock.recv(1, socket.MSG_PEEK)  # returns once a frame starts, or at EOF
        deadline = time.monotonic() + stall_timeout
    previous = sock.gettimeout()
    try:
        header = _read_exact(sock, HEADER_LEN, deadline, allow_eof=True)
        if header is None:
            return None
        tag, length = struct.unpack(">BI", header)
        if length > MAX_FRAME_LEN:
            raise MalformedPayload(f"declared length {length} exceeds cap")
        payload = _read_exact(sock, length, deadline) if length else b""
    finally:
        if deadline is not None:
            sock.settimeout(previous)
    return Frame(tag=tag, payload=payload)


def write_frame(sock: socket.socket, frame: Frame) -> None:
    """Header and payload in one ``sendmsg``, and the rest after a partial
    send: a second small write could wait out Nagle and a delayed ACK."""
    parts = [struct.pack(">BI", frame.tag, len(frame.payload)), frame.payload]
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts.pop(0))
        if parts:
            parts[0] = memoryview(parts[0])[sent:]


def _read_exact(sock: socket.socket, count: int, deadline, allow_eof: bool = False):
    """``count`` bytes received into one buffer; None for an EOF before the
    first byte when ``allow_eof``."""
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"frame stalled with {count - got} bytes outstanding")
            sock.settimeout(left)
        received = sock.recv_into(view[got:])
        if not received:
            if allow_eof and got == 0:
                return None
            raise TruncatedFrame(f"peer closed with {count - got} bytes outstanding")
        got += received
    return buf


def schema_field_inventory() -> dict[str, tuple[str, ...]]:
    """Message kind -> field names; lets tests freeze the full wire surface."""
    return {cls.__name__: tuple(schema) for cls, schema in _SCHEMAS.items()}
