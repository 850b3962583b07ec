import dataclasses
import json
import os
import random
import socket
import threading
import time

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from cloudvault import crypto_core, protocol
from cloudvault.errors import (
    CloudVaultError,
    DecryptionFailure,
    MalformedPayload,
    TruncatedFrame,
    UnknownTag,
)

RNG = random.Random(0xF7A3E)
SESSION_KEY = bytes(range(16))


def _fresh():
    return protocol.ConnectionState()


def _in_flight(session_key=SESSION_KEY):
    """An unkeyed connection's state while the envelope sealed under
    ``session_key`` awaits its reply."""
    return protocol.ConnectionState(key=session_key)


def _random_label():
    return "".join(RNG.choice("abcdefghij-._ £µ") for _ in range(RNG.randint(1, 12)))


def _random_message(cls):
    token = RNG.randbytes(16).hex()
    if cls is protocol.Register:
        return protocol.Register(
            username=_random_label(), mail_address=f"{_random_label()}@example.test"
        )
    if cls is protocol.LoginRequest:
        return protocol.LoginRequest(username=_random_label(), otp="Ab0" * 5 + "Z")
    if cls is protocol.LoginResponse:
        return protocol.LoginResponse(session_token=token, status="OK")
    if cls is protocol.UploadRequest:
        return protocol.UploadRequest(
            session_token=token,
            label=_random_label(),
            file_bytes=RNG.randbytes(RNG.randint(0, 200)),
        )
    if cls is protocol.UploadAck:
        return protocol.UploadAck(label=_random_label(), status="OK")
    if cls is protocol.DownloadRequest:
        return protocol.DownloadRequest(session_token=token, label=_random_label())
    if cls is protocol.FilePayload:
        return protocol.FilePayload(
            label=_random_label(), file_bytes=RNG.randbytes(RNG.randint(0, 200))
        )
    if cls is protocol.ListRequest:
        return protocol.ListRequest(session_token=token)
    if cls is protocol.ListResponse:
        return protocol.ListResponse(
            labels=tuple(_random_label() for _ in range(RNG.randint(0, 5)))
        )
    if cls is protocol.StoreBlob:
        return protocol.StoreBlob(
            file_number=RNG.randint(1, 10_000), blob=RNG.randbytes(32)
        )
    if cls is protocol.FetchBlob:
        return protocol.FetchBlob(file_number=RNG.randint(1, 10_000))
    if cls is protocol.BlobPayload:
        return protocol.BlobPayload(blob=RNG.randbytes(48))
    if cls is protocol.ErrorFrame:
        return protocol.ErrorFrame(code="NOT_FOUND", text=_random_label())
    raise AssertionError(cls)


ALL_KINDS = sorted(protocol._SCHEMAS, key=lambda cls: cls.__name__)


# ---------------------------------------------------------------------
# framing

def test_empty_payload_frame_layout():
    frame = protocol.Frame(tag=0x42, payload=b"")
    assert frame.to_bytes() == b"\x42\x00\x00\x00\x00"


def test_header_too_short():
    with pytest.raises(TruncatedFrame):
        protocol.decode_frame(b"\x01\x00\x00")


def test_payload_truncated():
    data = protocol.encode_frame(protocol.ListRequest(session_token="ab"))
    with pytest.raises(TruncatedFrame):
        protocol.decode_frame(data[:-1])


def test_trailing_bytes_rejected():
    data = protocol.encode_frame(protocol.ListRequest(session_token="ab"))
    with pytest.raises(MalformedPayload):
        protocol.decode_frame(data + b"!")


def test_unknown_tag_rejected():
    frame = protocol.Frame(tag=0x7F, payload=b"{}")
    with pytest.raises(UnknownTag):
        protocol.decode_frame(frame.to_bytes())


def test_oversized_declared_length():
    header = b"\x01" + (protocol.MAX_FRAME_LEN + 1).to_bytes(4, "big")
    with pytest.raises(MalformedPayload):
        protocol.decode_frame(header)


EDGE_TEXT = ("", '"', "\\", "\n", "\x00", "\U0001f642", 'a"b\\c\nd\x00e\U0001f642\x7f\u2028')


def _edge_messages(cls):
    """Every text field set to each edge string (quote, backslash, newline,
    NUL, an astral character), binary fields to its UTF-8 bytes (so empty
    once), label lists empty or full of it, and file numbers 1 and 2**64."""
    base = _random_message(cls)
    for text in EDGE_TEXT:
        changes = {}
        for name, codec in protocol._SCHEMAS[cls].items():
            if codec is protocol._STR:
                changes[name] = text
            elif codec is protocol._BYTES:
                changes[name] = text.encode("utf-8")
            elif codec is protocol._STRLIST:
                changes[name] = (text, text + text) if text else ()
            elif codec is protocol._POSITIVE_INT:
                changes[name] = 2**64 if text else 1
        yield dataclasses.replace(base, **changes)


def _reference_payload(msg) -> bytes:
    """The canonical payload as ``json.dumps`` writes it from a dict: sorted
    keys, compact separators, binary fields as lowercase hex."""
    obj = {}
    for field in dataclasses.fields(msg):
        value = getattr(msg, field.name)
        if isinstance(value, bytes):
            value = value.hex()
        elif isinstance(value, tuple):
            value = list(value)
        obj[field.name] = value
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


@pytest.mark.parametrize("cls", ALL_KINDS, ids=lambda c: c.__name__)
def test_round_trip_every_kind(cls):
    messages = [_random_message(cls) for _ in range(1000)]
    for msg in messages + list(_edge_messages(cls)):
        assert protocol.decode_frame(protocol.encode_frame(msg)) == msg
        assert protocol.send_plain(msg).payload == _reference_payload(msg)


def test_encoding_is_canonical():
    msg = protocol.StoreBlob(file_number=9, blob=b"zz")
    assert protocol.encode_frame(msg) == protocol.encode_frame(
        protocol.StoreBlob(file_number=9, blob=b"zz")
    )


def test_missing_and_extra_fields_rejected():
    good = protocol.encode_frame(protocol.ListRequest(session_token="ab"))
    tag = good[0:1]
    payload = b'{"session_token":"ab","extra":1}'
    bad = tag + len(payload).to_bytes(4, "big") + payload
    with pytest.raises(MalformedPayload):
        protocol.decode_frame(bad)
    payload = b"{}"
    bad = tag + len(payload).to_bytes(4, "big") + payload
    with pytest.raises(MalformedPayload):
        protocol.decode_frame(bad)


@pytest.mark.parametrize(
    "msg",
    [
        protocol.LoginRequest(username="\ud800", otp="x"),
        protocol.ListResponse(labels=("ok", "\udfff")),
    ],
    ids=["text", "label list"],
)
def test_text_that_is_not_valid_unicode_is_refused_both_ways(msg):
    with pytest.raises(MalformedPayload):
        protocol.encode_frame(msg)
    payload = json.dumps(  # "\ud800", in the writer's layout
        dataclasses.asdict(msg), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    with pytest.raises(MalformedPayload):
        protocol.recv_plain(protocol.Frame(tag=protocol.tag_of(msg), payload=payload))


GOLDEN_FRAMES = [  # (message, tag | length, payload), every kind once
    (
        protocol.Register(username="al", mail_address="a@x.test"),
        "010000002b",
        b'{"mail_address":"a@x.test","username":"al"}',
    ),
    (
        protocol.LoginRequest(username="al", otp="OTP0"),
        "020000001e",
        b'{"otp":"OTP0","username":"al"}',
    ),
    (
        protocol.LoginResponse(session_token="ab", status="OK"),
        "0300000024",
        b'{"session_token":"ab","status":"OK"}',
    ),
    (
        protocol.UploadRequest(session_token="ab", label="f", file_bytes=b"\x00\xff"),
        "0400000036",
        b'{"file_bytes":"00ff","label":"f","session_token":"ab"}',
    ),
    (
        protocol.UploadAck(label="f", status="OK"),
        "050000001b",
        b'{"label":"f","status":"OK"}',
    ),
    (
        protocol.DownloadRequest(session_token="ab", label="f"),
        "0600000022",
        b'{"label":"f","session_token":"ab"}',
    ),
    (
        protocol.FilePayload(label="f", file_bytes=b"\x00\xff"),
        "0700000021",
        b'{"file_bytes":"00ff","label":"f"}',
    ),
    (
        protocol.ListRequest(session_token="ab"),
        "0800000016",
        b'{"session_token":"ab"}',
    ),
    (
        protocol.ListResponse(labels=("f", "g")),
        "0900000014",
        b'{"labels":["f","g"]}',
    ),
    (
        protocol.StoreBlob(file_number=7, blob=b"\x00\xff"),
        "0a0000001f",
        b'{"blob":"00ff","file_number":7}',
    ),
    (
        protocol.FetchBlob(file_number=7),
        "0b00000011",
        b'{"file_number":7}',
    ),
    (
        protocol.BlobPayload(blob=b"\x00\xff"),
        "0c0000000f",
        b'{"blob":"00ff"}',
    ),
    (
        protocol.ErrorFrame(code="NOT_FOUND", text="no"),
        "0e00000020",
        b'{"code":"NOT_FOUND","text":"no"}',
    ),
]


def test_tags_and_golden_frames_are_pinned():
    # The round-trip tests would pass under any tag assignment; peers built
    # from another revision would not. Freeze every tag and one frame a kind.
    tags = {type(msg).__name__: protocol.tag_of(msg) for msg, _, _ in GOLDEN_FRAMES}
    assert tags == {
        "Register": 0x01,
        "LoginRequest": 0x02,
        "LoginResponse": 0x03,
        "UploadRequest": 0x04,
        "UploadAck": 0x05,
        "DownloadRequest": 0x06,
        "FilePayload": 0x07,
        "ListRequest": 0x08,
        "ListResponse": 0x09,
        "StoreBlob": 0x0A,
        "FetchBlob": 0x0B,
        "BlobPayload": 0x0C,
        "ErrorFrame": 0x0E,
    }
    assert protocol.SEALED_TAG == 0x10
    assert protocol.REPLY_TAG == 0x11
    assert {type(msg) for msg, _, _ in GOLDEN_FRAMES} == set(ALL_KINDS)
    for msg, header, payload in GOLDEN_FRAMES:
        golden = bytes.fromhex(header) + payload
        assert protocol.encode_frame(msg) == golden
        assert protocol.decode_frame(golden) == msg


def test_binary_fields_travel_as_lowercase_hex():
    frame = protocol.send_plain(
        protocol.BlobPayload(blob=bytes.fromhex("deadbeef00ff"))
    )
    assert b'"deadbeef00ff"' in frame.payload


@pytest.mark.parametrize(
    "size", [protocol._HEX_CHUNK, protocol._HEX_CHUNK + 1, 3 * protocol._HEX_CHUNK + 5]
)
def test_a_binary_field_past_one_hex_step_is_written_alike(size):
    blob = RNG.randbytes(size)
    msg = protocol.StoreBlob(file_number=7, blob=blob)
    as_bytearray = dataclasses.replace(msg, blob=bytearray(blob))
    assert protocol.send_plain(msg).payload == _reference_payload(msg)
    assert protocol.send_plain(as_bytearray).payload == _reference_payload(msg)
    assert protocol.decode_frame(protocol.encode_frame(as_bytearray)) == msg


# ---------------------------------------------------------------------
# the payload reader

STORE_PAYLOAD = b'{"blob":"00ff","file_number":7}'  # the writer's StoreBlob payload
STORE = protocol.StoreBlob(file_number=7, blob=b"\x00\xff")
# What builds that named each blob's owner to storage wrote.
OWNER = b',"user_digest":"000102030405060708090a0b0c0d0e0f"}'


def _edited_store(old: bytes, new: bytes) -> bytes:
    assert old in STORE_PAYLOAD
    return STORE_PAYLOAD.replace(old, new, 1)


REFUSED_PAYLOADS = {  # name -> (kind, a payload the reader refuses)
    "space after a colon": (protocol.StoreBlob, _edited_store(b'"blob":', b'"blob": ')),
    "newline after a comma": (protocol.StoreBlob, _edited_store(b'",', b'",\n')),
    "keys out of order": (
        protocol.StoreBlob,
        _edited_store(b'"blob":"00ff","file_number":7', b'"file_number":7,"blob":"00ff"'),
    ),
    "duplicate key": (
        protocol.StoreBlob,
        _edited_store(b'"blob":"00ff",', b'"blob":"00ff","blob":"00ff",'),
    ),
    "escape in hex": (protocol.StoreBlob, _edited_store(b'"00ff"', b'"0\\u0030ff"')),
    "space in hex": (protocol.StoreBlob, _edited_store(b'"00ff"', b'"00 ff"')),
    "odd-length hex": (protocol.StoreBlob, _edited_store(b'"00ff"', b'"0ff"')),
    "non-ASCII in hex": (protocol.StoreBlob, _edited_store(b"ff", "\u00e9".encode())),
    "unterminated hex": (protocol.StoreBlob, b'{"blob":"00ff'),
    "bytes after the brace": (protocol.StoreBlob, STORE_PAYLOAD + b"x"),
    "space after the brace": (protocol.StoreBlob, STORE_PAYLOAD + b" "),
    "file number of 5000 digits": (
        protocol.StoreBlob, _edited_store(b":7}", b":" + b"7" * 5000 + b"}"),
    ),
    "non-ASCII text": (
        protocol.ErrorFrame, '{"code":"NOT_FOUND","text":"\u00e9"}'.encode("utf-8"),
    ),
    "space inside a list": (protocol.ListResponse, b'{"labels":["f", "g"]}'),
    "labels nested 100 000 deep": (
        protocol.ListResponse, b'{"labels":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ),
    "store naming its owner": (protocol.StoreBlob, _edited_store(b"}", OWNER)),
    "fetch naming its owner": (protocol.FetchBlob, b'{"file_number":7' + OWNER),
}


def _read(kind, payload: bytes):
    return protocol.recv_plain(
        protocol.Frame(tag=protocol._TAG_BY_TYPE[kind], payload=payload)
    )


def test_the_reader_takes_the_writers_store_payload():
    assert protocol.send_plain(STORE).payload == STORE_PAYLOAD
    assert _read(protocol.StoreBlob, STORE_PAYLOAD) == STORE


@pytest.mark.parametrize("name", REFUSED_PAYLOADS)
def test_the_reader_refuses_every_other_layout(name):
    with pytest.raises(MalformedPayload):
        _read(*REFUSED_PAYLOADS[name])


def test_uppercase_hex_decodes_as_lowercase_does():
    upper = _edited_store(b"00ff", b"00FF")
    assert _read(protocol.StoreBlob, upper) == STORE


FIELD_STRATEGIES = {
    protocol._STR: st.text(max_size=12),
    protocol._POSITIVE_INT: st.integers(min_value=1, max_value=2**64),
    protocol._BYTES: st.binary(max_size=48),
    protocol._STRLIST: st.lists(st.text(max_size=6), max_size=4).map(tuple),
}


@st.composite
def _damaged_frames(draw) -> bytes:
    """Random bytes, or a valid frame of any kind with one byte flipped,
    inserted or deleted, or cut short. Half of the damaged frames get their
    length field rewritten to fit, so the damage reaches the payload reader."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    kind = draw(st.sampled_from(ALL_KINDS))
    fields = {
        name: draw(FIELD_STRATEGIES[codec])
        for name, codec in protocol._SCHEMAS[kind].items()
    }
    frame = protocol.send_plain(kind(**fields))
    reframe = draw(st.booleans())
    data = bytearray(frame.payload if reframe else frame.to_bytes())
    at = draw(st.integers(min_value=0, max_value=len(data) - 1))
    damage = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
    if damage == "flip":
        data[at] ^= draw(st.integers(min_value=1, max_value=255))
    elif damage == "insert":
        data.insert(at, draw(st.integers(min_value=0, max_value=255)))
    elif damage == "delete":
        del data[at]
    else:
        del data[at:]
    return protocol.Frame(frame.tag, bytes(data)).to_bytes() if reframe else bytes(data)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_damaged_frames())
def test_a_damaged_frame_decodes_to_a_message_or_raises_a_cloudvault_error(data):
    try:
        msg = protocol.decode_frame(data)
    except CloudVaultError:
        return
    assert protocol.decode_frame(protocol.encode_frame(msg)) == msg
    # The reader takes only the writer's bytes; hex may come in either case.
    assert protocol.encode_frame(msg).lower() == data.lower()


def test_the_writer_refuses_an_int_the_reader_refuses():
    with pytest.raises(MalformedPayload):
        protocol.encode_frame(protocol.FetchBlob(file_number=10**5000))


# Any value of any type in any field: the writer may refuse it, but only with
# MalformedPayload, and what it writes must read back equal.
ANY_VALUE = st.one_of(
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=8),
    st.integers(),
    st.sampled_from([0, True, 10**4299, 10**4300, 10**5000, 1.5, None]),
    st.binary(max_size=24),
    st.lists(st.text(max_size=4), max_size=3).map(tuple),
)


@st.composite
def _any_messages(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    return kind(**{
        name: draw(st.one_of(FIELD_STRATEGIES[codec], ANY_VALUE))
        for name, codec in protocol._SCHEMAS[kind].items()
    })


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_any_messages())
def test_whatever_the_writer_accepts_the_reader_reads_back_equal(msg):
    try:
        data = protocol.encode_frame(msg)
    except MalformedPayload:
        return
    assert protocol.decode_frame(data) == msg


# ---------------------------------------------------------------------
# plain channel

def test_plain_round_trip_store_blob():
    msg = protocol.StoreBlob(file_number=3, blob=b"\x00" * 32)
    assert protocol.recv_plain(protocol.send_plain(msg)) == msg


def test_no_message_kind_can_carry_a_symmetric_key():
    # Freeze the whole wire surface: adding a key-bearing field anywhere
    # must show up here as a diff.
    assert protocol.schema_field_inventory() == {
        "Register": ("username", "mail_address"),
        "LoginRequest": ("username", "otp"),
        "LoginResponse": ("session_token", "status"),
        "UploadRequest": ("session_token", "label", "file_bytes"),
        "UploadAck": ("label", "status"),
        "DownloadRequest": ("session_token", "label"),
        "FilePayload": ("label", "file_bytes"),
        "ListRequest": ("session_token",),
        "ListResponse": ("labels",),
        "StoreBlob": ("file_number", "blob"),
        "FetchBlob": ("file_number",),
        "BlobPayload": ("blob",),
        "ErrorFrame": ("code", "text"),
    }
    forbidden = {"key", "symmetric_key", "file_key", "aes_key", "private_key"}
    for field_names in protocol.schema_field_inventory().values():
        assert not forbidden.intersection(field_names)


def test_plain_channel_rejects_sealed_frames(client_keypair):
    frame = protocol.send_sealed(
        protocol.ListRequest(session_token="ab"), client_keypair.public, _fresh()
    )
    with pytest.raises(MalformedPayload):
        protocol.recv_plain(frame)


# ---------------------------------------------------------------------
# sealed channel

def test_sealed_round_trip(client_keypair):
    msg = protocol.UploadRequest(
        session_token="cd" * 16, label="x.txt", file_bytes=b"payload bytes"
    )
    client, server = _fresh(), _fresh()
    frame = protocol.send_sealed(msg, client_keypair.public, client)
    assert protocol.recv_sealed(frame, client_keypair, server) == msg
    assert server == client == _in_flight(client.key)


def test_sealed_frames_differ_each_time(client_keypair):
    msg = protocol.ListRequest(session_token="ee" * 16)
    first = protocol.send_sealed(msg, client_keypair.public, _fresh())
    second = protocol.send_sealed(msg, client_keypair.public, _fresh())
    assert first != second


def test_eavesdropper_sees_no_plaintext(client_keypair):
    username = "alice-in-the-clear"
    otp = "OTPOTPOTPOTPOTP0"
    file_marker = b"TOP-SECRET-CONTENT"
    for msg in (
        protocol.LoginRequest(username=username, otp=otp),
        protocol.UploadRequest(
            session_token="ab" * 16, label="secret-label", file_bytes=file_marker
        ),
    ):
        wire = protocol.send_sealed(msg, client_keypair.public, _fresh()).to_bytes()
        for marker in (
            username.encode(),
            otp.encode(),
            file_marker,
            file_marker.hex().encode(),
            b"secret-label",
        ):
            assert marker not in wire


def test_sealed_wrong_key(client_keypair):
    other = crypto_core.rsa_generate(1024)
    frame = protocol.send_sealed(
        protocol.ListRequest(session_token="ab"), client_keypair.public, _fresh()
    )
    with pytest.raises(DecryptionFailure):
        protocol.recv_sealed(frame, other, _fresh())


def test_envelope_wrong_key_fails(client_keypair):
    # The library's PKCS#1 v1.5 unwrap uses implicit rejection: under a wrong
    # key it returns pseudo-random bytes, now and then 16 of them. The GCM
    # tag then fails, and every such frame gets the one refusal text.
    frame = protocol.send_sealed(
        protocol.ListRequest(session_token="ab"), client_keypair.public, _fresh()
    )
    for _ in range(20):
        other = crypto_core.rsa_generate(1024)  # independent pair
        with pytest.raises(DecryptionFailure) as excinfo:
            protocol.recv_sealed(frame, other, _fresh())
        assert str(excinfo.value) == protocol.UNOPENABLE_TEXT


def test_recv_sealed_requires_sealed_tag(client_keypair):
    frame = protocol.send_plain(protocol.ListRequest(session_token="ab"))
    with pytest.raises(MalformedPayload):
        protocol.recv_sealed(frame, client_keypair, _fresh())


def test_sealed_payload_is_wrapped_key_nonce_body(client_keypair):
    msg = protocol.UploadRequest(
        session_token="cd" * 16, label="layout", file_bytes=bytes(range(256)) * 3
    )
    inner = protocol.encode_frame(msg)
    client = _fresh()
    payload = protocol.send_sealed(msg, client_keypair.public, client).payload
    k = crypto_core.modulus_bytes(client_keypair.n)
    overhead = crypto_core.NONCE_BYTES + crypto_core.TAG_BYTES
    assert len(payload) == k + len(inner) + overhead
    wrapped = payload[:k]
    session_key = crypto_core.rsa_decrypt_block(wrapped, client_keypair)
    assert session_key == client.key
    body = crypto_core.Ciphertext.from_bytes(payload[k:])
    assert crypto_core.decrypt_file(
        body, session_key, crypto_core.REQUEST_INFO, wrapped
    ) == inner
    assert crypto_core.open_envelope(payload, client_keypair) == (inner, session_key)


def old_cbc_seal(msg: bytes, key: bytes) -> bytes:
    """``iv ‖ AES-128-CBC(PKCS#7)``: how request bodies and blobs were
    encrypted before they moved to AES-GCM."""
    iv = os.urandom(16)
    pad = 16 - len(msg) % 16
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + enc.update(msg + bytes([pad]) * pad) + enc.finalize()


def malformed_sealed_payloads(pub: tuple[int, int]) -> dict[str, bytes]:
    """Sealed-frame payloads that no receiver holding ``pub``'s key may open."""
    request = protocol.ListRequest(session_token="ab")
    conn = protocol.ConnectionState()
    good = protocol.send_sealed(request, pub, conn).payload
    k = crypto_core.modulus_bytes(pub[0])
    nonce, tag = crypto_core.NONCE_BYTES, crypto_core.TAG_BYTES

    def flipped(start: int, end: int, mask: int = 0xFF) -> bytes:
        return good[:start] + bytes(b ^ mask for b in good[start:end]) + good[end:]

    other = crypto_core.rsa_generate(pub[0].bit_length())
    list_tag = protocol.tag_of(request)
    deep = b'{"session_token":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    nested = protocol.Frame(list_tag, deep).to_bytes()
    return {
        "empty": b"",
        "shorter than k": good[: k - 1],
        "wrapped key only": good[:k],
        "nonce only": good[: k + nonce],
        "one byte short of a nonce and a tag": good[: k + nonce + tag - 1],
        "tag one byte short": good[:-1],
        "body one byte over": good + b"\x00",
        "wrapped key bit flipped": flipped(k // 2, k // 2 + 1, 0x01),
        "wrapped key all ones": b"\xff" * k + good[k:],
        "wrapped key zero": bytes(k) + good[k:],
        "same session key wrapped again": crypto_core.rsa_encrypt_block(conn.key, pub)
        + good[k:],
        "nonce bit flipped": flipped(k + 15, k + 16, 0x01),
        "first body block flipped": flipped(k + nonce, k + nonce + 16),
        "tag bit flipped": flipped(len(good) - 1, len(good), 0x01),
        "sealed to another key": protocol.send_sealed(
            request, other.public, protocol.ConnectionState()
        ).payload,
        "sealed by an old client (AES-CBC)": crypto_core.rsa_encrypt_block(
            SESSION_KEY, pub
        )
        + old_cbc_seal(protocol.encode_frame(request), SESSION_KEY),
        "inner frame does not decode": crypto_core.seal_envelope(
            b"not a frame", pub, SESSION_KEY
        ),
        "inner frame nested too deep": crypto_core.seal_envelope(
            nested, pub, SESSION_KEY
        ),
        "inner frame off the writer's layout": crypto_core.seal_envelope(
            protocol.Frame(list_tag, b'{"session_token": "ab"}').to_bytes(),
            pub,
            SESSION_KEY,
        ),
    }


def test_malformed_sealed_payloads_raise_cloudvault_errors(client_keypair):
    for payload in malformed_sealed_payloads(client_keypair.public).values():
        frame = protocol.Frame(tag=protocol.SEALED_TAG, payload=payload)
        with pytest.raises(CloudVaultError):  # never IndexError or ValueError
            protocol.recv_sealed(frame, client_keypair, _fresh())


def test_server_answers_malformed_sealed_payloads_with_plain_errors(local_stack):
    service = local_stack().service
    replies = set()
    for name, payload in malformed_sealed_payloads(service.keypair.public).items():
        reply = service.handle_frame(
            protocol.Frame(tag=protocol.SEALED_TAG, payload=payload), _fresh()
        )
        assert reply.tag not in (protocol.SEALED_TAG, protocol.REPLY_TAG), name
        assert isinstance(protocol.recv_plain(reply), protocol.ErrorFrame), name
        replies.add(reply.to_bytes())
    assert len(replies) == 1  # no reply tells which step failed


# ---------------------------------------------------------------------
# keyed connections

LIST = protocol.ListRequest(session_token="ab" * 16)
LISTED = protocol.ListResponse(labels=("a",))


def _keyed_ends(keypair):
    """A client's and a server's ConnectionState after one genuine first
    exchange, that exchange's reply and its session key."""
    client, server = _fresh(), _fresh()
    request = protocol.send_sealed(LIST, keypair.public, client)
    assert request.tag == protocol.SEALED_TAG
    session_key = client.key
    assert protocol.recv_sealed(request, keypair, server) == LIST
    reply = protocol.send_reply(LISTED, server)
    assert protocol.recv_reply(reply, client) == LISTED
    return client, server, reply, session_key


def test_the_first_reply_keys_both_ends_from_its_own_nonce(client_keypair):
    client, server, reply, session_key = _keyed_ends(client_keypair)
    # the reply itself is the one an unkeyed client opens: no AAD
    assert protocol.recv_reply(reply, _in_flight(session_key)) == LISTED
    nonce = bytes(reply.payload[: crypto_core.NONCE_BYTES])
    key = crypto_core.connection_key(session_key, nonce)
    assert client == server == protocol.ConnectionState(key=key, keyed=True, seq=0)
    # the same first request answered again keys another connection
    again = _in_flight(session_key)
    protocol.send_reply(LISTED, again)
    assert again.keyed and again.key != key


def test_a_keyed_request_is_seq_nonce_body_under_the_connection_key(client_keypair):
    client, server, _, _ = _keyed_ends(client_keypair)
    msg = protocol.DownloadRequest(session_token="cd" * 16, label="layout")
    frame = protocol.send_sealed(msg, client_keypair.public, client)
    assert frame.tag == protocol.KEYED_TAG and client.seq == 1
    inner = protocol.encode_frame(msg)
    seq = (1).to_bytes(8, "big")
    assert len(frame.payload) == 8 + crypto_core.NONCE_BYTES + len(inner) + crypto_core.TAG_BYTES
    assert frame.payload[:8] == seq
    body = crypto_core.Ciphertext.from_bytes(frame.payload[8:])
    assert crypto_core.decrypt_file(body, client.key, crypto_core.REQUEST_INFO, seq) == inner
    assert protocol.recv_sealed(frame, client_keypair, server) == msg
    assert server.seq == 1
    reply = protocol.send_reply(LISTED, server)
    sealed = crypto_core.Ciphertext.from_bytes(reply.payload)
    assert crypto_core.decrypt_file(
        sealed, client.key, crypto_core.REPLY_INFO, seq
    ) == protocol.encode_frame(LISTED)
    assert protocol.recv_reply(reply, client) == LISTED


def _assert_refused(frame, keypair, conn):
    before = dataclasses.replace(conn)
    with pytest.raises(DecryptionFailure) as excinfo:
        protocol.recv_sealed(frame, keypair, conn)
    assert str(excinfo.value) == protocol.UNOPENABLE_TEXT
    assert conn == before


def test_a_server_takes_only_the_next_seq(client_keypair):
    client, server, _, _ = _keyed_ends(client_keypair)
    first, second = (
        protocol.send_sealed(LIST, client_keypair.public, client) for _ in range(2)
    )
    _assert_refused(second, client_keypair, server)  # skips seq 1
    assert protocol.recv_sealed(first, client_keypair, server) == LIST
    _assert_refused(first, client_keypair, server)  # stale: seq 1 again
    assert protocol.recv_sealed(second, client_keypair, server) == LIST
    assert server.seq == 2


def test_a_keyed_request_opens_only_on_its_own_keyed_connection(client_keypair):
    client, server, _, session_key = _keyed_ends(client_keypair)
    frame = protocol.send_sealed(LIST, client_keypair.public, client)
    _, other, _, _ = _keyed_ends(client_keypair)
    for conn in (_fresh(), _in_flight(session_key), other):
        _assert_refused(frame, client_keypair, conn)
    for payload in (b"", frame.payload[:8], frame.payload[:-1]):
        _assert_refused(protocol.Frame(protocol.KEYED_TAG, payload), client_keypair, server)
    assert protocol.recv_sealed(frame, client_keypair, server) == LIST


def test_an_envelope_rekeys_its_connection_and_restarts_seq(client_keypair):
    client, server, _, _ = _keyed_ends(client_keypair)
    frame = protocol.send_sealed(LIST, client_keypair.public, client)
    protocol.recv_sealed(frame, client_keypair, server)
    old_key = server.key
    new_client = _fresh()
    frame = protocol.send_sealed(LIST, client_keypair.public, new_client)
    session_key = new_client.key
    assert protocol.recv_sealed(frame, client_keypair, server) == LIST
    assert server == _in_flight(session_key)  # unkeyed until the reply goes
    reply = protocol.send_reply(LISTED, server)
    assert protocol.recv_reply(reply, new_client) == LISTED
    assert new_client == server and server.key != old_key and server.seq == 0


# ---------------------------------------------------------------------
# replies

def test_reply_round_trip_and_layout():
    msg = protocol.FilePayload(label="r.bin", file_bytes=bytes(range(256)))
    frame = protocol.send_reply(msg, _in_flight())
    assert frame.tag == protocol.REPLY_TAG
    inner = protocol.encode_frame(msg)
    assert len(frame.payload) == (
        crypto_core.NONCE_BYTES + len(inner) + crypto_core.TAG_BYTES
    )
    sealed = crypto_core.Ciphertext.from_bytes(frame.payload)
    assert crypto_core.decrypt_file(sealed, SESSION_KEY, crypto_core.REPLY_INFO) == inner
    assert protocol.recv_reply(frame, _in_flight()) == msg
    assert protocol.send_reply(msg, _in_flight()) != frame


def _assert_unopenable(frame, session_key):
    conn = _in_flight(session_key)
    with pytest.raises(DecryptionFailure) as excinfo:
        protocol.recv_reply(frame, conn)
    assert str(excinfo.value) == protocol.UNOPENABLE_TEXT
    assert conn == _in_flight(session_key)


def test_every_byte_flip_in_a_reply_is_rejected_alike():
    frame = protocol.send_reply(protocol.ListResponse(labels=("a", "b")), _in_flight())
    # nonce, then body, then the GCM tag: every byte of each
    for index in range(len(frame.payload)):
        for mask in (0x01, 0x80):
            flipped = bytearray(frame.payload)
            flipped[index] ^= mask
            frame_flipped = protocol.Frame(protocol.REPLY_TAG, bytes(flipped))
            _assert_unopenable(frame_flipped, SESSION_KEY)


def test_malformed_replies_are_rejected_alike():
    good = protocol.send_reply(protocol.ListResponse(labels=()), _in_flight())
    for frame in (
        protocol.Frame(protocol.REPLY_TAG, b""),
        protocol.Frame(protocol.REPLY_TAG, good.payload[:-1]),
        protocol.Frame(protocol.REPLY_TAG, good.payload + b"\x00"),
        protocol.Frame(protocol.SEALED_TAG, good.payload),
        protocol.send_plain(protocol.ListResponse(labels=())),
        protocol.Frame(
            protocol.REPLY_TAG,
            crypto_core.encrypt_file(
                b"not a frame", SESSION_KEY, crypto_core.REPLY_INFO
            ).to_bytes(),
        ),
        protocol.Frame(  # a request body is no reply, though the key is right
            protocol.REPLY_TAG,
            crypto_core.encrypt_file(
                protocol.encode_frame(protocol.ListResponse(labels=())),
                SESSION_KEY,
                crypto_core.REQUEST_INFO,
            ).to_bytes(),
        ),
    ):
        _assert_unopenable(frame, SESSION_KEY)


def test_a_reply_opens_only_under_its_own_session_key():
    frame = protocol.send_reply(protocol.ListResponse(labels=("a",)), _in_flight())
    for _ in range(20):
        _assert_unopenable(frame, crypto_core.generate_symmetric_key())


def test_over_cap_frame_is_rejected_when_built():
    protocol.Frame(tag=0x01, payload=bytes(protocol.MAX_FRAME_LEN))
    with pytest.raises(MalformedPayload):
        protocol.Frame(tag=0x01, payload=bytes(protocol.MAX_FRAME_LEN + 1))


# ---------------------------------------------------------------------
# socket transport

def test_socket_round_trip():
    server, client = socket.socketpair()
    try:
        msg = protocol.StoreBlob(file_number=1, blob=b"x" * 40)
        sender = threading.Thread(
            target=protocol.write_frame, args=(client, protocol.send_plain(msg))
        )
        sender.start()
        frame = protocol.read_frame(server)
        sender.join()
        assert protocol.recv_plain(frame) == msg
    finally:
        server.close()
        client.close()


def test_socket_clean_eof_returns_none():
    server, client = socket.socketpair()
    client.close()
    try:
        assert protocol.read_frame(server) is None
    finally:
        server.close()


def test_socket_mid_frame_eof_raises():
    server, client = socket.socketpair()
    try:
        client.sendall(b"\x01\x00\x00\x00\x10partial")
        client.close()
        with pytest.raises(TruncatedFrame):
            protocol.read_frame(server)
    finally:
        server.close()


class _Recorded:
    """A socket whose ``sendmsg`` records each byte count it sends."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = []

    def sendmsg(self, buffers):
        count = self._sock.sendmsg(buffers)
        self.sent.append(count)
        return count


class _Slow:
    """A socket read at most 64 KiB at a time, with a pause before each."""

    def __init__(self, sock):
        self._sock = sock

    def recv_into(self, view):
        time.sleep(0.001)
        return self._sock.recv_into(view[:65536])

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_frame_at_the_file_cap_survives_partial_sends():
    msg = protocol.StoreBlob(file_number=1, blob=os.urandom(protocol.MAX_FILE_BYTES))
    frame = protocol.send_plain(msg)
    server, client = socket.socketpair()
    try:
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 256 * 1024)
        client.settimeout(30)  # a socket with a timeout sends what fits, and returns
        received = []
        reader = threading.Thread(
            target=lambda: received.append(protocol.read_frame(_Slow(server)))
        )
        reader.start()
        sender = _Recorded(client)
        protocol.write_frame(sender, frame)
        reader.join(timeout=60)
    finally:
        server.close()
        client.close()
    assert not reader.is_alive()
    assert received == [frame]
    assert len(sender.sent) > 1
    assert sum(sender.sent) == protocol.HEADER_LEN + len(frame.payload)
