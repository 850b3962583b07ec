import copy
import hashlib
import hmac
import math
import random
import secrets

import pytest
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from cloudvault import crypto_core as cc
from cloudvault.errors import DecryptionFailure, InvalidKey, MessageOutOfRange

# ---------------------------------------------------------------------
# Known-answer vectors

# FIPS-197 Appendix C.1 (AES-128)
AES_KAT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
AES_KAT_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
AES_KAT_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# RFC 1321 appendix test suite
MD5_SUITE = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (b"1234567890" * 8, "57edf4a22be3c955ac49da2e2107b67a"),
]


def test_aes_block_known_answer():
    assert cc.aes_encrypt_block(AES_KAT_PLAIN, AES_KAT_KEY) == AES_KAT_CIPHER


@pytest.mark.parametrize("message,expected", MD5_SUITE)
def test_md5_suite(message, expected):
    assert cc.md5_digest(message).hex() == expected


def test_md5_width():
    for size in (0, 1, 63, 64, 65, 10_000):
        assert len(cc.md5_digest(b"x" * size)) == 16


# ---------------------------------------------------------------------
# Random generation

def test_symmetric_key_shape_and_freshness():
    draws = [cc.generate_symmetric_key() for _ in range(1000)]
    assert all(len(key) == 16 for key in draws)
    assert len(set(draws)) == 1000
    # With 1000 uniform draws the expected number of distinct leading bytes
    # is 256 * (1 - (255/256)**1000) ~= 250.8; 120 would require a grossly
    # skewed source.
    assert len({key[0] for key in draws}) >= 120


def test_otp_shape_and_freshness():
    draws = [cc.generate_otp() for _ in range(1000)]
    assert len(set(draws)) == 1000
    for otp in draws[:50]:
        assert len(otp) == 16
        assert all(ch in cc.OTP_ALPHABET for ch in otp)


def test_generators_never_repeat_in_ten_thousand_draws():
    keys = {cc.generate_symmetric_key() for _ in range(10_000)}
    assert len(keys) == 10_000
    otps = {cc.generate_otp() for _ in range(10_000)}
    assert len(otps) == 10_000


# ---------------------------------------------------------------------
# The seal: requests, replies and blobs

INFOS = (cc.REQUEST_INFO, cc.REPLY_INFO, cc.BLOB_INFO)


def test_encrypt_decrypt_round_trip():
    rng = random.Random(0xC0FFEE)
    for size in (0, 1, 15, 16, 17, 31, 1000, 1 << 20):
        plaintext = rng.randbytes(size)
        key = cc.generate_symmetric_key()
        for info, aad in ((cc.BLOB_INFO, b"where it lives"), (cc.REPLY_INFO, None)):
            ct = cc.encrypt_file(plaintext, key, info, aad)
            assert len(ct.nonce) == cc.NONCE_BYTES
            assert len(ct.body) == size + cc.TAG_BYTES
            assert cc.decrypt_file(ct, key, info, aad) == plaintext


def test_empty_plaintext_yields_only_the_tag():
    ct = cc.encrypt_file(b"", cc.generate_symmetric_key(), cc.BLOB_INFO)
    assert len(ct.body) == cc.TAG_BYTES


def test_same_input_encrypts_differently():
    key = cc.generate_symmetric_key()
    first = cc.encrypt_file(b"same bytes", key, cc.BLOB_INFO)
    second = cc.encrypt_file(b"same bytes", key, cc.BLOB_INFO)
    assert first != second
    assert first.nonce != second.nonce
    assert first.body != second.body


def test_ciphertext_never_echoes_plaintext():
    plaintext = secrets.token_bytes(64)
    ct = cc.encrypt_file(plaintext, cc.generate_symmetric_key(), cc.BLOB_INFO)
    assert plaintext not in ct.body


def test_wrong_key_fails_decryption():
    # The tag fails under every wrong key: no garbage is ever returned.
    plaintext = b"the eagle lands at midnight"
    key = cc.generate_symmetric_key()
    ct = cc.encrypt_file(plaintext, key, cc.BLOB_INFO)
    for _ in range(100):
        wrong = cc.generate_symmetric_key()
        with pytest.raises(DecryptionFailure):
            cc.decrypt_file(ct, wrong, cc.BLOB_INFO)


def test_a_seal_opens_only_for_its_own_use_and_aad():
    key = cc.generate_symmetric_key()
    digest = cc.md5_digest(b"alice")
    aad = digest + (7).to_bytes(8, "big")
    ct = cc.encrypt_file(b"blob seven", key, cc.BLOB_INFO, aad)
    assert cc.decrypt_file(ct, key, cc.BLOB_INFO, aad) == b"blob seven"
    for info, other_aad in (
        (cc.BLOB_INFO, digest + (8).to_bytes(8, "big")),  # moved to file 8
        (cc.BLOB_INFO, cc.md5_digest(b"bob") + (7).to_bytes(8, "big")),  # to bob
        (cc.BLOB_INFO, None),
        (cc.REPLY_INFO, aad),  # a blob is not a reply, nor a request
        (cc.REQUEST_INFO, aad),
    ):
        with pytest.raises(DecryptionFailure):
            cc.decrypt_file(ct, key, info, other_aad)


def test_short_ciphertext_does_not_open():
    key = cc.generate_symmetric_key()
    raw = cc.encrypt_file(b"some data", key, cc.BLOB_INFO).to_bytes()
    for short in (b"", raw[: cc.NONCE_BYTES], raw[: cc.NONCE_BYTES + cc.TAG_BYTES - 1]):
        with pytest.raises(DecryptionFailure):
            cc.Ciphertext.from_bytes(short)
    for truncated in (raw[:-1], raw[: cc.NONCE_BYTES + cc.TAG_BYTES]):
        with pytest.raises(DecryptionFailure):
            cc.decrypt_file(cc.Ciphertext.from_bytes(truncated), key, cc.BLOB_INFO)


def test_ciphertext_byte_serialization():
    ct = cc.encrypt_file(b"abc", cc.generate_symmetric_key(), cc.BLOB_INFO)
    raw = ct.to_bytes()
    assert raw == ct.nonce + ct.body
    assert cc.Ciphertext.from_bytes(raw) == ct


def _hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 written out with hmac, as an independent reference."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm, block = b"", b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
    return okm[:length]


def test_hkdf_reference_matches_rfc_5869_case_1():
    okm = _hkdf_sha256(
        bytes.fromhex("0b" * 22),
        bytes.fromhex("000102030405060708090a0b0c"),
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
        42,
    )
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


@pytest.mark.parametrize("info", INFOS)
def test_layout_is_nonce_then_gcm_under_hkdf_of_the_key(info):
    key = cc.generate_symmetric_key()
    msg = b"sealed body " * 10
    raw = cc.encrypt_file(msg, key, info, b"bound").to_bytes()
    assert len(raw) == cc.NONCE_BYTES + len(msg) + cc.TAG_BYTES
    nonce = raw[: cc.NONCE_BYTES]
    okm = _hkdf_sha256(key, nonce, info, 28)
    assert AESGCM(okm[:16]).decrypt(okm[16:], raw[cc.NONCE_BYTES :], b"bound") == msg


def test_info_strings_are_pinned():
    assert INFOS == (b"cloudvault request", b"cloudvault reply", b"cloudvault blob")


def test_decrypting_ignoring_the_tag_reads_the_plaintext_and_what_follows():
    # The leakage auditor's adversary: GCM's keystream, no tag check, so a
    # key appended after the tag does not hide the plaintext in front of it.
    key = cc.generate_symmetric_key()
    plaintext = b"SENTINEL lorem ipsum " * 20
    ct = cc.encrypt_file(plaintext, key, cc.BLOB_INFO, b"aad")
    sabotaged = cc.Ciphertext.from_bytes(ct.to_bytes() + key)
    raw = cc._decrypt_ignoring_tag(sabotaged, key, cc.BLOB_INFO)
    assert len(raw) == len(plaintext) + cc.TAG_BYTES + len(key)
    assert raw[: len(plaintext)] == plaintext
    wrong = cc._decrypt_ignoring_tag(ct, cc.generate_symmetric_key(), cc.BLOB_INFO)
    assert b"SENTINEL" not in wrong
    other_use = cc._decrypt_ignoring_tag(ct, key, cc.REPLY_INFO)
    assert b"SENTINEL" not in other_use


# ---------------------------------------------------------------------
# RSA

def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_toy_keypair_construction():
    pair = cc.RsaKeyPair.from_primes(61, 53, e=17)
    assert pair.n == 3233
    assert pair.d == 2753
    # Independent check: d must invert e modulo lcm(60, 52) = 780.
    g, inv, _ = _egcd(17, 780)
    assert g == 1
    assert pair.d % 780 == inv % 780
    assert (17 * pair.d) % 780 == 1


def _textbook_wrap(data: bytes, n: int, e: int) -> bytes:
    """RFC 8017 §7.2.1 by hand: 00 02 <random nonzero pad> 00 data, m^e mod n."""
    k = cc.modulus_bytes(n)
    pad = bytes(secrets.randbelow(255) + 1 for _ in range(k - len(data) - 3))
    m = int.from_bytes(b"\x00\x02" + pad + b"\x00" + data, "big")
    return pow(m, e, n).to_bytes(k, "big")


def _textbook_unwrap(wrapped: bytes, n: int, d: int) -> bytes:
    """RFC 8017 §7.2.2 by hand: c^d mod n, then strip 00 02 <pad> 00."""
    k = cc.modulus_bytes(n)
    block = pow(int.from_bytes(wrapped, "big"), d, n).to_bytes(k, "big")
    sep = block.index(b"\x00", 2)
    assert block[:2] == b"\x00\x02" and sep >= 10
    return block[sep + 1 :]


@pytest.mark.parametrize("bits", [1024, 2048])
def test_pkcs1_v15_matches_a_textbook_reference(bits):
    # Pins the wire against peers that wrap and unwrap with plain integers.
    pair = cc.rsa_generate(bits)
    k = cc.modulus_bytes(pair.n)
    for _ in range(10):
        key = cc.generate_symmetric_key()
        wrapped = cc.rsa_encrypt_block(key, pair.public)
        assert len(wrapped) == k
        assert _textbook_unwrap(wrapped, pair.n, pair.d) == key
        assert cc.rsa_decrypt_block(_textbook_wrap(key, *pair.public), pair) == key


def test_block_out_of_range(client_keypair):
    k = cc.modulus_bytes(client_keypair.n)
    wrapped = cc.rsa_encrypt_block(b"sixteen byte key", client_keypair.public)
    for bad in (b"\xff" * k, wrapped[:-1], wrapped + b"\x00"):  # >= n, short, long
        with pytest.raises(DecryptionFailure):
            cc.rsa_decrypt_block(bad, client_keypair)
    with pytest.raises(MessageOutOfRange):  # no room for 11 bytes of padding
        cc.rsa_encrypt_block(bytes(k - 10), client_keypair.public)


@pytest.mark.parametrize("bits", [1024, 2048])
def test_generated_modulus_width(bits):
    pair = cc.rsa_generate(bits)
    assert pair.n.bit_length() == bits


def test_generated_pair_round_trips():
    pair = cc.rsa_generate(1024)
    for _ in range(100):
        key = cc.generate_symmetric_key()
        assert cc.rsa_decrypt_block(cc.rsa_encrypt_block(key, pair.public), pair) == key


def test_tiny_modulus_rejected():
    # The library generates no key under 1024 bits; smaller key files load.
    with pytest.raises(ValueError):
        cc.rsa_generate(512)


def test_primes_recovered_from_n_e_d():
    toy = cc.RsaKeyPair.from_primes(61, 53, e=17)
    big = cc.rsa_generate(1024)
    for pair in (toy, big):
        lam = math.lcm(pair.p - 1, pair.q - 1)
        # d as made (the toy's is mod phi), and d taken mod lambda(n) as the
        # library and other tools do
        for d in (pair.d, pair.d % lam):
            loaded = cc.RsaKeyPair(n=pair.n, e=pair.e, d=d)
            assert loaded.p * loaded.q == pair.n
            assert (loaded.p, loaded.q) == (pair.p, pair.q)
    assert toy.d % math.lcm(60, 52) == 413 != toy.d  # the mod-lambda case differs
    key = b"sixteen byte key"
    wrapped = cc.rsa_encrypt_block(key, big.public)
    loaded = cc.RsaKeyPair(n=big.n, e=big.e, d=big.d)
    assert cc.rsa_decrypt_block(wrapped, loaded) == key


def test_toy_key_loads_from_a_base_sharing_a_factor(monkeypatch):
    toy = cc.RsaKeyPair.from_primes(61, 53, e=17)
    for base in (61, 53, 122):  # multiples of p or q are not units mod n
        monkeypatch.setattr(cc.secrets, "randbelow", lambda bound, b=base: b - 2)
        loaded = cc.RsaKeyPair(n=toy.n, e=toy.e, d=toy.d)
        assert (loaded.p, loaded.q) == (61, 53)


# A prime modulus: e*d = 1 mod (n - 1) is consistent, yet no base ever finds
# a factor, so only the bound on tries ends the search.
MERSENNE_127 = (1 << 127) - 1


def test_inconsistent_n_e_d_is_rejected_within_bounded_tries(monkeypatch):
    pair = cc.rsa_generate(1024)
    draws = []
    real_randbelow = secrets.randbelow

    def counting_randbelow(bound):
        draws.append(bound)
        return real_randbelow(bound)

    monkeypatch.setattr(cc.secrets, "randbelow", counting_randbelow)
    bad_triples = [
        (pair.n, pair.e, pair.d + 2),
        (pair.n, pair.e, pair.d + 1),
        (pair.n + 2, pair.e, pair.d),
        (pair.n, pair.e, 1),
        (pair.n, pair.e, 0),
        (MERSENNE_127, 65537, pow(65537, -1, MERSENNE_127 - 1)),
    ]
    for n, e, d in bad_triples:
        draws.clear()
        with pytest.raises(InvalidKey) as excinfo:
            cc.RsaKeyPair(n=n, e=e, d=d)
        assert len(draws) <= cc._RECOVERY_TRIES
        assert str(n) not in str(excinfo.value)
        assert str(d) not in str(excinfo.value)


def test_faulty_crt_component_never_returns_a_wrong_plaintext():
    # The library refuses an even CRT exponent, so flip the second-lowest bit.
    pair = cc.rsa_generate(1024)
    p, q, d = pair.p, pair.q, pair.d
    faulty = copy.copy(pair)
    numbers = rsa.RSAPrivateNumbers(
        p, q, d, (d % (p - 1)) ^ 2, d % (q - 1), pow(q, -1, p),
        rsa.RSAPublicNumbers(pair.e, pair.n),
    )
    key = numbers.private_key(unsafe_skip_rsa_key_validation=True)
    object.__setattr__(faulty, "_key", key)
    for _ in range(50):
        session_key = cc.generate_symmetric_key()
        wrapped = cc.rsa_encrypt_block(session_key, pair.public)
        try:
            assert cc.rsa_decrypt_block(wrapped, faulty) == session_key
        except DecryptionFailure:
            pass


# ---------------------------------------------------------------------
# Envelopes

def test_envelope_round_trip(client_keypair):
    rng = random.Random(0xE44)
    for size in (0, 1, 100, 4096, 1 << 20):
        msg = rng.randbytes(size)
        session_key = cc.generate_symmetric_key()
        sealed = cc.seal_envelope(msg, client_keypair.public, session_key)
        assert cc.open_envelope(sealed, client_keypair) == (msg, session_key)


def test_envelope_is_wrapped_key_nonce_body_bound_to_the_wrapped_key(client_keypair):
    msg = b"inner frame bytes"
    session_key = cc.generate_symmetric_key()
    sealed = cc.seal_envelope(msg, client_keypair.public, session_key)
    k = cc.modulus_bytes(client_keypair.n)
    assert len(sealed) == k + cc.NONCE_BYTES + len(msg) + cc.TAG_BYTES
    wrapped = sealed[:k]
    assert cc.rsa_decrypt_block(wrapped, client_keypair) == session_key
    body = cc.Ciphertext.from_bytes(sealed[k:])
    assert cc.decrypt_file(body, session_key, cc.REQUEST_INFO, wrapped) == msg
    rewrapped = cc.rsa_encrypt_block(session_key, client_keypair.public)
    with pytest.raises(DecryptionFailure):  # same key, another wrapping
        cc.open_envelope(rewrapped + sealed[k:], client_keypair)


def test_sealing_twice_differs(client_keypair):
    k = cc.modulus_bytes(client_keypair.n)
    key = cc.generate_symmetric_key()
    first = cc.seal_envelope(b"repeat me", client_keypair.public, key)
    second = cc.seal_envelope(b"repeat me", client_keypair.public, key)
    assert first[:k] != second[:k]
    assert first[k:] != second[k:]


def test_envelope_needs_room_for_the_session_key():
    toy = cc.RsaKeyPair.from_primes(61, 53, e=17)
    with pytest.raises(MessageOutOfRange):
        cc.seal_envelope(b"hi", toy.public, cc.generate_symmetric_key())


def test_envelope_hides_message_bytes(client_keypair):
    marker = b"MARKER-not-on-the-wire"
    sealed = cc.seal_envelope(marker, client_keypair.public, cc.generate_symmetric_key())
    assert marker not in sealed
