"""Cryptographic primitives: one AEAD seal for every ciphertext, RSA request
envelopes, MD5 digests, and random key / one-time-password generation. No
file I/O: ``netutil`` reads and writes the RSA key file.

Every ciphertext is ``nonce(16) ‖ AES-128-GCM(k, iv, msg, aad)`` with
``k ‖ iv = HKDF-SHA256(key, salt=nonce, info)`` (RFC 5869), the way Oblivious
HTTP seals a response (RFC 9458 §4.4): a stored file under its own fresh
key, a client request and the reply to it under the request's session key.
The ``info`` string names which of the three a ciphertext is, so one never
opens as another, and the AAD binds it to where it belongs: a request to its
wrapped key, a blob to its owner and file number. Changing any byte, or
moving a ciphertext, fails the GCM tag. A seal is written once: into one
new buffer behind an optional prefix (``AESGCM.encrypt_into``), which the
request envelope uses for its wrapped key, so no seal is copied to be sent
or stored.

A connection's first client request is sealed in a hybrid envelope: the
caller's fresh 128-bit session key is RSA-wrapped with PKCS#1 v1.5 padding
and the message rides under that session key. The reply is sealed under the
same session key, so the asymmetric key system only carries keys, as in the
source design. Only the holder of the system private key recovers the
session key, so only it can seal a reply the client opens, and a reply opens
only for the request it answers. That first exchange keys the connection:
``HKDF-SHA256(session key, salt=the reply's nonce, info="cloudvault
connection")``. Each later request on it is numbered, ``seq ‖ nonce ‖
body``, and sealed under the connection key with AES alone, its ``seq`` as
the AAD of the request and of its reply (the TLS 1.3 record rule, RFC 8446
§5.3). Identity strings (usernames, one-time passwords) are persisted only
as MD5 digests of their exact UTF-8 bytes.

AES, AES-GCM, HKDF, RSA key generation, the RSA operations and MD5 come
from vetted implementations (``cryptography``, ``hashlib``). The library's
RSA private operation uses CRT with blinding and checks its own result, and
its PKCS#1 v1.5 unwrap uses implicit rejection: a block that does not open
yields pseudo-random bytes instead of an error, so the envelope's GCM tag
must catch it. The one piece of key arithmetic written here is recovering
p and q from the ``{n, e, d}`` key files (NIST SP 800-56B Rev. 2,
Appendix C): the library's ``rsa_recover_prime_factors`` does the same job
about three times slower (median 96 ms against 29 ms at 2048 bits, on a
2-vCPU VM), and every system-server start pays it.
"""

import hashlib
import math
import secrets
import string
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import (
    DecryptionFailure,
    InvalidKey,
    MessageOutOfRange,
    PrimeGenerationFailure,
    RandomSourceUnavailable,
)

BLOCK_SIZE = 16
KEY_BYTES = 16  # 128-bit file and session keys
OTP_LENGTH = 16
OTP_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits

DEFAULT_RSA_BITS = 2048

# PKCS#1 v1.5 block: 00 02 <at least 8 nonzero pad bytes> 00 <data>
_MIN_PAD_OVERHEAD = 11

NONCE_BYTES = 16
TAG_BYTES = 16
_IV_BYTES = 12
REQUEST_INFO = b"cloudvault request"
REPLY_INFO = b"cloudvault reply"
BLOB_INFO = b"cloudvault blob"
CONNECTION_INFO = b"cloudvault connection"
SEQ_BYTES = 8


def _random_bytes(count: int) -> bytes:
    try:
        return secrets.token_bytes(count)
    except OSError as exc:  # pragma: no cover - no entropy source
        raise RandomSourceUnavailable(str(exc)) from exc


def generate_symmetric_key() -> bytes:
    """Fresh 16-byte AES key. Single-use discipline is the caller's job."""
    return _random_bytes(KEY_BYTES)


def generate_otp() -> str:
    """16 random characters over [A-Za-z0-9]."""
    try:
        return "".join(secrets.choice(OTP_ALPHABET) for _ in range(OTP_LENGTH))
    except OSError as exc:  # pragma: no cover - no entropy source
        raise RandomSourceUnavailable(str(exc)) from exc


def md5_digest(data: bytes) -> bytes:
    """16-byte MD5 of the exact input bytes (no trimming, no salting).

    MD5 is retained deliberately for table hiding despite its known
    weaknesses; see the README security notes.
    """
    return hashlib.md5(data).digest()


@dataclass(frozen=True)
class Ciphertext:
    """A sealed message: the fresh nonce, then the AES-128-GCM body with its
    16-byte tag. ``body`` may be a view of the bytes it was read from, or of
    ``sealed``: the one buffer ``encrypt_file`` wrote, ``prefix ‖ nonce ‖
    body``."""

    nonce: bytes
    body: bytes
    sealed: bytearray | None = field(default=None, compare=False, repr=False)

    def to_bytes(self):
        """``nonce ‖ body``: ``sealed`` itself, uncopied, when it holds
        nothing else."""
        if self.sealed is not None and len(self.sealed) == NONCE_BYTES + len(self.body):
            return self.sealed
        return self.nonce + self.body

    @classmethod
    def from_bytes(cls, raw) -> "Ciphertext":
        """Split ``nonce ‖ body`` without copying the body. Too short for a
        nonce and a tag raises DecryptionFailure."""
        if len(raw) < NONCE_BYTES + TAG_BYTES:
            raise DecryptionFailure("ciphertext too short for a nonce and a tag")
        view = memoryview(raw)
        return cls(nonce=bytes(view[:NONCE_BYTES]), body=view[NONCE_BYTES:])


def _check_key(key: bytes):
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


def aes_encrypt_block(block: bytes, key: bytes) -> bytes:
    """Raw single-block AES-128 transform (no mode, no padding).

    Exists so the block core can be pinned against the standard
    known-answer vector independently of the GCM seal.
    """
    _check_key(key)
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be exactly 16 bytes")
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _key_and_iv(key: bytes, nonce: bytes, info: bytes) -> tuple[bytes, bytes]:
    _check_key(key)
    okm = HKDF(
        algorithm=hashes.SHA256(), length=KEY_BYTES + _IV_BYTES, salt=nonce, info=info
    ).derive(key)
    return okm[:KEY_BYTES], okm[KEY_BYTES:]


def encrypt_file(
    plaintext: bytes, key: bytes, info: bytes, aad: bytes | None = None,
    prefix: bytes = b"",
) -> Ciphertext:
    """Seal ``plaintext`` under ``key`` for the use ``info`` names, binding
    ``aad``. The nonce is fresh per call, so a key and IV pair never
    repeats. The seal is written once, into one new buffer that starts with
    ``prefix``: the returned ``sealed``."""
    nonce = _random_bytes(NONCE_BYTES)
    gcm_key, iv = _key_and_iv(key, nonce, info)
    head = len(prefix) + NONCE_BYTES
    sealed = bytearray(head + len(plaintext) + TAG_BYTES)
    sealed[:head] = prefix + nonce
    body = memoryview(sealed)[head:]
    AESGCM(gcm_key).encrypt_into(iv, plaintext, aad, body)
    return Ciphertext(nonce=nonce, body=body, sealed=sealed)


def decrypt_file(
    ct: Ciphertext, key: bytes, info: bytes, aad: bytes | None = None
) -> bytes:
    """Invert encrypt_file. A wrong key, ``info`` or ``aad``, and every bit
    changed anywhere in ``ct``, raise DecryptionFailure."""
    gcm_key, iv = _key_and_iv(key, ct.nonce, info)
    try:
        return AESGCM(gcm_key).decrypt(iv, ct.body, aad)
    except InvalidTag:
        raise DecryptionFailure("ciphertext does not authenticate") from None


def _decrypt_ignoring_tag(ct: Ciphertext, key: bytes, info: bytes) -> bytes:
    """GCM's keystream (AES-CTR from counter block ``iv ‖ 00000002``, NIST
    SP 800-38D) over the whole body, tag and any bytes after it included,
    with no tag check: the leakage auditor's adversary, who reads plaintext
    even from a ciphertext that does not authenticate."""
    gcm_key, iv = _key_and_iv(key, ct.nonce, info)
    counter = iv + (2).to_bytes(4, "big")
    dec = Cipher(algorithms.AES(gcm_key), modes.CTR(counter)).decryptor()
    return dec.update(ct.body) + dec.finalize()


# ---------------------------------------------------------------------------
# RSA


# Random bases tried when recovering p and q from (n, e, d). Each base of a
# genuine two-prime key reveals a factor with probability at least 1/2.
_RECOVERY_TRIES = 100


def _recover_primes(n: int, e: int, d: int) -> tuple[int, int]:
    """Factor n from its exponents (NIST SP 800-56B Rev. 2, App. C).

    e*d - 1 is a multiple of lambda(n), so g^(e*d - 1) = 1 for every unit g;
    squaring up to it from an odd power of g finds a square root of 1 other
    than +-1 about half the time, and its gcd with n is a prime factor. A
    base that is not a unit already shares a factor with n. The search gives
    up after a fixed number of bases, and at once when a unit base proves
    that e*d - 1 is not a multiple of lambda(n).
    """
    k = e * d - 1
    if n < 6 or k <= 0 or k % 2:
        raise InvalidKey("private exponent does not match the public key")
    t = (k & -k).bit_length() - 1
    r = k >> t
    for _ in range(_RECOVERY_TRIES):
        g = secrets.randbelow(n - 3) + 2
        f = math.gcd(g, n)
        if f != 1:  # a non-unit base shares a factor with n outright
            return f, n // f
        y = pow(g, r, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(t):
            x = y * y % n
            if x == 1:
                p = math.gcd(y - 1, n)
                return p, n // p
            if x == n - 1:
                break
            y = x
        else:
            raise InvalidKey("private exponent does not match the public key")
    raise InvalidKey("no prime factor found from the key's exponents")


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key: modulus n, public exponent e, private exponent d, and the
    primes p > q, held as one ``cryptography`` private key.

    Constructed from (n, e, d) alone, it recovers p and q from the exponents;
    an inconsistent triple raises InvalidKey.
    """

    n: int
    e: int
    d: int
    p: int | None = None
    q: int | None = None
    _key: rsa.RSAPrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p is None or self.q is None:
            p, q = _recover_primes(self.n, self.e, self.d)
        else:
            p, q = self.p, self.q
        p, q = max(p, q), min(p, q)
        if q < 2 or p == q or p * q != self.n:
            raise InvalidKey("p and q do not factor the modulus")
        lam = math.lcm(p - 1, q - 1)
        if (self.e * self.d - 1) % lam:
            raise InvalidKey("private exponent does not match the public key")
        # The two checks above are what make skipping the library's own
        # (much slower) key validation safe. The library wants d < n, and
        # d mod lambda(n) is the same exponent.
        d = self.d % lam
        numbers = rsa.RSAPrivateNumbers(
            p, q, d, d % (p - 1), d % (q - 1), pow(q, -1, p),
            rsa.RSAPublicNumbers(self.e, self.n),
        )
        try:
            key = numbers.private_key(unsafe_skip_rsa_key_validation=True)
        except ValueError:
            raise InvalidKey("the RSA library refuses the key's numbers") from None
        for name, value in (("p", p), ("q", q), ("_key", key)):
            object.__setattr__(self, name, value)

    @property
    def public(self) -> tuple[int, int]:
        return (self.n, self.e)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @classmethod
    def from_primes(cls, p: int, q: int, e: int = 65537) -> "RsaKeyPair":
        if p == q:
            raise PrimeGenerationFailure("p and q must differ")
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError as exc:
            raise PrimeGenerationFailure(f"e={e} not invertible mod phi") from exc
        return cls(n=p * q, e=e, d=d, p=p, q=q)


def rsa_generate(bits: int = DEFAULT_RSA_BITS) -> RsaKeyPair:
    """A fresh keypair from the library, its modulus exactly ``bits`` bits
    with e = 65537. The library refuses fewer than 1024 bits (ValueError)."""
    numbers = rsa.generate_private_key(65537, bits).private_numbers()
    public = numbers.public_numbers
    return RsaKeyPair(n=public.n, e=public.e, d=numbers.d, p=numbers.p, q=numbers.q)


def modulus_bytes(n: int) -> int:
    """Length k of an RSA block (and of a wrapped key) under modulus n."""
    return (n.bit_length() + 7) // 8


def rsa_encrypt_block(data: bytes, pub: tuple[int, int]) -> bytes:
    """PKCS#1 v1.5 wrap of ``data`` to ``pub`` (RFC 8017 §7.2): k bytes,
    with fresh random padding each call."""
    n, e = pub
    k = modulus_bytes(n)
    if k < len(data) + _MIN_PAD_OVERHEAD:
        raise MessageOutOfRange(
            f"modulus of {k} bytes too small to wrap {len(data)} bytes"
        )
    try:  # the library refuses some keys only when it encrypts (an even n)
        return rsa.RSAPublicNumbers(e, n).public_key().encrypt(data, padding.PKCS1v15())
    except ValueError:
        raise MessageOutOfRange("not a usable RSA public key") from None


def rsa_decrypt_block(wrapped: bytes, priv: RsaKeyPair) -> bytes:
    """Unwrap a PKCS#1 v1.5 block: the RSA private operation.

    A block of the wrong length or out of range raises DecryptionFailure;
    one with bad padding returns pseudo-random bytes (implicit rejection).
    """
    try:  # the library takes bytes, not a bytearray or a view
        return priv._key.decrypt(bytes(wrapped), padding.PKCS1v15())
    except ValueError:
        raise DecryptionFailure("wrapped key does not open") from None


def seal_envelope(msg: bytes, pub: tuple[int, int], session_key: bytes) -> bytearray:
    """Seal ``msg`` to the holder of ``pub``'s private half as the bytes
    ``wrapped_key ‖ nonce ‖ body``, with the wrapped key k bytes long and
    bound to the body as its AAD.

    The caller passes a fresh session key and keeps it to open the reply.
    The RSA block carries random padding and the nonce is random, so sealing
    the same message twice never repeats bytes.
    """
    wrapped = rsa_encrypt_block(session_key, pub)
    return encrypt_file(msg, session_key, REQUEST_INFO, wrapped, prefix=wrapped).sealed


def open_envelope(sealed: bytes, priv: RsaKeyPair) -> tuple[bytes, bytes]:
    """Invert seal_envelope, splitting ``sealed`` at priv's k; returns the
    message and its session key. Each way of failing raises a
    CloudVaultError; ``protocol.recv_sealed`` gives them all one reply."""
    k = modulus_bytes(priv.n)
    payload = Ciphertext.from_bytes(memoryview(sealed)[k:])
    wrapped = sealed[:k]
    session_key = rsa_decrypt_block(wrapped, priv)
    if len(session_key) != KEY_BYTES:
        raise DecryptionFailure("recovered session key has wrong length")
    return decrypt_file(payload, session_key, REQUEST_INFO, wrapped), session_key


# ---------------------------------------------------------------------------
# Keyed connections


def connection_key(session_key: bytes, reply_nonce: bytes) -> bytes:
    """The key of a connection keyed by a request sealed under
    ``session_key`` and the reply whose nonce is ``reply_nonce``. The server
    picks that nonce fresh, so a replayed first request keys another
    connection with another key."""
    _check_key(session_key)
    return HKDF(
        algorithm=hashes.SHA256(), length=KEY_BYTES, salt=reply_nonce,
        info=CONNECTION_INFO,
    ).derive(session_key)


def seq_aad(seq: int) -> bytes:
    """A request number as its 8-byte big-endian AAD."""
    return seq.to_bytes(SEQ_BYTES, "big")


def seal_numbered(msg: bytes, conn_key: bytes, seq: int) -> bytearray:
    """Seal ``msg`` as request ``seq`` on the connection keyed by
    ``conn_key``: the bytes ``seq ‖ nonce ‖ body``, with ``seq`` bound to
    the body as its AAD."""
    aad = seq_aad(seq)
    return encrypt_file(msg, conn_key, REQUEST_INFO, aad, prefix=aad).sealed


def open_numbered(sealed: bytes, conn_key: bytes, seq: int) -> bytes:
    """Invert seal_numbered for request ``seq`` and no other: a payload too
    short, numbered otherwise or whose tag fails raises DecryptionFailure."""
    aad = seq_aad(seq)
    if sealed[:SEQ_BYTES] != aad:
        raise DecryptionFailure("not the connection's next request")
    payload = Ciphertext.from_bytes(memoryview(sealed)[SEQ_BYTES:])
    return decrypt_file(payload, conn_key, REQUEST_INFO, aad)
