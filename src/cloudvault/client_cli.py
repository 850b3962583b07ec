"""Command-line client: register, login, logout, upload, download, list.

Every request/response exchange is a single sealed round trip. The first
request on a connection is sealed to the system public key under a fresh
session key, and its reply, which must open under that session key, keys
the connection; each later request on it is numbered and sealed under the
connection key alone. Any reply that does not open, a plain frame included,
raises ``DecryptionFailure``, with the text of the server's one plain
refusal. The client holds no key pair of its own. One-time passwords and
session tokens never appear in command output. The session token lives in a
mode-0600 cache file until logout or expiry.
"""

import argparse
import getpass
import json
import os
import sys

from . import mailbox as mailbox_mod, netutil, protocol
# Not used here: the benchmark's perfbench/run.py imports it from this module.
from .netutil import write_keypair
from .errors import (
    CloudVaultError,
    FileTooLarge,
    InvalidSession,
    IoFailure,
    MalformedPayload,
    error_for_code,
)

CONFIG_ENV_VAR = "CLOUDVAULT_CONFIG"


class ClientConfig:
    """Client-side settings: where the system server is, which public key it
    presents (trust-on-config), the test mailbox, and the session token
    cache. ``keypair_path`` names no key any more; it is kept because
    existing configs set it, and the token cache defaults to
    ``keypair_path + ".session"``."""

    def __init__(
        self,
        system_host: str,
        system_port: int,
        system_public_key,
        keypair_path: str,
        mailbox_path: str = "",
        token_path: str = "",
        sabotage_plaintext_channel: bool = False,
    ):
        self.system_host = system_host
        self.system_port = system_port
        self.system_public_key = protocol.pubkey_from_json(system_public_key)
        self.keypair_path = keypair_path
        self.mailbox_path = mailbox_path
        self.token_path = token_path or keypair_path + ".session"
        self.sabotage_plaintext_channel = sabotage_plaintext_channel

    @classmethod
    def from_file(cls, path: str) -> "ClientConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls(**json.load(fh))
        # ValueError: not JSON; TypeError: not an object of known settings
        except (OSError, ValueError, TypeError) as exc:
            raise IoFailure(f"config {path}: {exc}") from exc


class ClientSession:
    """Library form of the client; the CLI verbs are thin wrappers.

    The connection stays open across exchanges (one request/response per
    turn), so only its first request pays the server's RSA private
    operation. A socket the server has hung up on since the last reply is
    replaced before the next request is written, and keyed anew; a request
    once written is never resent, so an exchange that fails after that point
    raises ``ConnectionFailure`` even though the server may have carried it
    out. After a reply that does not open, the socket is closed and the next
    request keys a new one (``netutil.FrameConnection.exchange``).
    """

    def __init__(self, config: ClientConfig):
        self.config = config
        self._conn = netutil.FrameConnection(
            config.system_host, config.system_port, timeout=60.0
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _exchange(self, msg):
        """One sealed request; the reply must open as the answer to it, or
        ``DecryptionFailure`` is raised: anyone can build a plain frame, and
        only the system server can seal one."""
        if self.config.sabotage_plaintext_channel:  # mis-build for auditor self-tests
            reply = protocol.recv_plain(self._conn.round_trip(protocol.send_plain(msg)))
        else:
            pub = self.config.system_public_key
            reply = self._conn.exchange(
                lambda conn: protocol.send_sealed(msg, pub, conn), protocol.recv_reply
            )
        if isinstance(reply, protocol.ErrorFrame):
            raise error_for_code(reply.code, reply.text)
        return reply

    def _expect(self, reply, cls):
        if not isinstance(reply, cls):
            raise MalformedPayload(
                f"expected {cls.__name__}, got {type(reply).__name__}"
            )
        return reply

    # -- session token cache -------------------------------------------------

    def _store_token(self, token: str) -> None:
        try:
            netutil.write_atomic(self.config.token_path, token.encode("ascii"))
        except OSError as exc:
            raise IoFailure(f"session token cache: {exc}") from exc

    def _load_token(self) -> str:
        try:
            with open(self.config.token_path, encoding="ascii") as fh:
                token = fh.read().strip()
        except FileNotFoundError:
            raise InvalidSession("not logged in") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise IoFailure(f"session token cache: {exc}") from exc
        if not token:
            raise InvalidSession("not logged in")
        return token

    def clear_token(self) -> None:
        try:
            os.unlink(self.config.token_path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise IoFailure(f"session token cache: {exc}") from exc

    # -- verbs ----------------------------------------------------------------

    def register(self, username: str, mail_address: str) -> None:
        reply = self._exchange(
            protocol.Register(username=username, mail_address=mail_address)
        )
        self._expect(reply, protocol.LoginResponse)

    def login(self, username: str, otp: str = None) -> None:
        if otp is None:
            if not self.config.mailbox_path:
                raise MalformedPayload("no OTP given and no mailbox configured")
            otp = mailbox_mod.read_latest_otp(self.config.mailbox_path)
        reply = self._expect(
            self._exchange(protocol.LoginRequest(username=username, otp=otp)),
            protocol.LoginResponse,
        )
        self._store_token(reply.session_token)

    def upload(self, label: str, data: bytes) -> None:
        if len(data) > protocol.MAX_FILE_BYTES:
            raise FileTooLarge(
                f"{len(data)} bytes exceeds cap {protocol.MAX_FILE_BYTES}"
            )
        token = self._load_token()
        reply = self._exchange(
            protocol.UploadRequest(session_token=token, label=label, file_bytes=data)
        )
        self._expect(reply, protocol.UploadAck)

    def download(self, label: str) -> bytes:
        token = self._load_token()
        reply = self._expect(
            self._exchange(
                protocol.DownloadRequest(session_token=token, label=label)
            ),
            protocol.FilePayload,
        )
        if reply.label != label:
            raise MalformedPayload(f"server answered for label {reply.label!r}")
        return reply.file_bytes

    def list_labels(self) -> list[str]:
        token = self._load_token()
        reply = self._expect(
            self._exchange(protocol.ListRequest(session_token=token)),
            protocol.ListResponse,
        )
        return list(reply.labels)


# ---------------------------------------------------------------------------
# CLI


def _load_config(args) -> ClientConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise IoFailure(f"no --config given and {CONFIG_ENV_VAR} unset")
    return ClientConfig.from_file(path)


def _cmd_register(args) -> int:
    with ClientSession(_load_config(args)) as session:
        session.register(args.username, args.mail_address)
    print(f"registered {args.username}; check the mail account for the first password")
    return 0


def _cmd_login(args) -> int:
    config = _load_config(args)
    otp = args.otp
    if otp is None and not config.mailbox_path:
        otp = getpass.getpass("one-time password: ")
    with ClientSession(config) as session:
        session.login(args.username, otp)
    print("logged in; a fresh one-time password is in your mail account")
    return 0


def _cmd_logout(args) -> int:
    with ClientSession(_load_config(args)) as session:
        session.clear_token()
    print("logged out")
    return 0


def _cmd_upload(args) -> int:
    config = _load_config(args)
    try:
        with open(args.local_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    with ClientSession(config) as session:
        session.upload(args.label, data)
    print(f"uploaded {args.label} ({len(data)} bytes)")
    return 0


def _cmd_download(args) -> int:
    with ClientSession(_load_config(args)) as session:
        data = session.download(args.label)
    try:
        with open(args.local_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    print(f"downloaded {args.label} ({len(data)} bytes)")
    return 0


def _cmd_list(args) -> int:
    with ClientSession(_load_config(args)) as session:
        labels = session.list_labels()
    for label in labels:
        print(label)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudvault", description="secure file storage client"
    )
    parser.add_argument("--config", help=f"config path (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="create an account")
    p.add_argument("username")
    p.add_argument("mail_address")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("login", help="open a session with a one-time password")
    p.add_argument("username")
    p.add_argument("--otp", help="password (default: prompt, or test mailbox)")
    p.set_defaults(func=_cmd_login)

    p = sub.add_parser("logout", help="drop the cached session token")
    p.set_defaults(func=_cmd_logout)

    p = sub.add_parser("upload", help="encrypt-and-store a local file")
    p.add_argument("label")
    p.add_argument("local_path")
    p.set_defaults(func=_cmd_upload)

    p = sub.add_parser("download", help="retrieve a stored file")
    p.add_argument("label")
    p.add_argument("local_path")
    p.set_defaults(func=_cmd_download)

    p = sub.add_parser("list", help="list stored labels")
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CloudVaultError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        if args.verbose:
            import traceback

            traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
