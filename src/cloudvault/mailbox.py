"""One-time-password delivery channels.

The real deployment would hand OTPs to an SMTP relay; here the channel is
pluggable and ships with two backends. The file mailbox is what integration
topologies use: one append-only file per mail address, one OTP per line, so
a client process can pick up its credential without sharing memory with the
server. Delivery is synchronous — register/login do not return until the
OTP is in the mailbox.
"""

import os
import threading
import urllib.parse

from . import netutil
from .errors import MailboxUnavailable, MailDeliveryFailure


class InMemoryMailbox:
    """Per-address message lists; for unit tests."""

    def __init__(self):
        self._boxes: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    def deliver(self, address: str, body: str) -> None:
        with self._lock:
            self._boxes.setdefault(address, []).append(body)

    def messages(self, address: str) -> list[str]:
        with self._lock:
            return list(self._boxes.get(address, []))

    def latest(self, address: str) -> str:
        messages = self.messages(address)
        if not messages:
            raise MailboxUnavailable(f"no mail for {address}")
        return messages[-1]


class FileMailbox:
    """One file per address under ``root``; each line is one delivery."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()

    def deliver(self, address: str, body: str) -> None:
        if "\n" in body:
            raise MailDeliveryFailure("message body must be a single line")
        try:
            with self._lock:
                netutil.append_line(mailbox_file_path(self.root, address), body)
        except OSError as exc:
            raise MailDeliveryFailure(str(exc)) from exc


# How much of a mailbox file read_latest_otp reads back at a time.
TAIL_CHUNK = 512


def read_latest_otp(mailbox_path: str) -> str:
    """Client-side test-mode fetch: the last non-blank line of this user's
    mailbox file, stripped. The file is read back from its end, a chunk at a
    time, so a login costs the same however many OTPs the mailbox holds.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in text mode; neither byte
    occurs inside a UTF-8 character, so each whole line decodes on its own."""
    try:
        with open(mailbox_path, "rb", buffering=0) as fh:
            pos = fh.seek(0, os.SEEK_END)
            head = b""  # the bytes before the earliest line end read so far
            while pos:
                step = min(TAIL_CHUNK, pos)
                pos -= step
                fh.seek(pos)
                lines = (fh.read(step) + head).splitlines()
                if pos:
                    head = lines.pop(0)  # may start in an earlier chunk
                for line in reversed(lines):
                    text = line.decode("utf-8").strip()
                    if text:
                        return text
    except OSError as exc:
        raise MailboxUnavailable(str(exc)) from exc
    raise MailboxUnavailable(f"mailbox {mailbox_path} is empty")


def mailbox_file_path(root: str, address: str) -> str:
    return os.path.join(root, urllib.parse.quote(address, safe="") + ".mbox")
