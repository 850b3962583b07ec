import builtins
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cloudvault import mailbox
from cloudvault.errors import MailboxUnavailable, MailDeliveryFailure
from cloudvault.mailbox import (
    FileMailbox,
    InMemoryMailbox,
    mailbox_file_path,
    read_latest_otp,
)


def test_in_memory_ordering():
    box = InMemoryMailbox()
    box.deliver("a@x.test", "first")
    box.deliver("a@x.test", "second")
    assert box.messages("a@x.test") == ["first", "second"]
    assert box.latest("a@x.test") == "second"


def test_in_memory_empty_address():
    box = InMemoryMailbox()
    assert box.messages("nobody@x.test") == []
    with pytest.raises(MailboxUnavailable):
        box.latest("nobody@x.test")


def test_file_mailbox_round_trip(tmp_path):
    box = FileMailbox(str(tmp_path))
    box.deliver("a@x.test", "OTP-ONE")
    box.deliver("a@x.test", "OTP-TWO")
    box.deliver("b@x.test", "OTHER")
    path = mailbox_file_path(str(tmp_path), "a@x.test")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "OTP-ONE\nOTP-TWO\n"
    assert read_latest_otp(path) == "OTP-TWO"
    assert read_latest_otp(mailbox_file_path(str(tmp_path), "b@x.test")) == "OTHER"


def test_file_mailbox_path_is_client_readable(tmp_path):
    # The client fetches straight from the per-address file in test mode.
    box = FileMailbox(str(tmp_path))
    box.deliver("user+tag@x.test", "THE-PASSWORD-16ch")
    path = mailbox_file_path(str(tmp_path), "user+tag@x.test")
    assert read_latest_otp(path) == "THE-PASSWORD-16ch"


def test_addresses_cannot_escape_the_mailbox_dir(tmp_path):
    root = tmp_path / "boxes"
    box = FileMailbox(str(root))
    box.deliver("../../etc/passwd", "harmless")
    files = list(root.iterdir())
    assert len(files) == 1
    # Separators are percent-encoded, so the name cannot traverse upward.
    assert "/" not in files[0].name
    assert files[0].resolve().parent == root.resolve()
    assert read_latest_otp(mailbox_file_path(str(root), "../../etc/passwd")) == "harmless"


def test_multi_line_bodies_rejected(tmp_path):
    box = FileMailbox(str(tmp_path))
    with pytest.raises(MailDeliveryFailure):
        box.deliver("a@x.test", "two\nlines")


def test_missing_mailbox_file(tmp_path):
    with pytest.raises(MailboxUnavailable):
        read_latest_otp(str(tmp_path / "absent.mbox"))


def _whole_file_read_latest_otp(mailbox_path: str) -> str:
    """The reader that read the whole mailbox: the reference."""
    try:
        with open(mailbox_path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise MailboxUnavailable(str(exc)) from exc
    if not lines:
        raise MailboxUnavailable(f"mailbox {mailbox_path} is empty")
    return lines[-1]


def _outcome(read, path):
    try:
        return "value", read(path)
    except MailboxUnavailable as exc:
        return "error", str(exc)


# Line text: OTP characters, ASCII and Unicode whitespace, and characters of
# two, three and four UTF-8 bytes.
_TEXT = st.text(
    alphabet=st.sampled_from("aZ7-_ \t\x0b\x0c\x1c\x85\xa0\u2028\u3000é中🔑"),
    max_size=12,
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    lines=st.lists(st.tuples(_TEXT, _LINE_ENDS), max_size=12),
    last=_TEXT,
    chunk=st.integers(min_value=1, max_value=24),
)
def test_reading_from_the_end_matches_reading_the_whole_file(lines, last, chunk):
    # ``last`` is a final line with no line end; "" leaves the file ending in
    # one, and no lines and "" leave it empty. Small chunks cut lines, line
    # ends and characters at every place.
    data = "".join(text + end for text, end in lines) + last
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "a.mbox")
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8"))
        with mock.patch.object(mailbox, "TAIL_CHUNK", chunk):
            assert _outcome(read_latest_otp, path) == _outcome(
                _whole_file_read_latest_otp, path
            )


class _CountingFile:
    """A file whose reads are counted in ``counts``."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def seek(self, *args):
        return self._fh.seek(*args)

    def read(self, size):
        data = self._fh.read(size)
        self._counts.append(len(data))
        return data


def test_a_login_reads_the_same_bytes_however_many_otps_the_mailbox_holds(
    tmp_path, monkeypatch
):
    counts = []

    def counting_open(*args, **kwargs):
        return _CountingFile(builtins.open(*args, **kwargs), counts)

    monkeypatch.setattr(mailbox, "open", counting_open, raising=False)
    read = {}
    for lines in (100, 1000, 5000):
        path = str(tmp_path / f"{lines}.mbox")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"OTP-{n:012d}\n" for n in range(lines))
        counts.clear()
        assert read_latest_otp(path) == f"OTP-{lines - 1:012d}"
        read[lines] = sum(counts)
    assert read[100] == read[1000] == read[5000] == mailbox.TAIL_CHUNK
