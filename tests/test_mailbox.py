import pytest

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
