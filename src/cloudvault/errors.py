"""Exception hierarchy shared by every cloudvault component.

Each error class carries a stable machine-readable ``code`` (UPPER_SNAKE of
the class name). The same codes travel inside ErrorFrame messages and are
printed by the CLI, so they must never be renamed once released.
"""

import re


def _code_for(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


class CloudVaultError(Exception):
    """Base class; ``code`` is the stable wire/CLI identifier."""

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)

    @property
    def code(self) -> str:
        return _code_for(type(self).__name__)


# crypto_core
class RandomSourceUnavailable(CloudVaultError):
    pass


class PrimeGenerationFailure(CloudVaultError):
    pass


class MessageOutOfRange(CloudVaultError):
    pass


class DecryptionFailure(CloudVaultError):
    pass


class InvalidKey(CloudVaultError):
    pass


# placement
class InvalidSeed(CloudVaultError):
    pass


class TableFull(CloudVaultError):
    pass


class DuplicateFileNumber(CloudVaultError):
    pass


class NotFound(CloudVaultError):
    pass


# protocol
class UnknownTag(CloudVaultError):
    pass


class TruncatedFrame(CloudVaultError):
    pass


class MalformedPayload(CloudVaultError):
    pass


# system server
class DuplicateUser(CloudVaultError):
    pass


class MailDeliveryFailure(CloudVaultError):
    pass


class AuthFailed(CloudVaultError):
    pass


class InvalidSession(CloudVaultError):
    pass


class DuplicateLabel(CloudVaultError):
    pass


class StorageUnavailable(CloudVaultError):
    pass


class FileTooLarge(CloudVaultError):
    pass


class NoSuchLabel(CloudVaultError):
    pass


class IntegrityFailure(CloudVaultError):
    pass


class PersistenceFailure(CloudVaultError):
    pass


# storage server
class DiskFailure(CloudVaultError):
    pass


# client
class IoFailure(CloudVaultError):
    pass


class ConnectionFailure(CloudVaultError):
    pass


class MailboxUnavailable(CloudVaultError):
    pass


# harness
class StartupFailure(CloudVaultError):
    pass


_BY_CODE = {
    _code_for(cls.__name__): cls
    for cls in list(globals().values())
    if isinstance(cls, type)
    and issubclass(cls, CloudVaultError)
    and cls is not CloudVaultError
}


def error_for_code(code: str, text: str = "") -> CloudVaultError:
    """Rebuild the exception a peer reported in an ErrorFrame."""
    cls = _BY_CODE.get(code)
    if cls is None:
        return CloudVaultError(f"{code}: {text}")
    return cls(text)
