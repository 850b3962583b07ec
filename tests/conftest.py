import contextlib
import errno
import os

import pytest

from cloudvault import crypto_core, mailbox, netutil
from cloudvault import storage_server as storage_mod
from cloudvault import system_server as system_mod

# One shared keypair at the least size the RSA library generates keeps the
# suite fast; key generation itself is covered in test_crypto_core.
TEST_RSA_BITS = 1024


@pytest.fixture(scope="session")
def client_keypair():
    return crypto_core.rsa_generate(TEST_RSA_BITS)


class LocalStack:
    """In-process system service wired to in-process storage services through
    their ``handle_frame``, so storage traffic runs the plain codec."""

    def __init__(self, root: str, storage_count: int = 1, **system_overrides):
        self.root = str(root)
        self.mail = mailbox.InMemoryMailbox()
        self.storages = []
        for i in range(storage_count):
            config = storage_mod.StorageConfig(
                server_id=f"s{i + 1}",
                host="127.0.0.1",
                port=0,
                admin_port=0,
                data_dir=os.path.join(self.root, f"s{i + 1}"),
                seed=100,
            )
            self.storages.append(storage_mod.StorageService(config))
        system_kwargs = dict(
            host="127.0.0.1",
            port=0,
            admin_port=0,
            data_dir=os.path.join(self.root, "system"),
            storage=[
                {"server_id": s.config.server_id, "host": "127.0.0.1", "port": 1}
                for s in self.storages
            ],
            rsa_bits=TEST_RSA_BITS,
        )
        system_kwargs.update(system_overrides)
        self.config = system_mod.SystemConfig(**system_kwargs)
        self.service = self._build_service()

    def _build_service(self):
        return system_mod.SystemService(
            self.config,
            mail_channel=self.mail,
            storage_clients=[
                system_mod.StorageClient(s.config.server_id, s.handle_frame)
                for s in self.storages
            ],
        )

    def reload(self):
        """Simulate a restart: rebuild both sides from their data dirs."""
        self.storages = [
            storage_mod.StorageService(s.config) for s in self.storages
        ]
        self.service = self._build_service()
        return self.service

    def register_and_login(self, username: str, mail_address: str):
        self.service.register(username, mail_address)
        return self.service.login(username, self.mail.latest(mail_address))


@pytest.fixture
def local_stack(tmp_path):
    def build(storage_count: int = 1, **system_overrides) -> LocalStack:
        return LocalStack(tmp_path, storage_count=storage_count, **system_overrides)

    return build


class _HalfWriter:
    """A write handle whose next write lands half its bytes, then fails the
    way a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def torn_append(monkeypatch):
    """``torn_append(name)``: the next durable write to a file called
    ``name`` writes half its bytes and then raises ENOSPC."""
    armed = set()
    real = netutil._private_file

    @contextlib.contextmanager
    def private_file(path, flags, mode):
        with real(path, flags, mode) as fh:
            name = os.path.basename(path)
            if name in armed:
                armed.discard(name)
                fh = _HalfWriter(fh)
            yield fh

    monkeypatch.setattr(netutil, "_private_file", private_file)
    return armed.add
