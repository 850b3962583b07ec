import os

import pytest

from cloudvault import crypto_core, mailbox
from cloudvault import storage_server as storage_mod
from cloudvault import system_server as system_mod

# One shared toy-but-envelope-capable keypair keeps the suite fast; key
# generation itself is covered in test_crypto_core.
TEST_RSA_BITS = 512


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
                seed=system_overrides.get("seed", 100),
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
            seed=100,
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

    def register_and_login(self, username: str, mail_address: str, keypair):
        self.service.register(username, mail_address, keypair.public)
        return self.service.login(username, self.mail.latest(mail_address))


@pytest.fixture
def local_stack(tmp_path):
    def build(storage_count: int = 1, **system_overrides) -> LocalStack:
        return LocalStack(tmp_path, storage_count=storage_count, **system_overrides)

    return build
