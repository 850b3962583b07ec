import json
import os
import stat
import subprocess
import sys

import pytest

from cloudvault import client_cli, crypto_core, harness, mailbox, netutil, protocol
from cloudvault.errors import DecryptionFailure, FileTooLarge

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(client_cli.__file__)))

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def topology(tmp_path_factory):
    config = harness.TopologyConfig(
        workdir=str(tmp_path_factory.mktemp("cli-topo")),
        storage_count=2,
        rsa_bits=1024,
    )
    topo = harness.run_topology(config)
    yield topo
    topo.stop()


@pytest.fixture
def client_env(topology, tmp_path):
    """A config file for a fresh user. Its ``keypair_path`` names no file."""

    def build(username: str):
        mail = f"{username}@cli.test"
        config = {
            "system_host": topology.system_host,
            "system_port": topology.system_port,
            "system_public_key": {
                "n": str(topology.system_public_key[0]),
                "e": str(topology.system_public_key[1]),
            },
            "keypair_path": str(tmp_path / f"{username}.key"),
            "mailbox_path": mailbox.mailbox_file_path(topology.mailbox_dir, mail),
            "token_path": str(tmp_path / f"{username}.session"),
        }
        path = tmp_path / f"{username}.json"
        path.write_text(json.dumps(config))
        return str(path), mail

    return build


def run_cli(config_path, *argv):
    return client_cli.main(["--config", config_path, *argv])


def test_end_to_end_round_trip(client_env, tmp_path, capsys):
    config_path, mail = client_env("rt")
    source = tmp_path / "source.bin"
    source.write_bytes(os.urandom(20_000))
    target = tmp_path / "target.bin"

    assert run_cli(config_path, "register", "rt", mail) == 0
    assert run_cli(config_path, "login", "rt") == 0  # OTP from the test mailbox
    assert run_cli(config_path, "upload", "notes.bin", str(source)) == 0
    assert run_cli(config_path, "download", "notes.bin", str(target)) == 0
    assert target.read_bytes() == source.read_bytes()
    capsys.readouterr()
    assert run_cli(config_path, "list") == 0
    assert capsys.readouterr().out.splitlines() == ["notes.bin"]


def test_no_verb_needs_a_client_key_file(client_env, tmp_path, capsys):
    config_path, mail = client_env("nokey")
    source = tmp_path / "nokey.bin"
    source.write_bytes(b"no key file needed")
    target = tmp_path / "nokey.out"

    assert run_cli(config_path, "register", "nokey", mail) == 0
    assert run_cli(config_path, "login", "nokey") == 0
    assert run_cli(config_path, "upload", "nokey.bin", str(source)) == 0
    assert run_cli(config_path, "download", "nokey.bin", str(target)) == 0
    assert target.read_bytes() == source.read_bytes()
    capsys.readouterr()
    assert run_cli(config_path, "list") == 0
    assert capsys.readouterr().out.splitlines() == ["nokey.bin"]
    assert run_cli(config_path, "logout") == 0
    config = client_cli.ClientConfig.from_file(config_path)
    assert not os.path.exists(config.keypair_path)


FORGED_FILE = protocol.FilePayload(label="doc", file_bytes=b"forged bytes")


@pytest.mark.parametrize(
    "forge",
    [
        lambda pub: protocol.send_plain(FORGED_FILE),
        lambda pub: protocol.send_plain(
            protocol.ErrorFrame(code="NO_SUCH_LABEL", text="forged refusal")
        ),
        lambda pub: protocol.send_sealed(FORGED_FILE, pub, protocol.ConnectionState()),
        lambda pub: protocol.send_reply(
            FORGED_FILE,
            protocol.ConnectionState(key=crypto_core.generate_symmetric_key()),
        ),
    ],
    ids=[
        "plain",
        "plain error frame",
        "sealed in a request envelope",
        "reply under another session key",
    ],
)
def test_download_refuses_a_forged_reply(tmp_path, client_keypair, forge):
    # The forger knows the system public key (client_keypair stands in for
    # it) but not the session key inside the request, which only the system
    # private key opens. A forged plain refusal cannot choose the error the
    # client reports either.
    token_path = tmp_path / "client.session"
    token_path.write_text("ab" * 16)
    public = {"n": str(client_keypair.n), "e": str(client_keypair.e)}
    server = netutil.start_frame_server(
        "127.0.0.1", 0, lambda frame, conn: forge(client_keypair.public)
    )
    try:
        config = client_cli.ClientConfig(
            "127.0.0.1", server.server_address[1], public, str(tmp_path / "client"),
            token_path=str(token_path),
        )
        with client_cli.ClientSession(config) as session:
            with pytest.raises(DecryptionFailure, match=protocol.UNOPENABLE_TEXT):
                session.download("doc")
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "content, code",
    [
        (None, "IO_FAILURE"),  # no such file
        ("{", "IO_FAILURE"),
        ('["a list"]', "IO_FAILURE"),
        (
            json.dumps(
                {
                    "system_host": "127.0.0.1",
                    "system_port": 1,
                    "system_public_key": {"n": "3233"},
                    "keypair_path": "unused.key",
                }
            ),
            "MALFORMED_PAYLOAD",
        ),
    ],
    ids=["missing", "not json", "not an object", "key without e"],
)
def test_a_bad_config_is_one_coded_line(tmp_path, capsys, content, code):
    path = tmp_path / "client.json"
    if content is not None:
        path.write_text(content)
    assert run_cli(str(path), "list") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"{code}: ")


def test_otp_single_use_at_the_cli(client_env, capsys):
    config_path, mail = client_env("replay")
    run_cli(config_path, "register", "replay", mail)
    config = client_cli.ClientConfig.from_file(config_path)
    first_otp = mailbox.read_latest_otp(config.mailbox_path)
    assert run_cli(config_path, "login", "replay", "--otp", first_otp) == 0
    capsys.readouterr()
    assert run_cli(config_path, "login", "replay", "--otp", first_otp) == 1
    err = capsys.readouterr().err
    assert err.startswith("AUTH_FAILED")


def test_default_output_reveals_no_secrets(client_env, tmp_path, capsys):
    config_path, mail = client_env("quiet")
    source = tmp_path / "quiet.bin"
    source.write_bytes(b"hush hush payload")

    run_cli(config_path, "register", "quiet", mail)
    run_cli(config_path, "login", "quiet")
    run_cli(config_path, "upload", "quiet.bin", str(source))
    run_cli(config_path, "download", "quiet.bin", str(tmp_path / "out.bin"))
    run_cli(config_path, "list")
    captured = capsys.readouterr()
    output = captured.out + captured.err

    config = client_cli.ClientConfig.from_file(config_path)
    with open(config.token_path) as fh:
        token = fh.read().strip()
    with open(config.mailbox_path) as fh:
        otps = [line.strip() for line in fh if line.strip()]
    assert token not in output
    for otp in otps:
        assert otp not in output


def test_logout_clears_the_session(client_env, tmp_path, capsys):
    config_path, mail = client_env("lo")
    run_cli(config_path, "register", "lo", mail)
    run_cli(config_path, "login", "lo")
    assert run_cli(config_path, "logout") == 0
    source = tmp_path / "f.bin"
    source.write_bytes(b"x")
    capsys.readouterr()
    assert run_cli(config_path, "upload", "f.bin", str(source)) == 1
    assert "INVALID_SESSION" in capsys.readouterr().err


def test_stale_token_rejected_server_side(client_env, tmp_path, capsys):
    config_path, mail = client_env("stale")
    run_cli(config_path, "register", "stale", mail)
    run_cli(config_path, "login", "stale")
    config = client_cli.ClientConfig.from_file(config_path)
    with open(config.token_path, "w") as fh:
        fh.write("00" * 16)  # fabricated token
    source = tmp_path / "f.bin"
    source.write_bytes(b"x")
    capsys.readouterr()
    assert run_cli(config_path, "upload", "f.bin", str(source)) == 1
    assert "INVALID_SESSION" in capsys.readouterr().err


def test_config_from_environment(client_env, monkeypatch, capsys):
    config_path, mail = client_env("envvar")
    monkeypatch.setenv(client_cli.CONFIG_ENV_VAR, config_path)
    assert client_cli.main(["register", "envvar", mail]) == 0


def test_login_makes_a_stale_token_cache_private(client_env):
    config_path, mail = client_env("stalemode")
    config = client_cli.ClientConfig.from_file(config_path)
    with open(config.token_path, "w") as fh:
        fh.write("old token, longer than the new one " * 4)
    os.chmod(config.token_path, 0o644)
    assert run_cli(config_path, "register", "stalemode", mail) == 0
    assert run_cli(config_path, "login", "stalemode") == 0
    assert stat.S_IMODE(os.stat(config.token_path).st_mode) == 0o600
    with open(config.token_path, encoding="ascii") as fh:
        token = fh.read()
    assert len(token) == 32 and set(token) <= set("0123456789abcdef")


def test_missing_local_file_is_io_failure(client_env, tmp_path, capsys):
    config_path, mail = client_env("nofile")
    run_cli(config_path, "register", "nofile", mail)
    run_cli(config_path, "login", "nofile")
    capsys.readouterr()
    assert run_cli(config_path, "upload", "x", str(tmp_path / "absent.bin")) == 1
    assert "IO_FAILURE" in capsys.readouterr().err


def test_a_token_cache_it_cannot_use_is_io_failure(client_env, tmp_path, capsys):
    config_path, mail = client_env("nocache")
    with open(config_path) as fh:
        config = json.load(fh)
    assert run_cli(config_path, "register", "nocache", mail) == 0
    damaged = tmp_path / "damaged.session"
    damaged.write_bytes(b"\xff" * 32)
    # A cache whose directory is missing, one that is a directory, and one
    # that is not text.
    for argv, token_path in (
        (["login", "nocache"], tmp_path / "absent" / "s"),
        (["list"], tmp_path),
        (["logout"], tmp_path),
        (["list"], damaged),
    ):
        config["token_path"] = str(token_path)
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        capsys.readouterr()
        assert run_cli(config_path, *argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("IO_FAILURE: ")


def test_unreachable_server_is_connection_failure(client_env, tmp_path, capsys):
    config_path, _ = client_env("conn")
    with open(config_path) as fh:
        config = json.load(fh)
    config["system_port"] = 1  # nothing listens there
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(config))
    capsys.readouterr()
    assert run_cli(str(broken), "register", "conn", "c@cli.test") == 1
    assert "CONNECTION_FAILURE" in capsys.readouterr().err


def test_wire_bytes_are_always_enveloped(client_env, topology, tmp_path):
    config_path, mail = client_env("wireleak")
    marker = b"CLI-WIRE-MARKER-7f3a"
    source = tmp_path / "marked.bin"
    source.write_bytes(marker * 10)

    run_cli(config_path, "register", "wireleak", mail)
    run_cli(config_path, "login", "wireleak")
    run_cli(config_path, "upload", "marked.bin", str(source))
    wire = topology.captured_bytes()
    assert marker not in wire
    assert marker.hex().encode() not in wire
    assert b"wireleak" not in wire  # username also rides inside envelopes


def test_cli_verbs_close_their_socket(client_env, tmp_path):
    config_path, mail = client_env("closes")
    source = tmp_path / "closes.bin"
    source.write_bytes(b"closing time")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    for argv in (
        ["register", "closes", mail],
        ["login", "closes"],
        ["upload", "closes.bin", str(source)],
        ["download", "closes.bin", str(tmp_path / "closes.out")],
        ["list"],
        ["logout"],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "cloudvault.client_cli", "--config", config_path, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, (argv, proc.stderr)


def _logged_in_session(topology, username: str):
    session = topology.make_client(username, f"{username}@cli.test")
    session.register(username, f"{username}@cli.test")
    session.login(username)
    return session


def test_over_cap_upload_fails_before_the_socket(topology, monkeypatch):
    with _logged_in_session(topology, "overcap") as session:
        assert session.list_labels() == []
        sock = session._conn._sock
        sealed = []
        send_sealed = protocol.send_sealed
        monkeypatch.setattr(
            protocol, "send_sealed", lambda *args: sealed.append(1) or send_sealed(*args)
        )
        with pytest.raises(FileTooLarge):
            session.upload("big", bytes(protocol.MAX_FILE_BYTES + 1))
        assert sealed == []
        assert session._conn._sock is sock
        assert session.list_labels() == []


def test_a_file_at_the_cap_round_trips(topology):
    data = os.urandom(protocol.MAX_FILE_BYTES)
    with _logged_in_session(topology, "atcap") as session:
        session.upload("cap.bin", data)
        assert session.download("cap.bin") == data
