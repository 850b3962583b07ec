"""Topology runner, leakage auditor, and timing benchmark.

``run_topology`` boots one system server and k storage servers as real
processes, plus a capture proxy in front of the system port so every byte a
client sends or receives is recorded. The auditor then replays the security
story as executable checks: a scripted workload uploads files laced with
sentinel strings, each server's persisted state is pulled over its local
admin tap, and the dumps, the captured traffic, and an exhaustive
try-every-16-byte-string-as-a-key attack must all come back empty-handed.

The benchmark reports median upload/download wall times per file size in the
person / file-size / time table shape. Absolute numbers are hardware-bound;
only the ordering across sizes is meaningful.
"""

import argparse
import contextlib
import itertools
import json
import os
import re
import secrets
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from . import crypto_core, mailbox as mailbox_mod, netutil, protocol
from .client_cli import ClientConfig, ClientSession
from .errors import CloudVaultError, StartupFailure
from .system_server import KEY_COLUMNS, KEYS_FILE, SERVER_KEY_FILE, KeyRecord

DEFAULT_BENCH_SIZES = (1024, 4096, 7168, 9216, 14336, 17408)  # 1..17 KB
SABOTAGE_MODES = ("keys_on_storage", "plaintext_channel")

_HEX_RUN = re.compile(rb"[0-9a-f]{32,}")


@dataclass
class TopologyConfig:
    workdir: str
    storage_count: int = 2
    seed: int = 100
    # The key the system server makes on its first start. 1024, the library's
    # least, keeps scripted runs quick; raise it for anything long-lived.
    rsa_bits: int = 1024
    sabotage: str = None

    def __post_init__(self):
        if self.sabotage is not None and self.sabotage not in SABOTAGE_MODES:
            raise ValueError(f"unknown sabotage mode {self.sabotage!r}")

    @classmethod
    def from_file(cls, path: str) -> "TopologyConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))


def _free_ports(count: int) -> list:
    """``count`` distinct free loopback ports. Every socket stays bound until
    all are picked; binding and closing one at a time can hand out the same
    port twice."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _frame_ping(host: str, port: int) -> bool:
    """True iff whatever owns the port answers the protocol with a frame.
    Both servers answer any frame, so an empty one of tag 0 will do."""
    try:
        with socket.create_connection((host, port), timeout=1.0) as sock:
            sock.settimeout(1.0)
            protocol.write_frame(sock, protocol.Frame(tag=0, payload=b""))
            return protocol.read_frame(sock) is not None
    except (OSError, CloudVaultError):
        return False


def _wait_healthy(host: str, port: int, proc, name: str, timeout: float = 15.0):
    """Wait until ``proc`` answers a ping on its frame port; its admin tap is
    bound before that port, so it is up too."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise StartupFailure(f"{name} exited with status {proc.returncode}")
        if _frame_ping(host, port):
            return
        time.sleep(0.05)
    raise StartupFailure(f"{name} on {host}:{port} never answered a health ping")


class CaptureProxy:
    """Forwards client connections to the system server, recording each
    direction of each connection as its own append-only file in
    ``capture_dir``, so every stream is contiguous by construction."""

    def __init__(self, port: int, target: tuple, capture_dir: str):
        self.port = port
        self.target = target
        self.capture_dir = capture_dir
        os.makedirs(capture_dir, exist_ok=True)
        self._connections = itertools.count()
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen(32)
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while self._running:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(client,), daemon=True
            ).start()

    def _serve_connection(self, client: socket.socket):
        try:
            upstream = socket.create_connection(self.target, timeout=30.0)
        except OSError:
            client.close()
            return
        number = next(self._connections)
        threads = [
            threading.Thread(
                target=self._pump, args=(src, dst, f"{number}-{way}"), daemon=True
            )
            for src, dst, way in ((client, upstream, "up"), (upstream, client, "down"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client.close()
        upstream.close()

    def _pump(self, src: socket.socket, dst: socket.socket, stream: str):
        """Forward bytes until EOF, recording each chunk before it is sent on,
        so a reply is on file by the time its reader has it."""
        path = os.path.join(self.capture_dir, stream)
        with open(path, "ab", buffering=0) as record:
            while True:
                try:
                    chunk = src.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    with contextlib.suppress(OSError):
                        dst.shutdown(socket.SHUT_WR)
                    return
                record.write(chunk)
                try:
                    dst.sendall(chunk)
                except OSError:
                    return

    def stop(self):
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass


@dataclass
class Topology:
    config: TopologyConfig
    workdir: str
    system_host: str
    system_port: int  # the proxy port clients must use
    system_admin_port: int
    system_public_key: tuple
    storage_admin_ports: list
    storage_ids: list
    mailbox_dir: str
    capture_dir: str
    procs: list = field(default_factory=list)
    proxy: CaptureProxy = None
    sessions: list = field(default_factory=list)  # closed by stop()

    def system_dump(self) -> dict[str, bytes]:
        return netutil.fetch_admin_dump("127.0.0.1", self.system_admin_port)

    def storage_dumps(self) -> dict[str, dict[str, bytes]]:
        return {
            server_id: netutil.fetch_admin_dump("127.0.0.1", port)
            for server_id, port in zip(self.storage_ids, self.storage_admin_ports)
        }

    def captured_bytes(self) -> bytes:
        """Every recorded stream, joined one after another."""
        try:
            names = sorted(os.listdir(self.capture_dir))
        except FileNotFoundError:
            return b""
        return b"".join(netutil.read_files(self.capture_dir, names).values())

    def client_dir(self) -> str:
        path = os.path.join(self.workdir, "clients")
        os.makedirs(path, exist_ok=True)
        return path

    def make_client(self, username: str, mail_address: str) -> ClientSession:
        """Config for one user, wired through the capture proxy; the client
        needs no key of its own. ``stop()`` closes the session."""
        base = os.path.join(self.client_dir(), username)
        config = ClientConfig(
            system_host=self.system_host,
            system_port=self.system_port,
            system_public_key={
                "n": str(self.system_public_key[0]),
                "e": str(self.system_public_key[1]),
            },
            keypair_path=base,  # names no key: the token cache is base + ".session"
            mailbox_path=mailbox_mod.mailbox_file_path(self.mailbox_dir, mail_address),
            sabotage_plaintext_channel=self.config.sabotage == "plaintext_channel",
        )
        session = ClientSession(config)
        self.sessions.append(session)
        return session

    def stop(self):
        for session in self.sessions:
            session.close()
        if self.proxy is not None:
            self.proxy.stop()
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def _assign_ports(storage_count: int) -> dict:
    ports = _free_ports(3 + 2 * storage_count)
    return {
        "system": ports[0],
        "system_admin": ports[1],
        "proxy": ports[2],
        "storage": ports[3 : 3 + storage_count],
        "storage_admin": ports[3 + storage_count :],
    }


def _spawn(module: str, config_path: str, log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "ab") as log:  # the child keeps its own descriptor
        return subprocess.Popen(
            [sys.executable, "-m", module, "--config", config_path],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )


def run_topology(config: TopologyConfig) -> Topology:
    """Boot everything, health-check every process, return live handles."""
    ports = _assign_ports(config.storage_count)
    workdir = os.path.abspath(config.workdir)
    os.makedirs(workdir, exist_ok=True)
    # Each server makes its own data directory, and the system server the
    # mailbox directory and, on its first start, its key pair.
    mailbox_dir = os.path.join(workdir, "mailbox")
    capture_dir = os.path.join(workdir, "capture")
    system_dir = os.path.join(workdir, "system")

    storage_ids = [f"storage-{i + 1}" for i in range(config.storage_count)]
    storage_targets = []
    storage_configs = []
    for i, server_id in enumerate(storage_ids):
        storage_configs.append(
            {
                "server_id": server_id,
                "host": "127.0.0.1",
                "port": ports["storage"][i],
                "admin_port": ports["storage_admin"][i],
                "data_dir": os.path.join(workdir, server_id),
                "seed": config.seed,
            }
        )
        storage_targets.append(
            {"server_id": server_id, "host": "127.0.0.1", "port": ports["storage"][i]}
        )

    system_config = {
        "host": "127.0.0.1",
        "port": ports["system"],
        "admin_port": ports["system_admin"],
        "data_dir": system_dir,
        "storage": storage_targets,
        "mailbox_dir": mailbox_dir,
        "rsa_bits": config.rsa_bits,
        "sabotage_keys_on_storage": config.sabotage == "keys_on_storage",
        "sabotage_accept_plain": config.sabotage == "plaintext_channel",
    }

    topo = Topology(
        config=config,
        workdir=workdir,
        system_host="127.0.0.1",
        system_port=ports["proxy"],
        system_admin_port=ports["system_admin"],
        system_public_key=None,  # read back once the system server made it
        storage_admin_ports=list(ports["storage_admin"]),
        storage_ids=storage_ids,
        mailbox_dir=mailbox_dir,
        capture_dir=capture_dir,
    )
    try:
        for i, storage_config in enumerate(storage_configs):
            path = os.path.join(workdir, f"{storage_ids[i]}.json")
            netutil.write_atomic(path, json.dumps(storage_config, indent=2).encode())
            topo.procs.append(
                _spawn(
                    "cloudvault.storage_server",
                    path,
                    os.path.join(workdir, f"{storage_ids[i]}.log"),
                )
            )
        for i, server_id in enumerate(storage_ids):
            _wait_healthy("127.0.0.1", ports["storage"][i], topo.procs[i], server_id)

        system_path = os.path.join(workdir, "system.json")
        netutil.write_atomic(system_path, json.dumps(system_config, indent=2).encode())
        topo.procs.append(
            _spawn(
                "cloudvault.system_server",
                system_path,
                os.path.join(workdir, "system.log"),
            )
        )
        _wait_healthy("127.0.0.1", ports["system"], topo.procs[-1], "system")
        key_path = os.path.join(system_dir, SERVER_KEY_FILE)
        n, e = topo.system_public_key = netutil.read_keypair(key_path).public

        topo.proxy = CaptureProxy(
            ports["proxy"], ("127.0.0.1", ports["system"]), capture_dir
        )

        # Starter config for hand-driven clients; fill in the paths.
        template = {
            "system_host": "127.0.0.1",
            "system_port": ports["proxy"],
            "system_public_key": {"n": str(n), "e": str(e)},
            "keypair_path": "<path; the session token is cached at it + .session>",
            "mailbox_path": f"<{mailbox_dir}/<quoted mail address>.mbox>",
        }
        netutil.write_atomic(
            os.path.join(workdir, "client-template.json"),
            json.dumps(template, indent=2).encode(),
        )
    except Exception:
        topo.stop()
        raise
    return topo


# ---------------------------------------------------------------------------
# Scripted workload

@dataclass
class WorkloadFacts:
    usernames: list
    sentinels: list
    labels: list


def _sentinel_file(sentinel: str, size: int) -> bytes:
    filler = (sentinel + " lorem ipsum secret payload ").encode("utf-8")
    data = (filler * (size // len(filler) + 1))[:size]
    return data


def run_sentinel_workload(
    topology: Topology,
    users: int = 3,
    files_per_user: int = 2,
    file_size: int = 1500,
    download: bool = True,
    run_tag: str = None,
) -> WorkloadFacts:
    """Register users, log them in, and upload sentinel-laden files.

    Sentinel strings are unique markers the auditor later greps for; any
    appearance outside the clients' own plaintext is a leak. Pass a fixed
    ``run_tag`` to make the script byte-reproducible.
    """
    if run_tag is None:
        run_tag = secrets.token_hex(8)
    facts = WorkloadFacts(usernames=[], sentinels=[], labels=[])
    for i in range(users):
        username = f"aud-user-{i:02d}"
        mail = f"box{i:02d}@example.test"
        with topology.make_client(username, mail) as session:
            session.register(username, mail)
            session.login(username)
            facts.usernames.append(username)
            for j in range(files_per_user):
                sentinel = f"SENTINEL-{i:02d}-{j:02d}-{run_tag}"
                label = f"doc-{i:02d}-{j:02d}"
                data = _sentinel_file(sentinel, file_size)
                session.upload(label, data)
                if download:
                    assert session.download(label) == data
                facts.sentinels.append(sentinel)
                facts.labels.append(label)
    return facts


# ---------------------------------------------------------------------------
# Leakage audit

@dataclass
class AuditCheck:
    name: str
    claim: str
    passed: bool
    evidence: list


@dataclass
class AuditReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(f"[{verdict}] {check.name}: {check.claim}")
            for item in check.evidence:
                lines.append(f"    evidence: {item}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": check.name,
                    "claim": check.claim,
                    "passed": check.passed,
                    "evidence": check.evidence,
                }
                for check in self.checks
            ],
        }


def _find_all(haystack: bytes, needle: bytes) -> list[int]:
    hits = []
    start = 0
    while True:
        idx = haystack.find(needle, start)
        if idx < 0:
            return hits
        hits.append(idx)
        start = idx + 1


def _scan_dump(dump: dict[str, bytes], needles: dict[str, bytes], where: str) -> list[str]:
    evidence = []
    for file_name, data in sorted(dump.items()):
        for needle_name, needle in needles.items():
            for offset in _find_all(data, needle):
                evidence.append(
                    f"{where}/{file_name} offset {offset}: {needle_name} "
                    f"({needle[:32]!r}...)"
                )
    return evidence


def _both_encodings(text: str) -> dict[str, bytes]:
    raw = text.encode("utf-8")
    return {f"{text} (raw)": raw, f"{text} (hex)": raw.hex().encode("ascii")}


def _parse_key_table(system_dump: dict[str, bytes]) -> list[bytes]:
    rows = netutil.decode_rows(
        system_dump.get(KEYS_FILE, b"").splitlines(), KEY_COLUMNS, KEYS_FILE
    )
    return [KeyRecord(*row).key for row in rows]


def _candidate_keys(dump: dict[str, bytes]) -> set:
    """Every 16-byte window in the dump, plus windows of decoded hex runs —
    the full key-guess surface a storage compromise exposes."""
    block = crypto_core.KEY_BYTES
    candidates = set()
    for data in dump.values():
        for i in range(len(data) - block + 1):
            candidates.add(data[i : i + block])
        for match in _HEX_RUN.finditer(data.lower()):
            run = match.group()
            decoded = bytes.fromhex(
                run[: len(run) - (len(run) % 2)].decode("ascii")
            )
            for i in range(len(decoded) - block + 1):
                candidates.add(decoded[i : i + block])
    return candidates


def leakage_audit(topology: Topology, facts: WorkloadFacts) -> AuditReport:
    """Run the five separation checks against live dumps and captured traffic."""
    system_dump = topology.system_dump()
    storage_dumps = topology.storage_dumps()
    capture = topology.captured_bytes()
    keys = _parse_key_table(system_dump)

    sentinel_needles = {}
    for sentinel in facts.sentinels:
        sentinel_needles.update(_both_encodings(sentinel))
    username_needles = {}
    for username in facts.usernames:
        username_needles.update(_both_encodings(username))
    key_needles = {}
    for key in keys:
        key_needles[f"key {key.hex()[:8]}... (raw)"] = key
        key_needles[f"key {key.hex()[:8]}... (hex)"] = key.hex().encode("ascii")

    checks = []

    evidence = []
    for server_id, dump in sorted(storage_dumps.items()):
        evidence += _scan_dump(dump, key_needles, server_id)
        evidence += _scan_dump(dump, sentinel_needles, server_id)
    checks.append(
        AuditCheck(
            name="storage-holds-no-secrets",
            claim="storage dumps contain no AES key bytes and no plaintext sentinels",
            passed=not evidence,
            evidence=evidence,
        )
    )

    evidence = _scan_dump(system_dump, sentinel_needles, "system")
    checks.append(
        AuditCheck(
            name="system-holds-no-file-bytes",
            claim="system dump contains no uploaded file content",
            passed=not evidence,
            evidence=evidence,
        )
    )

    evidence = _scan_dump(system_dump, username_needles, "system")
    for server_id, dump in sorted(storage_dumps.items()):
        evidence += _scan_dump(dump, username_needles, server_id)
    checks.append(
        AuditCheck(
            name="no-plaintext-usernames",
            claim="neither dump contains a registered username outside digest form",
            passed=not evidence,
            evidence=evidence,
        )
    )

    evidence = []
    for needle_name, needle in sentinel_needles.items():
        for offset in _find_all(capture, needle):
            evidence.append(f"capture offset {offset}: {needle_name}")
    checks.append(
        AuditCheck(
            name="wire-traffic-sealed",
            claim="captured client/system traffic reveals no sentinel",
            passed=not evidence,
            evidence=evidence,
        )
    )

    evidence = []
    raw_sentinels = [s.encode("utf-8") for s in facts.sentinels]
    for server_id, dump in sorted(storage_dumps.items()):
        candidates = _candidate_keys(dump)
        blobs = {
            name: data for name, data in dump.items() if name.startswith("blobs/")
        }
        for blob_name, blob in sorted(blobs.items()):
            try:
                sealed = crypto_core.Ciphertext.from_bytes(blob)
            except CloudVaultError:
                continue
            for candidate in candidates:
                plain = crypto_core._decrypt_ignoring_tag(
                    sealed, candidate, crypto_core.BLOB_INFO
                )
                if any(sentinel in plain for sentinel in raw_sentinels):
                    evidence.append(
                        f"{server_id}/{blob_name} decrypts under 16-byte string "
                        f"{candidate.hex()} found in the same dump"
                    )
                    break
    checks.append(
        AuditCheck(
            name="storage-compromise-cannot-decrypt",
            claim="no 16-byte string in a storage dump decrypts any blob there",
            passed=not evidence,
            evidence=evidence,
        )
    )

    return AuditReport(checks=checks)


# ---------------------------------------------------------------------------
# Timing benchmark

@dataclass
class BenchReport:
    sizes: list
    trials: int
    upload_medians: list  # seconds, aligned with sizes
    download_medians: list

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "rows": [
                {
                    "size_bytes": size,
                    "upload_median_s": up,
                    "download_median_s": down,
                }
                for size, up, down in zip(
                    self.sizes, self.upload_medians, self.download_medians
                )
            ],
        }

    def _table(self, title: str, medians: list) -> str:
        header = f"{'Person No':>9}  {'File Size':>9}  Time Required ({title}, median)"
        rows = [header, "-" * len(header)]
        for i, (size, median) in enumerate(zip(self.sizes, medians), start=1):
            size_kb = size / 1024
            rows.append(f"{i:>9}  {size_kb:>6.0f} KB  {median * 1000:.2f} ms")
        return "\n".join(rows)

    def to_text(self) -> str:
        return (
            self._table("Uploading File", self.upload_medians)
            + "\n\n"
            + self._table("Downloading File", self.download_medians)
        )


def timing_benchmark(
    topology: Topology, sizes=DEFAULT_BENCH_SIZES, trials: int = 20
) -> BenchReport:
    """Median wall time per size over interleaved trial rounds.

    Rounds alternate ascending and descending size order, so each size is
    timed at both ends of a round and, since uploads go to the storage
    servers round-robin, on every storage server; otherwise a slow place in
    the round or a slow server would read as a size effect. Adjacent sizes
    stay adjacent in time.

    Each invocation uses a fresh user and label prefix, so repeated
    measurements against one topology don't collide.
    """
    run_tag = secrets.token_hex(4)
    username = f"bench-{run_tag}"
    mail = f"{username}@example.test"
    uploads = {size: [] for size in sizes}
    downloads = {size: [] for size in sizes}
    payloads = {size: os.urandom(size) for size in sizes}
    warmup = f"b{run_tag}-warmup"
    with topology.make_client(username, mail) as session:
        session.register(username, mail)
        session.login(username)
        session.upload(warmup, payloads[sizes[0]])  # untimed connection warmup
        session.download(warmup)
        for trial in range(trials):
            for size in sizes if trial % 2 == 0 else sizes[::-1]:
                label = f"b{run_tag}-{size}-{trial}"
                started = time.perf_counter()
                session.upload(label, payloads[size])
                uploads[size].append(time.perf_counter() - started)
                started = time.perf_counter()
                data = session.download(label)
                downloads[size].append(time.perf_counter() - started)
                assert data == payloads[size]
    return BenchReport(
        sizes=list(sizes),
        trials=trials,
        upload_medians=[statistics.median(uploads[size]) for size in sizes],
        download_medians=[statistics.median(downloads[size]) for size in sizes],
    )


# ---------------------------------------------------------------------------
# CLI

def _cmd_run(args) -> int:
    config = TopologyConfig.from_file(args.config)
    topology = run_topology(config)
    print(f"workdir:       {topology.workdir}", flush=True)
    print(f"system server: {topology.system_host}:{topology.system_port} (via proxy)")
    print(f"admin tap:     127.0.0.1:{topology.system_admin_port}")
    for server_id, port in zip(topology.storage_ids, topology.storage_admin_ports):
        print(f"{server_id} admin: 127.0.0.1:{port}")
    template_path = os.path.join(topology.workdir, "client-template.json")
    print(f"client config template: {template_path}")
    print("Ctrl-C to stop", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        topology.stop()
    return 0


def _clear_workdir(path: str):
    """Delete ``path`` if it is empty or an earlier run's (it holds a
    ``system.json``); any other directory raises StartupFailure, untouched."""
    if not os.path.isdir(path):
        return
    if os.listdir(path) and not os.path.isfile(os.path.join(path, "system.json")):
        raise StartupFailure(f"workdir {path} holds no earlier run; not deleting it")
    shutil.rmtree(path)


def _cmd_audit(args) -> int:
    config = TopologyConfig.from_file(args.config)
    if args.mutation:
        config.sabotage = args.mutation
    _clear_workdir(config.workdir)
    with run_topology(config) as topology:
        facts = run_sentinel_workload(topology, download=config.sabotage is None)
        report = leakage_audit(topology, facts)
    print(report.to_text())
    out = args.out or os.path.join(config.workdir, "audit_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    print(f"summary written to {out}")
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    config = TopologyConfig.from_file(args.config)
    _clear_workdir(config.workdir)
    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else DEFAULT_BENCH_SIZES
    )
    with run_topology(config) as topology:
        report = timing_benchmark(topology, sizes=sizes, trials=args.trials)
    print(report.to_text())
    out = args.out or os.path.join(config.workdir, "bench_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    print(f"summary written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cloudvault-harness", description="topology runner and auditor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="start a topology and wait")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("audit", help="run the sentinel workload and leakage audit")
    p.add_argument("--config", required=True)
    p.add_argument("--mutation", choices=SABOTAGE_MODES)
    p.add_argument("--out", help="JSON summary path")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="median upload/download times per size")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", help="comma-separated byte counts")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", help="JSON summary path")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
