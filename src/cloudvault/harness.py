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
from dataclasses import asdict, dataclass, field

from . import crypto_core, mailbox as mailbox_mod, netutil, protocol
from .client_cli import ClientConfig, ClientSession
from .errors import CloudVaultError, ConnectionFailure, IoFailure, StartupFailure
from .storage_server import stored_blobs
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
        try:
            with open(path, encoding="utf-8") as fh:
                return cls(**json.load(fh))
        # ValueError: not JSON, or an unknown sabotage mode; TypeError: not
        # an object of known settings
        except (OSError, ValueError, TypeError) as exc:
            raise IoFailure(f"config {path}: {exc}") from exc


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


def _wait_healthy(name: str, port: int, proc, log_path: str, timeout: float = 15.0):
    """Wait until ``proc`` answers a frame on its port; its admin tap is bound
    before that port, so it is up too. Both servers answer any frame, so an
    empty one of tag 0 will do."""
    deadline = time.monotonic() + timeout
    with contextlib.closing(netutil.FrameConnection("127.0.0.1", port, 1.0)) as ping:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise StartupFailure(
                    f"{name} exited with status {proc.returncode}; see {log_path}"
                )
            try:
                ping.round_trip(protocol.Frame(tag=0, payload=b""))
                return
            except ConnectionFailure:
                time.sleep(0.05)
    raise StartupFailure(f"{name} on 127.0.0.1:{port} never answered a health ping")


class CaptureProxy:
    """Forwards client connections to the system server, recording each
    direction of each connection as its own append-only file in
    ``capture_dir``, so every stream is contiguous by construction."""

    def __init__(self, port: int, target: tuple, capture_dir: str):
        self.target = target
        self.capture_dir = capture_dir
        os.makedirs(capture_dir, exist_ok=True)
        self._connections = itertools.count()
        self._listener = netutil.Listener("127.0.0.1", port, self._serve_connection)

    def _serve_connection(self, client: socket.socket):
        try:
            system = socket.create_connection(self.target, timeout=30.0)
        except OSError:
            return
        system.settimeout(None)  # the bound is for the connect; a client may idle
        number = next(self._connections)
        with system:
            down = threading.Thread(
                target=self._pump, args=(system, client, f"{number}-down"), daemon=True
            )
            down.start()
            self._pump(client, system, f"{number}-up")
            down.join()

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
        self._listener.stop()


@dataclass
class Topology:
    config: TopologyConfig
    workdir: str
    system_host: str
    system_port: int  # the proxy port clients must use
    system_admin_port: int
    system_public_key: tuple
    storage_admin_ports: dict  # server id -> admin port
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
            for server_id, port in self.storage_admin_ports.items()
        }

    def captured_bytes(self) -> bytes:
        """Every recorded stream, joined one after another."""
        names = sorted(os.listdir(self.capture_dir))
        return b"".join(netutil.read_files(self.capture_dir, names).values())

    def make_client(self, username: str, mail_address: str) -> ClientSession:
        """Config for one user, wired through the capture proxy; the client
        needs no key of its own. ``stop()`` closes the session."""
        client_dir = os.path.join(self.workdir, "clients")
        os.makedirs(client_dir, exist_ok=True)
        base = os.path.join(client_dir, username)
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


def _start_servers(topo: Topology, servers: list) -> None:
    """Start each ``(name, module, config)`` as ``python -m cloudvault.<module>``
    on ``<name>.json`` in the workdir, its output appended to ``<name>.log``;
    return once every one of them answers on its frame port."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    started = []
    for name, module, config in servers:
        config_path = os.path.join(topo.workdir, f"{name}.json")
        log_path = os.path.join(topo.workdir, f"{name}.log")
        netutil.write_atomic(config_path, json.dumps(config, indent=2).encode())
        with open(log_path, "ab") as log:  # the child keeps its own descriptor
            proc = subprocess.Popen(
                [sys.executable, "-m", f"cloudvault.{module}", "--config", config_path],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        topo.procs.append(proc)
        started.append((name, config["port"], proc, log_path))
    for args in started:
        _wait_healthy(*args)


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
    storage = [
        {"server_id": f"storage-{i + 1}", "host": "127.0.0.1", "port": port}
        for i, port in enumerate(ports["storage"])
    ]
    topo = Topology(
        config=config,
        workdir=workdir,
        system_host="127.0.0.1",
        system_port=ports["proxy"],
        system_admin_port=ports["system_admin"],
        system_public_key=None,  # read back once the system server made it
        storage_admin_ports={
            target["server_id"]: admin_port
            for target, admin_port in zip(storage, ports["storage_admin"])
        },
        mailbox_dir=mailbox_dir,
        capture_dir=capture_dir,
    )
    try:
        _start_servers(topo, [
            (target["server_id"], "storage_server", {
                **target,
                "admin_port": topo.storage_admin_ports[target["server_id"]],
                "data_dir": os.path.join(workdir, target["server_id"]),
                "seed": config.seed,
            })
            for target in storage
        ])
        _start_servers(topo, [("system", "system_server", {
            "host": "127.0.0.1",
            "port": ports["system"],
            "admin_port": ports["system_admin"],
            "data_dir": system_dir,
            "storage": storage,
            "mailbox_dir": mailbox_dir,
            "rsa_bits": config.rsa_bits,
            "sabotage_keys_on_storage": config.sabotage == "keys_on_storage",
            "sabotage_accept_plain": config.sabotage == "plaintext_channel",
        })])
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
    facts = WorkloadFacts(usernames=[], sentinels=[])
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
    return facts


# ---------------------------------------------------------------------------
# Leakage audit

@dataclass
class AuditCheck:
    name: str
    claim: str
    evidence: list

    @property
    def passed(self) -> bool:
        return not self.evidence


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
                {**asdict(check), "passed": check.passed} for check in self.checks
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


def _scan_dump(files: list, needles: dict[str, bytes]) -> list[str]:
    """Every place one of ``needles`` occurs in the ``(path, bytes)`` files."""
    evidence = []
    for path, data in files:
        for needle_name, needle in needles.items():
            for offset in _find_all(data, needle):
                evidence.append(
                    f"{path} offset {offset}: {needle_name} ({needle[:32]!r}...)"
                )
    return evidence


def _both_encodings(named: dict[str, bytes]) -> dict[str, bytes]:
    needles = {}
    for name, raw in named.items():
        needles[f"{name} (raw)"] = raw
        needles[f"{name} (hex)"] = raw.hex().encode("ascii")
    return needles


def _files(where: str, dump: dict[str, bytes]) -> list:
    return [(f"{where}/{name}", data) for name, data in sorted(dump.items())]


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

    system_files = _files("system", system_dump)
    storage_files = [
        item for server_id, dump in sorted(storage_dumps.items())
        for item in _files(server_id, dump)
    ]
    sentinels = _both_encodings({s: s.encode("utf-8") for s in facts.sentinels})
    usernames = _both_encodings({u: u.encode("utf-8") for u in facts.usernames})
    owners = _both_encodings(
        {f"md5({u})": crypto_core.md5_digest(u.encode()) for u in facts.usernames}
    )
    keys = _both_encodings(
        {f"key {key.hex()[:8]}...": key for key in _parse_key_table(system_dump)}
    )

    scans = (
        ("storage-holds-no-secrets",
         "storage dumps contain no AES key bytes, no plaintext sentinels and "
         "no registered user's digest",
         storage_files, {**keys, **sentinels, **owners}),
        ("system-holds-no-file-bytes",
         "system dump contains no uploaded file content",
         system_files, sentinels),
        ("no-plaintext-usernames",
         "neither dump contains a registered username outside digest form",
         system_files + storage_files, usernames),
        ("wire-traffic-sealed",
         "captured client/system traffic reveals no sentinel",
         [("capture", capture)], sentinels),
    )
    checks = [
        AuditCheck(name, claim, _scan_dump(files, needles))
        for name, claim, files, needles in scans
    ]

    evidence = []
    raw_sentinels = [s.encode("utf-8") for s in facts.sentinels]
    for server_id, dump in sorted(storage_dumps.items()):
        candidates = _candidate_keys(dump)
        for blob_name, blob in stored_blobs(dump):
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

def _cmd_run(args, config: TopologyConfig) -> int:
    with run_topology(config) as topology:
        print(f"workdir:       {topology.workdir}", flush=True)
        print(f"system server: {topology.system_host}:{topology.system_port}"
              " (via proxy)")
        print(f"admin tap:     127.0.0.1:{topology.system_admin_port}")
        for server_id, port in topology.storage_admin_ports.items():
            print(f"{server_id} admin: 127.0.0.1:{port}")
        template_path = os.path.join(topology.workdir, "client-template.json")
        print(f"client config template: {template_path}")
        print("Ctrl-C to stop", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            while True:
                time.sleep(1)
    return 0


def _clear_workdir(path: str):
    """Delete ``path`` if it is empty or an earlier run's (it holds a
    ``system.json``); any other directory raises StartupFailure, untouched."""
    if not os.path.isdir(path):
        return
    if os.listdir(path) and not os.path.isfile(os.path.join(path, "system.json")):
        raise StartupFailure(f"workdir {path} holds no earlier run; not deleting it")
    shutil.rmtree(path)


def _cmd_audit(args, config: TopologyConfig) -> int:
    if args.mutation:
        config.sabotage = args.mutation
    _clear_workdir(config.workdir)
    with run_topology(config) as topology:
        facts = run_sentinel_workload(topology, download=config.sabotage is None)
        report = leakage_audit(topology, facts)
    _write_report(report, args.out or os.path.join(config.workdir, "audit_report.json"))
    return 0 if report.passed else 1


def _cmd_bench(args, config: TopologyConfig) -> int:
    _clear_workdir(config.workdir)
    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else DEFAULT_BENCH_SIZES
    )
    with run_topology(config) as topology:
        report = timing_benchmark(topology, sizes=sizes, trials=args.trials)
    _write_report(report, args.out or os.path.join(config.workdir, "bench_report.json"))
    return 0


def _write_report(report, out: str) -> None:
    """Print ``report``, write its JSON summary to ``out`` and name the path."""
    print(report.to_text())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    print(f"summary written to {out}")


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
    try:
        return args.func(args, TopologyConfig.from_file(args.config))
    except CloudVaultError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
