"""Seeded keys and a real cloudvault topology: one system server and N storage
servers as separate processes on loopback, started from the source tree.

Untraced topologies run the servers' own entry points
(``python -m cloudvault.system_server``); traced ones run the same ``main()``
through ``launch.py``, which wraps layer functions first.
"""

import json
import math
import os
import random
import shutil
import socket
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Products of small primes for trial division before Miller-Rabin.
_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _miller_rabin(n: int, rng: random.Random, rounds: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 2), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_prime(rng: random.Random, bits: int) -> int:
    """A ``bits``-bit probable prime with its top two bits set, drawn from ``rng``."""
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if math.gcd(candidate, _PRIMORIAL) == 1 and _miller_rabin(candidate, rng, 32):
            return candidate


def seeded_keypair(seed: int, role: str, bits: int):
    """The same (seed, role, bits) always yields the same RSA keypair.

    The prime search is the benchmark's own; the keypair is assembled by
    ``crypto_core.RsaKeyPair.from_primes``, so the key math is the program's.
    """
    from cloudvault.crypto_core import RsaKeyPair
    from cloudvault.errors import PrimeGenerationFailure

    rng = random.Random(f"perfbench:{seed}:{role}:{bits}")
    while True:
        p = seeded_prime(rng, bits - bits // 2)
        q = seeded_prime(rng, bits // 2)
        if p == q or (p * q).bit_length() != bits:
            continue
        try:
            return RsaKeyPair.from_primes(p, q)
        except PrimeGenerationFailure:
            continue  # e shares a factor with phi


def _free_ports(count: int) -> list:
    """``count`` distinct free loopback ports (all held open while picking)."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _answers(port: int) -> bool:
    """True once a frame server replies to a frame with an unknown tag."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
            sock.settimeout(1.0)
            sock.sendall(b"\x7f\x00\x00\x00\x00")
            return len(sock.recv(5)) > 0
    except OSError:
        return False


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Topology:
    """Owns the server processes of one run; ``stop()`` ends and reaps them."""

    def __init__(self, root: str, workdir: str, system_key, seed_s: int,
                 storage_count: int, traced: bool):
        self.root = root
        self.workdir = workdir
        self.system_key = system_key
        self.seed_s = seed_s
        self.storage_count = storage_count
        self.traced = traced
        self.mailbox_dir = os.path.join(workdir, "mailbox")
        self.storage_dirs = []
        self.procs = {}  # role -> Popen
        self.port = None

    def _spawn(self, role: str, module: str, config: dict):
        config_path = os.path.join(self.workdir, f"{role}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        if self.traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), module,
                    "--config", config_path,
                    "--spans", os.path.join(self.workdir, f"{role}.spans.json")]
        else:
            argv = [sys.executable, "-m", f"cloudvault.{module}", "--config", config_path]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        with open(os.path.join(self.workdir, f"{role}.log"), "ab") as log:
            self.procs[role] = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.workdir
            )

    def _wait(self, role: str, port: int, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.procs[role].poll() is not None:
                raise RuntimeError(f"{role} exited with {self.procs[role].returncode}\n"
                                   + self.log_tail())
            if _answers(port):
                return
            time.sleep(0.02)
        raise RuntimeError(f"{role} never answered on port {port}\n" + self.log_tail())

    def start(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.mailbox_dir)
        system_dir = os.path.join(self.workdir, "system")
        os.makedirs(system_dir)
        key = self.system_key
        with open(os.path.join(system_dir, "server_key.json"), "w", encoding="ascii") as fh:
            json.dump({"n": str(key.n), "e": str(key.e), "d": str(key.d)}, fh)
        ports = _free_ports(2 * self.storage_count + 2)
        targets = []
        for i in range(self.storage_count):
            server_id = f"storage-{i + 1}"
            data_dir = os.path.join(self.workdir, server_id)
            port = ports.pop()
            self.storage_dirs.append(data_dir)
            targets.append({"server_id": server_id, "host": "127.0.0.1", "port": port})
            self._spawn(server_id, "storage_server", {
                "server_id": server_id, "host": "127.0.0.1", "port": port,
                "admin_port": ports.pop(), "data_dir": data_dir, "seed": self.seed_s,
            })
        for target in targets:
            self._wait(target["server_id"], target["port"])
        self.port = ports.pop()
        self._spawn("system", "system_server", {
            "host": "127.0.0.1", "port": self.port, "admin_port": ports.pop(),
            "data_dir": system_dir, "storage": targets, "seed": self.seed_s,
            "mailbox_dir": self.mailbox_dir, "rsa_bits": key.bits,
        })
        self._wait("system", self.port)

    def peak_rss(self) -> tuple[float, float]:
        """(system, largest storage) VmHWM in MiB; call before ``stop()``."""
        storage = [peak_rss_mib(p.pid) for r, p in self.procs.items() if r != "system"]
        return peak_rss_mib(self.procs["system"].pid), max(storage)

    def stored_bytes(self) -> int:
        total = 0
        for data_dir in self.storage_dirs:
            for dirpath, _, names in os.walk(data_dir):
                total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
        return total

    def span_files(self) -> dict:
        return {role: os.path.join(self.workdir, f"{role}.spans.json") for role in self.procs}

    def stop(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def log_tail(self, lines: int = 20) -> str:
        out = []
        for role in self.procs:
            try:
                with open(os.path.join(self.workdir, f"{role}.log"), encoding="utf-8",
                          errors="replace") as fh:
                    out.append(f"--- {role}.log\n" + "".join(fh.readlines()[-lines:]))
            except OSError:
                pass
        return "\n".join(out)
