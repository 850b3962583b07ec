"""cloudvault benchmark: one seeded workload against a real topology.

    python3 perfbench/run.py --workload {small-write,large-roundtrip,read-mix}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the program under test is the ``src/`` tree next to this
directory. Scratch state goes to ``.bench_run/`` at the root of that tree and
is removed afterwards.

``--trace 0`` sets up the topology three times (the median is ``setup_s``),
runs the timed phase on the last one and reports the end-to-end metrics.
``--trace 1`` runs the timed phase once untraced and once with every server
started through ``launch.py`` and the client's layer functions wrapped, and
reports the per-layer metrics plus the tracing overhead on ops/s.

Lines before the last one are a human-readable report of every metric; the
last line is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 only when every operation succeeded with the right result.
"""

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

import spans
from topology import Topology, seeded_keypair
from workloads import WORKLOADS, Mismatch, Stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUPS = 3


class WireCounter:
    """Counts the frame bytes the load process writes and reads.

    Wraps ``protocol.write_frame`` and ``protocol.read_frame``, which
    ``client_cli`` looks up at call time. During the timed phase the load
    process talks only to the system server, so a difference of two
    readings is the client-system traffic.
    """

    def __init__(self):
        self.bytes = 0
        self._lock = threading.Lock()

    def _add(self, count: int):
        with self._lock:
            self.bytes += count

    def install(self):
        from cloudvault import protocol

        write, read = protocol.write_frame, protocol.read_frame

        def counted_write(sock, frame):
            write(sock, frame)
            self._add(protocol.HEADER_LEN + len(frame.payload))

        def counted_read(sock):
            frame = read(sock)
            if frame is not None:
                self._add(protocol.HEADER_LEN + len(frame.payload))
            return frame

        protocol.write_frame, protocol.read_frame = counted_write, counted_read


@dataclasses.dataclass
class Outcome:
    """What one timed phase measured."""

    stats: object  # workloads.Stats, all sessions merged
    t0: int  # monotonic ns
    t1: int
    wire_bytes: int
    stored_ratio: float  # bytes in the storage data dirs / file bytes stored
    rss: tuple  # (system, storage) peak RSS in MiB

    @property
    def elapsed(self) -> float:
        return (self.t1 - self.t0) / 1e9

    @property
    def ops_per_s(self) -> float:
        return (self.stats.attempted - self.stats.failed) / self.elapsed


def _percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Phase:
    """Set-ups of one topology and the timed phase on the last of them."""

    def __init__(self, args, workload_cls, keys: dict, run_dir: str, traced: bool):
        self.args = args
        self.workload_cls = workload_cls
        self.keys = keys
        self.run_dir = run_dir
        self.traced = traced
        self.topology = None
        self.sessions = []
        self.workload = None

    def _sessions(self) -> list:
        from cloudvault.client_cli import ClientConfig, ClientSession
        from cloudvault.mailbox import mailbox_file_path

        key = self.keys["system"]
        sessions = []
        for i in range(self.workload.sessions):
            base = os.path.join(self.run_dir, "clients", f"user{i}")
            sessions.append(ClientSession(ClientConfig(
                system_host="127.0.0.1",
                system_port=self.topology.port,
                system_public_key={"n": str(key.n), "e": str(key.e)},
                keypair_path=base + ".key",
                mailbox_path=mailbox_file_path(self.topology.mailbox_dir, f"user{i}@bench.test"),
                token_path=base + ".session",
            )))
        return sessions

    def setup(self) -> float:
        """Spawn to healthy, register and log in every user, upload any corpus."""
        self.workload = self.workload_cls(self.args.seed)
        self.topology = Topology(ROOT, os.path.join(self.run_dir, "topology"),
                                 self.keys["system"], self.workload.seed_s,
                                 self.workload.storage_count, self.traced)
        start = time.perf_counter()
        self.topology.start()
        self.sessions = self._sessions()
        for i, session in enumerate(self.sessions):
            session.register(self.workload.username(i), f"user{i}@bench.test")
            session.login(self.workload.username(i))
        self.workload.setup(self.sessions)
        return time.perf_counter() - start

    def teardown(self):
        for session in self.sessions:
            session.close()
        self.sessions = []
        if self.topology is not None:
            self.topology.stop()

    def run(self, wire: WireCounter):
        """The timed phase: each session runs whole blocks until time is up."""
        sessions, workload = self.sessions, self.workload
        stats = [Stats() for _ in sessions]
        marks = {}

        def mark_start():
            marks["t0"], marks["wire0"] = time.monotonic_ns(), wire.bytes

        barrier = threading.Barrier(len(sessions), action=mark_start)

        def drive(i: int):
            barrier.wait()
            deadline = marks["t0"] + int(self.args.seconds * 1e9)
            done = 0
            for block in workload.blocks(i):
                for op in block:
                    if self.args.ops and done >= self.args.ops:
                        return
                    stats[i].attempted += 1
                    done += 1
                    try:
                        op(sessions[i], stats[i])
                    except Exception as exc:  # noqa: BLE001 - every failure is counted
                        stats[i].failed += 1
                        stats[i].errors.append(f"{type(exc).__name__}: {exc}")
                        stats[i].mismatch |= isinstance(exc, Mismatch)
                if not self.args.ops and time.monotonic_ns() >= deadline:
                    return

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(1, len(sessions))]
        for thread in threads:
            thread.start()
        drive(0)
        for thread in threads:
            thread.join()
        t1, wire1 = time.monotonic_ns(), wire.bytes
        total = Stats()
        for s in stats:
            total.merge(s)
        try:
            workload.verify(sessions)
        except Mismatch as exc:
            total.mismatch = True
            total.errors.append(f"verify: {exc}")
        return Outcome(total, marks["t0"], t1, wire1 - marks["wire0"],
                       self.topology.stored_bytes() / workload.stored_bytes,
                       self.topology.peak_rss())


def _provision(workload_cls, seed: int, bits: int, run_dir: str) -> dict:
    """Seeded keys for the system and each client, written before any timer."""
    from cloudvault.client_cli import write_keypair

    keys = {"system": seeded_keypair(seed, "system", bits)}
    os.makedirs(os.path.join(run_dir, "clients"))
    for i in range(workload_cls.sessions):
        write_keypair(os.path.join(run_dir, "clients", f"user{i}.key"),
                      seeded_keypair(seed, f"client{i}", bits))
    return keys


def _end_to_end(setup_times: list, outcome: Outcome) -> tuple[dict, list]:
    """(contract metrics, report lines with every per-op figure)."""
    total = outcome.stats
    ops = total.samples.get("op", [])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (outcome.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(ops) if ops else 0.0, "ms"),
        "user_mib_per_s": (total.user_bytes / (1024 * 1024) / outcome.elapsed, "MiB/s"),
        "wire_bytes_per_user_byte": (outcome.wire_bytes / max(total.user_bytes, 1), "B/B"),
        "stored_bytes_per_user_byte": (outcome.stored_ratio, "B/B"),
        "system_peak_rss_mib": (outcome.rss[0], "MiB"),
        "storage_peak_rss_mib": (outcome.rss[1], "MiB"),
    }
    lines = [f"setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}",
             f"failure_rate {total.failed / max(total.attempted, 1):.4f} (failed/attempted)"]
    for kind in ("upload", "download", "login", "list"):
        values = total.samples.get(kind, [])
        if not values:
            continue
        line = f"{kind}_p50_ms {statistics.median(values):.3f} ms"
        if len(values) >= 100:  # at least 10 samples lie beyond the p90
            line += f", {kind}_p90_ms {_percentile(values, 90):.3f} ms"
        lines.append(f"{line} ({len(values)} samples)")
    return metrics, lines


def _per_layer(untraced, traced, span_paths: dict, client_spans: list) -> dict:
    loaded = {}
    for role, path in span_paths.items():
        with open(path, encoding="ascii") as fh:
            loaded[role] = json.load(fh)
    window = (traced.t0, traced.t1)
    layers = spans.layer_metrics(
        spans.ProcessSpans([client_spans], *window),
        spans.ProcessSpans([loaded["system"]], *window),
        spans.ProcessSpans([v for k, v in loaded.items() if k != "system"], *window),
    )
    plain_ops, traced_ops = untraced.ops_per_s, traced.ops_per_s
    layers["trace.overhead_pct"] = (100.0 * (plain_ops - traced_ops) / plain_ops, "%")
    return layers, [f"ops_per_s untraced {plain_ops:.3f}, traced {traced_ops:.3f}"]


def bench(args, run_dir: str):
    workload_cls = WORKLOADS[args.workload]
    keys = _provision(workload_cls, args.seed, args.rsa_bits or workload_cls.rsa_bits, run_dir)
    wire = WireCounter()
    wire.install()
    phase = Phase(args, workload_cls, keys, run_dir, traced=False)
    try:
        setup_times = [phase.setup()]
        for _ in range(SETUPS - 1 if not args.trace else 0):
            phase.teardown()
            setup_times.append(phase.setup())
        untraced = phase.run(wire)
    finally:
        phase.teardown()
    if not args.trace:
        metrics, lines = _end_to_end(setup_times, untraced)
        return untraced.stats, metrics, lines
    recorder = spans.Recorder()
    spans.install("client", recorder)
    phase = Phase(args, workload_cls, keys, run_dir, traced=True)
    try:
        phase.setup()
        traced = phase.run(wire)
    finally:
        phase.teardown()
    metrics, lines = _per_layer(untraced, traced, phase.topology.span_files(), recorder.spans)
    traced.stats.merge(untraced.stats)
    return traced.stats, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops per session instead of --seconds")
    parser.add_argument("--rsa-bits", type=int, default=0,
                        help="key size (default: the workload's, 2048)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cloudvault", "__init__.py")):
        print(f"perfbench: no cloudvault source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks

    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        total, metrics, lines = bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run is using it
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in total.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    correct = not total.mismatch
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and total.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
