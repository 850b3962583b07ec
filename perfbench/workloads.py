"""The benchmark's three workloads and the seeded inputs they send.

Every workload is a closed loop: each session sends its next request only
after the previous reply arrived. All use 2048-bit RSA keys, two storage
servers and placement seed S=100003. At the default S=100 two storage
servers fill after 200 uploads (TABLE_FULL); S=100003 also puts the O(S)
``placement.tbl`` rewrite done on every store at a realistic size.

Clients connect straight to the system server's port, not through the
harness's ``CaptureProxy``. The proxy runs in the client's process and
appends every frame to ``capture.bin`` (85 MB after 16 MiB of 1 MiB uploads
and downloads), so it would measure the recorder as much as the system.
Wire bytes are counted on the frames the load process writes and reads instead.

Inputs come only from ``--seed``: file sizes, contents, labels, user names
and the order of operations. Sizes are stratified: every block of
operations holds one size from each stratum of the range, in a seeded
order, so runs of different seeds see the same size distribution and a
median lands on the same part of it. The timed phase runs whole blocks.
Every operation's result is checked: downloads byte for byte against what
was uploaded, lists against the expected label set.
"""

import random
import time

KIB = 1024
MIB = 1024 * KIB


class Mismatch(Exception):
    """The program returned a wrong result."""


def stratified_sizes(rng: random.Random, lo: int, hi: int, count: int) -> list:
    width = (hi - lo) // count
    return [lo + i * width + rng.randrange(width) for i in range(count)]


def numbered(content: bytes, n: int) -> bytes:
    """``content`` with its first 8 bytes replaced by ``n``: distinct per upload."""
    return n.to_bytes(8, "big") + content[8:]


class Stats:
    """Outcomes of one session's operations."""

    def __init__(self):
        self.samples = {}  # kind -> latencies in ms
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mismatch = False  # some result came back wrong
        self.user_bytes = 0  # file bytes moved in the timed phase

    def sample(self, kind: str, seconds: float):
        self.samples.setdefault(kind, []).append(seconds * 1000.0)

    def merge(self, other: "Stats"):
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.mismatch = self.mismatch or other.mismatch
        self.user_bytes += other.user_bytes


def timed(call, *args):
    """``call(*args)`` and its wall time in seconds."""
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


class Workload:
    name = ""
    sessions = 1
    rsa_bits = 2048
    seed_s = 100003
    storage_count = 2

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"perfbench:{seed}:{self.name}")
        self.tag = f"{rng.getrandbits(32):08x}"
        self.rng = rng
        self.stored_bytes = 0  # file bytes the storage servers hold

    def username(self, index: int) -> str:
        return f"{self.tag}-user{index}"

    def setup(self, sessions: list):
        """Work done after login and before the timed phase."""

    def blocks(self, index: int):
        """Endless blocks of operations for session ``index``; each op is
        ``op(session, stats)`` and raises on a failed or wrong result."""
        raise NotImplementedError

    def verify(self, sessions: list):
        """Checks after the timed phase; raises Mismatch."""


class SizedUploads(Workload):
    """Uploads whose sizes are drawn afresh for every block of ``STRATA`` ops,
    one per stratum of [LO, HI), in a seeded order."""

    LO = HI = STRATA = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = [self.rng.randbytes(self.HI) for _ in range(self.STRATA)]

    def blocks(self, index: int):
        n = 0
        while True:
            sizes = stratified_sizes(self.rng, self.LO, self.HI, self.STRATA)
            self.rng.shuffle(sizes)
            block = []
            for size, content in zip(sizes, self.pool):
                n += 1
                block.append(self.op(f"{self.tag}-f{n:07d}", numbered(content[:size], n)))
            yield block

    def op(self, label: str, data: bytes):
        raise NotImplementedError


class SmallWrite(SizedUploads):
    """1 session, upload-only, files of 1-16 KiB.

    Two 2048-bit RSA private operations (~54 of ~67 ms) plus the storage
    write path make up almost all the cost: 5 durable writes per upload and
    the O(S) rewrite of ``placement.tbl``. RSA-CRT and not rewriting the
    placement table show here; codec work (<2 ms) should not.
    """

    name = "small-write"
    LO, HI, STRATA = 1 * KIB, 16 * KIB, 32

    def __init__(self, seed: int):
        super().__init__(seed)
        self.uploaded = {}  # label -> bytes, for verify()

    def op(self, label: str, data: bytes):
        def upload(session, stats: Stats):
            _, seconds = timed(session.upload, label, data)
            stats.sample("upload", seconds)
            stats.sample("op", seconds)
            stats.user_bytes += len(data)
            self.stored_bytes += len(data)
            self.uploaded[label] = data
        return upload

    def verify(self, sessions: list):
        session = sessions[0]
        if session.list_labels() != sorted(self.uploaded):
            raise Mismatch("list does not match the uploaded labels")
        check = random.Random(f"perfbench:{self.seed}:verify")
        for label in check.sample(sorted(self.uploaded), min(16, len(self.uploaded))):
            if session.download(label) != self.uploaded[label]:
                raise Mismatch(f"download of {label} differs from its upload")


class LargeRoundtrip(SizedUploads):
    """1 session; each op uploads one file of 256 KiB-2 MiB, then downloads it.

    Files stay under the ~4 MiB cap that sealing (hex inside hex, ~4x) puts
    on the 16 MiB frame. Hex and JSON encoding, AES and the copies between
    them dominate; RSA is about a third. A binary envelope shows here in
    latency, MiB/s and peak RSS; RSA-CRT moves this much less than
    small-write.
    """

    name = "large-roundtrip"
    LO, HI, STRATA = 256 * KIB, 2 * MIB, 8

    def op(self, label: str, data: bytes):
        def roundtrip(session, stats: Stats):
            _, up = timed(session.upload, label, data)
            self.stored_bytes += len(data)
            got, down = timed(session.download, label)
            stats.sample("upload", up)
            stats.sample("download", down)
            stats.sample("op", up + down)
            if got != data:
                raise Mismatch(f"download of {label} differs from its upload")
            stats.user_bytes += 2 * len(data)
        return roundtrip


class ReadMix(Workload):
    """2 sessions on 2 threads over a corpus of 32 files of 1-16 KiB per user,
    uploaded during set-up; timed ops are 80% download, 10% list, 10% login.

    Never takes the storage write path, so placement and storage-write
    changes should not move it. Exercises OTP rotation (mailbox fsync,
    ``accounts.tsv`` append), session lookup, and two connections sharing
    the system service's one lock; CPU saved in any process shows in ops/s.
    """

    name = "read-mix"
    sessions = 2
    LO, HI, CORPUS = 1 * KIB, 16 * KIB, 32
    BLOCK = (16, 2, 2)  # downloads, lists, logins per block of 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = []  # per user: {label: bytes}
        for user in range(self.sessions):
            sizes = stratified_sizes(self.rng, self.LO, self.HI, self.CORPUS)
            self.corpus.append({f"{self.tag}-c{user}-{i:04d}": self.rng.randbytes(size)
                                for i, size in enumerate(sizes)})

    def setup(self, sessions: list):
        for session, files in zip(sessions, self.corpus):
            for label, data in files.items():
                session.upload(label, data)
                self.stored_bytes += len(data)

    def blocks(self, index: int):
        rng = random.Random(f"perfbench:{self.seed}:{self.name}:{index}")
        files = self.corpus[index]
        labels = sorted(files)
        order = rng.sample(labels, len(labels))
        downloads, lists, logins = self.BLOCK
        cursor = 0
        while True:
            block = [self._list_op(labels)] * lists + [self._login_op(index)] * logins
            for _ in range(downloads):
                label = order[cursor % len(order)]
                cursor += 1
                block.append(self._download_op(label, files[label]))
            rng.shuffle(block)
            yield block

    def _download_op(self, label: str, data: bytes):
        def op(session, stats: Stats):
            got, seconds = timed(session.download, label)
            stats.sample("download", seconds)
            stats.sample("op", seconds)
            if got != data:
                raise Mismatch(f"download of {label} differs from its upload")
            stats.user_bytes += len(data)
        return op

    def _list_op(self, labels: list):
        def op(session, stats: Stats):
            got, seconds = timed(session.list_labels)
            stats.sample("list", seconds)
            stats.sample("op", seconds)
            if sorted(got) != labels:
                raise Mismatch("list does not match the uploaded labels")
        return op

    def _login_op(self, index: int):
        def op(session, stats: Stats):
            _, seconds = timed(session.login, self.username(index))
            stats.sample("login", seconds)
            stats.sample("op", seconds)
        return op


WORKLOADS = {w.name: w for w in (SmallWrite, LargeRoundtrip, ReadMix)}
