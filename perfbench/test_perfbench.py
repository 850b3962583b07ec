"""Self-check of the benchmark at toy scale (512-bit keys, 20 ops per session).

    python3 -m pytest perfbench/test_perfbench.py -q

Counts must repeat exactly across two runs with the same seed, and today's
values read from the code must come out: two RSA private operations per
round trip (one on the system server, one on the client) and five durable
writes per upload (counter and key record on the system server; blob,
placement table and record row on the storage server).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

WORKLOADS = ("small-write", "large-roundtrip", "read-mix")
EXACT = {
    0: ("wire_bytes_per_user_byte", "stored_bytes_per_user_byte"),
    1: (
        "crypto_core.rsa_private_calls_per_op",
        "system_server.writes_per_op",
        "system_server.error_replies",
        "storage_server.writes_per_store",
        "storage_server.bytes_written_per_store",
        "placement.probes_per_insert",
        "placement.serialized_bytes_per_store",
        "protocol.sealed_bytes_per_op",
        "protocol.plain_bytes_per_op",
        "mailbox.deliveries_per_login",
    ),
}
_results = {}


def bench(workload: str, trace: int, attempt: int = 0, seed: int = 7) -> dict:
    key = (workload, trace, attempt, seed)
    if key not in _results:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--ops", "20", "--rsa-bits", "512"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 20 * workloads.WORKLOADS[workload].sessions * (1 + trace)
        _results[key] = {name: m["value"] for name, m in result["metrics"].items()}
    return _results[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_counts_repeat_exactly_for_one_seed(workload, trace):
    first, second = bench(workload, trace, 0), bench(workload, trace, 1)
    assert {n: first[n] for n in EXACT[trace]} == {n: second[n] for n in EXACT[trace]}


def test_counts_read_from_the_code():
    layers = bench("small-write", 1)
    assert layers["crypto_core.rsa_private_calls_per_op"] == 2
    assert layers["system_server.writes_per_op"] == 2
    assert layers["storage_server.writes_per_store"] == 3
    read_mix = bench("read-mix", 1)
    assert read_mix["mailbox.deliveries_per_login"] == 1
    assert read_mix["storage_server.writes_per_store"] == 0  # never writes a blob


class _FakeSession:
    """Keeps uploads in memory and records them."""

    def __init__(self):
        self.files = {}

    def upload(self, label, data):
        self.files[label] = data

    def download(self, label):
        return self.files[label]


class _WrongBytes(_FakeSession):
    def download(self, label):
        return self.files[label][::-1]


def _first_block_uploads(name: str, seed: int) -> dict:
    session = _FakeSession()
    for op in next(workloads.WORKLOADS[name](seed).blocks(0)):
        op(session, workloads.Stats())
    return session.files


@pytest.mark.parametrize("name", ("small-write", "large-roundtrip"))
def test_seed_sets_the_inputs(name):
    assert _first_block_uploads(name, 3) == _first_block_uploads(name, 3)
    assert _first_block_uploads(name, 3) != _first_block_uploads(name, 4)


def test_a_wrong_download_is_a_mismatch():
    op = next(workloads.WORKLOADS["large-roundtrip"](1).blocks(0))[0]
    with pytest.raises(workloads.Mismatch):
        op(_WrongBytes(), workloads.Stats())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-write", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
