"""Release gate: every criterion below must pass at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section). Absolute wall-clock numbers are never asserted
against published figures — only orderings and budgets — because timing is
hardware-bound.
"""

import contextlib
import random
import time

import pytest

from cloudvault import crypto_core, harness
from cloudvault.errors import AuthFailed
from cloudvault.placement import PlacementEntry, PlacementTable

from conftest import LocalStack
from test_crypto_core import AES_KAT_CIPHER, AES_KAT_KEY, AES_KAT_PLAIN, MD5_SUITE
from test_placement import BruteForceTable

pytestmark = pytest.mark.acceptance


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {number} PASS: {title} ({elapsed:.2f}s)")


def test_criterion_1_placement_fidelity():
    with criterion(1, "placement matches the published sample table", budget_s=1.0):
        table = PlacementTable(100)
        entries = {n: table.insert(n) for n in range(1, 16)}
        assert entries[1] == PlacementEntry(1, 0)
        assert entries[2] == PlacementEntry(4, 0)
        assert entries[5] == PlacementEntry(25, 0)
        assert entries[15] == PlacementEntry(26, 1)
        serialized = table.serialize().splitlines()
        for row in ("1\t1\t0", "4\t2\t0", "25\t5\t0", "26\t15\t1"):
            assert row in serialized


def test_criterion_2_placement_oracle_equivalence():
    with criterion(2, "table equals brute-force simulator slot-for-slot", budget_s=30.0):
        for seed in (7, 100, 101):
            rng = random.Random(1000 + seed)
            for _ in range(200):
                count = rng.randint(1, seed)
                numbers = rng.sample(range(1, 50_000), count)
                table = PlacementTable(seed)
                oracle = BruteForceTable(seed)
                for n in numbers:
                    entry = table.insert(n)
                    assert (entry.position, entry.offset) == oracle.insert(n)
                assert table.slot_contents() == [
                    oracle.by_position.get(i) for i in range(seed)
                ]
                for n in numbers:
                    located = table.locate(n)
                    assert (located.position, located.offset) == oracle.results[n]


def test_criterion_3_crypto_known_answers():
    with criterion(3, "AES block core and MD5 match the standard vectors", budget_s=1.0):
        assert crypto_core.aes_encrypt_block(AES_KAT_PLAIN, AES_KAT_KEY) == AES_KAT_CIPHER
        assert len(MD5_SUITE) == 7
        for message, expected in MD5_SUITE:
            assert crypto_core.md5_digest(message).hex() == expected


def test_criterion_4_end_to_end_round_trip(tmp_path):
    with criterion(4, "100 random files round-trip with 100 distinct keys", budget_s=120.0):
        config = harness.TopologyConfig(workdir=str(tmp_path / "e2e"), storage_count=2)
        rng = random.Random(0xACCE55)
        sizes = [1, 1 << 20] + [rng.randint(1, 1 << 20) for _ in range(98)]
        with harness.run_topology(config) as topo:
            session = topo.make_client("bulk-user", "bulk@example.test")
            session.register("bulk-user", "bulk@example.test")
            session.login("bulk-user")
            for i, size in enumerate(sizes):
                data = rng.randbytes(size)
                session.upload(f"file-{i:03d}", data)
                assert session.download(f"file-{i:03d}") == data
            key_table = topo.system_dump()["keys.tsv"].decode()
        keys = [line.split("\t")[3] for line in key_table.splitlines() if line]
        assert len(keys) == 100
        assert len(set(keys)) == 100  # pairwise distinct


def test_criterion_5_otp_single_use(tmp_path):
    with criterion(5, "each one-time password logs in exactly once", budget_s=5.0):
        config = harness.TopologyConfig(workdir=str(tmp_path / "otp"), storage_count=1)
        with harness.run_topology(config) as topo:
            username, mail = "otp-user", "otp@example.test"
            session = topo.make_client(username, mail)
            session.register(username, mail)
            mailbox_path = session.config.mailbox_path

            def otps():
                with open(mailbox_path) as fh:
                    return [line.strip() for line in fh if line.strip()]

            consumed = []
            for round_number in range(1, 4):
                delivered = otps()
                assert len(delivered) == round_number  # exactly one new OTP each time
                current = delivered[-1]
                session.login(username, otp=current)
                consumed.append(current)
                assert len(otps()) == round_number + 1
                for stale in consumed:
                    with pytest.raises(AuthFailed):
                        session.login(username, otp=stale)


def test_criterion_6_leakage_audit(tmp_path):
    with criterion(6, "five leakage checks pass; both mutations caught", budget_s=60.0):
        config = harness.TopologyConfig(workdir=str(tmp_path / "honest"), storage_count=2)
        with harness.run_topology(config) as topo:
            facts = harness.run_sentinel_workload(topo)
            report = harness.leakage_audit(topo, facts)
        assert [check.passed for check in report.checks] == [True] * 5

        expected_failures = {
            "keys_on_storage": "storage-holds-no-secrets",
            "plaintext_channel": "wire-traffic-sealed",
        }
        for mutation, failing_check in expected_failures.items():
            config = harness.TopologyConfig(
                workdir=str(tmp_path / mutation),
                storage_count=2,
                sabotage=mutation,
            )
            with harness.run_topology(config) as topo:
                facts = harness.run_sentinel_workload(topo, download=False)
                mutated = harness.leakage_audit(topo, facts)
            by_name = {check.name: check for check in mutated.checks}
            assert not by_name[failing_check].passed
            assert by_name[failing_check].evidence


def test_criterion_7_timing_shape(tmp_path):
    with criterion(7, "median upload latency non-decreasing across sizes", budget_s=120.0):
        # Larger seed: the trial count outgrows the capacity-100 default.
        config = harness.TopologyConfig(
            workdir=str(tmp_path / "bench"), storage_count=2, seed=1009
        )

        def inversion_count(medians):
            return sum(1 for a, b in zip(medians, medians[1:]) if b < a)

        with harness.run_topology(config) as topo:
            report = harness.timing_benchmark(
                topo, sizes=harness.DEFAULT_BENCH_SIZES, trials=40
            )
            if inversion_count(report.upload_medians) > 1:
                # The per-size deltas are fractions of a millisecond; a burst
                # of machine load can swamp them. One escalation to a larger
                # sample separates real regressions from transient noise.
                report = harness.timing_benchmark(
                    topo, sizes=harness.DEFAULT_BENCH_SIZES, trials=120
                )
        print()
        print(report.to_text())
        ups = report.upload_medians
        inversions = inversion_count(ups)
        assert inversions <= 1, f"{inversions} inversions in {ups}"
        assert ups[-1] >= ups[0]  # 17 KB at least as slow as 1 KB
        # Download-vs-upload ordering is deliberately NOT asserted: the gap
        # between the two directions is hardware noise, not a contract.
        text = report.to_text()
        assert "Person No" in text and "17 KB" in text


def test_criterion_8_crash_consistency(tmp_path):
    with criterion(8, "no key record without an acknowledged blob", budget_s=60.0):
        stack = LocalStack(tmp_path / "crash", storage_count=1)
        token = stack.register_and_login("crash-user", "crash@example.test")

        class Crash(RuntimeError):
            pass

        def boom():
            raise Crash()

        survivors = []
        for i in range(50):
            stack.service.after_blob_store = boom
            with pytest.raises(Crash):
                stack.service.upload(token, f"doomed-{i}", b"payload %d" % i)
            stack.service.after_blob_store = None
            assert ("doomed-%d" % i) not in [
                record.label for record in stack.service.key_records.values()
            ]
            stack.service.upload(token, f"kept-{i}", b"payload %d" % i)
            survivors.append(f"kept-{i}")

        service = stack.reload()  # recover from disk, as after a real crash
        labels = sorted(record.label for record in service.key_records.values())
        assert labels == sorted(survivors)
        for record in service.key_records.values():
            blob = stack.storages[0].fetch_blob(record.user_digest, record.file_number)
            assert blob  # acknowledged blob is really there
        token = service.login("crash-user", stack.mail.latest("crash@example.test"))
        assert service.download(token, "kept-7") == b"payload 7"
