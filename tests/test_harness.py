import json
import os
import socket
import subprocess
import sys

import pytest

from cloudvault import crypto_core, harness, netutil, system_server
from cloudvault.errors import StartupFailure

pytestmark = pytest.mark.integration


def make_config(tmp_path, **overrides):
    kwargs = dict(workdir=str(tmp_path / "topo"), storage_count=2, rsa_bits=1024)
    kwargs.update(overrides)
    return harness.TopologyConfig(**kwargs)


def test_minimal_topology_starts_and_stops(tmp_path):
    config = make_config(tmp_path, storage_count=1)
    topo = harness.run_topology(config)
    try:
        assert topo.system_dump() == {}  # healthy and empty
        dumps = topo.storage_dumps()
        assert list(dumps) == ["storage-1"]
    finally:
        topo.stop()
    for proc in topo.procs:
        assert proc.poll() is not None


def _system_key_file(config) -> str:
    return os.path.join(config.workdir, "system", system_server.SERVER_KEY_FILE)


def test_a_restarted_topology_keeps_its_system_key(tmp_path):
    # A client config copied from the first run's template must still open
    # replies from the second run's system server.
    config = make_config(tmp_path, storage_count=1)
    keys = []
    for _ in range(2):
        with harness.run_topology(config) as topo:
            keys.append(topo.system_public_key)
    assert keys[0] == keys[1]
    assert keys[0] == netutil.read_keypair(_system_key_file(config)).public
    with open(os.path.join(config.workdir, "client-template.json")) as fh:
        template = json.load(fh)["system_public_key"]
    assert (int(template["n"]), int(template["e"])) == keys[0]
    harness._clear_workdir(config.workdir)  # an earlier run's: audit may clear it
    assert not os.path.exists(config.workdir)
    os.makedirs(config.workdir)
    harness._clear_workdir(config.workdir)  # an empty one too
    assert not os.path.exists(config.workdir)


def test_the_system_server_makes_its_own_key(tmp_path, monkeypatch):
    def no_key_here(*args):
        raise AssertionError("the harness generated a key")

    monkeypatch.setattr(crypto_core, "rsa_generate", no_key_here)
    config = make_config(tmp_path, storage_count=1)
    with harness.run_topology(config) as topo:
        pair = netutil.read_keypair(_system_key_file(config))
        assert topo.system_public_key == pair.public
        assert pair.bits == config.rsa_bits


@pytest.mark.parametrize("verb", ["audit", "bench"])
def test_a_workdir_from_no_earlier_run_is_not_deleted(tmp_path, verb):
    # As with {"workdir": "."}: the config file lies in the workdir it names.
    workdir = tmp_path / "work"
    workdir.mkdir()
    config_path = workdir / "topology.json"
    config_path.write_text(json.dumps({"workdir": str(workdir)}))
    (workdir / "notes.txt").write_text("keep me")
    with pytest.raises(StartupFailure) as excinfo:
        harness.main([verb, "--config", str(config_path)])
    assert str(workdir) in str(excinfo.value)
    assert sorted(os.listdir(workdir)) == ["notes.txt", "topology.json"]
    assert (workdir / "notes.txt").read_text() == "keep me"


def test_occupied_port_names_the_component(tmp_path, monkeypatch):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    taken = blocker.getsockname()[1]
    pick = harness._assign_ports
    monkeypatch.setattr(
        harness, "_assign_ports", lambda count: {**pick(count), "storage": [taken]}
    )
    config = make_config(tmp_path, storage_count=1)
    try:
        with pytest.raises(StartupFailure) as excinfo:
            harness.run_topology(config)
        assert "storage-1" in str(excinfo.value)
    finally:
        blocker.close()


def test_ports_picked_in_one_call_are_distinct():
    ports = harness._free_ports(200)
    assert len(set(ports)) == 200


def test_round_robin_lands_two_per_storage(tmp_path):
    config = make_config(tmp_path, storage_count=3)
    with harness.run_topology(config) as topo:
        session = topo.make_client("rr-user", "rr@example.test")
        session.register("rr-user", "rr@example.test")
        session.login("rr-user")
        for i in range(6):
            session.upload(f"doc-{i}", b"round robin payload")
        dumps = topo.storage_dumps()
    counts = {
        server_id: len(dump.get("records.tsv", b"").splitlines())
        for server_id, dump in dumps.items()
    }
    assert counts == {"storage-1": 2, "storage-2": 2, "storage-3": 2}


def test_honest_run_passes_all_audit_checks(tmp_path):
    config = make_config(tmp_path)
    with harness.run_topology(config) as topo:
        facts = harness.run_sentinel_workload(topo, users=2, files_per_user=2)
        report = harness.leakage_audit(topo, facts)
    assert [check.passed for check in report.checks] == [True] * 5
    assert report.passed
    assert "PASS" in report.to_text()


def test_keys_on_storage_mutation_is_caught(tmp_path):
    config = make_config(tmp_path, sabotage="keys_on_storage")
    with harness.run_topology(config) as topo:
        facts = harness.run_sentinel_workload(
            topo, users=1, files_per_user=2, download=False
        )
        report = harness.leakage_audit(topo, facts)
    by_name = {check.name: check for check in report.checks}
    offender = by_name["storage-holds-no-secrets"]
    assert not offender.passed
    assert offender.evidence  # names the file and offset
    assert any("blobs/" in item for item in offender.evidence)


def test_keys_on_storage_mutation_decrypts_its_blobs(tmp_path):
    # The key rides after the GCM tag; an adversary who ignores the tag
    # still reads each blob's sentinel under it.
    config = make_config(tmp_path, sabotage="keys_on_storage")
    with harness.run_topology(config) as topo:
        facts = harness.run_sentinel_workload(
            topo, users=1, files_per_user=2, download=False
        )
        report = harness.leakage_audit(topo, facts)
    by_name = {check.name: check for check in report.checks}
    offender = by_name["storage-compromise-cannot-decrypt"]
    assert not offender.passed
    assert len(offender.evidence) == 2  # both blobs
    assert all("decrypts under 16-byte string" in item for item in offender.evidence)


def test_plaintext_channel_mutation_is_caught(tmp_path):
    config = make_config(tmp_path, sabotage="plaintext_channel")
    with harness.run_topology(config) as topo:
        facts = harness.run_sentinel_workload(
            topo, users=1, files_per_user=2, download=False
        )
        report = harness.leakage_audit(topo, facts)
    by_name = {check.name: check for check in report.checks}
    offender = by_name["wire-traffic-sealed"]
    assert not offender.passed
    assert any("capture offset" in item for item in offender.evidence)


def test_audits_are_hermetic(tmp_path):
    vectors = []
    for run in range(2):
        config = harness.TopologyConfig(
            workdir=str(tmp_path / f"run-{run}"), storage_count=2, rsa_bits=1024
        )
        with harness.run_topology(config) as topo:
            facts = harness.run_sentinel_workload(topo, run_tag="fixed-tag")
            report = harness.leakage_audit(topo, facts)
        vectors.append([check.passed for check in report.checks])
    assert vectors[0] == vectors[1]


def test_benchmark_shape(tmp_path):
    config = make_config(tmp_path)
    sizes = (1024, 4096)
    with harness.run_topology(config) as topo:
        report = harness.timing_benchmark(topo, sizes=sizes, trials=3)
    assert report.sizes == list(sizes)
    assert len(report.upload_medians) == 2
    assert all(value > 0 for value in report.upload_medians + report.download_medians)
    text = report.to_text()
    assert "Person No" in text and "1 KB" in text and "4 KB" in text
    assert "Uploading File" in text and "Downloading File" in text
    summary = report.to_json_dict()
    assert summary["trials"] == 3
    assert summary["rows"][0]["size_bytes"] == 1024


def test_benchmark_times_every_size_on_every_storage_server(tmp_path):
    # Uploads go to the storage servers round-robin. With an even number of
    # sizes in one fixed order, each size would always land on the same
    # server, and a slower server would read as a size effect.
    sizes = (1024, 4096, 7168, 9216)
    with harness.run_topology(make_config(tmp_path)) as topo:
        harness.timing_benchmark(topo, sizes=sizes, trials=2)
        keys = topo.system_dump()["keys.tsv"].splitlines(keepends=True)
    servers = {size: set() for size in sizes}
    for _, label, _, _, storage_id in netutil.decode_rows(
        keys, system_server.KEY_COLUMNS, "keys.tsv"
    ):
        size = label.split("-")[1]
        if size != "warmup":
            servers[int(size)].add(storage_id)
    assert all(len(ids) == 2 for ids in servers.values()), servers


_SESSIONS_AND_LOGS_SCRIPT = """
import sys
from cloudvault import harness
config = harness.TopologyConfig(workdir=sys.argv[1], storage_count=1, rsa_bits=1024)
with harness.run_topology(config) as topo:
    harness.run_sentinel_workload(topo, users=1, files_per_user=1)
    harness.timing_benchmark(topo, sizes=(1024,), trials=1)
"""


def test_workload_and_benchmark_close_sessions_and_logs(tmp_path):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", _SESSIONS_AND_LOGS_SCRIPT, str(tmp_path / "topo")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src_dir),
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "unclosed" not in proc.stderr, proc.stderr


def test_unknown_sabotage_mode_rejected(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, sabotage="unplug_everything")
