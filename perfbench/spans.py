"""Traced runs: spans recorded around public layer functions, from outside.

A span is ``[name, start_ns, end_ns, parent, root, info]``. ``parent`` and
``root`` index the same process's span list; the root span (a client verb,
or a server's ``handle_frame``) identifies the request. Times come from
``time.monotonic_ns``, so the client and server processes share one
timeline. Spans stay in memory and are written out when a process exits.

``install`` wraps callables by replacing attributes on their module or class,
so callers that look them up at call time (every call site in cloudvault)
reach the wrapper. A callable that no longer exists is skipped and its
metrics read 0.
"""

import importlib
import json
import sys
import threading
import time
from collections import defaultdict

MIB = 1024 * 1024


class Recorder:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            root = self.spans[parent][4] if parent >= 0 else index
            span = [name, 0, 0, parent, root, None]
            self.spans.append(span)
        stack.append(index)
        span[1] = time.monotonic_ns()
        return span

    def end(self, span: list):
        span[2] = time.monotonic_ns()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, info=None) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: {name} not found; not traced", file=sys.stderr)
            return False

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if info is not None:
                span[5] = info(args, result)
            return result

        setattr(owner, attr, traced)
        return True

    def dump(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


class _TimedLock:
    """Stands in for a service's lock; times each ``with`` acquisition."""

    def __init__(self, lock, recorder: Recorder):
        self._inner = lock
        self._recorder = recorder

    def __enter__(self):
        span = self._recorder.begin("system_server.lock_wait")
        self._inner.acquire()
        self._recorder.end(span)
        return self

    def __exit__(self, *exc_info):
        self._inner.release()

    def acquire(self, *args, **kwargs):
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        self._inner.release()


def _frame_in(args, result):
    return [len(args[0].payload), False]


def _write_len(args, result):
    data = args[1]
    return len(data) + 1 if isinstance(data, str) else len(data)  # append_line adds "\n"


def install(role: str, recorder: Recorder):
    """Wrap the layer functions one process runs: client, system or storage."""
    crypto = importlib.import_module("cloudvault.crypto_core")
    protocol = importlib.import_module("cloudvault.protocol")
    netutil = importlib.import_module("cloudvault.netutil")

    def sent(args, frame):  # [payload bytes, is an error reply]
        return [len(frame.payload), isinstance(args[0], protocol.ErrorFrame)]

    recorder.wrap(crypto, "rsa_decrypt_block", "crypto_core.rsa_private")
    recorder.wrap(crypto, "rsa_encrypt_block", "crypto_core.rsa_public")
    recorder.wrap(crypto, "encrypt_file", "crypto_core.aes", lambda a, r: len(a[0]))
    recorder.wrap(crypto, "decrypt_file", "crypto_core.aes", lambda a, r: len(a[0].body))
    if role == "client":
        client = importlib.import_module("cloudvault.client_cli").ClientSession
        for verb in ("upload", "download", "login", "list_labels"):
            recorder.wrap(client, verb, f"client_cli.{verb}")
        recorder.wrap(protocol, "send_sealed", "protocol.seal", sent)
        recorder.wrap(protocol, "recv_sealed", "protocol.open", _frame_in)
        return
    recorder.wrap(protocol, "send_plain", "protocol.plain", sent)
    recorder.wrap(protocol, "recv_plain", "protocol.plain", _frame_in)
    recorder.wrap(netutil, "write_atomic", "netutil.write", _write_len)
    recorder.wrap(netutil, "append_line", "netutil.write", _write_len)
    if role == "system":
        system = importlib.import_module("cloudvault.system_server")
        mailbox = importlib.import_module("cloudvault.mailbox")
        recorder.wrap(system.SystemService, "handle_frame", "system_server.handle_frame")
        recorder.wrap(protocol, "send_sealed", "protocol.seal", sent)
        recorder.wrap(protocol, "recv_sealed", "protocol.open", _frame_in)
        recorder.wrap(system.StorageClient, "store", "system_server.storage_wait")
        recorder.wrap(system.StorageClient, "fetch", "system_server.storage_wait")
        recorder.wrap(mailbox.FileMailbox, "deliver", "mailbox.deliver")
        original_init = system.SystemService.__init__

        def init(service, *args, **kwargs):
            original_init(service, *args, **kwargs)
            service._lock = _TimedLock(service._lock, recorder)

        system.SystemService.__init__ = init
    else:
        storage = importlib.import_module("cloudvault.storage_server")
        placement = importlib.import_module("cloudvault.placement")
        service = storage.StorageService
        recorder.wrap(service, "handle_frame", "storage_server.handle_frame")
        recorder.wrap(service, "store_blob", "storage_server.store")
        recorder.wrap(service, "fetch_blob", "storage_server.fetch")
        recorder.wrap(placement.PlacementTable, "insert", "placement.insert",
                      lambda a, entry: entry.offset + 1)
        recorder.wrap(placement.PlacementTable, "serialize", "placement.serialize",
                      lambda a, text: len(text))


# ---------------------------------------------------------------------------
# Analysis


class ProcessSpans:
    """The spans of one or more processes whose request began in [t0, t1]."""

    def __init__(self, span_lists: list, t0: int, t1: int):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)  # id(span) -> its child spans
        for spans in span_lists:
            for span in spans:
                root = spans[span[4]]
                if not t0 <= root[1] <= t1 or span[2] == 0:
                    continue
                self.by_name[span[0]].append(span)
                if span[3] >= 0:
                    self.children[id(spans[span[3]])].append(span)

    def named(self, *names) -> list:
        return [span for name in names for span in self.by_name[name]]

    def count(self, *names) -> int:
        return len(self.named(*names))

    def mean_ms(self, *names) -> float:
        return _mean([_ms(span) for span in self.named(*names)])

    def total_ms(self, *names) -> float:
        return sum(_ms(span) for span in self.named(*names))

    def info_sum(self, *names, item=None) -> float:
        spans = self.named(*names)
        if item is None:
            return sum(span[5] or 0 for span in spans)
        return sum(span[5][item] for span in spans if span[5])

    def mean_self_ms(self, *names, minus=None) -> float:
        """Mean duration of ``names`` spans less their children (those named
        in ``minus``, or all). Children of one span never overlap: a thread
        runs them one after another."""
        return _mean([
            _ms(s) - sum(_ms(c) for c in self.children[id(s)] if minus is None or c[0] in minus)
            for s in self.named(*names)
        ])

    def error_replies(self) -> int:
        return sum(
            1 for root in self.named("system_server.handle_frame")
            for child in self.children[id(root)]
            if child[0] in ("protocol.seal", "protocol.plain") and child[5] and child[5][1]
        )


def _ms(span) -> float:
    return (span[2] - span[1]) / 1e6


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


VERBS = tuple(f"client_cli.{v}" for v in ("upload", "download", "login", "list_labels"))


def layer_metrics(client: ProcessSpans, system: ProcessSpans, storage: ProcessSpans) -> dict:
    """Per-layer values of one traced run; see README.md for definitions.

    "Per op" means per client request (one sealed round trip). Means over
    zero calls read 0.
    """
    requests = client.count(*VERBS)
    stores = storage.count("storage_server.store")
    aes = "crypto_core.aes"
    m = {}
    for proc, spans in (("client", client), ("system", system)):
        m[f"crypto_core.rsa_private_ms.{proc}"] = spans.mean_ms("crypto_core.rsa_private")
        m[f"crypto_core.aes_ms_per_mib.{proc}"] = _ratio(
            spans.total_ms(aes), spans.info_sum(aes) / MIB)
        m[f"protocol.seal_self_ms.{proc}"] = spans.mean_self_ms("protocol.seal")
        m[f"protocol.open_self_ms.{proc}"] = spans.mean_self_ms("protocol.open")
    m["crypto_core.rsa_private_calls_per_op"] = _ratio(
        client.count("crypto_core.rsa_private") + system.count("crypto_core.rsa_private"),
        requests)
    m["protocol.plain_codec_ms.system"] = system.mean_ms("protocol.plain")
    m["protocol.plain_codec_ms.storage"] = storage.mean_ms("protocol.plain")
    m["protocol.sealed_bytes_per_op"] = _ratio(
        client.info_sum("protocol.seal", "protocol.open", item=0), requests)
    m["protocol.plain_bytes_per_op"] = _ratio(
        system.info_sum("protocol.plain", item=0), requests)
    m["client_cli.wait_ms"] = client.mean_self_ms(*VERBS, minus=("protocol.seal", "protocol.open"))
    m["system_server.handle_ms"] = system.mean_ms("system_server.handle_frame")
    m["system_server.self_ms"] = system.mean_self_ms("system_server.handle_frame")
    m["system_server.storage_wait_ms"] = system.mean_ms("system_server.storage_wait")
    m["system_server.lock_wait_ms"] = _ratio(
        system.total_ms("system_server.lock_wait"), system.count("system_server.handle_frame"))
    m["system_server.writes_per_op"] = _ratio(system.count("netutil.write"), requests)
    m["system_server.write_ms"] = system.mean_ms("netutil.write")
    m["system_server.error_replies"] = system.error_replies()
    m["storage_server.store_ms"] = storage.mean_ms("storage_server.store")
    m["storage_server.fetch_ms"] = storage.mean_ms("storage_server.fetch")
    m["storage_server.writes_per_store"] = _ratio(storage.count("netutil.write"), stores)
    m["storage_server.bytes_written_per_store"] = _ratio(storage.info_sum("netutil.write"), stores)
    m["storage_server.write_ms"] = storage.mean_ms("netutil.write")
    m["placement.insert_ms"] = storage.mean_ms("placement.insert")
    m["placement.probes_per_insert"] = _ratio(
        storage.info_sum("placement.insert"), storage.count("placement.insert"))
    m["placement.serialize_ms"] = storage.mean_ms("placement.serialize")
    m["placement.serialized_bytes_per_store"] = _ratio(
        storage.info_sum("placement.serialize"), stores)
    m["mailbox.deliver_ms"] = system.mean_ms("mailbox.deliver")
    m["mailbox.deliveries_per_login"] = _ratio(
        system.count("mailbox.deliver"), client.count("client_cli.login"))
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    stem = name.split(".")[1]
    if stem.endswith("_ms_per_mib"):
        return "ms/MiB"
    if stem.endswith("_ms"):
        return "ms"
    return "B" if "bytes" in stem else "count"
