"""The benchmark in ``perfbench/`` traces cloudvault by wrapping its functions
by name. A rename in ``src/`` would silently zero a per-layer metric or the
wire count; these tests make it fail loudly instead. They only import
``perfbench/``, never modify it."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import sys

import run
import spans
from cloudvault import protocol

spans.install(sys.argv[1], spans.Recorder())
run.WireCounter().install()
assert callable(protocol.write_frame) and callable(protocol.read_frame)
"""


@pytest.mark.parametrize("role", ["client", "system", "storage"])
def test_perfbench_hooks_find_every_traced_function(role):
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, role],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "not found; not traced" not in proc.stderr
