"""Start a cloudvault server's own ``main()`` with its layer functions traced.

    python3 perfbench/launch.py {system_server|storage_server} --config CONFIG --spans OUT

The spans are written to OUT when ``main()`` returns (on SIGTERM).
"""

import argparse
import importlib
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import spans  # noqa: E402  (found next to this file)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("module", choices=("system_server", "storage_server"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    recorder = spans.Recorder()
    spans.install("system" if args.module == "system_server" else "storage", recorder)
    server = importlib.import_module(f"cloudvault.{args.module}")
    try:
        return server.main(["--config", args.config])
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
