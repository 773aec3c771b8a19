"""Run ``repro serve``, optionally with the benchmark's timing wrappers.

Usage (from the repository root)::

    python3 perfbench/serve.py [--spans-out FILE] -- --snapshot X.ftcs --port 0 ...

Everything after ``--`` goes to the ``serve`` subcommand unchanged.  With
``--spans-out`` the wrappers of :mod:`spans` are installed before the server
starts, and the recorded spans are written to ``FILE`` once ``serve``
returns (on SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: serve.py [--spans-out FILE] -- SERVE-ARGS", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve.py")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    from repro.cli import main as cli_main

    if args.spans_out is None:
        return cli_main(["serve"] + serve_args)

    from spans import Recorder, install

    recorder = Recorder()
    install(recorder)
    try:
        return cli_main(["serve"] + serve_args)
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
