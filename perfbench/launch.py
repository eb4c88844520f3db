"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch.py SPANS_JSON <repro command> [args...]``
(with ``src`` on ``PYTHONPATH``). Spans are written to ``SPANS_JSON`` when
the command returns, and whenever the process receives SIGUSR1 — the
benchmark asks for them that way before it SIGKILLs a server.
"""

from __future__ import annotations

import signal
import sys

import tracing


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder, args[0])
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(spans_path))
    from repro.cli import main as cli_main

    code = cli_main(args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
