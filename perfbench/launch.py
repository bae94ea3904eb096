"""Server-side launcher: optionally install the tracer, then run the CLI.

    python3 -u perfbench/launch.py [--spans FILE] -- pcs serve --db ...

With --spans the enclavesim functions are wrapped before `cli.main` runs;
tracing stays off until SIGUSR1 arrives, which switches it on and prints
``trace on`` so the parent knows the switch happened. The spans are
written to FILE when the server exits (SIGINT stops `serve` cleanly).
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402  (puts the checkout's src/ on sys.path)


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    checkout.use_source()

    from enclavesim import cli

    if spans_path is None:
        return cli.main(argv)

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()

    def switch_on(signum, frame):
        tracer.enabled = True
        print("trace on", flush=True)

    signal.signal(signal.SIGUSR1, switch_on)
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
