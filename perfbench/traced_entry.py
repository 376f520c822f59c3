"""Run a ``repro`` CLI command with the layer wrappers installed.

Usage::

    python perfbench/traced_entry.py --trace-out T.json [--start-disabled] \\
        -- <repro CLI arguments>

The command runs in this process exactly as ``python -m repro.cli``
would run it; the spans are written to ``T.json`` as Chrome trace-event
JSON when the command returns (``repro serve`` returns after SIGTERM).
SIGUSR1 turns recording on and SIGUSR2 turns it off, so a benchmark can
alternate traced and untraced operations against one long-lived server.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, write_chrome_trace  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--start-disabled", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    tracer = Tracer(enabled=not args.start_disabled)
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    try:
        return repro.cli.main(command)
    finally:
        sys.stdout.flush()
        write_chrome_trace(
            args.trace_out,
            tracer.spans,
            metadata={"command": command, "import_s": import_s},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
