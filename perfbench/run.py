"""The repository benchmark: one workload per call, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0

Workloads are ``cli_small``, ``batch_large`` and ``served_stream`` (see
``workloads.py``).  Inputs are generated from ``--seed``; the program
only ever sees generated inputs.  With ``--trace 0`` the final line
carries the end-to-end metrics, measured untraced; with ``--trace 1``
it carries the per-layer metrics of a traced run, and the spans are
written to ``.perfbench/traces/<workload>-seed<seed>.json`` (Chrome
trace-event JSON; open it in Perfetto).  Every run checks the
program's outputs and exits 1 when a check fails; lines before the
last one print every measured number with its unit and sample count,
plus a provenance block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup below stops the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracer
    from harness import Context, provenance, stop_process
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, quality

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(
        root=ROOT,
        workdir=workdir,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    try:
        result = WORKLOADS[args.workload](ctx)
        if ctx.trace:
            quality(ctx, result)
    finally:
        for proc in ctx.processes:
            stop_process(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    share = result.failed / result.attempted if result.attempted else 1.0
    result.put("failed_share", share, "ratio", samples=result.attempted)

    prov = provenance(ctx, args.workload)
    if ctx.trace:
        path = ctx.trace_path(args.workload)
        tracer.write_chrome_trace(path, ctx.trace_spans, metadata=prov)
        result.notes.append(
            f"trace written to {path.relative_to(ROOT)} "
            f"({len(ctx.trace_spans)} spans)"
        )

    wanted = PER_LAYER if ctx.trace else END_TO_END
    for name, unit in wanted.items():
        emitted = result.metrics.get(name)
        if emitted is None or emitted[1] != unit:
            result.errors.append(f"harness: metric {name} [{unit}] not emitted")

    for note in result.notes:
        print(note)
    for name in sorted(result.metrics):
        value, unit = result.metrics[name]
        print(f"{name:32s} {value:14.6f} {unit:6s} n={result.samples.get(name, 1)}")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    line = {
        "correct": not result.errors,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": unit}
            for name, unit in wanted.items()
            if name in result.metrics
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if not result.errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
