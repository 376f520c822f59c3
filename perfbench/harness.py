"""Shared plumbing: statistics, child processes, memory, provenance."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Context:
    """What every workload receives from the command line."""

    root: Path  # checkout root holding src/repro
    workdir: Path  # scratch directory inside the checkout, removed after
    seed: int
    seconds: float
    trace: bool
    sizes: dict = field(default_factory=dict)
    trace_spans: list = field(default_factory=list)
    #: Long-lived children; the runner stops any still alive at exit.
    processes: list = field(default_factory=list)

    @property
    def env(self) -> dict[str, str]:
        """Environment for child Python processes running the program."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def trace_path(self, workload: str) -> Path:
        out = self.root / ".perfbench" / "traces"
        out.mkdir(parents=True, exist_ok=True)
        return out / f"{workload}-seed{self.seed}.json"


@dataclass
class Result:
    """One workload run: counts, metrics (value, unit) and check failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = samples

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def supported_tail(n: int, wanted: float) -> float:
    """Highest percentile <= ``wanted`` leaving >= 10 samples beyond it."""
    if n <= 10:
        return 50.0
    return min(wanted, 100.0 * (n - 10) / n)


#: Roughly one :func:`reference_loop` on the 2-vCPU x86-64 host the
#: benchmark's bounds were set on (it took 15-30 ms there).  It only
#: sets the scale of host-adjusted seconds.
REFERENCE_LOOP_S = 0.020
_REFERENCE_ARRAY = numpy.arange(20000, dtype=float) * 7919 % 20011


def reference_loop() -> float:
    """Wall seconds of a fixed interpreter-bound loop that calls no program code.

    Dict, string, sort and float work plus small single-threaded numpy
    calls: the mix the program's own hot paths are made of.  No BLAS
    call, so no thread pool, whose spin-up time varies on its own.  The
    collector is off while it runs: a collection would walk whatever the
    caller holds, and the loop must not depend on that.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        counts: dict[str, int] = {}
        for i in range(12000):
            word = f"w{(i * 7919) % 5003}x{i % 17}"
            counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        sum(len(word) * n for word, n in ranked[:3000])
        x = 0.0
        for i in range(15000):
            x += (i % 7) * 0.5
        for _ in range(4):
            numpy.sort(_REFERENCE_ARRAY)
            numpy.cumsum(_REFERENCE_ARRAY)
        return time.perf_counter() - started
    finally:
        gc.enable()


class HostSpeed:
    """Scale from a run's wall times to host-adjusted seconds.

    The host these runs share has slow spells: for a second to minutes
    at a time every CPU-bound step takes up to ~60% longer, so the same
    code reads ~50% slower in one run than in the next.  Three reference
    loops are timed before the first operation and after each one;
    :meth:`factor` is ``REFERENCE_LOOP_S`` over their mean, and wall
    time times the factor is the time the run would have taken with the
    loop at its quiet-host speed.  One factor for the whole run, from
    every sample: a per-operation factor from three loops is noisier
    than the spells it corrects.  The mean, not the median, because the
    operations live through the same mix of fast and slow moments the
    loops sample.  The loops run while no program code does, so a
    change to the program cannot move the factor.
    """

    SAMPLES = 3

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.sample()

    def sample(self) -> None:
        """Time the reference loops; call after each operation."""
        self.loops.extend(reference_loop() for _ in range(self.SAMPLES))

    def factor(self) -> float:
        return REFERENCE_LOOP_S / statistics.fmean(self.loops)


def timed_setups(build, teardown=None, *, repeats: int):
    """Run ``build`` ``repeats`` times; keep the last state.

    Returns ``(state, median host-adjusted seconds)``.  Every repetition
    builds from scratch, so the median is the set-up cost a single run
    pays.
    """
    times, state = [], None
    host = HostSpeed()
    for repeat in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        started = time.perf_counter()
        state = build(repeat)
        times.append(time.perf_counter() - started)
        host.sample()
    return state, median(times) * host.factor()


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_seconds(ctx: Context, repeats: int = 3) -> float:
    """Median wall time of a child process that only imports ``repro.cli``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=ctx.env,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - started)
    return median(times)


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, then SIGKILL after ``timeout``; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def provenance(ctx: Context, workload: str) -> dict:
    """Where and on what a result was measured."""
    import networkx
    import scipy

    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "tracing": ctx.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": _git_commit(ctx.root),
        "source_digest": source_digest(ctx.root),
        "sizes": ctx.sizes,
    }


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    """SHA-1 over ``src/**/*.py``: identifies the code without git."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
