"""The three workloads.  Each drives the program only through public entry
points and returns a :class:`harness.Result`.

* ``cli_small`` — fresh ``python -m repro.cli enrich`` processes, one after
  another (closed loop, one client), on the 30-concept x 6-doc scenario.
  Process start and Step II training dominate.
* ``batch_large`` — cold in-process ``OntologyEnricher.enrich`` with two
  process workers on a 40-concept x 10-doc scenario: the only workload
  where the worker pools and a sizeable index build run.
* ``served_stream`` — a ``repro serve`` process owning a disk cache, one
  registered scenario and its ontology.  A writer thread streams one
  held-out document per delta job (closed loop); a reader thread sends
  synchronous ``POST /recommend`` at 20/s (open loop), each read
  timed from when it was due.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import string
import subprocess
import sys
import threading
import time

import checks
import tracer as tracing
from harness import (
    BENCH_DIR,
    Context,
    HostSpeed,
    Result,
    children_peak_rss_mb,
    import_seconds,
    median,
    percentile,
    process_peak_rss_mb,
    self_peak_rss_mb,
    stop_process,
    supported_tail,
    timed_setups,
)
from metrics import PER_LAYER

CLI_SIZE = {"n_concepts": 30, "docs_per_concept": 6}
BATCH_SIZE = {"n_concepts": 40, "docs_per_concept": 10}
SERVED_SIZE = {"n_concepts": 40, "docs_per_concept": 6}
#: Held-out abstracts streamed as deltas; every QUIET_EVERY-th streamed
#: document is a quiet one that mentions no known term.
SERVED_HELD_OUT = 48
QUIET_EVERY = 5
#: Open-loop /recommend rate, the highest rate measured steady beside the
#: delta writer.  A 25 s run makes 500 reads: enough for a p98 with ten
#: samples beyond it.
READ_RATE = 20.0
READ_TAIL = 98.0
POLL_SECONDS = 0.02
TRACED_ENTRY = BENCH_DIR / "traced_entry.py"
#: From-scratch set-ups per run; setup_s is their median.  A served
#: set-up boots a server and runs a cold delta (~4 s), so it gets fewer.
SETUP_REPEATS = 7
SERVED_SETUP_REPEATS = 3

SERVICE_LAYER = (
    "service.queue_wait_s",
    "service.job_run_s",
    "service.polls_per_delta",
    "service.recommend_idle_ms",
    "service.generator_late_ms",
    "read_ms.p50",
    "read_ms.p98",
)


def _write_scenario(directory, ontology, corpus) -> None:
    from repro.corpus.io import write_corpus_jsonl
    from repro.ontology.io import write_ontology_json

    directory.mkdir(parents=True)
    write_ontology_json(ontology, directory / "ontology.json")
    write_corpus_jsonl(corpus, directory / "corpus.jsonl")


def _reference_report(directory, documents=(), **config):
    """In-process enrich of the files in ``directory`` (plus ``documents``)."""
    from repro.corpus.io import read_corpus_jsonl
    from repro.ontology.io import read_ontology_json
    from repro.workflow.config import EnrichmentConfig
    from repro.workflow.pipeline import OntologyEnricher

    corpus = read_corpus_jsonl(directory / "corpus.jsonl")
    for document in documents:
        corpus.add(document)
    enricher = OntologyEnricher(
        read_ontology_json(directory / "ontology.json"),
        config=EnrichmentConfig(**config),
    )
    return enricher.enrich(corpus)


# -- per-layer accounting ----------------------------------------------------


def _layer_metrics(res: Result, ops: list[tuple[float, list, float]]) -> None:
    """Mean per-operation self time per layer, from traced operations.

    ``ops`` holds ``(wall seconds, the operation's spans, seconds spent
    outside the spans but attributed elsewhere)``.  The unattributed
    remainder makes the layers add up to the wall time exactly.
    """
    n = len(ops)
    res.check(n > 0, "trace: no traced operation to attribute")
    sums: dict[str, float] = {}
    residual = hits = lookups = 0.0
    for wall, spans, attributed_elsewhere in ops:
        totals, calls = tracing.self_times(spans)
        covered = 0.0
        for name in tracing.LAYER_SPANS:
            sums[f"{name}_s"] = sums.get(f"{name}_s", 0.0) + totals.get(name, 0.0)
            covered += totals.get(name, 0.0)
        for name in tracing.COUNTED_SPANS:
            sums[f"{name}_calls"] = sums.get(f"{name}_calls", 0.0) + calls.get(name, 0)
        residual += wall - covered - attributed_elsewhere
        for span in spans:
            cache = span.args.get("cache")
            if cache:
                hits += cache.get("hits", 0)
                lookups += cache.get("hits", 0) + cache.get("misses", 0)
    for name, total in sums.items():
        res.put(name, total / max(n, 1), PER_LAYER[name], samples=n)
    res.put("workflow.unattributed_s", residual / max(n, 1), "s", samples=n)
    res.put("polysemy.cache_lookups", lookups / max(n, 1), "count", samples=n)
    res.put("polysemy.cache_hits", hits / max(n, 1), "count", samples=n)
    ratio = hits / lookups if lookups else 0.0
    res.put("polysemy.cache_hit_ratio", ratio, "ratio", samples=n)
    mean_wall = sum(op[0] for op in ops) / max(n, 1)
    res.notes.append(
        f"accounting: layers {mean_wall - residual / max(n, 1):.3f} s + "
        f"unattributed {residual / max(n, 1):.3f} s = wall {mean_wall:.3f} s per op"
    )


def _overhead(res: Result, untraced: list[float], traced: list[float]) -> None:
    base = median(untraced)
    share = median(traced) / base - 1.0 if base and traced else 0.0
    res.put("trace.overhead_share", share, "ratio", samples=len(traced))
    res.notes.append(
        f"tracing overhead: traced wall p50 {median(traced):.3f} s vs "
        f"untraced {base:.3f} s ({len(traced)} vs {len(untraced)} ops)"
    )


def _op_metrics(res: Result, label: str, walls: list[float], host: HostSpeed) -> None:
    """``op_adj_s.p50`` from untraced wall times; the raw ones go to the notes."""
    factor = host.factor()
    res.put("op_adj_s.p50", median(walls) * factor, "s", samples=len(walls))
    res.notes.append(
        f"{label}: wall p50 {median(walls):.4f} s, max "
        f"{max(walls, default=0.0):.4f} s over {len(walls)} ops; host factor "
        f"{factor:.3f} from {len(host.loops)} reference loops: "
        + " ".join(f"{w:.3f}" for w in walls)
    )


def _more(deadline: float, walls: dict[bool, list[float]], trace: bool) -> bool:
    """Run until the deadline, and at least once traced and untraced."""
    return (
        time.perf_counter() < deadline
        or not walls[False]
        or (trace and not walls[True])
    )


def _bypassed(res: Result, names) -> None:
    """Layers the workload never enters: zero work, recorded as such."""
    for name in names:
        res.put(name, 0.0, PER_LAYER[name], samples=0)


# -- cli_small ---------------------------------------------------------------


def cli_small(ctx: Context) -> Result:
    from repro.scenarios import make_enrichment_scenario

    res = Result()
    ctx.sizes.update(CLI_SIZE)

    def build(repeat):
        directory = ctx.workdir / f"cli-{repeat}"
        scenario = make_enrichment_scenario(seed=ctx.seed, **CLI_SIZE)
        _write_scenario(directory, scenario.ontology, scenario.corpus)
        return directory

    directory, setup_s = timed_setups(build, repeats=SETUP_REPEATS)
    res.put("setup_s", setup_s, "s", samples=SETUP_REPEATS)
    command = [
        "enrich",
        "--ontology", str(directory / "ontology.json"),
        "--corpus", str(directory / "corpus.jsonl"),
    ]

    walls: dict[bool, list[float]] = {False: [], True: []}
    outputs: list[str] = []
    traced_ops: list[tuple[float, str]] = []
    host = HostSpeed()
    deadline = time.perf_counter() + ctx.seconds
    while _more(deadline, walls, ctx.trace) and res.failed < 3:
        traced = ctx.trace and len(outputs) % 2 == 1
        if traced:
            trace_file = ctx.workdir / f"cli-trace-{len(outputs)}.json"
            argv = [
                sys.executable, str(TRACED_ENTRY),
                "--trace-out", str(trace_file), "--", *command,
            ]
        else:
            argv = [sys.executable, "-m", "repro.cli", *command]
        res.attempted += 1
        started = time.perf_counter()
        proc = subprocess.run(
            argv, env=ctx.env, capture_output=True, text=True, timeout=150
        )
        wall = time.perf_counter() - started
        host.sample()
        if proc.returncode != 0:
            res.failed += 1
            res.errors.append(f"cli: enrich exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        walls[traced].append(wall)
        outputs.append(proc.stdout)
        if traced:
            traced_ops.append((wall, str(trace_file)))

    _op_metrics(res, "enrich_s", walls[False], host)
    res.put("peak_rss_mb", children_peak_rss_mb(), "MB")
    # n_candidates=10 is `repro enrich`'s --candidates default.
    reference = _reference_report(directory, n_candidates=10).to_table() + "\n"
    res.errors.extend(checks.check_cli_outputs(outputs, reference))

    if ctx.trace:
        span_lists, ops = [], []
        for wall, trace_file in traced_ops:
            spans = tracing.read_chrome_trace(trace_file)
            span_lists.append(spans)
            with open(trace_file) as handle:
                import_s = json.load(handle)["metadata"]["import_s"]
            for run in tracing.runs(spans, "workflow.enrich"):
                ops.append((wall, run, import_s))
        merged = tracing.merge(span_lists)
        ctx.trace_spans = merged
        _layer_metrics(res, ops)
        _overhead(res, walls[False], walls[True])
        # What each traced process paid to import repro.cli, so the
        # layers add up to the process wall time.
        imports = [op[2] for op in ops]
        res.put(
            "process.import_s",
            sum(imports) / max(len(imports), 1),
            "s",
            samples=len(imports),
        )
        res.put("streaming.terms_recomputed", 0.0, "count", samples=0)
        _bypassed(res, SERVICE_LAYER)
    return res


# -- batch_large -------------------------------------------------------------


def batch_large(ctx: Context) -> Result:
    from repro.corpus.corpus import Corpus
    from repro.scenarios import make_enrichment_scenario
    from repro.workflow.config import EnrichmentConfig
    from repro.workflow.pipeline import OntologyEnricher

    res = Result()
    ctx.sizes.update(BATCH_SIZE, n_workers=2, worker_backend="process")

    def build(repeat):
        scenario = make_enrichment_scenario(seed=ctx.seed, **BATCH_SIZE)
        return scenario, list(scenario.corpus)

    (scenario, documents), setup_s = timed_setups(build, repeats=SETUP_REPEATS)
    res.put("setup_s", setup_s, "s", samples=SETUP_REPEATS)

    def enrich(n_workers: int) -> dict:
        enricher = OntologyEnricher(
            scenario.ontology,
            config=EnrichmentConfig(n_workers=n_workers, worker_backend="process"),
            pos_lexicon=scenario.pos_lexicon,
        )
        return enricher.enrich(Corpus(documents)).to_dict()

    tracer = tracing.Tracer(enabled=False)
    if ctx.trace:
        tracer.install()
    walls: dict[bool, list[float]] = {False: [], True: []}
    reports: list[dict] = []
    traced_walls: list[float] = []
    host = HostSpeed()
    deadline = time.perf_counter() + ctx.seconds
    try:
        while _more(deadline, walls, ctx.trace):
            traced = ctx.trace and len(reports) % 2 == 1
            res.attempted += 1
            gc.collect()  # start each run from the same heap state
            tracer.enabled = traced
            started = time.perf_counter()
            report = enrich(2)
            wall = time.perf_counter() - started
            tracer.enabled = False
            walls[traced].append(wall)
            host.sample()
            reports.append(report)
            if traced:
                traced_walls.append(wall)
    finally:
        tracer.uninstall()

    _op_metrics(res, "enrich_s", walls[False], host)
    res.put("peak_rss_mb", max(self_peak_rss_mb(), children_peak_rss_mb()), "MB")
    res.errors.extend(checks.check_reports(reports, enrich(1), "batch"))

    if ctx.trace:
        enrich_runs = tracing.runs(tracer.spans, "workflow.enrich")
        res.check(
            len(enrich_runs) == len(traced_walls),
            f"trace: {len(enrich_runs)} enrich runs for {len(traced_walls)} traced ops",
        )
        ctx.trace_spans = tracer.spans
        _layer_metrics(res, [(w, run, 0.0) for w, run in zip(traced_walls, enrich_runs)])
        _overhead(res, walls[False], walls[True])
        res.put("process.import_s", import_seconds(ctx), "s", samples=3)
        res.put("streaming.terms_recomputed", 0.0, "count", samples=0)
        _bypassed(res, SERVICE_LAYER)
    return res


# -- served_stream -----------------------------------------------------------


def _quiet_document(rng: random.Random, doc_id: str):
    """A document of fresh nonsense words: it mentions no known term."""
    from repro.corpus.document import Document

    def word():
        return "zq" + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))

    return Document(doc_id, [[word() for _ in range(9)] for _ in range(3)])


def _stream(ctx: Context, documents: list) -> tuple[list, list, list[str]]:
    """Split into (base corpus, streamed documents, read texts) by seed."""
    rng = random.Random(ctx.seed)
    held = set(rng.sample(range(len(documents)), SERVED_HELD_OUT))
    base = [doc for i, doc in enumerate(documents) if i not in held]
    abstracts = [documents[i] for i in sorted(held)]
    rng.shuffle(abstracts)
    stream = []
    while abstracts:
        if len(stream) % QUIET_EVERY == QUIET_EVERY - 1:
            stream.append(_quiet_document(rng, f"quiet-{ctx.seed}-{len(stream)}"))
        else:
            stream.append(abstracts.pop())
    texts = [
        ". ".join(" ".join(sentence) for sentence in doc.sentences)
        for doc in rng.sample(documents, min(64, len(documents)))
    ]
    return base, stream, texts


def _wire(document) -> dict:
    return {"doc_id": document.doc_id, "sentences": document.sentences}


def _wait_for_url(proc: subprocess.Popen, log_path, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in log_path.read_text().splitlines():
            if line.startswith("repro service listening on "):
                return line.split()[4]
        if proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited {proc.returncode}: "
                f"{log_path.read_text()[-500:]}"
            )
        time.sleep(0.02)
    raise RuntimeError("repro serve did not report its URL in time")


def _run_delta(client, document) -> tuple[dict, float, int]:
    """Submit one document and poll its job to the end: (job, seconds, polls)."""
    started = time.perf_counter()
    job_id, _ = client.post_documents(
        "bench", [_wire(document)], idempotency_key=document.doc_id
    )
    polls = 0
    while True:
        job = client.job(job_id)
        polls += 1
        if job.get("status") in ("done", "failed"):
            return job, time.perf_counter() - started, polls
        time.sleep(POLL_SECONDS)


def served_stream(ctx: Context) -> Result:
    from repro.corpus.corpus import Corpus
    from repro.scenarios import make_enrichment_scenario
    from repro.service.client import ServiceClient, ServiceError

    res = Result()
    ctx.sizes.update(
        SERVED_SIZE,
        held_out=SERVED_HELD_OUT,
        quiet_share=1.0 / QUIET_EVERY,
        read_rate_per_s=READ_RATE,
    )

    def build(repeat):
        directory = ctx.workdir / f"served-{repeat}"
        scenario = make_enrichment_scenario(seed=ctx.seed, **SERVED_SIZE)
        base, stream, texts = _stream(ctx, list(scenario.corpus))
        _write_scenario(directory / "scenario", scenario.ontology, Corpus(base))
        trace_file = directory / "trace.json"
        prefix = [sys.executable, "-m", "repro.cli"]
        if ctx.trace:
            prefix = [
                sys.executable, str(TRACED_ENTRY),
                "--trace-out", str(trace_file), "--start-disabled", "--",
            ]
        log_path = directory / "serve.log"
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [
                    *prefix, "serve",
                    "--cache-dir", str(directory / "cache"),
                    "--port", "0",
                    "--scenario", f"bench={directory / 'scenario'}",
                    "--ontology",
                    f"bench={directory / 'scenario' / 'ontology.json'}",
                ],
                env=ctx.env, stdout=log, stderr=subprocess.STDOUT,
            )
        ctx.processes.append(proc)
        state = {
            "dir": directory,
            "proc": proc,
            "stream": stream,
            "texts": texts,
            "trace_file": trace_file,
        }
        url = _wait_for_url(proc, log_path)
        state["writer"] = ServiceClient(url, timeout=120)
        state["reader"] = ServiceClient(url, timeout=120)
        # The cold baseline runs inside the first delta.
        job, _, _ = _run_delta(state["writer"], stream[0])
        state["jobs"] = [job]
        idle = []
        for text in texts[:30]:
            started = time.perf_counter()
            state["reader"].recommend(text=text)
            idle.append((time.perf_counter() - started) * 1e3)
        state["idle_ms"] = median(idle)
        return state

    def teardown(state):
        state["writer"].close()
        state["reader"].close()
        stop_process(state["proc"])

    state, setup_s = timed_setups(build, teardown, repeats=SERVED_SETUP_REPEATS)
    res.put("setup_s", setup_s, "s", samples=SERVED_SETUP_REPEATS)
    proc, stream, texts = state["proc"], state["stream"], state["texts"]

    deltas: list[dict] = []
    reads: list[tuple[float, float]] = []  # (latency from due, lateness)
    read_errors: list[str] = []
    lock = threading.Lock()
    host = HostSpeed()
    start = time.perf_counter()
    deadline = start + ctx.seconds

    def writer():
        walls: dict[bool, list[float]] = {False: [], True: []}
        for position, document in enumerate(stream[1:]):
            if not _more(deadline, walls, ctx.trace):
                return
            traced = ctx.trace and position % 2 == 1
            if ctx.trace:
                os.kill(proc.pid, signal.SIGUSR1 if traced else signal.SIGUSR2)
                time.sleep(0.05)
            job, seconds, polls = _run_delta(state["writer"], document)
            host.sample()
            walls[traced].append(seconds)
            deltas.append(
                {
                    "job": job,
                    "seconds": seconds,
                    "polls": polls,
                    "traced": traced,
                    "quiet": document.doc_id.startswith("quiet-"),
                }
            )
        res.notes.append("served: document stream exhausted before the deadline")

    def reader():
        n = 0
        while True:
            due = start + n / READ_RATE
            if due >= deadline:
                return
            time.sleep(max(0.0, due - time.perf_counter()))
            sent = time.perf_counter()
            try:
                document = state["reader"].recommend(text=texts[n % len(texts)])
                problems = checks.check_recommend(200, document)
            except ServiceError as exc:
                problems = [f"recommend: {exc}"]
            done = time.perf_counter()
            with lock:
                reads.append((done - due, sent - due))
                read_errors.extend(problems)
            n += 1

    def guarded(fn, label):
        def body():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - thread boundary
                with lock:  # reported as a check failure
                    res.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return threading.Thread(target=body, name=label)

    threads = [guarded(writer, "writer"), guarded(reader, "reader")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
        res.check(not thread.is_alive(), f"{thread.name}: still running")

    peak_rss = process_peak_rss_mb(proc.pid)
    teardown(state)

    jobs = state["jobs"] + [delta["job"] for delta in deltas]
    failed_deltas = sum(job.get("status") != "done" for job in jobs[1:])
    res.attempted = len(deltas) + len(reads)
    res.failed = failed_deltas + len(read_errors)
    res.errors.extend(read_errors[:5])

    untraced = [d for d in deltas if not d["traced"]]
    _op_metrics(res, "delta_s", [d["seconds"] for d in untraced], host)
    res.put("peak_rss_mb", peak_rss, "MB")
    latencies = [r[0] * 1e3 for r in reads]
    tail = supported_tail(len(latencies), READ_TAIL)
    res.notes.append(
        "delta_s by document ('q': quiet): "
        + " ".join(f"{d['seconds']:.3f}{'q' if d['quiet'] else ''}" for d in untraced)
    )
    res.notes.append(
        f"read_ms: p50 {median(latencies):.3f}, p{tail:g} "
        f"{percentile(latencies, tail):.3f} over {len(latencies)} reads "
        f"at {READ_RATE:g}/s"
    )
    done_jobs = [job for job in jobs[1:] if job.get("status") == "done"]
    for key in ("train", "extract", "detect", "induce", "link", "carry_forward"):
        values = [job["report"]["timings"].get(key, 0.0) for job in done_jobs]
        res.notes.append(f"delta timings.{key}: p50 {median(values):.4f} s")

    # Correctness: the composed diffs equal a from-scratch enrich.
    scenario_dir = state["dir"] / "scenario"
    by_id = {doc.doc_id: doc for doc in stream}
    grown = [
        by_id[doc_id]
        for job in jobs
        if job.get("status") == "done"
        for doc_id in job["report"]["documents"]
    ]
    base = _reference_report(scenario_dir).to_dict()
    reference = _reference_report(scenario_dir, grown).to_dict()
    res.errors.extend(checks.check_deltas(jobs, base, reference))

    if ctx.trace:
        spans = tracing.read_chrome_trace(state["trace_file"])
        ctx.trace_spans = spans
        traced = [d for d in deltas if d["traced"]]
        delta_runs = tracing.runs(spans, "streaming.delta")
        res.check(
            len(delta_runs) == len(traced),
            f"trace: {len(delta_runs)} delta runs for {len(traced)} traced deltas",
        )
        ops = [(d["seconds"], run, 0.0) for d, run in zip(traced, delta_runs)]
        _layer_metrics(res, ops)
        _overhead(
            res, [d["seconds"] for d in untraced], [d["seconds"] for d in traced]
        )
        res.put("process.import_s", import_seconds(ctx), "s", samples=3)
        recomputed = [job["report"]["n_recomputed"] for job in done_jobs]
        n_done = len(done_jobs)
        res.put(
            "streaming.terms_recomputed",
            sum(recomputed) / max(n_done, 1),
            "count",
            samples=n_done,
        )
        waits = [j["started_at"] - j["submitted_at"] for j in done_jobs]
        runs = [j["finished_at"] - j["started_at"] for j in done_jobs]
        res.put("service.queue_wait_s", median(waits), "s", samples=n_done)
        res.put("service.job_run_s", median(runs), "s", samples=n_done)
        polls = [d["polls"] for d in deltas]
        res.put("service.polls_per_delta", median(polls), "count", samples=len(deltas))
        res.put("service.recommend_idle_ms", state["idle_ms"], "ms", samples=30)
        late = percentile([r[1] * 1e3 for r in reads], tail)
        res.put("service.generator_late_ms", late, "ms", samples=len(reads))
        res.put("read_ms.p50", median(latencies), "ms", samples=len(latencies))
        res.put("read_ms.p98", percentile(latencies, tail), "ms", samples=len(latencies))
    return res


def quality(ctx: Context, res: Result) -> None:
    """Paper-quality numbers at the bench suite's settings, untimed."""
    from repro.corpus.pubmed import PubMedSpec
    from repro.eval import paper
    from repro.eval.experiments import (
        run_linkage_precision_experiment,
        run_polysemy_detection_experiment,
    )

    # bench_table4_linkage_precision.py's calibrated small-scale settings.
    table4 = run_linkage_precision_experiment(
        n_terms=30,
        n_concepts=200,
        docs_per_concept=2,
        mean_synonyms=0.2,
        inherit_fraction=0.1,
        pubmed_spec=PubMedSpec(
            mention_prob=0.25,
            related_mention_prob=0.4,
            noise_mention_prob=0.5,
            background_fraction=0.9,
        ),
        seed=ctx.seed,
    ).as_row()
    # bench_polysemy_detection.py's small scale, default classifier only.
    f1 = run_polysemy_detection_experiment(
        classifiers=("forest",), n_entities=120, n_splits=10, seed=ctx.seed
    )["forest"]
    for name, value, published in (
        ("quality.table4_p1", table4[1], paper.TABLE4_PRECISION_AT[1]),
        ("quality.table4_p10", table4[10], paper.TABLE4_PRECISION_AT[10]),
        ("quality.step2_f1", f1, paper.POLYSEMY_DETECTION_F_MEASURE),
    ):
        res.put(name, value, "ratio")
        res.notes.append(f"{name}: measured {value:.3f}, paper {published:.3f}")


WORKLOADS = {
    "cli_small": cli_small,
    "batch_large": batch_large,
    "served_stream": served_stream,
}
