"""Every metric the benchmark emits, with its unit.

``END_TO_END`` is what a user of the system sees; the untimed-quality
and tail numbers the benchmark also prints are not here because they
vary with the workload seed by more than any useful regression bound.
``PER_LAYER`` comes from the traced run; the comment on each group
names the end-to-end metric it should move, and on which workload.
``BENCHMARK.json`` must list exactly these (``selfcheck.py`` asserts it).
"""

from __future__ import annotations

from tracer import COUNTED_SPANS, LAYER_SPANS

END_TO_END: dict[str, str] = {
    # Seconds per operation the client waits for: one `repro enrich`
    # process (cli_small), one cold in-process enrich (batch_large), one
    # served delta from submit to done (served_stream).  Median wall
    # time, host-adjusted (harness.HostSpeed): scaled by how fast a fixed
    # reference loop ran between the run's operations, so that the
    # shared host's slow spells do not read as regressions.  The raw
    # wall times are printed beside it.
    "op_adj_s.p50": "s",
    # Peak RSS of the process(es) doing the work.
    "peak_rss_mb": "MB",
    # Median of several from-scratch set-ups of the workload's inputs,
    # host-adjusted like op_adj_s.
    "setup_s": "s",
}

PER_LAYER: dict[str, str] = {
    # Moves op_adj_s on cli_small only.
    "process.import_s": "s",
    # Self time per operation of each wrapped layer (see tracer.py);
    # workflow.* move op_adj_s everywhere, corpus.* and polysemy.* mostly on
    # cli_small and batch_large, text.*/extraction.*/linkage.* on
    # served_stream most.
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{f"{name}_calls": "count" for name in COUNTED_SPANS},
    # Wall time of the operation not covered by any layer above.
    "workflow.unattributed_s": "s",
    # Feature-cache traffic per operation; moves op_adj_s on served_stream.
    "polysemy.cache_lookups": "count",
    "polysemy.cache_hits": "count",
    "polysemy.cache_hit_ratio": "ratio",
    "streaming.terms_recomputed": "count",
    # Served path, from job documents and the load generator; moves
    # op_adj_s and read latency on served_stream (zero elsewhere: no service).
    "service.queue_wait_s": "s",
    "service.job_run_s": "s",
    "service.polls_per_delta": "count",
    "service.recommend_idle_ms": "ms",
    "service.generator_late_ms": "ms",
    "read_ms.p50": "ms",
    "read_ms.p98": "ms",
    # Failed over attempted operations (reads and writes).
    "failed_share": "ratio",
    # Traced over untraced median op_adj_s, minus one.
    "trace.overhead_share": "ratio",
    # Untimed, deterministic per seed; printed next to the paper's values.
    "quality.table4_p1": "ratio",
    "quality.table4_p10": "ratio",
    "quality.step2_f1": "ratio",
}
