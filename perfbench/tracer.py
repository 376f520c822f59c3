"""In-memory span recorder that wraps the program's public layer calls.

The benchmark measures the program from outside, so the traced run
replaces each layer's entry point, at the name its caller looks it up
under, with a wrapper that records a span (name, start, end, parent,
run id, thread) and calls the original.  Nothing under ``src/`` changes.

A span opened with no enclosing span starts a new run; every span below
it shares that run's id.  Spans stay in memory until :func:`write_chrome_trace`
dumps them as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open directly.

Worker processes forked by the program's pools inherit the wrappers but
their spans stay in the worker's memory, so per-candidate spans inside
pool workers are absent by design: the enclosing stage span covers them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

#: (module, attribute path, span name).  The attribute path is resolved
#: on the module the *caller* reads it from, so functions imported by
#: name are wrapped where the importing module looks them up.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.workflow.streaming", "StreamingEnricher.add_documents", "streaming.delta"),
    ("repro.workflow.streaming", "StreamingEnricher._carry_cache_forward", "streaming.carry_forward"),
    ("repro.workflow.pipeline", "OntologyEnricher.enrich", "workflow.enrich"),
    ("repro.workflow.pipeline", "OntologyEnricher.train_polysemy_detector", "workflow.train"),
    ("repro.workflow.pipeline", "ExtractStage.run", "workflow.extract"),
    ("repro.workflow.pipeline", "DetectStage.run", "workflow.detect"),
    ("repro.workflow.pipeline", "InduceStage.run", "workflow.induce"),
    ("repro.workflow.pipeline", "LinkStage.run", "workflow.link"),
    ("repro.workflow.pipeline", "build_polysemy_dataset", "polysemy.dataset"),
    ("repro.corpus.corpus", "Corpus.index", "corpus.index"),
    ("repro.corpus.corpus", "Corpus.contexts_for_term", "corpus.contexts"),
    ("repro.corpus.index", "CorpusIndex.contexts_for_term", "corpus.contexts"),
    ("repro.corpus.index", "CorpusIndex.occurrence_records", "corpus.contexts"),
    ("repro.polysemy.features", "PolysemyFeatureExtractor.features_from_contexts", "polysemy.featurize"),
    ("repro.polysemy.features", "build_context_graph", "polysemy.context_graph"),
    ("repro.polysemy.features", "graph_features", "polysemy.graph_features"),
    ("repro.polysemy.cache", "FeatureCache.lookup", "polysemy.cache_lookup"),
    ("repro.polysemy.cache", "FeatureCache.lookup_many", "polysemy.cache_lookup"),
    ("repro.polysemy.cache", "FeatureCache.store", "polysemy.cache_store"),
    ("repro.polysemy.cache", "FeatureCache.store_many", "polysemy.cache_store"),
    ("repro.polysemy.detector", "PolysemyDetector.fit", "ml.fit"),
    ("repro.text.postag", "LexiconTagger.tag", "text.tag"),
    ("repro.extraction.extractor", "harvest_candidates", "extraction.harvest"),
    ("repro.text.cooccurrence", "CooccurrenceGraphBuilder.build", "text.cooccurrence"),
    ("repro.linkage.linker", "SemanticLinker.prepare", "linkage.prepare"),
    ("repro.linkage.linker", "SemanticLinker.propose", "linkage.propose"),
)

#: Layer span names reported as ``<name>_s`` self time per operation.
LAYER_SPANS: tuple[str, ...] = tuple(
    dict.fromkeys(
        name
        for _, _, name in LAYER_TARGETS
        if name not in ("streaming.delta", "workflow.enrich")
    )
)
#: Layers whose call count is reported as ``<name>_calls``.
COUNTED_SPANS: tuple[str, ...] = (
    "corpus.contexts",
    "polysemy.featurize",
    "text.tag",
    "linkage.propose",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    run_id: int
    parent_id: int | None
    thread_id: int
    end: float = 0.0
    args: dict = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)


class Tracer:
    """Records spans for wrapped calls while :attr:`enabled` is true."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span_id = next(self._ids)
                run_id = parent.run_id if parent else next(self._runs)
            span = Span(
                span_id=span_id,
                name=name,
                start=time.perf_counter(),
                run_id=run_id,
                parent_id=parent.span_id if parent else None,
                thread_id=threading.get_ident(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                _annotate(span, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self) -> None:
        """Replace every layer target with its traced wrapper."""
        for module_name, path, name in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore every wrapped target."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _annotate(span: Span, result) -> None:
    """Keep the counters a root span's result carries."""
    if span.name == "workflow.enrich":
        span.args["cache"] = dict(getattr(result, "cache", {}))
    elif span.name == "streaming.delta":
        span.args["terms_recomputed"] = getattr(result, "n_recomputed", 0)


def write_chrome_trace(path, spans, *, metadata: dict | None = None) -> None:
    """Dump ``spans`` as Chrome trace-event JSON (complete events)."""
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": span.pid,
            "tid": span.thread_id,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "run_id": span.run_id,
                **span.args,
            },
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "metadata": metadata or {}}, handle
        )


def read_chrome_trace(path) -> list[Span]:
    """Spans back from a file written by :func:`write_chrome_trace`."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for event in events:
        args = dict(event["args"])
        start = event["ts"] / 1e6
        spans.append(
            Span(
                span_id=args.pop("span_id"),
                name=event["name"],
                start=start,
                end=start + event["dur"] / 1e6,
                run_id=args.pop("run_id"),
                parent_id=args.pop("parent_id"),
                thread_id=event["tid"],
                args=args,
                pid=event["pid"],
            )
        )
    return spans


def runs(spans, root_name: str) -> list[list[Span]]:
    """Spans grouped per run whose root is ``root_name``, in start order."""
    by_run: dict[int, list[Span]] = {}
    for span in spans:
        by_run.setdefault(span.run_id, []).append(span)
    grouped = []
    for members in by_run.values():
        roots = [s for s in members if s.parent_id is None]
        if len(roots) == 1 and roots[0].name == root_name:
            grouped.append(members)
    grouped.sort(key=lambda members: min(s.start for s in members))
    return grouped


def self_times(run_spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self time and call count of one run's spans.

    A span's self time is its duration minus the time its direct
    children cover.  Children run on the parent's thread and nest
    inside it, so their durations never overlap each other.  A call
    nested in a span of the same name (a wrapper calling a wrapped
    delegate) is not counted twice.
    """
    by_id = {span.span_id: span for span in run_spans}
    child_time: dict[int, float] = {}
    for span in run_spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + (
                span.end - span.start
            )
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in run_spans:
        own = (span.end - span.start) - child_time.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
        parent = by_id.get(span.parent_id)
        if parent is None or parent.name != span.name:
            calls[span.name] = calls.get(span.name, 0) + 1
    return totals, calls


def merge(span_lists: list[list[Span]]) -> list[Span]:
    """Concatenate spans of several processes, keeping ids unique."""
    merged: list[Span] = []
    id_offset = run_offset = 0
    for spans in span_lists:
        for span in spans:
            span.span_id += id_offset
            span.run_id += run_offset
            if span.parent_id is not None:
                span.parent_id += id_offset
        merged.extend(spans)
        id_offset = max((s.span_id for s in merged), default=0)
        run_offset = max((s.run_id for s in merged), default=0)
    return merged
