"""On-disk corpus index: persist once, mmap-reopen everywhere.

At PubMed scale the index build dominates every run, and
``worker_backend="process"`` used to pay it *per worker* (the postings
were pickled across the pipe).  With an
:class:`~repro.corpus.index_store.IndexStore` the index is built and
persisted once; every later run — and every process-pool worker —
memory-maps the same on-disk arrays in O(1).  The mapped index answers
every query byte-identically to the in-memory build, and it pickles to
its *directory path*, so shipping it to a worker costs a few hundred
bytes no matter how large the corpus is.

Run: ``PYTHONPATH=src python examples/large_corpus.py``
"""

import pickle
import tempfile
import time

from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import IndexStore
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


def enrich(scenario, **config_fields):
    config = EnrichmentConfig(n_candidates=8, seed=0, **config_fields)
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )
    return enricher.enrich(scenario.corpus)


def main(
    n_concepts: int = 30,
    docs_per_concept: int = 5,
    n_workers: int = 2,
) -> None:
    scenario = make_enrichment_scenario(
        seed=11, n_concepts=n_concepts, docs_per_concept=docs_per_concept
    )
    corpus = scenario.corpus
    index_dir = tempfile.mkdtemp(prefix="repro-index-store-")
    store = IndexStore(index_dir)
    print(f"index store at {index_dir}")
    print(f"corpus: {corpus.n_documents()} documents, "
          f"{corpus.n_tokens():,} tokens")

    # Cold: build the index and persist it.
    started = time.perf_counter()
    built = store.load_or_build(corpus)
    build_seconds = time.perf_counter() - started
    print(f"cold : build + persist {build_seconds:.3f}s "
          f"(fingerprint {built.fingerprint()[:12]})")

    # Warm: the same call now only fingerprints the documents and
    # mmap-reopens the stored arrays — no tokens are re-indexed.
    started = time.perf_counter()
    reopened = store.load_or_build(corpus)
    reopen_seconds = time.perf_counter() - started
    print(f"warm : mmap reopen     {reopen_seconds:.3f}s — "
          f"{build_seconds / max(reopen_seconds, 1e-9):.1f}x faster")
    assert reopened.fingerprint() == built.fingerprint()

    # The mmap index pickles to a path handle; the in-memory build
    # pickles to its entire postings.  This is what a process-pool
    # worker receives.
    in_memory = CorpusIndex(corpus)
    handle_bytes = len(pickle.dumps(reopened))
    full_bytes = len(pickle.dumps(in_memory))
    print(f"worker payload: mmap handle {handle_bytes:,} bytes "
          f"vs in-memory index {full_bytes:,} bytes")

    # End to end: the pipeline reuses the store via
    # EnrichmentConfig(index_dir=...) and fans Steps II-III over a
    # process pool whose workers map the same arrays.
    baseline = enrich(scenario)
    stored = enrich(
        scenario,
        index_dir=index_dir,
        worker_backend="process",
        n_workers=n_workers,
    )
    identical = [t.term for t in baseline.terms] == [
        t.term for t in stored.terms
    ] and [t.polysemic for t in baseline.terms] == [
        t.polysemic for t in stored.terms
    ]
    print(f"process-pool enrichment over the mmap index: "
          f"{len(stored.terms)} candidates")
    print(f"identical reports: {identical}")


if __name__ == "__main__":
    main()
