"""Continuous enrichment: documents arrive, deltas come back.

Production corpora are document streams, not snapshots.  ``Corpus.add``
extends the cached positional index in place (O(new tokens) via
:meth:`~repro.corpus.index.CorpusIndex.add_documents`) instead of
rebuilding it.  On top of that,
:class:`~repro.workflow.streaming.StreamingEnricher` keeps the baseline
report, and each call to ``add_documents`` runs a **delta
re-enrichment** — only terms whose postings actually changed are
re-featurised (the per-document fingerprint chain identifies them);
every other Step II vector is carried forward into the new corpus
fingerprint and served warm, as the diff's own cache counters prove.

Each delta emits a :class:`~repro.workflow.streaming.ReportDiff` (terms
added / dropped / re-scored, with fingerprint provenance) that composes
with the prior report: ``diff.apply(base)`` reconstructs exactly what a
from-scratch run over the grown corpus would report.

The same loop runs as a daemon: ``repro serve --watch name=DIR`` (or
``POST /scenarios/<name>/documents``) feeds the stream, and
``repro watch`` tails the diffs.

Run:  python examples/continuous_enrichment.py
"""

from repro.corpus.document import Document
from repro.scenarios import make_enrichment_scenario
from repro.workflow import StreamingEnricher


def print_delta(label: str, diff) -> None:
    print(f"  {label}: delta over {diff.documents}")
    print(f"    changed-posting terms recomputed: {diff.n_recomputed}")
    print(f"    report rows: +{len(diff.added)} added, "
          f"{len(diff.rescored)} re-scored, {len(diff.dropped)} dropped")
    print(f"    feature cache: {diff.cache['hits']} warm hits, "
          f"{diff.cache['misses']} misses "
          f"({diff.timings['delta_total']:.3f}s)")


def main(n_concepts: int = 25, docs_per_concept: int = 5) -> None:
    scenario = make_enrichment_scenario(
        seed=9,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
        polysemy_histogram={2: 3},
    )
    streamer = StreamingEnricher(
        scenario.ontology, scenario.corpus, pos_lexicon=scenario.pos_lexicon
    )

    baseline = streamer.baseline()
    index = scenario.corpus.index()
    print(f"Baseline over {scenario.corpus.n_documents()} documents: "
          f"{len(baseline.terms)} report rows")

    # A quiet arrival: its tokens touch no known term, so no vector is
    # recomputed — the whole delta is served from the carried cache.
    quiet = streamer.add_documents(
        [Document("arrival-quiet", [["zzqx", "wwvk", "ggph", "zzqx"]])]
    )
    print_delta("quiet", quiet)
    extended = scenario.corpus.index() is index
    print(f"    index extended in place, not rebuilt: {extended} "
          f"({index.n_documents()} documents indexed)")

    # A loud arrival mentions a known term, so exactly that term's
    # postings change and only its vectors are re-featurised.
    term = sorted(scenario.ontology.terms())[0]
    loud = streamer.add_documents(
        [Document("arrival-loud", [term.split() + ["zzqx"] + term.split()])]
    )
    print_delta("loud", loud)
    print(f"    perturbed term: {loud.changed_terms}")

    # Diffs compose: replaying them onto the baseline reconstructs the
    # streamer's current report, fingerprint provenance intact.
    replayed = loud.apply(quiet.apply(baseline))
    same = [r.term for r in replayed.terms] == [
        r.term for r in streamer.report.terms
    ]
    print(f"\nreplayed diffs reconstruct the live report: {same}")
    print(f"fingerprint chain: {quiet.base_fingerprint[:8]} -> "
          f"{quiet.fingerprint[:8]} -> {loud.fingerprint[:8]}")
    assert extended, "Corpus.add must extend the cached index, not drop it"
    assert quiet.n_recomputed == 0, "a quiet arrival must recompute nothing"
    assert same, "diff replay must reconstruct the live report"


if __name__ == "__main__":
    main()
