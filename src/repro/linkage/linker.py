"""The semantic linker: ranked position propositions for a candidate term."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import LinkageError
from repro.linkage.context import TermContextIndex
from repro.linkage.neighborhood import build_term_graph, mesh_neighborhood
from repro.ontology.model import Ontology, normalize_term
from repro.text.cooccurrence import CooccurrenceGraph, CooccurrenceGraphBuilder


@dataclass(frozen=True)
class Proposition:
    """One proposed ontology position for a candidate term.

    Attributes
    ----------
    rank:
        1-based rank in the proposition list.
    term:
        The ontology term proposed as a position (synonym / father / son
        candidate).
    concept_ids:
        The concept(s) the position term names.
    cosine:
        Context cosine similarity between candidate and position.
    """

    rank: int
    term: str
    concept_ids: tuple[str, ...]
    cosine: float


class SemanticLinker:
    """Step IV end-to-end: candidate term in, ranked propositions out.

    The expensive artefacts — the term co-occurrence graph and the shared
    context-vector index — are built **once** on first use and reused for
    every subsequent :meth:`propose` call, so positioning the paper's 60
    evaluation terms costs one corpus pass, not sixty.

    Parameters
    ----------
    ontology:
        The ontology to position into.
    corpus:
        The context source (the paper uses the PubMed contexts of the
        candidate term).
    extra_terms:
        Candidate terms that are *not* ontology terms but will be
        positioned later (lets them join the shared graph/index build).
    window:
        Context window for the cosine vectors.
    graph_window:
        Co-occurrence window for the neighbourhood graph.
    top_k:
        Number of propositions returned (the paper proposes 10).
    expand_hierarchy:
        Include fathers/sons of neighbours (IV.2); ablation knob A4.
    index:
        Optional prebuilt :class:`~repro.corpus.index.CorpusIndex`; both
        shared artefacts (graph and context vectors) are derived from it
        (defaults to the corpus's cached index).

    Example
    -------
    ``linker.propose("corneal injuries")`` returns the Table 3 layout:
    ranked terms with cosine scores.
    """

    def __init__(
        self,
        ontology: Ontology,
        corpus: Corpus,
        *,
        extra_terms: Iterable[str] = (),
        window: int = 10,
        graph_window: int = 8,
        top_k: int = 10,
        expand_hierarchy: bool = True,
        index: CorpusIndex | None = None,
    ) -> None:
        if top_k < 1:
            raise LinkageError(f"top_k must be >= 1, got {top_k}")
        self.ontology = ontology
        self.corpus = corpus
        self._corpus_index = index
        self._index_supplied = index is not None
        self.window = window
        self.graph_window = graph_window
        self.top_k = top_k
        self.expand_hierarchy = expand_hierarchy
        self._extra_terms = {normalize_term(t) for t in extra_terms}
        self._graph: CooccurrenceGraph | None = None
        self._index: TermContextIndex | None = None

    # -- shared artefacts ---------------------------------------------------

    def _known_terms(self) -> list[str]:
        return sorted(set(self.ontology.terms()) | self._extra_terms)

    def prepare(self) -> "SemanticLinker":
        """Build the shared co-occurrence graph and context index now."""
        terms = self._known_terms()
        builder_terms = [tuple(t.split()) for t in terms]
        if not self._index_supplied:
            # Re-fetch on every (re)build: corpus.index() is cached, and a
            # rebuild after corpus.add must see the added documents.
            self._corpus_index = self.corpus.index()
        builder = CooccurrenceGraphBuilder(
            window=self.graph_window, stop_language=None, terms=builder_terms
        )
        self._graph = builder.build(self._corpus_index.token_documents())
        self._index = TermContextIndex(
            self.corpus, window=self.window, index=self._corpus_index
        )
        self._index.build(terms)
        return self

    def _ensure_prepared(
        self, candidate: str
    ) -> tuple[CooccurrenceGraph, TermContextIndex]:
        if candidate not in self._extra_terms and not self.ontology.has_term(
            candidate
        ):
            # Unanticipated candidate: fold it in and rebuild once.
            self._extra_terms.add(candidate)
            self._graph = None
            self._index = None
        if self._graph is None or self._index is None:
            self.prepare()
        return self._graph, self._index

    # -- the Step IV protocol ---------------------------------------------------

    def positions_for(self, candidate: str) -> list[str]:
        """The candidate-position set (neighbourhood ± hierarchy expansion)."""
        key = normalize_term(candidate)
        graph, __ = self._ensure_prepared(key)
        positions = mesh_neighborhood(
            graph, self.ontology, key, expand_hierarchy=self.expand_hierarchy
        )
        if positions:
            return positions
        # Degenerate corpora: no observed co-occurrence → all terms.
        return sorted(t for t in self.ontology.terms() if t != key)

    def propose(self, candidate: str) -> list[Proposition]:
        """Ranked ontology positions for ``candidate``.

        Raises :class:`LinkageError` when the candidate has no corpus
        context at all (nothing to compare with).
        """
        key = normalize_term(candidate)
        __, index = self._ensure_prepared(key)
        if index.n_contexts(key) == 0:
            raise LinkageError(
                f"candidate {candidate!r} has no context in the corpus"
            )
        positions = self.positions_for(key)
        if not positions:
            raise LinkageError(f"no candidate positions for {candidate!r}")
        scored = []
        for position in positions:
            if position == key or index.n_contexts(position) == 0:
                continue
            scored.append((position, index.cosine(key, position)))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [
            Proposition(
                rank=rank,
                term=term,
                concept_ids=tuple(self.ontology.concepts_for_term(term)),
                cosine=float(score),
            )
            for rank, (term, score) in enumerate(scored[: self.top_k], start=1)
        ]


def build_candidate_graph(
    corpus: Corpus, ontology: Ontology, candidate: str, *, window: int = 8
) -> CooccurrenceGraph:
    """One-off term graph for a single candidate (see also ``prepare``)."""
    return build_term_graph(corpus, ontology, candidate, window=window)
