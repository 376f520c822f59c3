"""MeSH-neighbourhood selection via the term co-occurrence graph.

Step IV.1: "Creation of term co-occurrence graph with terms extracted in
(I), selecting only the MeSH neighborhood of a candidate term."  The
candidate positions are the ontology terms that co-occur with the
candidate in the corpus, expanded (IV.2) with the fathers and sons of the
concepts those neighbours name.
"""

from __future__ import annotations

from repro.corpus.corpus import Corpus
from repro.errors import LinkageError
from repro.ontology.model import Ontology, normalize_term
from repro.text.cooccurrence import CooccurrenceGraph, CooccurrenceGraphBuilder


def build_term_graph(
    corpus: Corpus,
    ontology: Ontology,
    candidate: str,
    *,
    window: int = 8,
    stop_language: str | None = None,
) -> CooccurrenceGraph:
    """Term co-occurrence graph over ontology terms plus the candidate.

    Multi-word ontology terms (and the candidate) are merged into single
    graph nodes before windowed counting.
    """
    term_tuples = [tuple(t.split()) for t in ontology.terms()]
    term_tuples.append(tuple(normalize_term(candidate).split()))
    builder = CooccurrenceGraphBuilder(
        window=window, stop_language=stop_language, terms=term_tuples
    )
    # The cached index supplies each document's flattened tokens.
    return builder.build(corpus.index().token_documents())


def mesh_neighborhood(
    graph: CooccurrenceGraph,
    ontology: Ontology,
    candidate: str,
    *,
    expand_hierarchy: bool = True,
) -> list[str]:
    """Ontology terms in the candidate's co-occurrence neighbourhood.

    Parameters
    ----------
    graph:
        A term co-occurrence graph (see :func:`build_term_graph`).
    ontology:
        The target ontology.
    candidate:
        The candidate term (must not itself count as a position).
    expand_hierarchy:
        Also include every term of the fathers/sons of the concepts the
        direct neighbours name (the paper's IV.2 expansion).

    Returns
    -------
    Sorted list of normalised position terms.  Empty when the candidate
    never co-occurs with an ontology term.
    """
    key = normalize_term(candidate)
    if key not in graph:
        return []
    neighbor_terms = {
        node for node in graph.neighbors(key) if ontology.has_term(node)
    }
    neighbor_terms.discard(key)
    if not expand_hierarchy:
        return sorted(neighbor_terms)

    concept_ids: set[str] = set()
    for term in neighbor_terms:
        concept_ids.update(ontology.concepts_for_term(term))
    expanded = ontology.position_candidates(concept_ids)
    positions = set(neighbor_terms)
    for cid in expanded:
        positions.update(ontology.concept(cid).all_terms())
    positions.discard(key)
    return sorted(positions)


def candidate_positions(
    corpus: Corpus,
    ontology: Ontology,
    candidate: str,
    *,
    window: int = 8,
    expand_hierarchy: bool = True,
    fallback_to_all: bool = True,
) -> list[str]:
    """End-to-end position-set computation for one candidate term.

    When the candidate has no co-occurrence neighbourhood (tiny corpora),
    ``fallback_to_all`` degrades gracefully to every ontology term —
    without it an unseen candidate raises :class:`LinkageError`.
    """
    graph = build_term_graph(corpus, ontology, candidate, window=window)
    positions = mesh_neighborhood(
        graph, ontology, candidate, expand_hierarchy=expand_hierarchy
    )
    if positions:
        return positions
    if fallback_to_all:
        key = normalize_term(candidate)
        return sorted(t for t in ontology.terms() if t != key)
    raise LinkageError(
        f"candidate {candidate!r} has no MeSH neighbourhood in the corpus"
    )
