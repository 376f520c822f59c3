"""Term context vectors over a shared space.

Step IV compares the candidate term's corpus context with the contexts of
every potential position by cosine.  :class:`TermContextIndex` builds one
aggregate context document per term — all tokens within ``window`` of any
occurrence — and embeds them in a common TF-IDF space.

Occurrence retrieval is served by the corpus's shared positional index
(:class:`repro.corpus.index.CorpusIndex`): :func:`find_occurrence_records`
delegates to :meth:`CorpusIndex.occurrence_records`, which locates every
occurrence of *many* terms through their postings (longest match wins at
any single start position) instead of rescanning the documents.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import LinkageError
from repro.ontology.model import normalize_term
from repro.text.vectorize import TfidfVectorizer


def find_occurrence_records(
    corpus: Corpus,
    terms: Iterable[str],
    *,
    window: int = 10,
    index: CorpusIndex | None = None,
) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """(doc_id, window) records of every term of ``terms``.

    Returns ``{normalised term: [(doc_id, window tokens), ...]}``; the
    occurrence tokens themselves are excluded from the window (they carry
    no disambiguation signal).  Overlapping occurrences of different terms
    are all reported; the longest term wins at any single start position.

    Pass a prebuilt ``index`` to share one :class:`CorpusIndex` across
    callers; otherwise the corpus's cached index is used.
    """
    index = index if index is not None else corpus.index()
    return index.occurrence_records(terms, window=window)


def find_occurrences(
    corpus: Corpus,
    terms: Iterable[str],
    *,
    window: int = 10,
    index: CorpusIndex | None = None,
) -> dict[str, list[tuple[str, ...]]]:
    """Context windows of every term of ``terms``.

    Convenience wrapper over :func:`find_occurrence_records` that drops
    the document ids.
    """
    records = find_occurrence_records(corpus, terms, window=window, index=index)
    return {
        term: [window_tokens for __, window_tokens in entries]
        for term, entries in records.items()
    }


class TermContextIndex:
    """Aggregate context vectors for a set of terms over a shared space.

    Parameters
    ----------
    corpus:
        Context source.
    window:
        Tokens kept each side of an occurrence.
    index:
        Optional prebuilt :class:`CorpusIndex` to retrieve occurrences
        through (defaults to the corpus's cached index).

    Usage
    -----
    ``build(terms)`` retrieves contexts through the positional index and
    fits the TF-IDF space; ``vector(term)`` then returns the unit-norm
    aggregate context vector, and ``cosine(a, b)`` the similarity of two
    terms.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        window: int = 10,
        index: CorpusIndex | None = None,
    ) -> None:
        self.corpus = corpus
        self.window = window
        self._corpus_index = index
        self._rows: dict[str, np.ndarray] | None = None
        self._n_contexts: dict[str, int] = {}

    def build(self, terms: Sequence[str]) -> "TermContextIndex":
        """Retrieve contexts for ``terms`` and fit the shared space."""
        occurrences = find_occurrences(
            self.corpus, terms, window=self.window, index=self._corpus_index
        )
        documents: list[list[str]] = []
        keys: list[str] = []
        for term, contexts in occurrences.items():
            keys.append(term)
            self._n_contexts[term] = len(contexts)
            documents.append([token for ctx in contexts for token in ctx])
        vectorizer = TfidfVectorizer(stop_language=None)
        matrix = vectorizer.fit_transform(documents)
        self._rows = {key: matrix[i] for i, key in enumerate(keys)}
        return self

    def _require_built(self) -> dict[str, np.ndarray]:
        if self._rows is None:
            raise LinkageError("TermContextIndex.build() must run first")
        return self._rows

    def n_contexts(self, term: str) -> int:
        """Number of occurrences found for ``term``."""
        self._require_built()
        return self._n_contexts.get(normalize_term(term), 0)

    def vector(self, term: str) -> np.ndarray:
        """Unit-norm aggregate context vector of ``term``."""
        rows = self._require_built()
        key = normalize_term(term)
        if key not in rows:
            raise LinkageError(f"term {term!r} was not indexed")
        return rows[key]

    def cosine(self, term_a: str, term_b: str) -> float:
        """Cosine similarity between two indexed terms' contexts."""
        return float(self.vector(term_a) @ self.vector(term_b))
