"""Assembly of the full 23-dimensional polysemy feature vector."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import CorpusError
from repro.polysemy.direct_features import DIRECT_FEATURE_NAMES, direct_features
from repro.polysemy.graph_features import (
    GRAPH_FEATURE_NAMES,
    build_context_graph,
    graph_features,
)

#: All 23 feature names: 11 direct then 12 graph, matching the paper's split.
ALL_FEATURE_NAMES = DIRECT_FEATURE_NAMES + GRAPH_FEATURE_NAMES

assert len(DIRECT_FEATURE_NAMES) == 11, "the paper specifies 11 direct features"
assert len(GRAPH_FEATURE_NAMES) == 12, "the paper specifies 12 graph features"


class PolysemyFeatureExtractor:
    """Extract the paper's 23 features for candidate terms.

    Parameters
    ----------
    window:
        Context window (tokens each side) used when retrieving term
        occurrences from a corpus.
    graph_window:
        Sliding co-occurrence window inside a context for the graph
        features.
    feature_set:
        ``"all"`` (23), ``"direct"`` (11), or ``"graph"`` (12) — the A3
        ablation knob.
    community_seed:
        Seed of the Louvain community detection behind the graph
        features (fixed by default so repeated extraction is
        deterministic).
    """

    def __init__(
        self,
        *,
        window: int = 10,
        graph_window: int = 4,
        feature_set: str = "all",
        community_seed: int = 0,
    ) -> None:
        if feature_set not in ("all", "direct", "graph"):
            raise ValueError(
                f"feature_set must be all|direct|graph, got {feature_set!r}"
            )
        self.window = window
        self.graph_window = graph_window
        self.feature_set = feature_set
        self.community_seed = community_seed

    def fingerprint(self) -> str:
        """Stable string encoding of every vector-shaping setting.

        The config component of feature-cache keys
        (:mod:`repro.polysemy.cache`): two extractors with equal
        fingerprints produce identical vectors from identical contexts.
        The community field is a constant (Louvain is the only
        detector): it keeps keys byte-identical to cache generations
        written when a second detector existed, so they stay warm.
        """
        return (
            f"window={self.window};graph_window={self.graph_window};"
            f"feature_set={self.feature_set};"
            "community_backend=louvain;"
            f"community_seed={self.community_seed}"
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features this extractor emits, in order."""
        if self.feature_set == "direct":
            return DIRECT_FEATURE_NAMES
        if self.feature_set == "graph":
            return GRAPH_FEATURE_NAMES
        return ALL_FEATURE_NAMES

    @property
    def n_features(self) -> int:
        """Dimensionality of the emitted vectors."""
        return len(self.feature_names)

    def features_from_contexts(
        self,
        term: str,
        contexts: Sequence[Sequence[str]],
        *,
        doc_frequency: int | None = None,
    ) -> np.ndarray:
        """Feature vector from pre-retrieved ``contexts``."""
        parts = []
        if self.feature_set in ("all", "direct"):
            parts.append(
                direct_features(term, contexts, doc_frequency=doc_frequency)
            )
        if self.feature_set in ("all", "graph"):
            graph = build_context_graph(contexts, window=self.graph_window)
            parts.append(graph_features(graph, seed=self.community_seed))
        return np.concatenate(parts)

    def features_from_corpus(
        self,
        term: str,
        corpus: Corpus,
        *,
        index: CorpusIndex | None = None,
    ) -> np.ndarray:
        """Retrieve the term's contexts through the index and featurise.

        Pass a prebuilt ``index`` to share one
        :class:`~repro.corpus.index.CorpusIndex` across extractors
        (defaults to the corpus's cached index).

        Raises :class:`~repro.errors.CorpusError` when the term never
        occurs — a candidate without context cannot be classified.
        """
        index = index if index is not None else corpus.index()
        occurrences = index.contexts_for_term(term, window=self.window)
        if not occurrences:
            raise CorpusError(f"term {term!r} has no context in the corpus")
        contexts = [ctx.tokens for ctx in occurrences]
        doc_frequency = len({ctx.doc_id for ctx in occurrences})
        return self.features_from_contexts(
            term, contexts, doc_frequency=doc_frequency
        )
