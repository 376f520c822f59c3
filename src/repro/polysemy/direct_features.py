"""The 11 direct (text-statistical) polysemy features.

All are computed from the term string and its occurrence contexts.  The
discriminative core: a polysemic term's contexts come from several topics,
so they agree less with each other (TF-IDF cosine statistics) and split
cleanly into two balanced groups (bisection features — the ISIM gain of a
2-way spherical k-means over the one-cluster solution).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterStats
from repro.text.vectorize import TfidfVectorizer

#: Feature names in vector order.
DIRECT_FEATURE_NAMES = (
    "term_n_tokens",
    "term_n_chars",
    "log_term_frequency",
    "log_doc_frequency",
    "log_vocab_size",
    "context_word_entropy",
    "mean_pairwise_cosine",
    "std_pairwise_cosine",
    "bisect_isim_gain",
    "bisect_isim_ratio",
    "bisect_balance_gain",
)


def _context_matrix(contexts: Sequence[Sequence[str]]) -> np.ndarray:
    """TF-IDF rows (unit norm) for the contexts; IDF damps background words."""
    vectorizer = TfidfVectorizer(stop_language=None)
    return vectorizer.fit_transform([list(c) for c in contexts])


def _cosine_and_bisection(
    contexts: Sequence[Sequence[str]],
) -> tuple[float, float, float, float, float]:
    """(mean cos, std cos, isim gain, isim ratio, balance-weighted gain)."""
    n = len(contexts)
    matrix = _context_matrix(contexts)
    sims = matrix @ matrix.T
    upper = sims[np.triu_indices(n, k=1)]
    mean_cos = float(upper.mean())
    std_cos = float(upper.std())

    one_cluster = ClusterStats.from_labels(matrix, np.zeros(n, dtype=np.int64))
    s1 = one_cluster.mean_isim()
    split = spherical_kmeans(matrix, 2, seed=0)
    two_clusters = ClusterStats.from_labels(matrix, split.labels)
    s2 = two_clusters.mean_isim()
    gain = s2 - s1
    ratio = s2 / max(s1, 1e-9)
    counts = np.bincount(split.labels, minlength=2)
    balance = float(counts.min()) / n
    return mean_cos, std_cos, gain, ratio, balance * gain


def direct_features(
    term: str,
    contexts: Sequence[Sequence[str]],
    *,
    doc_frequency: int | None = None,
) -> np.ndarray:
    """The 11-dimensional direct feature vector for ``term``.

    Parameters
    ----------
    term:
        The candidate term string.
    contexts:
        Its occurrence contexts (token sequences, term itself excluded).
    doc_frequency:
        Number of distinct documents the term occurs in; defaults to the
        context count when the caller has no document structure.
    """
    tokens = term.split()
    n_contexts = len(contexts)
    frequency = n_contexts  # one context per occurrence by construction
    if doc_frequency is None:
        doc_frequency = n_contexts

    words = [w for ctx in contexts for w in ctx]
    counts = Counter(words)
    vocab_size = len(counts)
    if counts:
        probs = np.array(list(counts.values()), dtype=np.float64)
        probs /= probs.sum()
        entropy = float(-(probs * np.log2(probs)).sum())
        max_entropy = math.log2(vocab_size) if vocab_size > 1 else 1.0
        entropy /= max_entropy
    else:
        entropy = 0.0

    if n_contexts >= 4:
        cosine_bits = _cosine_and_bisection(contexts)
    elif n_contexts >= 2:
        matrix = _context_matrix(contexts)
        sims = matrix @ matrix.T
        upper = sims[np.triu_indices(n_contexts, k=1)]
        cosine_bits = (float(upper.mean()), float(upper.std()), 0.0, 1.0, 0.0)
    else:
        cosine_bits = (1.0, 0.0, 0.0, 1.0, 0.0)

    return np.array(
        [
            float(len(tokens)),
            float(len(term)),
            math.log1p(frequency),
            math.log1p(doc_frequency),
            math.log1p(vocab_size),
            entropy,
            *cosine_bits,
        ],
        dtype=np.float64,
    )
