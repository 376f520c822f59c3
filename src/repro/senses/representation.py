"""Context representations for sense induction.

The paper represents the corpus "of two different manners: (i)
bag-of-words representation, and (ii) graph representation".

* **bag-of-words** — TF-IDF rows over the context vocabulary (IDF damps
  the background words that would otherwise dominate cosine);
* **graph** — the same rows smoothed by one diffusion step over the
  word co-occurrence graph of the contexts: a context also receives mass
  on words its words co-occur with.  Second-order smoothing connects
  contexts that share no literal word but live in the same topical
  neighbourhood — the property graph-based WSD methods exploit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.text.vectorize import TfidfVectorizer

#: The two representations of the paper's §2(III).
REPRESENTATION_NAMES = ("bow", "graph")


def bow_representation(contexts: Sequence[Sequence[str]]) -> np.ndarray:
    """TF-IDF bag-of-words matrix, one unit-norm row per context."""
    if not contexts:
        raise ValidationError("need at least one context to represent")
    vectorizer = TfidfVectorizer(stop_language=None)
    return vectorizer.fit_transform([list(c) for c in contexts])


def graph_representation(
    contexts: Sequence[Sequence[str]],
    *,
    diffusion: float = 0.5,
    window: int = 4,
) -> np.ndarray:
    """Graph-smoothed context matrix.

    Builds the word co-occurrence graph of the contexts (sliding
    ``window``), row-normalises its adjacency ``A``, and returns
    ``X + diffusion · X A`` re-normalised — i.e. each context spreads
    ``diffusion`` of its mass one hop along co-occurrence edges.

    Parameters
    ----------
    diffusion:
        Strength of the one-step smoothing (0 reduces to bag-of-words).
    window:
        Co-occurrence window inside a context.
    """
    if not 0.0 <= diffusion <= 1.0:
        raise ValidationError(f"diffusion must be in [0, 1], got {diffusion}")
    base = bow_representation(contexts)

    # Vocabulary aligned with the TF-IDF columns.
    vectorizer = TfidfVectorizer(stop_language=None)
    vectorizer.fit([list(c) for c in contexts])
    vocab = {w: i for i, w in enumerate(vectorizer.feature_names())}
    n_words = len(vocab)
    adjacency = np.zeros((n_words, n_words))
    for context in contexts:
        tokens = [t.lower() for t in context]
        n = len(tokens)
        for i, left in enumerate(tokens):
            li = vocab.get(left)
            if li is None:
                continue
            for j in range(i + 1, min(i + window, n)):
                ri = vocab.get(tokens[j])
                if ri is None or ri == li:
                    continue
                adjacency[li, ri] += 1.0
                adjacency[ri, li] += 1.0
    row_sums = adjacency.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    adjacency /= row_sums

    smoothed = base + diffusion * (base @ adjacency)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return smoothed / norms


def represent_contexts(
    contexts: Sequence[Sequence[str]],
    representation: str = "bow",
    **kwargs,
) -> np.ndarray:
    """Dispatch to :func:`bow_representation` / :func:`graph_representation`."""
    if representation == "bow":
        return bow_representation(contexts)
    if representation == "graph":
        return graph_representation(contexts, **kwargs)
    raise ValidationError(
        f"unknown representation {representation!r}; "
        f"options: {', '.join(REPRESENTATION_NAMES)}"
    )
