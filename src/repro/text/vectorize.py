"""Bag-of-words and TF-IDF vectorisation in numpy.

Steps II–IV of the workflow represent a term's contexts as vectors and
compare them with cosine similarity; these vectorisers are the single
place that mapping happens, so every stage agrees on weighting and
normalisation conventions.

Counts are gathered as a CSR triple (``indptr``/``indices``/``data``
numpy arrays), weighted and row-normalised on ``data`` and returned as
a dense ``float64`` matrix.  The reductions follow scipy.sparse's
(row sums of squares by ``np.add.reduceat`` over the non-empty rows),
so the floats are the ones a ``csr_matrix`` pipeline produces.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.text.stopwords import stopwords_for
from repro.text.vocabulary import Vocabulary


def _normalize_rows(
    indptr: np.ndarray, rows: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """L2-normalise the CSR rows' ``data``; zero rows are left untouched.

    ``rows`` is each entry's row index.
    """
    squares = np.zeros(indptr.size - 1, dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        squares[nonempty] = np.add.reduceat(data * data, indptr[nonempty])
    norms = np.sqrt(squares)
    norms[norms == 0.0] = 1.0
    return data * (1.0 / norms)[rows]


class BowVectorizer:
    """Count-based bag-of-words vectoriser.

    Parameters
    ----------
    lowercase:
        Lower-case tokens before counting.
    stop_language:
        Drop that language's stopwords when given.
    min_df:
        Discard tokens present in fewer than ``min_df`` documents.
    binary:
        Record presence (0/1) instead of counts.
    normalize:
        L2-normalise rows of the output matrix.
    """

    def __init__(
        self,
        *,
        lowercase: bool = True,
        stop_language: str | None = "en",
        min_df: int = 1,
        binary: bool = False,
        normalize: bool = False,
    ) -> None:
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.lowercase = lowercase
        self.stop_language = stop_language
        self.min_df = min_df
        self.binary = binary
        self.normalize = normalize
        self.vocabulary_: Vocabulary | None = None
        self.document_frequency_: np.ndarray | None = None
        self.n_documents_: int | None = None

    # -- shared preprocessing ------------------------------------------------

    def _stop_set(self) -> frozenset[str]:
        """The stop set, resolved once per fit/transform pass."""
        if self.stop_language:
            return stopwords_for(self.stop_language)
        return frozenset()

    def _prepare(
        self, tokens: Sequence[str], stop: frozenset[str]
    ) -> list[str]:
        out = []
        for token in tokens:
            if self.lowercase:
                token = token.lower()
            if token in stop:
                continue
            out.append(token)
        return out

    # -- fitting ---------------------------------------------------------------

    def fit(self, documents: Iterable[Sequence[str]]) -> "BowVectorizer":
        """Learn the vocabulary from tokenised ``documents``."""
        stop = self._stop_set()
        df_counts: dict[str, int] = {}
        n_docs = 0
        for tokens in documents:
            n_docs += 1
            for token in set(self._prepare(tokens, stop)):
                df_counts[token] = df_counts.get(token, 0) + 1
        vocab = Vocabulary()
        dfs: list[int] = []
        for token, df in sorted(df_counts.items()):
            if df >= self.min_df:
                vocab.add(token)
                dfs.append(df)
        self.vocabulary_ = vocab
        self.document_frequency_ = np.asarray(dfs, dtype=np.float64)
        self.n_documents_ = n_docs
        return self

    def _require_fitted(self) -> Vocabulary:
        if self.vocabulary_ is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before transform"
            )
        return self.vocabulary_

    # -- transform ---------------------------------------------------------------

    def transform(self, documents: Iterable[Sequence[str]]) -> np.ndarray:
        """Vectorise tokenised ``documents`` into a (n_docs, n_vocab) matrix."""
        vocab = self._require_fitted()
        stop = self._stop_set()
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for tokens in documents:
            counts: dict[int, float] = {}
            for token in self._prepare(tokens, stop):
                idx = vocab.get(token)
                if idx is None:
                    continue
                counts[idx] = counts.get(idx, 0.0) + 1.0
            for idx in sorted(counts):
                indices.append(idx)
                data.append(1.0 if self.binary else counts[idx])
            indptr.append(len(indices))
        row_ptr = np.asarray(indptr, dtype=np.int64)
        n_rows = row_ptr.size - 1
        rows = np.repeat(np.arange(n_rows), np.diff(row_ptr))
        columns = np.asarray(indices, dtype=np.int64)
        values = self._weight(np.asarray(data, dtype=np.float64), columns)
        if self.normalize:
            values = _normalize_rows(row_ptr, rows, values)
        matrix = np.zeros((n_rows, len(vocab)), dtype=np.float64)
        matrix[rows, columns] = values
        return matrix

    def fit_transform(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Fit on ``documents`` then transform them."""
        return self.fit(documents).transform(documents)

    def _weight(self, data: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Weighted ``data`` of the CSR entries in columns ``indices``."""
        return data

    def feature_names(self) -> list[str]:
        """Vocabulary tokens in column order."""
        return self._require_fitted().tokens()


class TfidfVectorizer(BowVectorizer):
    """TF-IDF vectoriser with smoothed IDF: ``log((1+N)/(1+df)) + 1``.

    Rows are L2-normalised by default, the convention cosine-based
    similarity (Steps III and IV) expects.
    """

    def __init__(
        self,
        *,
        lowercase: bool = True,
        stop_language: str | None = "en",
        min_df: int = 1,
        sublinear_tf: bool = False,
        normalize: bool = True,
    ) -> None:
        super().__init__(
            lowercase=lowercase,
            stop_language=stop_language,
            min_df=min_df,
            binary=False,
            normalize=normalize,
        )
        self.sublinear_tf = sublinear_tf

    def idf(self) -> np.ndarray:
        """The fitted IDF vector (one weight per vocabulary token)."""
        self._require_fitted()
        assert self.document_frequency_ is not None
        assert self.n_documents_ is not None
        n = self.n_documents_
        return np.log((1.0 + n) / (1.0 + self.document_frequency_)) + 1.0

    def _weight(self, data: np.ndarray, indices: np.ndarray) -> np.ndarray:
        if self.sublinear_tf:
            data = 1.0 + np.log(data)
        return data * self.idf()[indices]


def idf_weight(n_documents: int, document_frequency: int) -> float:
    """Scalar smoothed IDF used by the extraction measures."""
    if n_documents < 1:
        raise ValueError(f"n_documents must be >= 1, got {n_documents}")
    if document_frequency < 0:
        raise ValueError(
            f"document_frequency must be >= 0, got {document_frequency}"
        )
    return math.log((1.0 + n_documents) / (1.0 + document_frequency)) + 1.0
