"""Tests for repro.text.vocabulary and repro.text.vectorize."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import NotFittedError
from repro.text.vectorize import BowVectorizer, TfidfVectorizer, idf_weight
from repro.text.vocabulary import Vocabulary


class TestVocabulary:
    def test_add_and_lookup(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("a") == 0  # idempotent
        assert vocab["a"] == 0
        assert vocab.token(1) == "b"
        assert "a" in vocab and "z" not in vocab
        assert len(vocab) == 2

    def test_init_from_iterable_preserves_order(self):
        vocab = Vocabulary(["x", "y", "x"])
        assert vocab.tokens() == ["x", "y"]

    def test_get_default(self):
        vocab = Vocabulary(["x"])
        assert vocab.get("missing") is None
        assert vocab.get("missing", -1) == -1

    def test_freeze_rejects_new(self):
        frozen = Vocabulary(["x"]).freeze()
        assert frozen.add("x") == 0
        with pytest.raises(KeyError):
            frozen.add("new")

    def test_iteration(self):
        assert list(Vocabulary(["a", "b"])) == ["a", "b"]


DOCS = [
    ["corneal", "injury", "heals"],
    ["corneal", "disease", "progresses"],
    ["eye", "injury", "report"],
]


class TestBowVectorizer:
    def test_shape_and_counts(self):
        vec = BowVectorizer(stop_language=None)
        matrix = vec.fit_transform(DOCS)
        assert matrix.shape == (3, len(vec.vocabulary_))
        names = vec.feature_names()
        col = names.index("corneal")
        assert matrix[0, col] == 1.0
        assert matrix[2, col] == 0.0

    def test_counts_repeated_tokens(self):
        vec = BowVectorizer(stop_language=None)
        matrix = vec.fit_transform([["a", "a", "b"]])
        names = vec.feature_names()
        assert matrix[0, names.index("a")] == 2.0

    def test_binary_mode(self):
        vec = BowVectorizer(stop_language=None, binary=True)
        matrix = vec.fit_transform([["a", "a", "b"]])
        assert matrix.max() == 1.0

    def test_stopwords_removed(self):
        vec = BowVectorizer(stop_language="en")
        vec.fit([["the", "cornea"]])
        assert "the" not in vec.feature_names()

    def test_min_df_filters(self):
        vec = BowVectorizer(stop_language=None, min_df=2)
        vec.fit(DOCS)
        names = vec.feature_names()
        assert "corneal" in names and "injury" in names
        assert "heals" not in names

    def test_unknown_tokens_ignored_at_transform(self):
        vec = BowVectorizer(stop_language=None)
        vec.fit([["a"]])
        matrix = vec.transform([["a", "zzz"]])
        assert matrix.sum() == 1.0

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BowVectorizer().transform([["a"]])

    def test_normalize_rows(self):
        vec = BowVectorizer(stop_language=None, normalize=True)
        matrix = vec.fit_transform(DOCS)
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_lowercase_toggle(self):
        vec = BowVectorizer(stop_language=None, lowercase=False)
        vec.fit([["Corneal", "corneal"]])
        assert len(vec.feature_names()) == 2

    def test_bad_min_df(self):
        with pytest.raises(ValueError):
            BowVectorizer(min_df=0)


class TestTfidfVectorizer:
    def test_rows_unit_norm(self):
        vec = TfidfVectorizer(stop_language=None)
        matrix = vec.fit_transform(DOCS)
        assert isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_rare_terms_outweigh_common(self):
        docs = [["common", "rare1"], ["common", "x"], ["common", "y"]]
        vec = TfidfVectorizer(stop_language=None, normalize=False)
        matrix = vec.fit_transform(docs)
        names = vec.feature_names()
        assert (
            matrix[0, names.index("rare1")] > matrix[0, names.index("common")]
        )

    def test_idf_vector_matches_formula(self):
        vec = TfidfVectorizer(stop_language=None)
        vec.fit(DOCS)
        names = vec.feature_names()
        idf = vec.idf()
        df_corneal = 2
        expected = np.log((1 + 3) / (1 + df_corneal)) + 1.0
        assert idf[names.index("corneal")] == pytest.approx(expected)

    def test_sublinear_tf(self):
        docs = [["a"] * 10 + ["b"]]
        plain = TfidfVectorizer(stop_language=None, normalize=False)
        sub = TfidfVectorizer(stop_language=None, normalize=False, sublinear_tf=True)
        m_plain = plain.fit_transform(docs)
        m_sub = sub.fit_transform(docs)
        names = plain.feature_names()
        a = names.index("a")
        assert m_sub[0, a] < m_plain[0, a]

    @given(
        st.lists(
            st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), min_size=1, max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_transform_is_deterministic(self, docs):
        vec = TfidfVectorizer(stop_language=None)
        m1 = vec.fit_transform(docs)
        m2 = vec.transform(docs)
        assert m1.tobytes() == m2.tobytes()


def scipy_reference(vec, documents):
    """``vec.transform(documents)`` as the scipy.sparse pipeline computed it.

    The count loop is the vectoriser's own; weighting (``matrix @
    diags(idf)``) and normalisation (``diags(1 / norms) @ matrix``) are
    the csr_matrix operations the numpy kernel replaced.
    """
    vocab = vec.vocabulary_
    stop = vec._stop_set()
    indptr, indices, data = [0], [], []
    for tokens in documents:
        counts = {}
        for token in vec._prepare(tokens, stop):
            idx = vocab.get(token)
            if idx is not None:
                counts[idx] = counts.get(idx, 0.0) + 1.0
        for idx in sorted(counts):
            indices.append(idx)
            data.append(1.0 if vec.binary else counts[idx])
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(indptr) - 1, len(vocab)),
    )
    if isinstance(vec, TfidfVectorizer):
        matrix = matrix.astype(np.float64)
        if vec.sublinear_tf:
            matrix.data = 1.0 + np.log(matrix.data)
        matrix = (matrix @ sp.diags(vec.idf())).tocsr()
    if vec.normalize:
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        norms[norms == 0.0] = 1.0
        matrix = (sp.diags(1.0 / norms) @ matrix).tocsr()
    return matrix.toarray()


TOKEN_LISTS = st.lists(
    st.lists(
        st.sampled_from(["t1", "t2", "T2", "t3", "t4", "t5", "the", "of"]),
        max_size=12,
    ),
    max_size=8,
)


class TestMatchesScipyReference:
    """The numpy kernel's floats equal the csr_matrix pipeline's, bit for bit."""

    @given(
        TOKEN_LISTS,
        TOKEN_LISTS,
        st.booleans(),
        st.booleans(),
        st.integers(1, 3),
        st.sampled_from([None, "en"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_tfidf(self, fit_docs, docs, normalize, sublinear, min_df, stop):
        vec = TfidfVectorizer(
            stop_language=stop,
            min_df=min_df,
            sublinear_tf=sublinear,
            normalize=normalize,
        ).fit(fit_docs)
        for batch in (fit_docs, docs):
            got = vec.transform(batch)
            expected = scipy_reference(vec, batch)
            assert got.dtype == np.float64
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @given(
        TOKEN_LISTS,
        st.booleans(),
        st.booleans(),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bow(self, docs, normalize, binary, min_df, lowercase):
        vec = BowVectorizer(
            stop_language=None,
            min_df=min_df,
            binary=binary,
            normalize=normalize,
            lowercase=lowercase,
        )
        got = vec.fit_transform(docs)
        assert got.tobytes() == scipy_reference(vec, docs).tobytes()

    @pytest.mark.parametrize(
        "docs", [[[]], [["solo"]], [[], ["solo"], []], [["a"] * 7 + ["b"]]]
    )
    @pytest.mark.parametrize("sublinear", [False, True])
    def test_empty_and_one_token_documents(self, docs, sublinear):
        vec = TfidfVectorizer(stop_language=None, sublinear_tf=sublinear)
        got = vec.fit_transform(docs)
        assert got.tobytes() == scipy_reference(vec, docs).tobytes()

    def test_many_terms_per_row(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(60)]
        docs = [
            [words[i] for i in rng.integers(0, 60, size=rng.integers(0, 200))]
            for __ in range(40)
        ]
        vec = TfidfVectorizer(stop_language=None, sublinear_tf=True)
        got = vec.fit_transform(docs)
        assert got.tobytes() == scipy_reference(vec, docs).tobytes()


class TestIdfWeight:
    def test_monotone_in_df(self):
        assert idf_weight(100, 1) > idf_weight(100, 50)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            idf_weight(0, 1)
        with pytest.raises(ValueError):
            idf_weight(10, -1)
