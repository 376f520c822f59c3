"""Tests for the 23 polysemy features (direct + graph)."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.clustering.louvain import CSRGraph
from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.errors import CorpusError
from repro.polysemy.direct_features import DIRECT_FEATURE_NAMES, direct_features
from repro.polysemy.features import ALL_FEATURE_NAMES, PolysemyFeatureExtractor
from repro.polysemy.graph_features import (
    GRAPH_FEATURE_NAMES,
    _clustering_and_transitivity,
    _component_labels,
    _entropy,
    build_context_graph,
    graph_features,
)


def mono_contexts(n=12, seed=0):
    """Contexts drawn from one vocabulary — a monosemous profile."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(15)]
    return [
        tuple(rng.choice(vocab, size=8, replace=True)) for _ in range(n)
    ]


def poly_contexts(n_per=6, seed=0):
    """Contexts from two disjoint vocabularies — a polysemic profile."""
    rng = np.random.default_rng(seed)
    vocab_a = [f"a{i}" for i in range(15)]
    vocab_b = [f"b{i}" for i in range(15)]
    out = []
    for vocab in (vocab_a, vocab_b):
        out.extend(
            tuple(rng.choice(vocab, size=8, replace=True)) for _ in range(n_per)
        )
    return out


class TestFeatureInventory:
    def test_the_paper_counts(self):
        assert len(DIRECT_FEATURE_NAMES) == 11
        assert len(GRAPH_FEATURE_NAMES) == 12
        assert len(ALL_FEATURE_NAMES) == 23

    def test_no_duplicate_names(self):
        assert len(set(ALL_FEATURE_NAMES)) == 23


class TestDirectFeatures:
    def test_vector_shape_and_finite(self):
        vec = direct_features("corneal injuries", mono_contexts())
        assert vec.shape == (11,)
        assert np.all(np.isfinite(vec))

    def test_term_shape_features(self):
        vec = direct_features("corneal injuries", mono_contexts())
        names = list(DIRECT_FEATURE_NAMES)
        assert vec[names.index("term_n_tokens")] == 2.0
        assert vec[names.index("term_n_chars")] == len("corneal injuries")

    def test_polysemic_contexts_lower_mean_cosine(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("mean_pairwise_cosine")
        mono = direct_features("t", mono_contexts(seed=1))
        poly = direct_features("t", poly_contexts(seed=1))
        assert poly[idx] < mono[idx]

    def test_polysemic_contexts_higher_bisection_gain(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("bisect_balance_gain")
        mono = direct_features("t", mono_contexts(seed=2))
        poly = direct_features("t", poly_contexts(seed=2))
        assert poly[idx] > mono[idx]

    def test_bisection_ratio_above_one_for_polysemic(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("bisect_isim_ratio")
        poly = direct_features("t", poly_contexts(seed=9))
        assert poly[idx] > 1.2

    def test_polysemic_contexts_higher_entropy(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("log_vocab_size")
        mono = direct_features("t", mono_contexts(seed=3))
        poly = direct_features("t", poly_contexts(seed=3))
        assert poly[idx] > mono[idx]

    def test_single_context_degenerate(self):
        vec = direct_features("t", [("a", "b", "c")])
        assert np.all(np.isfinite(vec))

    def test_empty_contexts_finite(self):
        vec = direct_features("t", [])
        assert np.all(np.isfinite(vec))

    def test_doc_frequency_override(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("log_doc_frequency")
        a = direct_features("t", mono_contexts(), doc_frequency=2)
        b = direct_features("t", mono_contexts(), doc_frequency=10)
        assert a[idx] < b[idx]

    def test_two_contexts_degenerate_bisection(self):
        vec = direct_features("t", [("a", "b"), ("c", "d")])
        names = list(DIRECT_FEATURE_NAMES)
        assert vec[names.index("bisect_isim_gain")] == 0.0
        assert np.all(np.isfinite(vec))


class TestGraphFeatures:
    def test_vector_shape_and_finite(self):
        graph = build_context_graph(mono_contexts())
        vec = graph_features(graph)
        assert vec.shape == (12,)
        assert np.all(np.isfinite(vec))

    def test_empty_graph(self):
        graph = build_context_graph([])
        vec = graph_features(graph)
        assert np.all(vec == 0.0)

    def test_polysemic_graph_splits_into_communities(self):
        names = list(GRAPH_FEATURE_NAMES)
        idx_comp = names.index("n_components")
        mono_vec = graph_features(build_context_graph(mono_contexts(seed=4)))
        poly_vec = graph_features(build_context_graph(poly_contexts(seed=4)))
        # Disjoint sense vocabularies → disconnected context graph.
        assert poly_vec[idx_comp] > mono_vec[idx_comp]

    def test_polysemic_graph_higher_modularity(self):
        names = list(GRAPH_FEATURE_NAMES)
        idx = names.index("modularity")
        mono_vec = graph_features(build_context_graph(mono_contexts(seed=5)))
        poly_vec = graph_features(build_context_graph(poly_contexts(seed=5)))
        assert poly_vec[idx] > mono_vec[idx]

    def test_min_weight_pruning(self):
        contexts = [("a", "b"), ("a", "b"), ("c", "d")]
        graph = build_context_graph(contexts, min_weight=2.0)
        # Only a-b survives; c and d lose their edge and are dropped.
        assert graph.n_nodes == 2
        assert edge_list(graph) == [(0, 1, 2.0)]

    def test_window_limits_edges(self):
        graph = build_context_graph([("a", "b", "c", "d", "e")], window=2)
        # Nodes a..e are 0..4; only adjacent tokens pair.
        assert edge_list(graph) == [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
        ]


def edge_list(graph):
    """``(i, j, weight)`` of each undirected edge, ``i < j``."""
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    return [
        (int(i), int(j), float(w))
        for i, j, w in zip(rows, graph.indices, graph.weights)
        if i < j
    ]


def reference_context_graph(contexts, window, min_weight):
    """The edge-by-edge networkx build the array kernel replaced."""
    graph = nx.Graph()
    for tokens in contexts:
        n = len(tokens)
        for i, left in enumerate(tokens):
            graph.add_node(left)
            for j in range(i + 1, min(i + window, n)):
                right = tokens[j]
                if left == right:
                    continue
                if graph.has_edge(left, right):
                    graph[left][right]["weight"] += 1.0
                else:
                    graph.add_edge(left, right, weight=1.0)
    if min_weight > 1.0:
        graph.remove_edges_from(
            [(u, v) for u, v, w in graph.edges(data="weight") if w < min_weight]
        )
        graph.remove_nodes_from([n for n in graph if graph.degree(n) == 0])
    return graph


def reference_graph_features(graph, seed):
    """``graph_features`` as it read counts, degrees and density off networkx.

    The topology metrics (clustering, components, Louvain) were already
    computed on the CSR form; only these five features came from the
    networkx graph itself.
    """
    vec = graph_features(CSRGraph.from_networkx(graph), seed=seed)
    n_nodes = graph.number_of_nodes()
    if n_nodes:
        degrees = np.array([d for __, d in graph.degree()], dtype=np.float64)
        names = list(GRAPH_FEATURE_NAMES)
        vec[names.index("log_n_nodes")] = math.log1p(n_nodes)
        vec[names.index("log_n_edges")] = math.log1p(graph.number_of_edges())
        vec[names.index("density")] = nx.density(graph) if n_nodes > 1 else 0.0
        vec[names.index("mean_degree")] = float(degrees.mean())
        vec[names.index("degree_entropy")] = _entropy(degrees)
    return vec


class TestContextGraphMatchesReference:
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefgh"), max_size=10),
            max_size=10,
        ),
        st.integers(1, 6),
        st.sampled_from([1.0, 2.0]),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_arrays_and_vector_are_bit_identical(
        self, contexts, window, min_weight, seed
    ):
        graph = build_context_graph(
            contexts, window=window, min_weight=min_weight
        )
        reference = reference_context_graph(contexts, window, min_weight)
        expected = CSRGraph.from_networkx(reference)
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(
                getattr(graph, name), getattr(expected, name), err_msg=name
            )
            assert getattr(graph, name).dtype == getattr(expected, name).dtype
        assert (
            graph_features(graph, seed=seed).tobytes()
            == reference_graph_features(reference, seed).tobytes()
        )


def scipy_clustering_and_transitivity(adjacency):
    """The sparse-matmul formulation the bitset kernel replaced."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    double_triangles = np.asarray(
        (adjacency @ adjacency).multiply(adjacency).sum(axis=1)
    ).ravel()
    pairs = degrees * (degrees - 1.0)
    coefficients = np.divide(
        double_triangles,
        pairs,
        out=np.zeros_like(double_triangles),
        where=pairs > 0,
    )
    total_triangles = float(double_triangles.sum())
    transitivity = (
        total_triangles / float(pairs.sum()) if total_triangles > 0 else 0.0
    )
    return float(coefficients.mean()), transitivity


@st.composite
def random_graphs(draw):
    """A CSRGraph on 1-40 nodes: isolated nodes, self-loops, any density."""
    n = draw(st.integers(1, 40))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda pair: tuple(sorted(pair))
            ),
            max_size=3 * n,
        )
    )
    rows = np.array([i for i, __ in sorted(pairs)], dtype=np.int64)
    cols = np.array([j for __, j in sorted(pairs)], dtype=np.int64)
    return CSRGraph.from_edges(n, rows, cols, np.ones(rows.size))


class TestGraphMetricsMatchScipy:
    """Bitset triangles and label-propagation components vs scipy."""

    @staticmethod
    def plain_entries(graph):
        rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
        keep = rows != graph.indices
        return rows[keep], graph.indices[keep]

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_metrics_are_bit_identical(self, graph):
        n = graph.n_nodes
        rows, cols = self.plain_entries(graph)
        adjacency = sparse.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n)
        )
        expected = scipy_clustering_and_transitivity(adjacency)
        got = _clustering_and_transitivity(n, rows, cols)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

        n_components, labels = connected_components(adjacency, directed=False)
        got_labels = _component_labels(n, rows, cols)
        # Same partition: the two labelings map one-to-one.
        pairs = set(zip(labels.tolist(), got_labels.tolist()))
        assert len(pairs) == n_components == len(set(got_labels.tolist()))

        names = list(GRAPH_FEATURE_NAMES)
        vec = graph_features(graph, seed=0)
        assert vec[names.index("n_components")] == float(n_components)
        assert vec[names.index("largest_component_fraction")] == (
            float(np.bincount(labels).max()) / n
        )
        if n > 1:
            assert vec[names.index("avg_clustering")] == expected[0]
        if n > 2:
            assert vec[names.index("transitivity")] == expected[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_graphs(self, n):
        loop = CSRGraph.from_edges(n, np.array([0]), np.array([0]), np.ones(1))
        vec = graph_features(loop)
        names = list(GRAPH_FEATURE_NAMES)
        assert vec[names.index("n_components")] == float(n)
        assert vec[names.index("avg_clustering")] == 0.0
        assert vec[names.index("transitivity")] == 0.0

    def test_long_path_is_one_component(self):
        n = 300
        path = CSRGraph.from_edges(
            n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)
        )
        rows, cols = self.plain_entries(path)
        labels = _component_labels(n, rows, cols)
        assert np.all(labels == 0)


class TestExtractor:
    def test_feature_set_selection(self):
        full = PolysemyFeatureExtractor(feature_set="all")
        direct = PolysemyFeatureExtractor(feature_set="direct")
        graph = PolysemyFeatureExtractor(feature_set="graph")
        contexts = mono_contexts()
        assert full.features_from_contexts("t", contexts).shape == (23,)
        assert direct.features_from_contexts("t", contexts).shape == (11,)
        assert graph.features_from_contexts("t", contexts).shape == (12,)
        assert full.n_features == 23

    def test_bad_feature_set(self):
        with pytest.raises(ValueError):
            PolysemyFeatureExtractor(feature_set="both")

    def test_features_from_corpus(self):
        corpus = Corpus(
            [
                Document("d1", [["the", "target", "term", "appears", "here"]]),
                Document("d2", [["target", "again", "with", "words"]]),
            ]
        )
        extractor = PolysemyFeatureExtractor()
        vec = extractor.features_from_corpus("target", corpus)
        assert vec.shape == (23,)

    def test_missing_term_raises(self):
        corpus = Corpus([Document("d", [["nothing", "here"]])])
        with pytest.raises(CorpusError, match="no context"):
            PolysemyFeatureExtractor().features_from_corpus("ghost", corpus)
