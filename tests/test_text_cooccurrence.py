"""Tests for repro.text.cooccurrence."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clustering.louvain import CSRGraph
from repro.text.cooccurrence import (
    CooccurrenceGraphBuilder,
    cooccurrence_csr,
    merge_term_tokens,
)
from repro.text.stopwords import stopwords_for


def reference_graph(sequences, window):
    """The edge-by-edge networkx build the array kernel replaced."""
    graph = nx.Graph()
    for tokens in sequences:
        n = len(tokens)
        for i, left in enumerate(tokens):
            if not graph.has_node(left):
                graph.add_node(left)
            graph.nodes[left]["count"] = graph.nodes[left].get("count", 0) + 1
            for j in range(i + 1, min(i + window, n)):
                right = tokens[j]
                if left == right:
                    continue
                if graph.has_edge(left, right):
                    graph[left][right]["weight"] += 1.0
                else:
                    graph.add_edge(left, right, weight=1.0)
    return graph


def assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "weights"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        np.testing.assert_array_equal(a, e, err_msg=name)


#: Small vocabulary: repeats are common, and "the"/"of" are stopwords.
TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "the", "of", "A", "B"])
SEQUENCES = st.lists(st.lists(TOKENS, max_size=12), max_size=8)


class TestMergeTermTokens:
    def test_merges_bigram(self):
        out = merge_term_tokens(
            ["corneal", "injuries", "heal"], [("corneal", "injuries")]
        )
        assert out == ["corneal injuries", "heal"]

    def test_longest_match_wins(self):
        out = merge_term_tokens(
            ["a", "b", "c"], [("a", "b"), ("a", "b", "c")]
        )
        assert out == ["a b c"]

    def test_case_insensitive(self):
        out = merge_term_tokens(["Corneal", "Injuries"], [("corneal", "injuries")])
        assert out == ["corneal injuries"]

    def test_no_match_passthrough_lowercases(self):
        assert merge_term_tokens(["X", "y"], []) == ["x", "y"]

    def test_overlapping_matches_do_not_double_consume(self):
        out = merge_term_tokens(["a", "b", "a"], [("a", "b"), ("b", "a")])
        assert out == ["a b", "a"]

    def test_empty_term_ignored(self):
        assert merge_term_tokens(["a"], [()]) == ["a"]


class TestCooccurrenceGraphBuilder:
    def test_window_cooccurrence(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        graph = builder.build([["a", "b", "c"]])
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")
        assert not graph.has_edge("a", "c")  # distance 2, window 2 → no

    def test_weights_accumulate(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        graph = builder.build([["a", "b"], ["a", "b"]])
        assert graph.weight("a", "b") == 2.0

    def test_node_counts(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        graph = builder.build([["a", "b", "a"]])
        assert graph.count("a") == 2

    def test_stopwords_excluded(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language="en")
        graph = builder.build([["cornea", "of", "eye"]])
        assert "of" not in graph
        assert graph.has_edge("cornea", "eye")

    def test_self_loops_avoided(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language=None)
        graph = builder.build([["a", "a", "a"]])
        assert graph.number_of_edges() == 0

    def test_min_weight_prunes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, min_weight=2.0
        )
        graph = builder.build([["a", "b"], ["a", "b"], ["c", "d"]])
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("c", "d")

    def test_terms_merged_into_nodes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, terms=[("corneal", "injuries")]
        )
        graph = builder.build([["corneal", "injuries", "heal"]])
        assert "corneal injuries" in graph
        assert graph.has_edge("corneal injuries", "heal")


class TestCooccurrenceCsr:
    @given(SEQUENCES, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_reference(self, sequences, window):
        ids, graph, counts = cooccurrence_csr(sequences, window=window)
        reference = reference_graph(sequences, window)
        assert list(ids) == list(reference.nodes)
        assert_same_csr(graph, CSRGraph.from_networkx(reference))
        np.testing.assert_array_equal(
            counts, [reference.nodes[node]["count"] for node in reference]
        )

    def test_empty_input(self):
        ids, graph, counts = cooccurrence_csr([], window=3)
        assert ids == {} and graph.n_nodes == 0 and counts.size == 0


class TestBuilderMatchesReference:
    @given(
        SEQUENCES,
        st.integers(1, 6),
        st.sampled_from([None, "en"]),
        st.sampled_from([1.0, 2.0]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_neighbours_weights_and_counts(
        self, documents, window, stop_language, min_weight, merge
    ):
        terms = [("a", "b"), ("c", "the", "d")] if merge else None
        builder = CooccurrenceGraphBuilder(
            window=window,
            stop_language=stop_language,
            min_weight=min_weight,
            terms=terms,
        )
        graph = builder.build(documents)
        stop = stopwords_for(stop_language) if stop_language else frozenset()
        prepared = [
            [
                token
                for token in merge_term_tokens(doc, terms or [])
                if token not in stop
            ]
            for doc in documents
        ]
        reference = reference_graph(prepared, window)
        reference.remove_edges_from(
            [
                (u, v)
                for u, v, w in reference.edges(data="weight")
                if w < min_weight
            ]
        )
        assert graph.number_of_edges() == reference.number_of_edges()
        for node in reference:
            assert node in graph
            assert graph.count(node) == reference.nodes[node]["count"]
            assert graph.degree(node) == reference.degree(node)
            assert sorted(graph.neighbors(node)) == sorted(
                reference.neighbors(node)
            )
            for other, data in reference[node].items():
                assert graph.weight(node, other) == data["weight"]
        for node in ("a", "b", "a b", "c the d", "the", "zzz"):
            assert (node in graph) == (node in reference)
