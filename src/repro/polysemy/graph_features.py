"""The 12 graph polysemy features.

The paper extracts 12 of its 23 features "from a graph itself induced from
the text corpus".  Here the graph for a term is the co-occurrence graph of
its context words: nodes are words appearing in the term's contexts,
edges weight within-context co-occurrence.  For a monosemous term this
graph is one dense community; for a polysemic term it splits into one
community per sense — community structure, connectivity, and degree
statistics capture that.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.clustering.louvain import (
    CSRGraph,
    louvain_labels,
    modularity_from_labels,
)
from repro.text.cooccurrence import cooccurrence_csr, drop_light_edges

#: Feature names in vector order.
GRAPH_FEATURE_NAMES = (
    "log_n_nodes",
    "log_n_edges",
    "density",
    "mean_degree",
    "degree_entropy",
    "avg_clustering",
    "transitivity",
    "n_components",
    "largest_component_fraction",
    "n_communities",
    "modularity",
    "community_size_entropy",
)


def build_context_graph(
    contexts: Sequence[Sequence[str]],
    *,
    window: int = 4,
    min_weight: float = 1.0,
) -> CSRGraph:
    """Co-occurrence graph over the words of ``contexts``.

    A sliding window of ``window`` tokens inside each context adds edges
    (see :func:`~repro.text.cooccurrence.cooccurrence_csr`; node ids
    follow first appearance).  With ``min_weight > 1`` edges below that
    total are pruned, and so are the nodes left without an edge.
    """
    __, graph, __ = cooccurrence_csr(contexts, window=window)
    if min_weight <= 1.0:
        return graph
    graph = drop_light_edges(graph, min_weight)
    degrees = np.diff(graph.indptr)
    keep = degrees > 0
    # Renumbering is monotone, so columns stay sorted inside each row.
    new_id = np.cumsum(keep) - 1
    indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(degrees[keep], out=indptr[1:])
    return CSRGraph(
        indptr=indptr, indices=new_id[graph.indices], weights=graph.weights
    )


def _entropy(values: np.ndarray) -> float:
    total = values.sum()
    if total <= 0 or values.size <= 1:
        return 0.0
    probs = values / total
    probs = probs[probs > 0]
    entropy = float(-(probs * np.log2(probs)).sum())
    max_entropy = math.log2(values.size)
    return entropy / max_entropy if max_entropy > 0 else 0.0


def _binary_adjacency(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> sparse.csr_matrix:
    """Unweighted ``n``-node scipy adjacency of the entries ``(rows, cols)``.

    Callers pass the entries without self-loops: triangle counts and
    connectivity follow the networkx convention of ignoring self-loops
    and edge weights.
    """
    return sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.float64), (rows, cols)), shape=(n, n)
    )


def _clustering_and_transitivity(
    adjacency: sparse.csr_matrix,
) -> tuple[float, float]:
    """(average clustering coefficient, transitivity) of a binary graph.

    ``(A @ A) ∘ A`` row sums give each node's doubled triangle count —
    the same quantity networkx's ``_triangles_and_degree_iter`` yields —
    so both metrics come from one sparse matmul instead of a
    per-node Python neighbourhood scan.
    """
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
    avg_clustering = float(coefficients.mean())
    total_pairs = float(pairs.sum())
    total_triangles = float(double_triangles.sum())
    transitivity = (
        total_triangles / total_pairs if total_triangles > 0 else 0.0
    )
    return avg_clustering, transitivity


def graph_features(
    graph: CSRGraph,
    *,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The 12-dimensional feature vector of a term's context graph.

    Every metric is computed natively on the CSR adjacency (sparse
    matmul triangles, union-find components, Louvain communities).
    Counts, degrees and density follow the networkx conventions the
    vectors were first defined with (a self-loop adds 2 to its node's
    degree), so cached vectors stay valid.

    Parameters
    ----------
    seed:
        Seed of the Louvain node visit order (fixed seed =
        deterministic communities).
    """
    n_nodes = graph.n_nodes
    if n_nodes == 0:
        return np.zeros(len(GRAPH_FEATURE_NAMES), dtype=np.float64)

    rows = np.repeat(
        np.arange(n_nodes, dtype=np.int64), np.diff(graph.indptr)
    )
    loops = rows == graph.indices
    n_loops = int(loops.sum())
    n_edges = (graph.indices.size - n_loops) // 2 + n_loops
    degrees = (
        np.diff(graph.indptr) + np.bincount(rows[loops], minlength=n_nodes)
    ).astype(np.float64)
    density = (
        n_edges / (n_nodes * (n_nodes - 1)) * 2
        if n_nodes > 1 and n_edges > 0
        else 0.0
    )
    adjacency = _binary_adjacency(
        n_nodes, rows[~loops], graph.indices[~loops]
    )
    mean_degree = float(degrees.mean())
    degree_entropy = _entropy(degrees)
    if n_nodes > 1:
        avg_clustering, transitivity = _clustering_and_transitivity(adjacency)
    else:
        avg_clustering, transitivity = 0.0, 0.0
    if n_nodes <= 2:
        transitivity = 0.0

    n_components, component_labels = _csgraph_components(
        adjacency, directed=False
    )
    component_sizes = np.bincount(component_labels, minlength=n_components)
    largest_fraction = float(component_sizes.max()) / n_nodes

    if n_edges > 0:
        labels = louvain_labels(graph, seed=seed)
        n_communities = int(labels.max()) + 1
        modularity = modularity_from_labels(graph, labels)
        community_sizes = np.bincount(labels, minlength=n_communities)
        community_entropy = _entropy(community_sizes.astype(np.float64))
    else:
        n_communities = n_components
        modularity = 0.0
        community_entropy = 0.0

    return np.array(
        [
            math.log1p(n_nodes),
            math.log1p(n_edges),
            density,
            mean_degree,
            degree_entropy,
            avg_clustering,
            transitivity,
            float(n_components),
            largest_fraction,
            float(n_communities),
            float(modularity),
            community_entropy,
        ],
        dtype=np.float64,
    )
