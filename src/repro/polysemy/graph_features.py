"""The 12 graph polysemy features.

The paper extracts 12 of its 23 features "from a graph itself induced from
the text corpus".  Here the graph for a term is the co-occurrence graph of
its context words: nodes are words appearing in the term's contexts,
edges weight within-context co-occurrence.  For a monosemous term this
graph is one dense community; for a polysemic term it splits into one
community per sense — community structure, connectivity, and degree
statistics capture that.

Every metric is computed in numpy on the graph's CSR arrays: triangles
by intersecting bit-packed neighbour rows, connected components by
min-label propagation, communities by the native Louvain kernel.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

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


#: Bytes of neighbour bitsets intersected per chunk of edges.
_CHUNK_BYTES = 1 << 22

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each ``uint64`` (SWAR; numpy < 2 has no bitwise_count)."""
    words = words - ((words >> np.uint64(1)) & _M1)
    words = (words & _M2) + ((words >> np.uint64(2)) & _M2)
    words = (words + (words >> np.uint64(4))) & _M4
    return (words * _H01) >> np.uint64(56)


def _double_triangles(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Each node's doubled triangle count in the graph of ``(rows, cols)``.

    The entries are the directed pairs of an undirected graph without
    self-loops (every edge stored both ways, none twice).  Each node's
    neighbours are packed into a bitset row; one popcount of
    ``row[r] & row[c]`` per edge counts the common neighbours of ``r``
    and ``c``, and adding it to both ends counts each of a node's
    triangles twice — the row sums of ``(A @ A) ∘ A``, the quantity
    networkx's ``_triangles_and_degree_iter`` yields.
    """
    n_words = -(-n // 64)
    packed = np.zeros((n, n_words * 8), dtype=np.uint8)
    np.bitwise_or.at(
        packed,
        (rows, cols >> 3),
        np.left_shift(1, cols & 7).astype(np.uint8),
    )
    words = packed.view(np.uint64)
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    common = np.empty(rows.size, dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (n_words * 8))
    for start in range(0, rows.size, step):
        stop = start + step
        shared = words[rows[start:stop]] & words[cols[start:stop]]
        common[start:stop] = _popcount(shared).sum(axis=1)
    # (An empty ``weights`` makes bincount return int64: cast.)
    return (
        np.bincount(rows, weights=common, minlength=n)
        + np.bincount(cols, weights=common, minlength=n)
    ).astype(np.float64)


def _clustering_and_transitivity(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[float, float]:
    """(average clustering coefficient, transitivity) of a binary graph.

    ``(rows, cols)`` are its entries as for :func:`_double_triangles`.
    Triangle counts and degrees are integers held exactly in float64,
    so both metrics equal the sparse-matmul formulation's.
    """
    degrees = np.bincount(rows, minlength=n).astype(np.float64)
    double_triangles = _double_triangles(n, rows, cols)
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


def _component_labels(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Each node's component label: the smallest node id it reaches.

    Min-label propagation over the directed entries ``(rows, cols)``
    (every edge stored both ways), with pointer jumping so long paths
    converge in few rounds.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, rows, labels[cols])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return labels
        labels = lowered


def graph_features(
    graph: CSRGraph,
    *,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The 12-dimensional feature vector of a term's context graph.

    Every metric is computed natively on the CSR adjacency (bitset
    triangles, label-propagation components, Louvain communities).
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
    plain_rows = rows[~loops]
    plain_cols = graph.indices[~loops].astype(np.int64)
    mean_degree = float(degrees.mean())
    degree_entropy = _entropy(degrees)
    if n_nodes > 1:
        avg_clustering, transitivity = _clustering_and_transitivity(
            n_nodes, plain_rows, plain_cols
        )
    else:
        avg_clustering, transitivity = 0.0, 0.0
    if n_nodes <= 2:
        transitivity = 0.0

    component_labels = _component_labels(n_nodes, plain_rows, plain_cols)
    n_components = int(
        np.count_nonzero(component_labels == np.arange(n_nodes))
    )
    component_sizes = np.bincount(component_labels, minlength=n_nodes)
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
