"""Graph-partitioning clustering: CLUTO's ``graph`` method.

Builds the object nearest-neighbour similarity graph and partitions it:
communities are found by modularity maximisation (the native Louvain
optimiser of :mod:`repro.clustering.louvain`), then adjusted to exactly
k clusters — extra communities are merged by highest inter-community
average similarity, missing ones are created by bisecting the loosest
cluster.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.louvain import CSRGraph, louvain_communities
from repro.clustering.model import ClusterSolution, relabel_contiguous
from repro.clustering.similarity import cosine_similarity_matrix
from repro.errors import ClusteringError
from repro.utils.rng import ensure_rng


def build_knn_graph(sims: np.ndarray, n_neighbors: int) -> CSRGraph:
    """Symmetric kNN graph from a similarity matrix (edges keep weights).

    Node ``i`` links to its ``n_neighbors`` most similar other nodes with
    positive similarity.  When both ends pick an edge, the later row's
    similarity is its weight.
    """
    n = sims.shape[0]
    order = np.argsort(-sims, axis=1)
    # Drop each row's own column; every row holds itself exactly once.
    others = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    cols = others[:, :n_neighbors]
    rows = np.repeat(np.arange(n), cols.shape[1])
    cols = cols.ravel()
    weights = sims[rows, cols]
    # Rows are sorted by descending similarity, so this keeps each row's
    # prefix of positive neighbours.
    positive = weights > 0.0
    rows, cols, weights = rows[positive], cols[positive], weights[positive]
    # Keep each undirected pair's last write (the reversed first one).
    keys = (np.minimum(rows, cols) * n + np.maximum(rows, cols))[::-1]
    __, last = np.unique(keys, return_index=True)
    last = rows.size - 1 - last
    return CSRGraph.from_edges(
        n, rows[last], cols[last], np.maximum(weights[last], 1e-12)
    )


def _mean_inter_similarity(
    sims: np.ndarray, members_a: np.ndarray, members_b: np.ndarray
) -> float:
    return float(sims[np.ix_(members_a, members_b)].mean())


def graph_cluster(
    matrix,
    k: int,
    *,
    n_neighbors: int = 10,
    seed: int | np.random.Generator | None = None,
) -> ClusterSolution:
    """Cluster rows of ``matrix`` into ``k`` groups via graph partitioning.

    Parameters
    ----------
    matrix:
        (n, d) dense or sparse data.
    k:
        Target number of clusters.
    n_neighbors:
        Nearest-neighbour count of the similarity graph.
    seed:
        RNG seed (community detection, and splitting clusters to reach
        k).
    """
    sims = cosine_similarity_matrix(matrix)
    n = sims.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    rng = ensure_rng(seed)

    graph = build_knn_graph(sims, n_neighbors=min(n_neighbors, n - 1))
    communities = louvain_communities(graph, seed=rng)
    labels = np.zeros(n, dtype=np.int64)
    for cid, community in enumerate(communities):
        for node in community:
            labels[node] = cid
    labels, n_found = relabel_contiguous(labels)

    # Merge down: repeatedly fuse the most similar pair of clusters.
    while n_found > k:
        members = [np.where(labels == i)[0] for i in range(n_found)]
        best_pair, best_sim = None, -np.inf
        for a in range(n_found):
            for b in range(a + 1, n_found):
                inter = _mean_inter_similarity(sims, members[a], members[b])
                if inter > best_sim:
                    best_pair, best_sim = (a, b), inter
        a, b = best_pair
        labels[labels == b] = a
        labels, n_found = relabel_contiguous(labels)

    # Split up: bisect the cluster with the lowest internal similarity.
    while n_found < k:
        members = [np.where(labels == i)[0] for i in range(n_found)]
        splittable = [m for m in members if m.size >= 2]
        if not splittable:
            raise ClusteringError(f"cannot reach k={k}: all clusters singleton")
        internal = [
            float(sims[np.ix_(m, m)].mean()) if m.size >= 2 else np.inf
            for m in members
        ]
        target = int(np.argmin(internal))
        target_members = members[target]
        split = spherical_kmeans(matrix[target_members], 2, seed=rng)
        labels[target_members[split.labels == 1]] = n_found
        labels, n_found = relabel_contiguous(labels)

    return ClusterSolution(labels=labels, k=k, algorithm="graph")
