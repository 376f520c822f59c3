"""Term co-occurrence graphs.

Two stages of the paper lean on a graph induced from the corpus:

* Step II extracts 12 of its 23 polysemy features "from a graph itself
  induced from the text corpus" (the co-occurrence graph of a term's
  context words);
* Step IV builds "a term co-occurrence graph ... selecting only the MeSH
  neighborhood of a candidate term".

Both are built by one numpy kernel, :func:`cooccurrence_csr`: token
sequences in, a weighted undirected :class:`~repro.clustering.louvain.CSRGraph`
out, whose edge weights count within-window co-occurrences.
:class:`CooccurrenceGraphBuilder` wraps it for Step IV and returns a
read-only :class:`CooccurrenceGraph` whose nodes are tokens (or
multi-word terms after merging).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.clustering.louvain import CSRGraph
from repro.text.stopwords import stopwords_for
from repro.utils.validation import check_positive_int


def cooccurrence_csr(
    sequences: Iterable[Sequence[Hashable]], *, window: int
) -> tuple[dict, CSRGraph, np.ndarray]:
    """Sliding-window co-occurrence graph of token ``sequences``.

    Two tokens of one sequence co-occur when their distance is below
    ``window``; equal tokens never pair (no self-loops).  Each edge's
    weight is its number of co-occurrences.

    Returns ``(ids, graph, counts)``: ``ids`` maps each token to its
    node id, assigned in order of first appearance; ``counts[i]`` is the
    number of occurrences of node ``i``.
    """
    ids: dict = {}
    flat: list[int] = []
    lengths: list[int] = []
    for sequence in sequences:
        before = len(flat)
        flat.extend([ids.setdefault(token, len(ids)) for token in sequence])
        lengths.append(len(flat) - before)
    n = len(ids)
    tokens = np.array(flat, dtype=np.int64)
    counts = np.bincount(tokens, minlength=n)
    sequence_of = np.repeat(np.arange(len(lengths)), lengths)
    keys = [np.empty(0, dtype=np.int64)]
    for distance in range(1, min(window, tokens.size)):
        left = tokens[:-distance]
        right = tokens[distance:]
        pair = (sequence_of[:-distance] == sequence_of[distance:]) & (
            left != right
        )
        left = left[pair]
        right = right[pair]
        keys.append(np.minimum(left, right) * n + np.maximum(left, right))
    edges, weights = np.unique(np.concatenate(keys), return_counts=True)
    graph = CSRGraph.from_edges(
        n, edges // n, edges % n, weights.astype(np.float64)
    )
    return ids, graph, counts


def drop_light_edges(graph: CSRGraph, min_weight: float) -> CSRGraph:
    """``graph`` without the edges whose weight is below ``min_weight``."""
    keep = graph.weights >= min_weight
    if keep.all():
        return graph
    n = graph.n_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return CSRGraph(
        indptr=indptr,
        indices=graph.indices[keep],
        weights=graph.weights[keep],
    )


def merge_term_tokens(
    tokens: Sequence[str],
    terms: Iterable[tuple[str, ...]],
) -> list[str]:
    """Greedily merge known multi-word ``terms`` into single tokens.

    ``["corneal", "injuries", "heal"]`` with term ``("corneal",
    "injuries")`` becomes ``["corneal injuries", "heal"]``.  Longest match
    wins at each position, mirroring maximal-munch term spotting.
    """
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for term in terms:
        if not term:
            continue
        by_first.setdefault(term[0], []).append(term)
    for candidates in by_first.values():
        candidates.sort(key=len, reverse=True)

    lower = [t.lower() for t in tokens]
    merged: list[str] = []
    i = 0
    n = len(lower)
    while i < n:
        token = lower[i]
        match: tuple[str, ...] | None = None
        for candidate in by_first.get(token, ()):
            span = len(candidate)
            if i + span <= n and tuple(lower[i : i + span]) == candidate:
                match = candidate
                break
        if match is None:
            merged.append(token)
            i += 1
        else:
            merged.append(" ".join(match))
            i += len(match)
    return merged


class CooccurrenceGraphBuilder:
    """Build a weighted token co-occurrence graph from tokenised documents.

    Parameters
    ----------
    window:
        Sliding-window size; tokens at distance < ``window`` co-occur.
    stop_language:
        Drop this language's stopwords before windowing (``None`` keeps all).
    min_weight:
        Prune edges with total weight below this after building.
    terms:
        Optional multi-word terms merged into single nodes first.
    """

    def __init__(
        self,
        *,
        window: int = 5,
        stop_language: str | None = "en",
        min_weight: float = 1.0,
        terms: Iterable[tuple[str, ...]] | None = None,
    ) -> None:
        self.window = check_positive_int(window, "window")
        self.stop_language = stop_language
        self.min_weight = min_weight
        self.terms = list(terms) if terms is not None else []

    def _prepare(self, tokens: Sequence[str]) -> list[str]:
        merged = (
            merge_term_tokens(tokens, self.terms)
            if self.terms
            else [t.lower() for t in tokens]
        )
        if self.stop_language is None:
            return merged
        stop = stopwords_for(self.stop_language)
        return [t for t in merged if t not in stop]

    def build(self, documents: Iterable[Sequence[str]]) -> CooccurrenceGraph:
        """Accumulate co-occurrence counts over ``documents`` into a graph."""
        ids, graph, counts = cooccurrence_csr(
            (self._prepare(tokens) for tokens in documents),
            window=self.window,
        )
        return CooccurrenceGraph(
            ids, drop_light_edges(graph, self.min_weight), counts
        )


class CooccurrenceGraph:
    """A read-only weighted co-occurrence graph over named nodes.

    Parameters
    ----------
    ids:
        Node name to node id (ids ``0..n-1``, in first-appearance order).
    graph:
        The weighted adjacency over those ids.
    counts:
        Occurrences of each node in the source documents.
    """

    def __init__(
        self, ids: dict[str, int], graph: CSRGraph, counts: np.ndarray
    ) -> None:
        self._ids = ids
        self._names = list(ids)
        self._graph = graph
        self._counts = counts

    def __contains__(self, node: object) -> bool:
        return node in self._ids

    def _row(self, node: str) -> slice:
        i = self._ids[node]
        return slice(int(self._graph.indptr[i]), int(self._graph.indptr[i + 1]))

    def neighbors(self, node: str) -> list[str]:
        """Nodes sharing an edge with ``node`` (``KeyError`` if absent)."""
        names = self._names
        return [names[j] for j in self._graph.indices[self._row(node)].tolist()]

    def weight(self, u: str, v: str) -> float:
        """Co-occurrence count of ``u`` and ``v`` (0.0 without an edge)."""
        if u not in self._ids or v not in self._ids:
            return 0.0
        row = self._row(u)
        columns = self._graph.indices[row]
        # Columns are sorted inside each row.
        k = int(np.searchsorted(columns, self._ids[v]))
        if k < columns.size and columns[k] == self._ids[v]:
            return float(self._graph.weights[row][k])
        return 0.0

    def has_edge(self, u: str, v: str) -> bool:
        """Whether ``u`` and ``v`` co-occur (after pruning)."""
        return self.weight(u, v) > 0.0

    def count(self, node: str) -> int:
        """Occurrences of ``node`` in the documents (``KeyError`` if absent)."""
        return int(self._counts[self._ids[node]])

    def degree(self, node: str) -> int:
        """Number of neighbours of ``node`` (``KeyError`` if absent)."""
        row = self._row(node)
        return row.stop - row.start

    def number_of_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._graph.indices.size) // 2
