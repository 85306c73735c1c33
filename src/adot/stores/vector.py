"""Hybrid dense + sparse vector index over document chunks.

The reference embedder is a deterministic hashed bag-of-words so every test
and fixture is reproducible without a model: tokens are lowercased
``[a-z0-9_]+`` runs minus a small stopword list, each token increments the
bucket ``sha256(token)[:4] % dim``, and the vector is L2-normalized (the
empty text stays the zero vector). Sparse vectors are L2-normalized token
count maps over the same tokens; the sparse score is their dot product.
Fused score: ``alpha * dense + (1 - alpha) * sparse``, where dense is the
cosine of the two dense vectors.

Scoring is exact, not approximate nearest neighbour. ``VectorIndex`` stores
each dense vector once, as a row of a fixed-size block, and
``Chunk.dense_vec`` is a read-only view of that row. A chunk's sparse
weights are one slice of an entry list of (token id, row, weight), and
``Chunk.sparse_vec`` is a read-only view of that slice. The postings of a
token (its rows and weights) are gathered from the entry list when a query
first holds the token, and later searches add only the entries written
since, so ingest does no per-token index work. A document_id -> row ids
map turns ``doc_filter`` into a gather.

A search scores every candidate with one mat-vec over the query's nonzero
buckets plus the postings of the query's tokens. That matrix score differs
from the scalar one by a few ulps, so the rows whose matrix score is within
``RESCORE_MARGIN`` of the k-th best are rescored exactly with the scalar
``cosine`` and ``sparse_dot`` and sorted by ``(-fused, chunk_id)``. Every
hit and all three of its scores are therefore those of the scalar formula
applied to every candidate, and ties go to the lower chunk_id.

``add_text`` is the only way into the index: it computes both vectors with
the index's own embedder, so every dense and sparse weight is a normalized
count and never negative. A row whose matrix score is exactly 0 therefore
also scores exactly 0 under the scalar formula; such rows all tie, so of
them only the k with the lowest chunk_id are rescored. ``doc_filter``
restricts the candidates before ranking, so an empty filter returns ``[]``.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import re
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .relational import ChunkRef

DEFAULT_DIM = 256
DEFAULT_ALPHA = 0.5

# Rows whose matrix score is this close to the k-th best are rescored with
# the scalar formula; the two differ by a few ulps, far below the margin.
RESCORE_MARGIN = 1e-9

# Rows per dense block (256 KB at dim 256); a block is allocated when the
# last one is full. Larger blocks make a small index touch fresh pages that
# its rows do not fill.
_BLOCK_ROWS = 128

# Token -> bucket entries an embedder keeps before it starts over, so query
# vocabulary cannot grow the memo without bound.
_BUCKET_MEMO_SIZE = 1 << 17

# Function words carry no retrieval signal for the reference scorer; leaving
# them in would make every English query overlap every English chunk.
STOPWORDS = frozenset(
    """a an and are as at be but by for from had has have he her his i if in
    is it its of on one or our she so that the their them they this to was
    were what where which who whose will with you your""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


class EmptyIndexError(RuntimeError):
    """Search was issued against an index with no chunks."""


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words embedder (the reference Embedder)."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        b = self._buckets.get(token)
        if b is None:
            if len(self._buckets) >= _BUCKET_MEMO_SIZE:
                self._buckets.clear()
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            b = self._buckets[token] = int.from_bytes(digest[:4], "big") % self.dim
        return b

    def embed(self, text: str) -> np.ndarray:
        buckets = np.array([self.bucket(t) for t in tokenize(text)], dtype=np.intp)
        vec = np.bincount(buckets, minlength=self.dim).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def sparse_vector(text: str) -> dict[str, float]:
    counts: dict[str, float] = {}
    for token in tokenize(text):
        counts[token] = counts.get(token, 0.0) + 1.0
    norm = sum(w * w for w in counts.values()) ** 0.5
    if norm > 0:
        counts = {t: w / norm for t, w in counts.items()}
    return counts


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def sparse_dot(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return float(sum(w * b[t] for t, w in a.items() if t in b))


class _Vocabulary(dict):
    """Token -> id; an unseen token gets the next id, and ``tokens[id]`` is the token."""

    def __init__(self) -> None:
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        self.tokens.append(token)
        self[token] = len(self.tokens) - 1
        return len(self.tokens) - 1


class SparseVector(Mapping[str, float]):
    """Read-only token -> weight map of one indexed chunk, in the order it was built.

    Its entries are a slice of the index's entry arrays (token ids and
    weights), so it costs a few pointers. ``items`` and ``values`` return
    iterators.
    """

    __slots__ = ("_vocab", "_token_ids", "_weights", "_start", "_stop")

    def __init__(self, vocab: _Vocabulary, token_ids: array, weights: array, start: int, stop: int):
        self._vocab = vocab
        self._token_ids = token_ids
        self._weights = weights
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[str]:
        return map(self._vocab.tokens.__getitem__, self._token_ids[self._start:self._stop])

    def __getitem__(self, token: str) -> float:
        token_id = self._vocab.get(token)
        token_ids = self._token_ids[self._start:self._stop]
        if token_id is None or token_id not in token_ids:
            raise KeyError(token)
        return self._weights[self._start + token_ids.index(token_id)]

    def items(self) -> Iterator[tuple[str, float]]:  # type: ignore[override]
        return zip(self, self._weights[self._start:self._stop])

    def values(self) -> Iterator[float]:  # type: ignore[override]
        return iter(self._weights[self._start:self._stop])


@dataclass(frozen=True, slots=True)
class Chunk:
    chunk_id: int
    document_id: int
    text: str
    dense_vec: np.ndarray = field(compare=False, repr=False)
    sparse_vec: Mapping[str, float] = field(compare=False, repr=False)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "document_id" not in self.metadata:
            md = dict(self.metadata)
            md["document_id"] = self.document_id
            object.__setattr__(self, "metadata", md)

    @property
    def ref(self) -> ChunkRef:
        return ChunkRef(document_id=self.document_id, chunk_id=self.chunk_id)


@dataclass(frozen=True)
class ChunkHit:
    chunk: Chunk
    dense_score: float
    sparse_score: float
    fused_score: float


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values`` (``len(values) >= k``).

    For a long array, the k-th largest maximum of groups of 64 is a floor
    for it, and usually few values reach that floor. (numpy's selection and
    sorting kernels would add about 0.3 MB of machine code to the resident
    set of a process that never needed them.)
    """
    if len(values) > 64 * k:
        groups = np.concatenate((values, np.full(-len(values) % 64, -np.inf))).reshape(-1, 64).max(axis=1)
        values = values[values >= heapq.nlargest(k, groups.tolist())[-1]]
    return heapq.nlargest(k, values.tolist())[-1]


_NO_POSTING = (np.empty(0, dtype=np.intc), np.empty(0), 0)


class VectorIndex:
    """Exact-scoring hybrid index: block mat-vec plus postings, exact rescoring at the boundary.

    Row ``r`` is ``chunks[r]``, in insertion order. A chunk is written to
    every structure before it is appended to ``chunks``, and a search reads
    only the rows below ``len(chunks)`` as it was when the search started,
    so searches may run while one thread adds chunks. Two threads must not
    add at once.
    """

    def __init__(self, dim: int = DEFAULT_DIM, alpha: float = DEFAULT_ALPHA):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.dim = dim
        self.alpha = alpha
        self.embedder = HashedBowEmbedder(dim)
        self.chunks: list[Chunk] = []
        self._blocks: list[np.ndarray] = []  # (_BLOCK_ROWS, dim) each
        self._inv_norms = array("d")  # row -> 1 / ||dense_vec||, 0 for the zero vector
        # One entry per (row, token), rows in order; readers copy slices, so
        # an append never meets a buffer export.
        self._vocab = _Vocabulary()
        self._entry_tokens = array("i")
        self._entry_rows = array("i")
        self._entry_weights = array("d")
        # token id -> (rows, weights, entries scanned), built on the token's first search
        self._postings: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._doc_rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.chunks)

    def add_text(self, chunk_id: int, document_id: int, text: str, metadata: Mapping[str, object] | None = None) -> Chunk:
        """Embed ``text`` and index it as row ``len(chunks)``; everything that can fail runs before the first write."""
        dense = self.embedder.embed(text)
        sparse = sparse_vector(text)
        metadata = dict(metadata or {})
        row_id = len(self.chunks)
        block, offset = divmod(row_id, _BLOCK_ROWS)
        if block == len(self._blocks):
            self._blocks.append(np.empty((_BLOCK_ROWS, self.dim)))
        row = self._blocks[block][offset]  # no search reads the row before the chunk is published
        row[:] = dense
        row.flags.writeable = False
        token_ids = array("i", list(map(self._vocab.__getitem__, sparse)))
        weights = array("d", list(sparse.values()))
        norm = np.linalg.norm(row)
        doc_rows = self._doc_rows.setdefault(document_id, [])
        start = len(self._entry_weights)
        sparse = SparseVector(self._vocab, self._entry_tokens, self._entry_weights, start, start + len(weights))
        chunk = Chunk(chunk_id=chunk_id, document_id=document_id, text=text, dense_vec=row,
                      sparse_vec=sparse, metadata=metadata)
        self._inv_norms.append(1.0 / norm if norm > 0 else 0.0)
        self._entry_tokens.extend(token_ids)
        self._entry_rows.extend(repeat(row_id, len(weights)))
        self._entry_weights.extend(weights)  # last: a reader scans only entries that have a weight
        doc_rows.append(row_id)
        self.chunks.append(chunk)
        return chunk

    def chunks_for_document(self, document_id: int) -> list[Chunk]:
        """The document's chunks in insertion order."""
        return [self.chunks[r] for r in self._doc_rows.get(document_id, ())]

    def search(
        self,
        query_text: str,
        k: int,
        doc_filter: Iterable[int] | None = None,
    ) -> list[ChunkHit]:
        """Top-k chunks by fused score; ties broken by ascending chunk id.

        ``doc_filter`` restricts candidates by document_id before ranking;
        an empty filter set therefore yields an empty result.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = len(self.chunks)
        if not n:
            raise EmptyIndexError("vector index holds no chunks")
        if doc_filter is None:
            rows: Sequence[int] = range(n)
        else:
            allowed = set(doc_filter)
            rows = sorted(r for d in allowed for r in self._doc_rows.get(d, ()) if r < n)
            if not rows:
                return []

        q_dense = self.embedder.embed(query_text)
        q_sparse = sparse_vector(query_text)
        if len(rows) > k:
            rows = self._boundary(q_dense, q_sparse, k, rows, n)
        hits = [self._rescore(self.chunks[r], q_dense, q_sparse) for r in rows]
        hits.sort(key=lambda h: (-h.fused_score, h.chunk.chunk_id))
        return hits[:k]

    def _boundary(self, q_dense, q_sparse, k: int, rows: Sequence[int], n: int) -> list[int]:
        """The candidate ``rows`` (ascending, below ``n``) that can be among the top k, ascending.

        These are the rows whose matrix score is within ``RESCORE_MARGIN`` of
        the k-th best. No weight is negative, so the rows scoring exactly 0 all
        tie at 0, and only the k of them with the lowest chunk_id are kept.
        """
        full = len(rows) == n  # then rows is range(n)
        dots = self._dots(q_dense, rows, full)
        rows = np.arange(n) if full else np.array(rows)
        sparse = np.zeros(n)
        for token, weight in q_sparse.items():
            token_id = self._vocab.get(token)
            if token_id is not None:
                post_rows, post_weights = self._posting(token_id)
                count = bisect.bisect_left(post_rows, n)  # rows added since the search began are left out
                sparse[post_rows[:count]] += weight * post_weights[:count]
        inv_norms = np.frombuffer(self._inv_norms[:n])
        if not full:
            sparse, inv_norms = sparse[rows], inv_norms[rows]
        q_norm = np.linalg.norm(q_dense)
        dense = dots * inv_norms * (1.0 / q_norm if q_norm > 0 else 0.0)
        fused = self.alpha * dense + (1.0 - self.alpha) * sparse
        threshold = _kth_largest(fused, k) - RESCORE_MARGIN
        if threshold > 0:
            return rows[fused >= threshold].tolist()
        # Fewer than k rows score above the margin, so every row is near the
        # k-th best. The rows scoring exactly 0 tie at 0: only the k lowest
        # (chunk_id, row) of them can be among the top k.
        nonzero = (dots + sparse).tolist()
        rows = rows.tolist()
        zeros = (r for r, s in zip(rows, nonzero) if not s)
        lowest = heapq.nsmallest(k, zeros, key=lambda r: (self.chunks[r].chunk_id, r))
        return sorted([r for r, s in zip(rows, nonzero) if s] + lowest)

    def _dots(self, q: np.ndarray, rows: Sequence[int], full: bool) -> np.ndarray:
        """``q`` dotted with the dense vector of each of ``rows``."""
        cols = np.flatnonzero(q)  # the other columns add exactly 0
        if full:
            n = len(rows)
            parts = [block[: n - start, cols] for start, block in zip(range(0, n, _BLOCK_ROWS), self._blocks)]
        else:
            offsets: dict[int, list[int]] = {}  # block -> offsets of its rows, both ascending
            for r in rows:
                offsets.setdefault(r // _BLOCK_ROWS, []).append(r % _BLOCK_ROWS)
            parts = [self._blocks[b][o][:, cols] for b, o in offsets.items()]
        return (np.concatenate(parts) * q[cols]).sum(axis=1)

    def _posting(self, token_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows (ascending) and weights of the token's entries; each call scans only the entries added since the last."""
        rows, weights, scanned = self._postings.get(token_id, _NO_POSTING)
        end = len(self._entry_weights)
        if scanned < end:
            hits = np.flatnonzero(np.frombuffer(self._entry_tokens[scanned:end], dtype=np.intc) == token_id)
            if len(hits):
                hits = (hits + scanned).tolist()
                rows = np.concatenate((rows, np.array([self._entry_rows[i] for i in hits], dtype=np.intc)))
                weights = np.concatenate((weights, np.array([self._entry_weights[i] for i in hits])))
            self._postings[token_id] = (rows, weights, end)  # a concurrent search may store a shorter prefix
        return rows, weights

    def _rescore(self, chunk: Chunk, q_dense: np.ndarray, q_sparse: Mapping[str, float]) -> ChunkHit:
        dense = cosine(q_dense, chunk.dense_vec)
        # A dict of the chunk's weights, in their order, sums the same products in the same order.
        sparse = sparse_dot(q_sparse, dict(chunk.sparse_vec.items()))
        fused = self.alpha * dense + (1.0 - self.alpha) * sparse
        return ChunkHit(chunk=chunk, dense_score=dense, sparse_score=sparse, fused_score=fused)
