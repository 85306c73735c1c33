"""Hybrid dense + sparse vector index over document chunks.

The reference embedder is a deterministic hashed bag-of-words so every test
and fixture is reproducible without a model: tokens are lowercased
``[a-z0-9_]+`` runs minus a small stopword list, each token increments the
bucket ``sha256(token)[:4] % dim``, and the vector is L2-normalized (the
empty text stays the zero vector). Sparse vectors are L2-normalized token
count maps over the same tokens; the sparse score is their dot product.
Fused score: ``alpha * dense + (1 - alpha) * sparse``, where dense is the
cosine of the two dense vectors.

Scoring is exact, not approximate nearest neighbour. ``VectorIndex`` keeps
both vectors of a chunk as entries of its row, in flat arrays with rows in
order: a dense entry is (bucket, token count) for each nonzero bucket, a
sparse entry (token id, weight) for each token. ``Chunk.dense_vec`` is a
read-only vector rebuilt from the row's dense entries, bit for bit the
embedder's, and ``Chunk.sparse_vec`` a read-only view of its sparse
entries. ``add_text`` only extends the arrays; searches build the postings
(ascending rows and their values). A search first appends the dense entries
written since the last grouping to their buckets' postings, and the postings
of a token take the sparse entries written since the token was last
searched. A document_id -> row ids map turns ``doc_filter`` into a gather.

An unfiltered search takes both matrix scores as scatter-adds over postings:
those of the query's nonzero buckets and those of its tokens. A filtered
search reads the entries of its own rows. The matrix score differs from the
scalar one by a few ulps, so the rows whose matrix score is within
``RESCORE_MARGIN`` of the k-th best are rescored exactly with the scalar
``cosine`` and ``sparse_dot`` and sorted by ``(-fused, chunk_id)``. Every
hit and all three of its scores are therefore those of the scalar formula
applied to every candidate, and ties go to the lower chunk_id.

The design rests on one assumption: ``add_text`` is the only way into the
index, and it computes both vectors with the index's own hashed embedder.
So a dense vector is sparse (a chunk of a few hundred characters fills
about 50 of 256 buckets), which keeps its entries and postings small, and
no dense or sparse weight is negative, being a count over a norm. Hence the
zero-tie rule: a row whose matrix score is exactly 0 also scores exactly 0
under the scalar formula; such rows all tie, so of them only the k with the
lowest chunk_id are rescored. ``doc_filter`` restricts the candidates
before ranking, so an empty filter returns ``[]``.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import re
import threading
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .relational import ChunkRef

DEFAULT_DIM = 256
DEFAULT_ALPHA = 0.5

# Rows whose matrix score is this close to the k-th best are rescored with
# the scalar formula; the two differ by a few ulps, far below the margin.
RESCORE_MARGIN = 1e-9

# Dense entries grouped into postings per step, so the transient copies of
# the first grouping of a large index stay under a megabyte.
_GROUP_ENTRIES = 1 << 14

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

    def counts(self, text: str) -> np.ndarray:
        """How many of the text's tokens fall in each bucket."""
        return np.bincount(np.array([self.bucket(t) for t in tokenize(text)], dtype=np.intp), minlength=self.dim)

    def embed(self, text: str) -> np.ndarray:
        vec = self.counts(text).astype(np.float64)
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


def _np(entries: array) -> np.ndarray:
    """A numpy view of ``entries``; pass a fresh slice, so the index's own arrays never export a buffer."""
    return np.frombuffer(entries, dtype=entries.typecode)


class _Entries:
    """(key, value) entries of every row, rows in order; row r owns entries [offsets[r], offsets[r + 1]).

    Rows are only appended, and a row's entries are written before its
    offset, so a reader that stays below ``offsets[n]`` sees whole rows.
    """

    __slots__ = ("keys", "values", "offsets")

    def __init__(self, key_type: str, value_type: str):
        self.keys = array(key_type)
        self.values = array(value_type)
        self.offsets = array("i", [0])

    def append(self, keys: bytes, values: bytes) -> None:
        self.keys.frombytes(keys)
        self.values.frombytes(values)
        self.offsets.append(len(self.values))

    def row(self, r: int) -> tuple[array, array]:
        """Copies of row r's keys and values."""
        start, stop = self.offsets[r], self.offsets[r + 1]
        return self.keys[start:stop], self.values[start:stop]

    def gather(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys and values of the entries of ``rows``, and the index in ``rows`` of each entry's row."""
        keys, values, sizes = array(self.keys.typecode), array(self.values.typecode), []
        for r in rows:
            start, stop = self.offsets[r], self.offsets[r + 1]
            sizes.append(stop - start)
            keys += self.keys[start:stop]
            values += self.values[start:stop]
        return _np(keys), _np(values), np.repeat(np.arange(len(rows)), sizes)

    def rows_of(self, positions: np.ndarray) -> np.ndarray:
        """The row owning each of ``positions`` (ascending entry indices of whole rows)."""
        first = bisect.bisect_right(self.offsets, positions[0]) - 1
        offsets = _np(self.offsets[first:bisect.bisect_right(self.offsets, positions[-1])])
        return (np.searchsorted(offsets, positions, side="right") - 1 + first).astype(np.intc)


class SparseVector(Mapping[str, float]):
    """Read-only token -> weight map of one indexed chunk, in the order it was built.

    Its entries are its row's (token id, weight) entries in the index, so it
    costs a few pointers. ``items`` and ``values`` return iterators.
    """

    __slots__ = ("_vocab", "_entries", "_row")

    def __init__(self, vocab: _Vocabulary, entries: _Entries, row: int):
        self._vocab = vocab
        self._entries = entries
        self._row = row

    def __len__(self) -> int:
        return self._entries.offsets[self._row + 1] - self._entries.offsets[self._row]

    def __iter__(self) -> Iterator[str]:
        return map(self._vocab.tokens.__getitem__, self._entries.row(self._row)[0])

    def __getitem__(self, token: str) -> float:
        token_id = self._vocab.get(token)
        token_ids, weights = self._entries.row(self._row)
        if token_id is None or token_id not in token_ids:
            raise KeyError(token)
        return weights[token_ids.index(token_id)]

    def items(self) -> Iterator[tuple[str, float]]:  # type: ignore[override]
        token_ids, weights = self._entries.row(self._row)
        return zip(map(self._vocab.tokens.__getitem__, token_ids), weights)

    def values(self) -> Iterator[float]:  # type: ignore[override]
        return iter(self._entries.row(self._row)[1])


class DenseEntries:
    """One indexed chunk's dense vector, kept as its row's (bucket, token count) entries in the index."""

    __slots__ = ("_dim", "_entries", "_norms", "_row")

    def __init__(self, dim: int, entries: _Entries, norms: array, row: int):
        self._dim = dim
        self._entries = entries
        self._norms = norms
        self._row = row

    def vector(self) -> np.ndarray:
        """A new read-only vector, made as ``HashedBowEmbedder.embed`` makes it: the counts divided by their norm."""
        norm = self._norms[self._row]
        if norm > 0:
            buckets, counts = self._entries.row(self._row)
            vec = np.bincount(_np(buckets), _np(counts), self._dim)
            vec /= norm
        else:  # no tokens, so no entries
            vec = np.zeros(self._dim)
        vec.flags.writeable = False
        return vec


@dataclass(frozen=True, slots=True)
class Chunk:
    chunk_id: int
    document_id: int
    text: str
    dense_entries: DenseEntries = field(compare=False, repr=False)
    sparse_vec: Mapping[str, float] = field(compare=False, repr=False)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "document_id" not in self.metadata:
            md = dict(self.metadata)
            md["document_id"] = self.document_id
            object.__setattr__(self, "metadata", md)

    @property
    def dense_vec(self) -> np.ndarray:
        """The hashed bag-of-words vector, rebuilt from the chunk's dense entries on each read."""
        return self.dense_entries.vector()

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
    """Exact-scoring hybrid index: scatter-adds over postings, exact rescoring at the boundary.

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
        self._dense = _Entries(np.min_scalar_type(dim - 1).char, "I")  # (bucket, token count) per nonzero bucket
        self._norms = array("d")  # row -> norm of its bucket counts
        self._vocab = _Vocabulary()
        self._sparse = _Entries("i", "d")  # (token id, weight) per token
        # bucket -> (rows, counts) of the first ``_grouped`` dense entries
        self._dense_postings = [(array("i"), array("I")) for _ in range(dim)]
        self._grouped = 0
        self._group_lock = threading.Lock()
        # token id -> (rows, weights, entries scanned), built on the token's first search
        self._postings: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._doc_rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.chunks)

    def add_text(self, chunk_id: int, document_id: int, text: str, metadata: Mapping[str, object] | None = None) -> Chunk:
        """Embed ``text`` and index it as row ``len(chunks)``; everything that can fail runs before the first write."""
        counts = self.embedder.counts(text)
        sparse = sparse_vector(text)
        metadata = dict(metadata or {})
        row_id = len(self.chunks)
        buckets = np.flatnonzero(counts)
        dense_bytes = (buckets.astype(self._dense.keys.typecode).tobytes(), counts[buckets].astype(np.uintc).tobytes())
        norm = np.linalg.norm(counts.astype(np.float64))  # as embed computes it
        sparse_bytes = (array("i", list(map(self._vocab.__getitem__, sparse))).tobytes(),
                        array("d", list(sparse.values())).tobytes())
        doc_rows = self._doc_rows.setdefault(document_id, [])
        chunk = Chunk(chunk_id=chunk_id, document_id=document_id, text=text, metadata=metadata,
                      dense_entries=DenseEntries(self.dim, self._dense, self._norms, row_id),
                      sparse_vec=SparseVector(self._vocab, self._sparse, row_id))
        self._dense.append(*dense_bytes)
        self._norms.append(norm)
        self._sparse.append(*sparse_bytes)
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
        q_tokens = {}  # token id -> query weight, for the query tokens that some row holds
        for token, weight in q_sparse.items():
            token_id = self._vocab.get(token)
            if token_id is not None:
                q_tokens[token_id] = weight
        if len(rows) == n:  # then rows is range(n)
            dots, sparse = self._posting_scores(q_dense, q_tokens, n)
            norms = np.frombuffer(self._norms[:n])
            rows = np.arange(n)
        else:
            dots, sparse = self._row_scores(q_dense, q_tokens, rows)
            norms = np.array([self._norms[r] for r in rows])
            rows = np.array(rows)
        # dots > 0 only where the row shares a bucket with the query, so both norms are > 0
        dense = np.divide(dots, norms * np.linalg.norm(q_dense), out=np.zeros(len(dots)), where=dots > 0)
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

    def _posting_scores(self, q: np.ndarray, q_tokens: Mapping[int, float], n: int) -> tuple[np.ndarray, np.ndarray]:
        """Of each of the first ``n`` rows: ``q`` dotted with its bucket counts, and its sparse dot, from postings.

        Only the postings of q's nonzero buckets and of the query's tokens are read.
        """
        if self._grouped < self._dense.offsets[n]:
            self._group(n)
        buckets = np.flatnonzero(q)
        rows, counts, sizes = array("i"), array("I"), []
        for bucket in buckets.tolist():
            post_rows, post_counts = self._dense_postings[bucket]
            # Every entry of a row below n is grouped by now, and a posting's
            # rows ascend, so its first ``count`` entries are this search's.
            count = bisect.bisect_left(post_rows, n)
            rows += post_rows[:count]
            counts += post_counts[:count]
            sizes.append(count)
        dots = np.bincount(_np(rows), np.repeat(q[buckets], sizes) * _np(counts), n)
        sparse = np.zeros(n)
        for token_id, weight in q_tokens.items():
            post_rows, post_weights = self._posting(token_id)
            count = bisect.bisect_left(post_rows, n)  # rows added since the search began are left out
            sparse[post_rows[:count]] += weight * post_weights[:count]
        return dots, sparse

    def _row_scores(self, q: np.ndarray, q_tokens: Mapping[int, float], rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Of each of ``rows``: ``q`` dotted with its bucket counts, and its sparse dot, from the rows' own entries."""
        buckets, counts, owners = self._dense.gather(rows)
        dots = np.bincount(owners, q[buckets] * counts, len(rows))
        token_ids, weights, owners = self._sparse.gather(rows)
        query = np.zeros(len(token_ids))
        for token_id, weight in q_tokens.items():
            query[token_ids == token_id] = weight
        return dots, np.bincount(owners, query * weights, len(rows))

    def _group(self, n: int) -> None:
        """Append the dense entries of the rows below ``n`` that are not yet grouped to their buckets' postings."""
        with self._group_lock:  # a concurrent search may have grouped them meanwhile
            end = self._dense.offsets[n]
            for lo in range(self._grouped, end, _GROUP_ENTRIES):
                hi = min(lo + _GROUP_ENTRIES, end)
                buckets = _np(self._dense.keys[lo:hi])
                order = np.argsort(buckets, kind="stable")  # keeps each bucket's rows ascending
                buckets = buckets[order]
                rows = self._dense.rows_of(np.arange(lo, hi))[order]
                counts = _np(self._dense.values[lo:hi])[order]
                starts = np.flatnonzero(np.diff(buckets, prepend=-1))
                bounds = starts.tolist() + [hi - lo]
                for bucket, start, stop in zip(buckets[starts].tolist(), bounds, bounds[1:]):
                    post_rows, post_counts = self._dense_postings[bucket]
                    post_rows.frombytes(rows[start:stop].tobytes())
                    post_counts.frombytes(counts[start:stop].tobytes())
                self._grouped = hi

    def _posting(self, token_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows (ascending) and weights of the token's entries; each call scans only the entries added since the last."""
        rows, weights, scanned = self._postings.get(token_id, _NO_POSTING)
        end = self._sparse.offsets[-1]
        if scanned < end:
            hits = np.flatnonzero(_np(self._sparse.keys[scanned:end]) == token_id) + scanned
            if len(hits):
                rows = np.concatenate((rows, self._sparse.rows_of(hits)))
                weights = np.concatenate((weights, _np(self._sparse.values[hits[0]:hits[-1] + 1])[hits - hits[0]]))
            self._postings[token_id] = (rows, weights, end)  # a concurrent search may store a shorter prefix
        return rows, weights

    def _rescore(self, chunk: Chunk, q_dense: np.ndarray, q_sparse: Mapping[str, float]) -> ChunkHit:
        dense = cosine(q_dense, chunk.dense_vec)
        # A dict of the chunk's weights, in their order, sums the same products in the same order.
        sparse = sparse_dot(q_sparse, dict(chunk.sparse_vec.items()))
        fused = self.alpha * dense + (1.0 - self.alpha) * sparse
        return ChunkHit(chunk=chunk, dense_score=dense, sparse_score=sparse, fused_score=fused)
