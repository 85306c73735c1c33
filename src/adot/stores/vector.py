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
both halves of a chunk alike, each in its half's ``_Entries``: (key, count)
entries in flat arrays, rows in order, plus the row's norm. A dense key is
a nonzero bucket, a sparse key a token id. ``Chunk.dense_vec`` (counts over
norm) is bit for bit the embedder's vector and ``Chunk.sparse_vec`` (a
read-only map) bit for bit ``sparse_vector``'s. ``add_text`` tokenizes the
text once and only extends the arrays. A search first groups the entries
written since the last grouping into per-key postings (ascending rows and
their counts), the same way for both halves. So the first unfiltered
search of a large index groups every entry once: about 0.25 s on a 2-vCPU
host for the benchmark's ``vec_churn`` lake (8,816 chunks, 534k sparse
entries). A document_id -> row ids map turns ``doc_filter`` into a gather.

An unfiltered search takes each half's matrix score as one scatter-add over
the postings of the query's keys; a filtered search reads its own rows'
entries. The matrix score differs from the scalar one by a few ulps, so the
rows whose matrix score is within ``RESCORE_MARGIN`` of the k-th best are
rescored exactly with the scalar ``cosine`` and ``sparse_dot`` (summed over
token ids in ``sparse_dot``'s order) and sorted by ``(-fused, chunk_id)``.
Every hit and all three of its scores are therefore those of the scalar
formula applied to every candidate, and ties go to the lower chunk_id.

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
import math
import re
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .relational import ChunkRef

DEFAULT_DIM = 256
DEFAULT_ALPHA = 0.5

# Rows whose matrix score is this close to the k-th best are rescored with
# the scalar formula; the two differ by a few ulps, far below the margin.
RESCORE_MARGIN = 1e-9

# Entries grouped into postings per step, so the transient copies of the
# first grouping of a large index stay under a megabyte.
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

    def counts(self, tokens: list[str]) -> np.ndarray:
        """How many of ``tokens`` fall in each bucket."""
        return np.bincount(np.array([self.bucket(t) for t in tokens], dtype=np.intp), minlength=self.dim)

    def embed(self, text: str) -> np.ndarray:
        vec = self.counts(tokenize(text)).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def _token_counts(tokens: list[str]) -> tuple[Counter, float]:
    """Each token's count, in order of first occurrence, and the norm of the counts."""
    counts = Counter(tokens)
    return counts, sum(c * c for c in counts.values()) ** 0.5


def sparse_vector(text: str) -> dict[str, float]:
    counts, norm = _token_counts(tokenize(text))
    return {t: c / norm for t, c in counts.items()}


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float vector, bit for bit: the root of the same dot product."""
    return math.sqrt(np.dot(x, x))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return _cosine(a, _norm(a), b)


def _cosine(a: np.ndarray, na: float, b: np.ndarray) -> float:
    """``cosine(a, b)``, given the norm of ``a``."""
    nb = _norm(b)
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


_DTYPES = {code: np.dtype(code) for code in "bBhHiIlLqQd"}


def _np(entries: array) -> np.ndarray:
    """A numpy view of ``entries``; pass a fresh slice, so the index's own arrays never export a buffer."""
    return np.frombuffer(entries, dtype=_DTYPES[entries.typecode])


class _Entries:
    """One half of the index: every row's (key, count) entries and norm, rows in order, and their postings.

    Row r owns entries [offsets[r], offsets[r + 1]). Rows are only appended,
    and a row's entries and norm are written before its offset, so a reader
    that stays below ``offsets[n]`` sees whole rows. ``postings`` maps a key
    to the rows (ascending) and counts of its entries among the first
    ``grouped``; ``_group`` extends them under a lock.
    """

    __slots__ = ("keys", "values", "offsets", "norms", "postings", "grouped", "_lock")

    def __init__(self, key_type: str):
        self.keys = array(key_type)
        self.values = array("I")  # counts
        self.offsets = array("i", [0])
        self.norms = array("d")
        self.postings: dict[int, tuple[array, array]] = {}
        self.grouped = 0
        self._lock = threading.Lock()

    def append(self, keys: bytes, counts: bytes, norm: float) -> None:
        self.keys.frombytes(keys)
        self.values.frombytes(counts)
        self.norms.append(norm)
        self.offsets.append(len(self.values))

    def row(self, r: int) -> tuple[array, array]:
        """Copies of row r's keys and counts."""
        start, stop = self.offsets[r], self.offsets[r + 1]
        return self.keys[start:stop], self.values[start:stop]

    def scores(self, query: Mapping[int, float], rows: Sequence[int], n: int) -> np.ndarray:
        """Of each of ``rows`` (ascending, below ``n``): the query's dot with its counts, over its norm.

        ``query`` maps keys to weights. The entries come from the postings of
        the query's keys when all n rows are scored, from the rows themselves
        otherwise; the dots are one scatter-add either way.
        """
        if not query:
            return np.zeros(len(rows))
        q_keys = np.array(sorted(query))
        q_weights = np.array([query[key] for key in q_keys.tolist()])
        counts, sizes = array("I"), []
        if len(rows) == n:  # then rows is range(n)
            if self.grouped < self.offsets[n]:
                self._group(n)
            owners = array("i")
            for key in q_keys.tolist():
                posting = self.postings.get(key)
                # Every entry of a row below n is grouped by now, and a posting's
                # rows ascend, so its first ``count`` entries are this search's.
                count = bisect.bisect_left(posting[0], n) if posting else 0
                if count:
                    owners += posting[0][:count]
                    counts += posting[1][:count]
                sizes.append(count)
            owners, weights, norms = _np(owners), np.repeat(q_weights, sizes), _np(self.norms[:n])
        else:
            keys = array(self.keys.typecode)
            for r in rows:
                start, stop = self.offsets[r], self.offsets[r + 1]
                keys += self.keys[start:stop]
                counts += self.values[start:stop]
                sizes.append(stop - start)
            keys, owners = _np(keys), np.repeat(np.arange(len(rows)), sizes)
            norms = np.array([self.norms[r] for r in rows])
            at = np.minimum(np.searchsorted(q_keys, keys), len(q_keys) - 1)
            weights = np.where(q_keys[at] == keys, q_weights[at], 0.0)
        dots = np.bincount(owners, weights * _np(counts), len(rows))
        # dots > 0 only where the row shares a key with the query, so its norm is > 0
        return np.divide(dots, norms, out=np.zeros(len(rows)), where=dots > 0)

    def _group(self, n: int) -> None:
        """Append the entries of the rows below ``n`` that are not yet grouped to their keys' postings."""
        with self._lock:  # a concurrent search may have grouped them meanwhile
            end = self.offsets[n]
            for lo in range(self.grouped, end, _GROUP_ENTRIES):
                hi = min(lo + _GROUP_ENTRIES, end)
                keys = _np(self.keys[lo:hi])
                order = np.argsort(keys, kind="stable")  # keeps each key's rows ascending
                keys = keys[order]
                # entries lo to hi - 1 belong to rows first to last - 1, sizes[i] of them to row first + i
                first, last = bisect.bisect_right(self.offsets, lo) - 1, bisect.bisect_left(self.offsets, hi)
                sizes = np.diff(np.clip(_np(self.offsets[first:last + 1]), lo, hi))
                rows, counts = array("i"), array("I")
                rows.frombytes(np.repeat(np.arange(first, last, dtype=np.intc), sizes)[order].tobytes())
                counts.frombytes(_np(self.values[lo:hi])[order].tobytes())
                starts = np.flatnonzero(np.diff(keys, prepend=-1))
                bounds = starts.tolist() + [hi - lo]
                for key, start, stop in zip(keys[starts].tolist(), bounds, bounds[1:]):
                    posting = self.postings.get(key)
                    if posting is None:
                        posting = self.postings[key] = (array("i"), array("I"))
                    posting[0].extend(rows[start:stop])
                    posting[1].extend(counts[start:stop])
                self.grouped = hi


class SparseVector(Mapping[str, float]):
    """Read-only token -> weight map of one indexed chunk, in the order it was built.

    Its entries are its row's (token id, count) entries in the index, so it
    costs a few pointers; a weight is the count over the row's norm, bit for
    bit ``sparse_vector``'s. ``items`` and ``values`` return iterators.
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
        token_ids, counts = self._entries.row(self._row)
        if token_id is None or token_id not in token_ids:
            raise KeyError(token)
        return counts[token_ids.index(token_id)] / self._entries.norms[self._row]

    def items(self) -> Iterator[tuple[str, float]]:  # type: ignore[override]
        return zip(self, self.values())

    def values(self) -> Iterator[float]:  # type: ignore[override]
        norm = self._entries.norms[self._row]
        return (c / norm for c in self._entries.row(self._row)[1])


class DenseEntries:
    """One indexed chunk's dense vector, kept as its row's (bucket, token count) entries in the index."""

    __slots__ = ("_dim", "_entries", "_row")

    def __init__(self, dim: int, entries: _Entries, row: int):
        self._dim = dim
        self._entries = entries
        self._row = row

    def vector(self) -> np.ndarray:
        """A new read-only vector, made as ``HashedBowEmbedder.embed`` makes it: the counts divided by their norm."""
        norm = self._entries.norms[self._row]
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
        self._vocab = _Vocabulary()
        self._dense = _Entries(np.min_scalar_type(dim - 1).char)  # keyed by bucket
        self._sparse = _Entries("i")  # keyed by token id
        self._doc_rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.chunks)

    def add_text(self, chunk_id: int, document_id: int, text: str, metadata: Mapping[str, object] | None = None) -> Chunk:
        """Embed ``text`` and index it as row ``len(chunks)``; everything that can fail runs before the first write."""
        tokens = tokenize(text)
        counts = self.embedder.counts(tokens)
        token_counts, sparse_norm = _token_counts(tokens)
        metadata = dict(metadata or {})
        row_id = len(self.chunks)
        buckets = np.flatnonzero(counts)
        dense = (buckets.astype(self._dense.keys.typecode).tobytes(), counts[buckets].astype(np.uintc).tobytes(),
                 np.linalg.norm(counts.astype(np.float64)))  # as embed computes it
        sparse = (array("i", list(map(self._vocab.__getitem__, token_counts))).tobytes(),
                  array("I", list(token_counts.values())).tobytes(), sparse_norm)
        doc_rows = self._doc_rows.setdefault(document_id, [])
        chunk = Chunk(chunk_id=chunk_id, document_id=document_id, text=text, metadata=metadata,
                      dense_entries=DenseEntries(self.dim, self._dense, row_id),
                      sparse_vec=SparseVector(self._vocab, self._sparse, row_id))
        self._dense.append(*dense)
        self._sparse.append(*sparse)
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
        # token id -> query weight, in query order, for the query tokens that some row holds
        q_tokens = {self._vocab[t]: w for t, w in q_sparse.items() if t in self._vocab}
        if len(rows) > k:
            rows = self._boundary(q_dense, q_tokens, k, rows, n)
        q_norm = _norm(q_dense)
        hits = [self._rescore(r, q_dense, q_norm, q_tokens, len(q_sparse)) for r in rows]
        hits.sort(key=lambda h: (-h.fused_score, h.chunk.chunk_id))
        return hits[:k]

    def _boundary(self, q_dense: np.ndarray, q_tokens: Mapping[int, float], k: int, rows: Sequence[int], n: int) -> list[int]:
        """The candidate ``rows`` (ascending, below ``n``) that can be among the top k, ascending.

        These are the rows whose matrix score is within ``RESCORE_MARGIN`` of
        the k-th best. No weight is negative, so the rows scoring exactly 0 all
        tie at 0, and only the k of them with the lowest chunk_id are kept.
        """
        # q_dense's norm is 1 up to rounding, so the dense score is the cosine up to rounding.
        dense = self._dense.scores({b: q_dense[b] for b in np.flatnonzero(q_dense).tolist()}, rows, n)
        sparse = self._sparse.scores(q_tokens, rows, n)
        fused = self.alpha * dense + (1.0 - self.alpha) * sparse
        rows = np.arange(n) if len(rows) == n else np.array(rows)
        threshold = _kth_largest(fused, k) - RESCORE_MARGIN
        if threshold > 0:
            return rows[fused >= threshold].tolist()
        # Fewer than k rows score above the margin, so every row is near the
        # k-th best. The rows scoring exactly 0 tie at 0: only the k lowest
        # (chunk_id, row) of them can be among the top k.
        nonzero = (dense + sparse).tolist()
        rows = rows.tolist()
        zeros = (r for r, s in zip(rows, nonzero) if not s)
        lowest = heapq.nsmallest(k, zeros, key=lambda r: (self.chunks[r].chunk_id, r))
        return sorted([r for r, s in zip(rows, nonzero) if s] + lowest)

    def _rescore(self, r: int, q_dense: np.ndarray, q_norm: float, q_tokens: Mapping[int, float], q_len: int) -> ChunkHit:
        """Row r's hit with its scalar scores; ``q_len`` is the number of tokens of the query's sparse map."""
        chunk = self.chunks[r]
        dense = _cosine(q_dense, q_norm, chunk.dense_vec)
        # sparse_dot's sum: over the smaller map (the query's on a tie), in its order
        token_ids, counts = self._sparse.row(r)
        norm = self._sparse.norms[r]
        if len(token_ids) < q_len:
            terms = (c / norm * q_tokens[t] for t, c in zip(token_ids, counts) if t in q_tokens)
        else:
            row = dict(zip(token_ids, counts))
            terms = (w * (row[t] / norm) for t, w in q_tokens.items() if t in row)
        sparse = float(sum(terms))
        fused = self.alpha * dense + (1.0 - self.alpha) * sparse
        return ChunkHit(chunk=chunk, dense_score=dense, sparse_score=sparse, fused_score=fused)
