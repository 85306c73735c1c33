"""Independent oracles for property tests.

Everything here is written against the documented contracts, not against
the library code paths it checks: the validator oracle re-reads raw plan
JSON, the embedding oracle re-implements the hashed bag-of-words scheme
from its description, the ranking oracle re-scores with its own math, and
cycle detection uses Kahn's algorithm / boolean matrix powers instead of
the library's DFS.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

import numpy as np

TOOL_WORDS = {"sql", "iceberg", "structured", "vector", "milvus"}

_REF_DIGITS = "0123456789"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set(_REF_DIGITS)


def char_scan_var_refs(text: str) -> list[tuple[int, str | None]]:
    """Hand-rolled scanner for ``$var_<digits>[.<identifier>]``."""
    out: list[tuple[int, str | None]] = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("$var_", i):
            j = i + 5
            digits = ""
            while j < n and text[j] in _REF_DIGITS:
                digits += text[j]
                j += 1
            if digits:
                column = None
                if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _IDENT_START:
                    k = j + 1
                    ident = ""
                    while k < n and text[k] in _IDENT_CONT:
                        ident += text[k]
                        k += 1
                    column = ident
                    j = k
                out.append((int(digits), column))
                i = j
                continue
        i += 1
    return out


def kahn_has_cycle(n: int, edges: set[tuple[int, int]]) -> bool:
    """Dependency graph u->v (u needs v); cycle iff Kahn's sort stalls."""
    deps = {u: set() for u in range(1, n + 1)}
    for u, v in edges:
        deps[u].add(v)
    done: set[int] = set()
    remaining = set(range(1, n + 1))
    while remaining:
        ready = {u for u in remaining if deps[u] <= done}
        if not ready:
            return True
        done |= ready
        remaining -= ready
    return False


def brute_force_validate(doc: dict, schema_columns: set[str]) -> tuple[bool, Counter]:
    """Re-implementation of the documented validation semantics on raw JSON.

    Returns (is_valid, multiset of error-code strings).
    """
    errors: Counter = Counter()
    subs = doc.get("subquestions", [])
    if not subs:
        return False, Counter({"EmptyPlan": 1})
    n = len(subs)

    def executed(sq: dict) -> bool:
        return sq.get("status") == "executed"

    for i, sq in enumerate(subs, start=1):
        if executed(sq):
            continue
        if "question" not in sq:
            errors["MissingField"] += 1
        elif not sq["question"].strip():
            errors["BadQuestion"] += 1
        if "tool" not in sq:
            errors["MissingField"] += 1
        elif sq["tool"].lower() not in TOOL_WORDS:
            errors["BadTool"] += 1
        if "label" not in sq:
            errors["MissingField"] += 1
        elif sq["label"] != f"$var_{i}":
            errors["BadLabel"] += 1
        if "should_expose_answer" not in sq:
            errors["MissingField"] += 1
        elif not isinstance(sq["should_expose_answer"], bool):
            errors["MissingField"] += 1
        if sq.get("should_expose_answer") is True and not str(sq.get("answer_description") or "").strip():
            errors["MissingAnswerDescription"] += 1

    if not any(sq.get("should_expose_answer") is True for sq in subs):
        errors["NoExposedAnswer"] += 1

    for i, sq in enumerate(subs, start=1):
        if executed(sq):
            continue
        for d, c in char_scan_var_refs(sq.get("question", "")):
            if d < 1 or d > n:
                errors["UnknownVariable"] += 1
            if c is not None and c not in schema_columns:
                partial = set()
                if 1 <= d <= n:
                    partial = set(subs[d - 1].get("partial_result_columns") or [])
                if c not in partial:
                    errors["UnknownColumn"] += 1

    edges: set[tuple[int, int]] = set()
    for i, sq in enumerate(subs, start=1):
        for d, _ in char_scan_var_refs(sq.get("question", "")):
            if 1 <= d <= n:
                edges.add((i, d))
    if kahn_has_cycle(n, edges):
        errors["CyclicDependency"] += 1

    return sum(errors.values()) == 0, errors


def bow_embed(text: str, dim: int = 256, stopwords: frozenset = frozenset()) -> list[float]:
    """Independent hashed bag-of-words: sha256 bucket counts, L2-normalized."""
    vec = [0.0] * dim
    for token in re.findall(r"[a-z0-9_]+", text.lower()):
        if token in stopwords:
            continue
        bucket = int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big") % dim
        vec[bucket] += 1.0
    norm = math.sqrt(sum(x * x for x in vec))
    return [x / norm for x in vec] if norm > 0 else vec


def bow_cosine(a: list[float], b: list[float]) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 or nb == 0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def sparse_counts(text: str, stopwords: frozenset = frozenset()) -> dict[str, float]:
    counts: dict[str, float] = {}
    for token in re.findall(r"[a-z0-9_]+", text.lower()):
        if token not in stopwords:
            counts[token] = counts.get(token, 0.0) + 1.0
    norm = math.sqrt(sum(w * w for w in counts.values()))
    return {t: w / norm for t, w in counts.items()} if norm else counts


def rank_chunks(
    query: str,
    chunks: list[tuple[int, int, str]],
    alpha: float,
    k: int,
    stopwords: frozenset,
    doc_filter: set[int] | None = None,
    dim: int = 256,
) -> list[tuple[int, float]]:
    """Brute-force fused ranking over (chunk_id, document_id, text) triples.

    Returns [(chunk_id, fused_score)] sorted by descending score with
    chunk-id tie-breaking, truncated to k.
    """
    q_dense = bow_embed(query, dim, stopwords)
    q_sparse = sparse_counts(query, stopwords)
    scored = []
    for chunk_id, document_id, text in chunks:
        if doc_filter is not None and document_id not in doc_filter:
            continue
        dense = bow_cosine(q_dense, bow_embed(text, dim, stopwords))
        c_sparse = sparse_counts(text, stopwords)
        sparse = sum(w * c_sparse.get(t, 0.0) for t, w in q_sparse.items())
        scored.append((chunk_id, alpha * dense + (1 - alpha) * sparse))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class ScalarSearch:
    """Frozen copy of the scalar ``VectorIndex.search`` loop, kept as its differential oracle.

    It scores every candidate chunk with ``cosine`` of the dense vectors
    and the dot product of the sparse maps, fuses them, and sorts by
    ``(-fused, chunk_id)`` (a stable sort, so equal keys keep insertion
    order). The query is embedded with the sha256-per-token loop that the
    reference embedder used before its buckets were memoized. Returns
    ``[(chunk, dense, sparse, fused)]``; scores must match the index's
    exactly, not approximately.
    """

    def __init__(self, dim: int, alpha: float, stopwords: frozenset):
        self.dim = dim
        self.alpha = alpha
        self.stopwords = stopwords

    def tokens(self, text: str) -> list[str]:
        return [t for t in re.findall(r"[a-z0-9_]+", text.lower()) if t not in self.stopwords]

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in self.tokens(text):
            vec[int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big") % self.dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def sparse(self, text: str) -> dict[str, float]:
        counts: dict[str, float] = {}
        for token in self.tokens(text):
            counts[token] = counts.get(token, 0.0) + 1.0
        norm = sum(w * w for w in counts.values()) ** 0.5
        if norm > 0:
            counts = {t: w / norm for t, w in counts.items()}
        return counts

    @staticmethod
    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(np.dot(a, b) / (na * nb))

    @staticmethod
    def sparse_dot(a, b) -> float:
        if len(b) < len(a):
            a, b = b, a
        return float(sum(w * b[t] for t, w in a.items() if t in b))

    def search(self, chunks, query_text: str, k: int, doc_filter=None) -> list[tuple]:
        if doc_filter is None:
            candidates = list(chunks)
        else:
            allowed = set(doc_filter)
            candidates = [c for c in chunks if c.document_id in allowed]
        if not candidates:
            return []
        q_dense = self.embed(query_text)
        q_sparse = self.sparse(query_text)
        hits = []
        for chunk in candidates:
            dense = self.cosine(q_dense, chunk.dense_vec)
            sparse = self.sparse_dot(q_sparse, chunk.sparse_vec)
            fused = self.alpha * dense + (1.0 - self.alpha) * sparse
            hits.append((chunk, dense, sparse, fused))
        hits.sort(key=lambda h: (-h[3], h[0].chunk_id))
        return hits[:k]


def all_digraph_masks_have_cycle(n: int, include_self_loops: bool) -> np.ndarray:
    """Cycle verdict for every labeled digraph on n nodes, vectorized.

    Graph e of the enumeration has edge (i, j) iff bit ``pos(i, j)`` of e is
    set. Returns a boolean array indexed by the edge bitmask. Uses boolean
    matrix powers (reachability), not DFS.
    """
    positions = [
        (i, j) for i in range(n) for j in range(n) if include_self_loops or i != j
    ]
    bits = len(positions)
    masks = np.arange(1 << bits, dtype=np.int64)
    adj = np.zeros((len(masks), n, n), dtype=bool)
    for b, (i, j) in enumerate(positions):
        adj[:, i, j] = (masks >> b) & 1
    reach = adj.copy()
    for _ in range(n - 1):
        reach = reach | np.einsum("bij,bjk->bik", reach, adj, dtype=bool)
    return reach[:, np.arange(n), np.arange(n)].any(axis=1)


def naive_aggregate(rows: list[tuple], col_idx: int | None, func: str) -> float | int | None:
    """Row-scan aggregate oracle; None when the input set is empty."""
    values = [r[col_idx] for r in rows if r[col_idx] is not None] if col_idx is not None else [1] * len(rows)
    if not values:
        return None
    if func == "count":
        return len(values)
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    raise ValueError(func)


def naive_exec(tables: dict, query) -> "ResultSet":
    """Row-at-a-time reference for ``exec_structured`` on well-typed queries.

    Follows the documented semantics literally: build the whole relation
    (the inner join of every base row with every matching row of the joined
    table, in base-row then joined-row order, with a clashing joined column
    named ``<table>.<column>``), then apply each filter to every row (a null
    cell passes no filter), then project, or group in first-appearance order
    and aggregate the non-null values, dropping groups with none. A join key
    and an ``in`` list match a cell as Python's ``in`` does, by identity or
    equality, so a NaN matches only itself there and never under ``=``.
    """
    from adot.stores.relational import ResultSet, RowRef

    base = tables[query.table]
    columns = [c.name for c in base.schema.columns]
    relation = [(row, (RowRef(base.name, rid),)) for rid, row in enumerate(base.rows)]
    if query.join is not None:
        other = tables[query.join.table]
        for c in other.schema.columns:
            columns.append(c.name if c.name not in columns else f"{other.name}.{c.name}")
        li = [c.name for c in base.schema.columns].index(query.join.left_column)
        ri = [c.name for c in other.schema.columns].index(query.join.right_column)
        joined = []
        for row, refs in relation:
            for rid, orow in enumerate(other.rows):
                if row[li] is not None and orow[ri] is not None and (row[li] is orow[ri] or row[li] == orow[ri]):
                    joined.append((row + orow, refs + (RowRef(other.name, rid),)))
        relation = joined

    def passes(cell, op, value) -> bool:
        if cell is None:
            return False
        if op == "in":
            return any(cell is v or cell == v for v in value if v is not None)
        if value is None:
            return op == "!="
        return {
            "=": cell == value, "!=": cell != value, "<": cell < value,
            "<=": cell <= value, ">": cell > value, ">=": cell >= value,
        }[op]

    for f in query.filters:
        i = columns.index(f.column)
        relation = [(row, refs) for row, refs in relation if passes(row[i], f.op, f.value)]

    if query.aggregate is None:
        out_cols = columns if query.select == ("*",) else list(query.select)
        picks = [columns.index(c) for c in out_cols]
        return ResultSet(
            columns=tuple(out_cols),
            rows=tuple(tuple(row[i] for i in picks) for row, _ in relation),
            provenance=tuple(refs for _, refs in relation),
        )

    agg = query.aggregate
    keys: list[tuple] = []
    members: dict[tuple, list] = {}
    for row, refs in relation:
        key = tuple(row[columns.index(c)] for c in query.group_by)
        if key not in members:
            keys.append(key)
            members[key] = []
        members[key].append((row, refs))
    out_rows, out_prov = [], []
    col = columns.index(agg.column) if agg.column is not None else None
    for key in keys:
        group = members[key]
        value = naive_aggregate([row for row, _ in group], col, agg.func) if col is not None else len(group)
        if value is None:
            continue
        out_rows.append(key + (value,))
        out_prov.append(tuple(ref for _, refs in group for ref in refs))
    return ResultSet(
        columns=tuple(query.group_by) + (f"{agg.func}({agg.column or '*'})",),
        rows=tuple(out_rows),
        provenance=tuple(out_prov),
    )


# --- frozen literal readers ---------------------------------------------------
# Copies of the readers that each typed a bare text on its own before one
# column-type table did it for all of them. Keep them as they are: they are
# the reference that the table's reading is checked against.


def frozen_parse_scalar(text: str):
    """The structured translator's literal: quoted text, bool, int, float, else the text."""
    text = text.strip()
    if re.fullmatch(r"'[^']*'", text) or re.fullmatch(r'"[^"]*"', text):
        return text[1:-1]
    if text.lower() == "true":
        return True
    if text.lower() == "false":
        return False
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(r"-?\d+\.\d+", text):
        return float(text)
    return text


def frozen_mini_value(tok: str):
    """A mini-language value token (not a reference); ``ValueError`` for one that is no value."""
    if tok.startswith("'"):
        return tok[1:-1]
    if tok.lower() == "true":
        return True
    if tok.lower() == "false":
        return False
    return float(tok) if "." in tok else int(tok)


def frozen_infer_csv_type(values: list[str]) -> str:
    non_empty = [v for v in values if v != ""]
    if not non_empty:
        return "text"
    if all(v.lower() in ("true", "false") for v in non_empty):
        return "bool"
    if all(re.fullmatch(r"-?\d+", v) for v in non_empty):
        return "int"
    if all(re.fullmatch(r"-?\d+(\.\d+)?", v) for v in non_empty):
        return "float"
    return "text"


def frozen_coerce_csv(value: str, col_type: str):
    if value == "":
        return None
    if col_type == "int":
        return int(value)
    if col_type == "float":
        return float(value)
    if col_type == "bool":
        return value.lower() == "true"
    return value
