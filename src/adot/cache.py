"""Plan repository with exact, template, and semantic retrieval plus LRU.

Keys are (normalized query, schema signature, context fingerprint). Exact
hits win over template hits, which win over semantic hits; every hit
refreshes recency. A hit hands back a plan that still must go through
validation; the cache itself never guarantees executability.

Recency is the order of one dict, least recent first: a hit or a re-insert
moves its key to the end, and eviction drops the first key. When two entries
match a query equally well, the most recently used one wins. The cache file
holds only the stats and each entry's kind, key and plan, least recent first;
embeddings are recomputed on load, and capacity and tau come from the caller.

Each entry is serialized once, when it is made, so a save joins the entries'
JSON lines and writes the file. The semantic pass scores every candidate with
one mat-vec and rescores the rows within ``RESCORE_MARGIN`` of the best with
the scalar ``cosine``, so its hits, misses and ties are those of ``cosine``
applied to every candidate.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .plan_ir import Context, Plan, parse_plan, plan_to_json, scrub_plan
from .stores.schema import COLUMN_TYPES
from .stores.vector import RESCORE_MARGIN, HashedBowEmbedder, cosine

DEFAULT_CAPACITY = 128
DEFAULT_TAU = 0.85
SLOT_TYPES = ("number", "quoted_string", "identifier")

_TERMINAL_PUNCT = ".?!"
_SLOT_TOKEN_RE = re.compile(r"^\{(\w+):(number|quoted_string|identifier)\}$")
_SLOT_VALUE_RES = {  # each matched whole
    "number": COLUMN_TYPES["float"].text,
    "quoted_string": re.compile(r"""('[^']*'|"[^"]*")"""),
    "identifier": re.compile(r"[A-Za-z_][A-Za-z0-9_]*"),
}


class CacheFileError(ValueError):
    """A cache file that cannot be read as a plan cache (truncated, not JSON, wrong shape)."""


def normalize_query(q: str) -> str:
    """Lowercase, collapse whitespace, strip ends and terminal punctuation."""
    out = re.sub(r"\s+", " ", q.lower()).strip()
    return out.rstrip(_TERMINAL_PUNCT).rstrip()


@dataclass(frozen=True)
class CacheKey:
    normalized_query: str
    schema_signature: str
    context_fingerprint: str


@dataclass(frozen=True)
class CacheEntry:
    kind: str  # concrete | template
    key: CacheKey
    plan: Plan  # a template's node questions carry {name}
    embedding: np.ndarray | None = field(default=None, repr=False, compare=False)  # concrete, never saved
    line: str = field(default="", repr=False, compare=False)  # this entry's JSON in the cache file

    @property
    def provenance_summary(self) -> str:
        label = "from query" if self.kind == "concrete" else "template"
        return f"{label}: {self.key.normalized_query!r}"


@dataclass(frozen=True)
class CacheHit:
    plan: Plan
    strategy: str  # exact | template | semantic
    cached_query: str  # the matched entry's normalized query, or its template text
    similarity: float | None = None  # a semantic hit's cosine to the cached query
    slots: dict[str, str] | None = None  # a template hit's captured values


@dataclass
class CacheStats:
    hits_exact: int = 0
    hits_template: int = 0
    hits_semantic: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    def to_json(self) -> dict[str, int]:
        return dict(self.__dict__)


def _match_template(template_text: str, query_text: str) -> dict[str, str] | None:
    """Token-aligned match; each slot absorbs one token of its declared type."""
    t_tokens = template_text.split(" ")
    q_tokens = query_text.split(" ")
    if len(t_tokens) != len(q_tokens):
        return None
    captured: dict[str, str] = {}
    for t_tok, q_tok in zip(t_tokens, q_tokens):
        m = _SLOT_TOKEN_RE.match(t_tok)
        if m:
            name, slot_type = m.group(1), m.group(2)
            if not _SLOT_VALUE_RES[slot_type].fullmatch(q_tok):
                return None
            captured[name] = q_tok
        elif t_tok != q_tok:
            return None
    return captured


def instantiate_skeleton(skeleton: Plan, values: Mapping[str, str]) -> Plan:
    """Substitute captured slot values into every node question."""
    def fill(text: str | None) -> str | None:
        if text is None:
            return None
        for name, value in values.items():
            text = text.replace("{" + name + "}", value)
        return text

    nodes = tuple(
        replace(sq, question=fill(sq.question), answer_description=fill(sq.answer_description))
        for sq in skeleton.subquestions
    )
    return replace(skeleton, subquestions=nodes)


def build_template(query: str, plan: Plan, slot_values: Iterable[tuple[str, str, str]]) -> tuple[str, Plan]:
    """Turn a concrete (query, plan) pair into (template_text, skeleton).

    ``slot_values`` holds (name, literal value, slot type) triples; each
    literal occurrence in the normalized query becomes ``{name:type}`` and
    in node questions becomes ``{name}``.
    """
    template_text = normalize_query(query)
    for name, value, slot_type in slot_values:
        if slot_type not in SLOT_TYPES:
            raise ValueError(f"unknown slot type {slot_type!r}")
        template_text = template_text.replace(value.lower(), "{" + name + ":" + slot_type + "}")
    def hole(text: str | None) -> str | None:
        if text is None:
            return None
        for name, value, _ in slot_values:
            text = re.sub(re.escape(value), "{" + name + "}", text, flags=re.IGNORECASE)
        return text
    nodes = tuple(
        replace(sq, question=hole(sq.question), answer_description=hole(sq.answer_description))
        for sq in plan.subquestions
    )
    return template_text, replace(plan, subquestions=nodes)


class PlanCache:
    """LRU plan repository shared across query sessions (thread-safe)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        tau: float = DEFAULT_TAU,
        embedder: HashedBowEmbedder | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self.capacity = capacity
        self.tau = tau
        self.embedder = embedder or HashedBowEmbedder()
        self.stats = CacheStats()
        self._entries: dict[CacheKey, CacheEntry] = {}  # least recently used first
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self, key: CacheKey) -> None:
        self._entries[key] = self._entries.pop(key)

    def lookup(self, query: str, schema_signature: str, context: Context) -> CacheHit | None:
        """Exact, then template, then semantic; ties go to the most recently used entry."""
        nq = normalize_query(query)
        key = CacheKey(nq, schema_signature, context.fingerprint())
        scope = (schema_signature, key.context_fingerprint)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.kind == "concrete":
                self._touch(key)
                self.stats.hits_exact += 1
                return CacheHit(entry.plan, "exact", nq)

            concretes: list[CacheEntry] = []  # in scope, most recently used first
            for entry in reversed(self._entries.values()):
                if (entry.key.schema_signature, entry.key.context_fingerprint) != scope:
                    continue
                if entry.kind == "concrete":
                    concretes.append(entry)
                    continue
                captured = _match_template(entry.key.normalized_query, nq)
                if captured is not None:
                    self._touch(entry.key)
                    self.stats.hits_template += 1
                    plan = instantiate_skeleton(entry.plan, captured)
                    return CacheHit(plan, "template", entry.key.normalized_query, slots=captured)

            best: CacheEntry | None = None
            best_sim = -1.0
            if concretes:
                q_vec = self.embedder.embed(nq)
                # Embeddings are unit length or zero, so a dot product is the
                # cosine up to rounding, far inside RESCORE_MARGIN.
                sims = np.stack([entry.embedding for entry in concretes]) @ q_vec
                for row in np.flatnonzero(sims >= sims.max() - RESCORE_MARGIN):
                    sim = cosine(q_vec, concretes[row].embedding)
                    if sim > best_sim:
                        best, best_sim = concretes[row], sim
            if best is not None and best_sim >= self.tau:
                self._touch(best.key)
                self.stats.hits_semantic += 1
                return CacheHit(best.plan, "semantic", best.key.normalized_query, similarity=best_sim)

            self.stats.misses += 1
            return None

    def insert(self, query: str, schema_signature: str, context: Context, plan: Plan) -> CacheEntry:
        """Insert/replace a concrete entry, evicting LRU on overflow."""
        key = CacheKey(normalize_query(query), schema_signature, context.fingerprint())
        return self._store(self._entry("concrete", key, plan))

    def insert_template(
        self, template_text: str, schema_signature: str, context: Context, skeleton: Plan
    ) -> CacheEntry:
        """Insert a parameterized template entry (>=1 slot required)."""
        key = CacheKey(template_text, schema_signature, context.fingerprint())
        return self._store(self._entry("template", key, skeleton))

    def _entry(self, kind: str, key: CacheKey, plan: Plan) -> CacheEntry:
        plan = scrub_plan(plan)  # a plan is cached, and so handed out, with every node pending
        line = json.dumps({"kind": kind, "key": key.__dict__, "plan": plan_to_json(plan)})
        if kind == "concrete":
            return CacheEntry(kind, key, plan, self.embedder.embed(key.normalized_query), line)
        if kind != "template":
            raise ValueError(f"unknown entry kind {kind!r}")
        if not any(_SLOT_TOKEN_RE.match(token) for token in key.normalized_query.split(" ")):
            raise ValueError("template entries need at least one slot")
        return CacheEntry(kind, key, plan, line=line)

    def _store(self, entry: CacheEntry) -> CacheEntry:
        with self._lock:
            if self._entries.pop(entry.key, None) is None and len(self._entries) >= self.capacity:
                del self._entries[next(iter(self._entries))]
                self.stats.evictions += 1
            self._entries[entry.key] = entry
            self.stats.insertions += 1
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[CacheEntry]:
        """Every entry, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    # --- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the cache to a temporary file beside ``path``, then rename it
        over ``path``: a crash mid-save leaves the previous file whole.

        The text is ``json.dumps`` of ``{"stats": ..., "entries": [...]}``,
        built from each entry's stored line rather than re-serialized.
        """
        with self._lock:
            stats = json.dumps(self.stats.to_json())
            lines = ", ".join(entry.line for entry in self._entries.values())
        target = Path(path)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(f'{{"stats": {stats}, "entries": [{lines}]}}', encoding="utf-8")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(
        cls,
        path: str | Path,
        capacity: int = DEFAULT_CAPACITY,
        tau: float = DEFAULT_TAU,
        embedder: HashedBowEmbedder | None = None,
    ) -> "PlanCache":
        """Read a saved cache, keeping its ``capacity`` most recent entries.

        Raises :class:`CacheFileError` if ``path`` holds no plan cache. Files
        of the earlier format still load: their recency is read from each
        entry's ``last_used``, a template's plan from ``skeleton``, and their
        other fields are ignored.
        """
        cache = cls(capacity=capacity, tau=tau, embedder=embedder)
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            cache.stats = CacheStats(**doc["stats"])
            items = sorted(doc["entries"], key=lambda item: item.get("last_used", 0))
            for item in items[-capacity:]:
                plan = item["plan"] if item["plan"] is not None else item["skeleton"]
                entry = cache._entry(item["kind"], CacheKey(**item["key"]), parse_plan(json.dumps(plan)))
                cache._entries[entry.key] = entry
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CacheFileError(f"{path}: not a plan cache file: {exc}") from exc
        return cache
