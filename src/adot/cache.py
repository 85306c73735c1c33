"""Plan repository with exact, template, and semantic retrieval plus LRU.

Keys are (normalized query, schema signature, context fingerprint). Exact
hits win over template hits, which win over semantic hits; every hit
refreshes recency. A hit hands back a plan that still must go through
validation; the cache itself never guarantees executability.

Recency is a monotonic counter rather than wall-clock so eviction order is
deterministic under test.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .plan_ir import Context, Plan, parse_plan, plan_to_json
from .stores.vector import HashedBowEmbedder, cosine

DEFAULT_TAU = 0.85
SLOT_TYPES = ("number", "quoted_string", "identifier")

_TERMINAL_PUNCT = ".?!"
_SLOT_TOKEN_RE = re.compile(r"^\{(\w+):(number|quoted_string|identifier)\}$")
_SLOT_VALUE_RES = {
    "number": re.compile(r"^-?\d+(\.\d+)?$"),
    "quoted_string": re.compile(r"""^('[^']*'|"[^"]*")$"""),
    "identifier": re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$"),
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
class SlotSpec:
    name: str
    type: str


@dataclass
class CacheEntry:
    kind: str  # concrete | template
    key: CacheKey
    plan: Plan | None = None  # concrete
    skeleton: Plan | None = None  # template: node questions carry {name}
    slots: tuple[SlotSpec, ...] = ()
    provenance_summary: str = ""
    last_used: int = 0
    created: int = 0
    embedding: np.ndarray | None = None


@dataclass(frozen=True)
class CacheHit:
    plan: Plan
    strategy: str  # exact | template | semantic
    entry: CacheEntry


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


def _template_slots(template_text: str) -> tuple[SlotSpec, ...]:
    slots = []
    for token in template_text.split(" "):
        m = _SLOT_TOKEN_RE.match(token)
        if m:
            slots.append(SlotSpec(name=m.group(1), type=m.group(2)))
    return tuple(slots)


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
            if not _SLOT_VALUE_RES[slot_type].match(q_tok):
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
        capacity: int = 128,
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
        self._entries: dict[CacheKey, CacheEntry] = {}
        self._counter = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _next(self) -> int:
        self._counter += 1
        return self._counter

    def _touch(self, entry: CacheEntry) -> None:
        entry.last_used = self._next()

    def lookup(self, query: str, schema_signature: str, context: Context) -> CacheHit | None:
        nq = normalize_query(query)
        key = CacheKey(nq, schema_signature, context.fingerprint())
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.kind == "concrete":
                self._touch(entry)
                self.stats.hits_exact += 1
                return CacheHit(plan=entry.plan, strategy="exact", entry=entry)

            for entry in self._entries.values():
                if entry.kind != "template":
                    continue
                if (entry.key.schema_signature, entry.key.context_fingerprint) != (
                    key.schema_signature,
                    key.context_fingerprint,
                ):
                    continue
                captured = _match_template(entry.key.normalized_query, nq)
                if captured is not None:
                    self._touch(entry)
                    self.stats.hits_template += 1
                    plan = instantiate_skeleton(entry.skeleton, captured)
                    return CacheHit(plan=plan, strategy="template", entry=entry)

            q_vec = self.embedder.embed(nq)
            best: CacheEntry | None = None
            best_sim = -1.0
            for entry in self._entries.values():
                if entry.kind != "concrete" or entry.embedding is None:
                    continue
                if (entry.key.schema_signature, entry.key.context_fingerprint) != (
                    key.schema_signature,
                    key.context_fingerprint,
                ):
                    continue
                sim = cosine(q_vec, entry.embedding)
                if sim > best_sim:
                    best, best_sim = entry, sim
            if best is not None and best_sim >= self.tau:
                self._touch(best)
                self.stats.hits_semantic += 1
                return CacheHit(plan=best.plan, strategy="semantic", entry=best)

            self.stats.misses += 1
            return None

    def insert(self, query: str, schema_signature: str, context: Context, plan: Plan) -> CacheEntry:
        """Insert/replace a concrete entry, evicting LRU on overflow."""
        nq = normalize_query(query)
        key = CacheKey(nq, schema_signature, context.fingerprint())
        entry = CacheEntry(
            kind="concrete",
            key=key,
            plan=plan,
            provenance_summary=f"from query: {nq!r}",
            embedding=self.embedder.embed(nq),
        )
        return self._store(key, entry)

    def insert_template(
        self,
        template_text: str,
        schema_signature: str,
        context: Context,
        skeleton: Plan,
        slots: Iterable[SlotSpec] | None = None,
    ) -> CacheEntry:
        """Insert a parameterized template entry (>=1 slot required)."""
        slot_tuple = tuple(slots) if slots is not None else _template_slots(template_text)
        if not slot_tuple:
            raise ValueError("template entries need at least one slot")
        key = CacheKey(template_text, schema_signature, context.fingerprint())
        entry = CacheEntry(
            kind="template",
            key=key,
            skeleton=skeleton,
            slots=slot_tuple,
            provenance_summary=f"template: {template_text!r}",
        )
        return self._store(key, entry)

    def _store(self, key: CacheKey, entry: CacheEntry) -> CacheEntry:
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.capacity:
                victim = min(self._entries.values(), key=lambda e: e.last_used)
                del self._entries[victim.key]
                self.stats.evictions += 1
            entry.created = self._next()
            entry.last_used = entry.created
            self._entries[key] = entry
            self.stats.insertions += 1
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    # --- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the cache to a temporary file beside ``path``, then rename it
        over ``path``: a crash mid-save leaves the previous file whole."""
        with self._lock:
            doc = {
                "capacity": self.capacity,
                "tau": self.tau,
                "counter": self._counter,
                "stats": self.stats.to_json(),
                "entries": [
                    {
                        "kind": e.kind,
                        "key": e.key.__dict__,
                        "plan": plan_to_json(e.plan) if e.plan is not None else None,
                        "skeleton": plan_to_json(e.skeleton) if e.skeleton is not None else None,
                        "slots": [s.__dict__ for s in e.slots],
                        "provenance_summary": e.provenance_summary,
                        "last_used": e.last_used,
                        "created": e.created,
                        "embedding": list(e.embedding) if e.embedding is not None else None,
                    }
                    for e in self._entries.values()
                ],
            }
        target = Path(path)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(json.dumps(doc), encoding="utf-8")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path, embedder: HashedBowEmbedder | None = None) -> "PlanCache":
        """Read a saved cache; raises :class:`CacheFileError` if ``path`` holds none."""
        try:
            return cls._from_doc(json.loads(Path(path).read_text(encoding="utf-8")), embedder)
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheFileError(f"{path}: not a plan cache file: {exc}") from exc

    @classmethod
    def _from_doc(cls, doc: dict, embedder: HashedBowEmbedder | None) -> "PlanCache":
        cache = cls(capacity=doc["capacity"], tau=doc["tau"], embedder=embedder)
        cache._counter = doc["counter"]
        cache.stats = CacheStats(**doc["stats"])
        for item in doc["entries"]:
            key = CacheKey(**item["key"])
            entry = CacheEntry(
                kind=item["kind"],
                key=key,
                plan=parse_plan(json.dumps(item["plan"])) if item["plan"] is not None else None,
                skeleton=parse_plan(json.dumps(item["skeleton"])) if item["skeleton"] is not None else None,
                slots=tuple(SlotSpec(**s) for s in item["slots"]),
                provenance_summary=item["provenance_summary"],
                last_used=item["last_used"],
                created=item["created"],
                embedding=np.array(item["embedding"], dtype=np.float64)
                if item["embedding"] is not None
                else None,
            )
            cache._entries[key] = entry
        return cache

