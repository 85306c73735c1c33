"""Append-only evidence trail for plan executions.

One JSON line per record. ``seq`` orders the records of a run; ``wall_ms``
is a node's elapsed time in milliseconds (for a timed-out node, the time
waited for it). Records carry enough structure (``input_labels``,
``provenance_refs``) to walk an answer back to the exact source rows and
chunks that produced it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .jsonfiles import read_lines
from .stores.relational import ChunkRef, ResultSet, RowRef, ref_from_json
from .stores.vector import ChunkHit

SAMPLE_LIMIT = 10


class LineageIOError(RuntimeError):
    pass


class MissingRecordError(KeyError):
    """The lineage file lacks a record the trace needs (truncated file?)."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class LineageRecord:
    kind: str  # node | dataops | cache | final
    seq: int = 0
    node_index: int | None = None
    label: str | None = None
    tool: str | None = None
    question_resolved: str | None = None
    status: str = "ok"
    output_summary: Mapping[str, Any] = field(default_factory=dict)
    provenance_refs: tuple = ()
    input_labels: tuple[str, ...] = ()
    wall_ms: float | None = None
    error_class: str | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "status": self.status,
        }
        if self.node_index is not None:
            obj["node_index"] = self.node_index
        if self.label is not None:
            obj["label"] = self.label
        if self.tool is not None:
            obj["tool"] = self.tool
        if self.question_resolved is not None:
            obj["question_resolved"] = self.question_resolved
        if self.output_summary:
            obj["output_summary"] = dict(self.output_summary)
        if self.provenance_refs:
            obj["provenance_refs"] = [r.to_json() for r in self.provenance_refs]
        if self.input_labels:
            obj["input_labels"] = list(self.input_labels)
        if self.wall_ms is not None:
            obj["wall_ms"] = self.wall_ms
        if self.error_class is not None:
            obj["error_class"] = self.error_class
        if self.extra:
            obj["extra"] = dict(self.extra)
        return obj

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "LineageRecord":
        """Read a record; other keys, such as ``started`` and ``finished`` of
        earlier files, are ignored."""
        return cls(
            kind=obj["kind"],
            seq=int(obj["seq"]),
            node_index=obj.get("node_index"),
            label=obj.get("label"),
            tool=obj.get("tool"),
            question_resolved=obj.get("question_resolved"),
            status=obj.get("status", "ok"),
            output_summary=obj.get("output_summary", {}),
            provenance_refs=tuple(ref_from_json(r) for r in obj.get("provenance_refs", ())),
            input_labels=tuple(obj.get("input_labels", ())),
            wall_ms=obj.get("wall_ms"),
            error_class=obj.get("error_class"),
            extra=obj.get("extra", {}),
        )


class LineageLog:
    """Linearizable append log; optionally mirrored to a JSONL file.

    ``on_record`` sees each stamped record as it is appended, under the
    log's lock, so a live stream arrives in ``seq`` order.
    """

    def __init__(self, path: str | Path | None = None,
                 on_record: Callable[[LineageRecord], None] | None = None):
        self.path = Path(path) if path is not None else None
        self.on_record = on_record
        self.records: list[LineageRecord] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._fh = None
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("w", encoding="utf-8")
            except OSError as exc:
                raise LineageIOError(str(exc)) from exc

    def append(self, record: LineageRecord) -> int:
        with self._lock:
            self._seq += 1
            stamped = replace(record, seq=self._seq)
            self.records.append(stamped)
            if self._fh is not None:
                try:
                    self._fh.write(json.dumps(stamped.to_json()) + "\n")
                    self._fh.flush()
                except OSError as exc:
                    raise LineageIOError(str(exc)) from exc
            if self.on_record is not None:
                self.on_record(stamped)
            return self._seq

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _record(obj: Any) -> LineageRecord:
    if not isinstance(obj, dict) or "kind" not in obj or "seq" not in obj:
        raise ValueError("not a lineage record (an object with 'kind' and 'seq')")
    return LineageRecord.from_json(obj)


def read_lineage(path: str | Path) -> list[LineageRecord]:
    """The records of a lineage file; a line that is not a record names the file and line."""
    return read_lines(path, _record, LineageIOError)


def summarize_result(result: Any) -> tuple[dict[str, Any], tuple]:
    """(output_summary, provenance_refs) for a node result.

    Summaries carry counts plus at most ``SAMPLE_LIMIT`` sample values so
    lineage files never embed full payloads.
    """
    if result is None:
        return {}, ()
    if isinstance(result, ResultSet):
        samples = [list(row) for row in result.rows[:SAMPLE_LIMIT]]
        refs: list = []
        seen = set()
        for row_refs in result.provenance:
            for ref in row_refs:
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
        return {"rows": len(result.rows), "columns": list(result.columns), "samples": samples}, tuple(refs)
    hits: Sequence[ChunkHit] = result
    samples = [h.chunk.text[:80] for h in hits[:SAMPLE_LIMIT]]
    refs = []
    seen = set()
    for h in hits:
        if h.chunk.ref not in seen:
            seen.add(h.chunk.ref)
            refs.append(h.chunk.ref)
    return {"hits": len(hits), "samples": samples}, tuple(refs)


def trace_answer(
    lineage: str | Path | Iterable[LineageRecord],
    answer_node_label: str,
) -> list:
    """Transitive provenance closure feeding ``answer_node_label``.

    Walks node records backward through ``input_labels``, returning every
    RowRef/ChunkRef reachable from the answer node, deduplicated in
    discovery order. The latest record per label wins (re-executions append
    fresh records).
    """
    records = read_lineage(lineage) if isinstance(lineage, (str, Path)) else list(lineage)
    by_label: dict[str, LineageRecord] = {}
    for rec in records:
        if rec.kind == "node" and rec.label is not None:
            by_label[rec.label] = rec

    closure: list = []
    seen_refs: set = set()
    visited: set[str] = set()
    queue = deque([answer_node_label])
    while queue:
        label = queue.popleft()
        if label in visited:
            continue
        visited.add(label)
        rec = by_label.get(label)
        if rec is None:
            raise MissingRecordError(f"lineage has no node record for {label!r}")
        for ref in rec.provenance_refs:
            if ref not in seen_refs:
                seen_refs.add(ref)
                closure.append(ref)
        queue.extend(rec.input_labels)
    return closure
