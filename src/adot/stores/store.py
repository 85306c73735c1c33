"""The hybrid store: schema + tables + vector index, with disk persistence.

Layout of a store directory::

    schema.json          global schema (tables, collections, cross-links)
    meta.json            index dimension and fusion weight
    tables/<name>.jsonl  one JSON array per row
    chunks.jsonl         one chunk per line: chunk_id, document_id, text, metadata

A chunk's dense and sparse vectors are a function of its text, so they are
not stored: loading re-indexes each chunk with ``VectorIndex.add_text``.
Everything is UTF-8 JSON, human-inspectable, and reloads bit-exactly. A
``chunks.jsonl`` of the earlier format, whose lines also hold ``dense`` and
``sparse``, still loads; those keys are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..jsonfiles import read_json, read_lines
from .relational import Table, TypeMismatchError
from .schema import GlobalSchema
from .vector import DEFAULT_ALPHA, DEFAULT_DIM, Chunk, VectorIndex


class StoreFileError(ValueError):
    """A store file that is missing or cannot be read (torn, not JSON, wrong shape); the message names it."""


@dataclass
class Store:
    schema: GlobalSchema
    tables: dict[str, Table] = field(default_factory=dict)
    index: VectorIndex = field(default_factory=VectorIndex)

    @property
    def signature(self) -> str:
        return self.schema.signature

    def chunks_for_document(self, document_id: int) -> list[Chunk]:
        return self.index.chunks_for_document(document_id)

    def rows_for_document(self, document_id: int) -> list[tuple[str, int]]:
        """(table, row_id) pairs reachable from a document via cross-links."""
        out = []
        for link in self.schema.cross_links:
            table = self.tables.get(link.table_name)
            if table is None:
                continue
            rids = table.index(table.column_index(link.column_name)).get(document_id, ())
            out.extend((table.name, rid) for rid in rids)
        return out


def save_store(store: Store, out_dir: str | Path) -> None:
    root = Path(out_dir)
    (root / "tables").mkdir(parents=True, exist_ok=True)
    (root / "schema.json").write_text(
        json.dumps(store.schema.to_json(), indent=2), encoding="utf-8"
    )
    (root / "meta.json").write_text(
        json.dumps({"dim": store.index.dim, "alpha": store.index.alpha}), encoding="utf-8"
    )
    for name, table in store.tables.items():
        lines = [json.dumps(list(row)) for row in table.rows]
        (root / "tables" / f"{name}.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    with (root / "chunks.jsonl").open("w", encoding="utf-8") as fh:
        for c in store.index.chunks:
            chunk = {"chunk_id": c.chunk_id, "document_id": c.document_id, "text": c.text, "metadata": dict(c.metadata)}
            fh.write(json.dumps(chunk) + "\n")


def _chunk_fields(obj: Any) -> tuple[int, int, str, Any]:
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        raise ValueError("not a chunk (an object with chunk_id, document_id and text)")
    return int(obj["chunk_id"]), int(obj["document_id"]), obj["text"], obj.get("metadata")


def _index(meta: Any) -> VectorIndex:
    if not isinstance(meta, dict):
        raise ValueError("not index settings (an object with dim and alpha)")
    return VectorIndex(dim=int(meta.get("dim", DEFAULT_DIM)), alpha=float(meta.get("alpha", DEFAULT_ALPHA)))


def _row(obj: Any) -> list:
    if not isinstance(obj, list):
        raise ValueError("not a row (a JSON array)")
    return obj


def load_store(store_dir: str | Path) -> Store:
    """Read a store directory; a missing or unreadable file raises :class:`StoreFileError` naming it."""
    root = Path(store_dir)
    schema = read_json(root / "schema.json", GlobalSchema.from_json, StoreFileError)
    index = read_json(root / "meta.json", _index, StoreFileError) if (root / "meta.json").exists() else VectorIndex()
    read_lines(root / "chunks.jsonl", lambda obj: index.add_text(*_chunk_fields(obj)), StoreFileError)
    tables: dict[str, Table] = {}
    for ts in schema.tables:
        path = root / "tables" / f"{ts.name}.jsonl"
        rows = read_lines(path, _row, StoreFileError)
        try:
            tables[ts.name] = Table(schema=ts, rows=rows)
        except (ValueError, TypeMismatchError) as exc:
            raise StoreFileError(f"{path}: {exc}") from None
    return Store(schema=schema, tables=tables, index=index)
