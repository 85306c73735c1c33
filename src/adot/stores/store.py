"""The hybrid store: schema + tables + vector index, with disk persistence.

Layout of a store directory::

    schema.json          global schema (tables, collections, cross-links)
    meta.json            index dimension and fusion weight
    tables/<name>.jsonl  one JSON array per row
    chunks.jsonl         one chunk per line, embeddings included

Everything is UTF-8 JSON, human-inspectable, and reloads bit-exactly
(Python's JSON float codec round-trips doubles).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .relational import Table
from .schema import GlobalSchema
from .vector import Chunk, VectorIndex


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
            fh.write(
                json.dumps(
                    {
                        "chunk_id": c.chunk_id,
                        "document_id": c.document_id,
                        "text": c.text,
                        "dense": list(c.dense_vec),
                        "sparse": dict(c.sparse_vec.items()),
                        "metadata": dict(c.metadata),
                    }
                )
                + "\n"
            )


def load_store(store_dir: str | Path) -> Store:
    root = Path(store_dir)
    schema = GlobalSchema.from_json(json.loads((root / "schema.json").read_text(encoding="utf-8")))
    meta = {"dim": 256, "alpha": 0.5}
    if (root / "meta.json").exists():
        meta.update(json.loads((root / "meta.json").read_text(encoding="utf-8")))
    index = VectorIndex(dim=int(meta["dim"]), alpha=float(meta["alpha"]))
    chunks_path = root / "chunks.jsonl"
    if chunks_path.exists():
        for line in chunks_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            index.add(
                Chunk(
                    chunk_id=int(obj["chunk_id"]),
                    document_id=int(obj["document_id"]),
                    text=obj["text"],
                    dense_vec=np.array(obj["dense"], dtype=np.float64),
                    sparse_vec={t: float(w) for t, w in obj["sparse"].items()},
                    metadata=obj.get("metadata", {}),
                )
            )
    tables: dict[str, Table] = {}
    for ts in schema.tables:
        rows: list[tuple] = []
        path = root / "tables" / f"{ts.name}.jsonl"
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    rows.append(tuple(json.loads(line)))
        tables[ts.name] = Table(schema=ts, rows=rows)
    return Store(schema=schema, tables=tables, index=index)

