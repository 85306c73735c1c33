"""Ingestion: build a hybrid store from table files and a document file.

Tables arrive as JSON (explicit schema + rows) or CSV (types inferred);
documents as JSON Lines ``{"document_id": ..., "text": ...}``. Documents
are chunked near a character target at sentence boundaries with a fixed
raw-character overlap, embedded densely and sparsely, and cross-linked to
every table carrying a ``document_id`` column.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..jsonfiles import read_json, read_lines
from .relational import Table, TypeMismatchError
from .schema import COLUMN_TYPES, Column, CollectionSchema, CrossLink, GlobalSchema, TableSchema, type_of_text
from .store import Store, save_store
from .vector import DEFAULT_ALPHA, DEFAULT_DIM, VectorIndex

logger = logging.getLogger(__name__)

CHUNK_TARGET_CHARS = 512
CHUNK_OVERLAP_CHARS = 64

DOCUMENT_ID_COLUMN = "document_id"
DOCUMENTS_COLLECTION = "documents"

_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s|$)")


class IngestError(ValueError):
    pass


@dataclass
class IngestReport:
    tables: int = 0
    rows: dict[str, int] = field(default_factory=dict)
    documents: int = 0
    chunks: int = 0
    cross_links: int = 0
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "tables": self.tables,
            "rows": self.rows,
            "documents": self.documents,
            "chunks": self.chunks,
            "cross_links": self.cross_links,
            "warnings": self.warnings,
        }


def sentence_boundaries(text: str) -> list[int]:
    """Positions just after each sentence-ending punctuation run."""
    return [m.end() for m in _SENTENCE_END_RE.finditer(text)]


def chunk_document(
    text: str,
    target: int = CHUNK_TARGET_CHARS,
    overlap: int = CHUNK_OVERLAP_CHARS,
) -> list[str]:
    """Split text into raw slices ending at sentence boundaries.

    Each cut is made at the sentence end nearest ``pos + target``; the next
    chunk starts ``overlap`` characters before the cut, so consecutive
    chunks share exactly ``overlap`` characters. Text without usable
    boundaries is cut hard at the target.
    """
    if not text:
        return []
    if overlap >= target:
        raise ValueError("overlap must be smaller than the chunk target")
    boundaries = sentence_boundaries(text)
    chunks: list[str] = []
    pos = 0
    while pos < len(text):
        if len(text) - pos <= target:
            chunks.append(text[pos:])
            break
        usable = [b for b in boundaries if b > pos + overlap]
        if not usable:
            cut = pos + target
        else:
            cut = min(usable, key=lambda b: abs((b - pos) - target))
        chunks.append(text[pos:cut])
        if cut >= len(text):
            break
        pos = cut - overlap
    return chunks


def _table_from_csv(path: Path) -> Table:
    """A table named after the file; a row whose field count is not the header's names its line."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty CSV")
        data = []
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != len(header):
                raise IngestError(f"{path}: line {reader.line_num}: {len(row)} fields, the header has {len(header)}")
            data.append(row)
    types = [type_of_text(r[i] for r in data if r[i] != "") for i in range(len(header))]
    schema = TableSchema(
        name=path.stem,
        columns=tuple(Column(h, t) for h, t in zip(header, types)),
    )
    reads = [COLUMN_TYPES[t].read for t in types]
    typed = [tuple(None if v == "" else read(v) for v, read in zip(r, reads)) for r in data]
    return Table(schema=schema, rows=typed)


def _tables(doc: Any) -> list[Table]:
    specs = doc["tables"] if isinstance(doc, dict) and "tables" in doc else doc
    if isinstance(specs, dict):
        specs = [specs]
    tables = []
    for spec in specs:
        schema = TableSchema(
            name=spec["name"],
            columns=tuple(Column(c["name"], c["type"]) for c in spec["columns"]),
            primary_key=spec.get("primary_key"),
        )
        try:
            tables.append(Table(schema=schema, rows=[tuple(r) for r in spec.get("rows", ())]))
        except TypeMismatchError as exc:
            raise ValueError(str(exc)) from None
    return tables


def load_tables(tables_path: str | Path) -> list[Table]:
    path = Path(tables_path)
    if path.is_dir():
        tables: list[Table] = []
        for child in sorted(path.iterdir()):
            if child.suffix == ".csv":
                tables.append(_table_from_csv(child))
            elif child.suffix == ".json":
                tables.extend(read_json(child, _tables, IngestError))
        return tables
    if path.suffix == ".csv":
        return [_table_from_csv(path)]
    return read_json(path, _tables, IngestError)


def load_documents(docs_path: str | Path) -> list[tuple[int, str]]:
    """(document_id, text) per line; a bad or repeated document names its file and line."""
    seen: set[int] = set()

    def document(obj: Any) -> tuple[int, str]:
        doc_id, text = int(obj["document_id"]), obj["text"]
        if not isinstance(text, str):
            raise ValueError("text is not a string")
        if doc_id in seen:
            raise ValueError(f"duplicate document_id {doc_id}")
        seen.add(doc_id)
        return doc_id, text

    return read_lines(docs_path, document, IngestError)


def _apply_row_map(table: Table, doc_ids: list, known_docs: set[int]) -> Table:
    if len(doc_ids) != len(table.rows):
        raise IngestError(
            f"row map for {table.name!r} has {len(doc_ids)} entries, table has {len(table.rows)} rows"
        )
    for d in doc_ids:
        if d is not None and int(d) not in known_docs:
            raise IngestError(f"row map for {table.name!r} references unknown document_id {d}")
    schema = TableSchema(
        name=table.schema.name,
        columns=table.schema.columns + (Column(DOCUMENT_ID_COLUMN, "int"),),
        primary_key=table.schema.primary_key,
        foreign_keys=table.schema.foreign_keys,
    )
    rows = [row + (None if d is None else int(d),) for row, d in zip(table.rows, doc_ids)]
    return Table(schema=schema, rows=rows)


def build_store(
    tables: list[Table],
    documents: list[tuple[int, str]],
    *,
    dim: int = DEFAULT_DIM,
    alpha: float = DEFAULT_ALPHA,
    target: int = CHUNK_TARGET_CHARS,
    overlap: int = CHUNK_OVERLAP_CHARS,
) -> tuple[Store, IngestReport]:
    report = IngestReport()
    index = VectorIndex(dim=dim, alpha=alpha)
    chunk_id = 0
    for doc_id, text in documents:
        for piece in chunk_document(text, target=target, overlap=overlap):
            index.add_text(chunk_id, doc_id, piece)
            chunk_id += 1
    report.documents = len(documents)
    report.chunks = chunk_id
    if not documents:
        report.warnings.append("no documents ingested; vector index is empty")

    cross_links = tuple(
        CrossLink(DOCUMENT_ID_COLUMN, t.name, DOCUMENT_ID_COLUMN)
        for t in tables
        if DOCUMENT_ID_COLUMN in t.schema.column_names
    )
    schema = GlobalSchema(
        tables=tuple(t.schema for t in tables),
        collections=(CollectionSchema(DOCUMENTS_COLLECTION, (DOCUMENT_ID_COLUMN,)),),
        cross_links=cross_links,
    )
    report.tables = len(tables)
    report.rows = {t.name: len(t.rows) for t in tables}
    report.cross_links = len(cross_links)
    store = Store(schema=schema, tables={t.name: t for t in tables}, index=index)
    return store, report


def ingest(
    tables_path: str | Path,
    docs_path: str | Path,
    out_dir: str | Path,
    *,
    row_map_path: str | Path | None = None,
    dim: int = DEFAULT_DIM,
    alpha: float = DEFAULT_ALPHA,
    target: int = CHUNK_TARGET_CHARS,
    overlap: int = CHUNK_OVERLAP_CHARS,
) -> IngestReport:
    """Build the store from source files and persist it under ``out_dir``."""
    tables = load_tables(tables_path)
    documents = load_documents(docs_path)
    if row_map_path is not None:
        row_map: Mapping[str, list] = read_json(row_map_path, dict, IngestError)
        known = {d for d, _ in documents}
        tables = [
            _apply_row_map(t, row_map[t.name], known) if t.name in row_map else t for t in tables
        ]
    store, report = build_store(
        tables, documents, dim=dim, alpha=alpha, target=target, overlap=overlap
    )
    save_store(store, out_dir)
    logger.info("ingested %d tables, %d chunks into %s", report.tables, report.chunks, out_dir)
    return report
