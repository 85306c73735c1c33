"""Global schema: relational tables, vector collections, cross-links.

The schema signature is a content hash used in cache keys: declaration
order never matters, any rename or addition changes it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, NamedTuple


class ColumnType(NamedTuple):
    holds: Callable[[Any], bool]  # a non-null value a cell of this type may hold
    compares: Callable[[Any], bool]  # a non-null literal a filter may compare such a cell with
    text: re.Pattern[str]  # the unquoted text of a value (matched whole)
    read: Callable[[str], Any]  # that text's value


def _is_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_text(value: Any) -> bool:
    return isinstance(value, str)


# In reading order: a text is read as the first type whose ``text`` it matches.
COLUMN_TYPES: dict[str, ColumnType] = {
    "bool": ColumnType(
        holds=_is_bool,
        compares=_is_bool,
        text=re.compile(r"true|false", re.IGNORECASE | re.ASCII),  # ASCII: "falſe".lower() is not "false"
        read=lambda text: text.lower() == "true",
    ),
    "int": ColumnType(
        holds=lambda v: isinstance(v, int) and not isinstance(v, bool),
        compares=_is_number,
        text=re.compile(r"-?\d+"),
        read=int,
    ),
    "float": ColumnType(holds=_is_number, compares=_is_number, text=re.compile(r"-?\d+(\.\d+)?"), read=float),
    "text": ColumnType(holds=_is_text, compares=_is_text, text=re.compile(r".*", re.DOTALL), read=str),
}


def type_of_text(texts: Iterable[str]) -> str:
    """The first column type whose ``text`` matches every one of ``texts``; ``text`` when there are none."""
    texts = list(texts)
    if not texts:
        return "text"
    return next(name for name, t in COLUMN_TYPES.items() if all(map(t.text.fullmatch, texts)))


def read_value(text: str) -> Any:
    """A bare literal's value: ``text`` read as the first column type whose ``text`` matches it."""
    return next(t.read(text) for t in COLUMN_TYPES.values() if t.text.fullmatch(text))


@dataclass(frozen=True)
class Column:
    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise ValueError(f"column {self.name!r}: unknown type {self.type!r}")


@dataclass(frozen=True)
class ForeignKey:
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"table {self.name!r}: duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(f"table {self.name!r}: primary key {self.primary_key!r} is not a column")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


@dataclass(frozen=True)
class CollectionSchema:
    name: str
    metadata_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class CrossLink:
    """Maps a vector-store metadata key onto a relational column."""

    metadata_key: str
    table_name: str
    column_name: str


@dataclass(frozen=True)
class GlobalSchema:
    tables: tuple[TableSchema, ...] = ()
    collections: tuple[CollectionSchema, ...] = ()
    cross_links: tuple[CrossLink, ...] = ()

    def __post_init__(self) -> None:
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate table names")
        metadata_keys = self.all_metadata_keys()
        by_name = {t.name: t for t in self.tables}
        for link in self.cross_links:
            if link.metadata_key not in metadata_keys:
                raise ValueError(f"cross-link metadata key {link.metadata_key!r} not in any collection")
            table = by_name.get(link.table_name)
            if table is None or link.column_name not in table.column_names:
                raise ValueError(f"cross-link target {link.table_name}.{link.column_name} does not exist")

    def all_column_names(self) -> frozenset[str]:
        return frozenset(c.name for t in self.tables for c in t.columns)

    def all_metadata_keys(self) -> frozenset[str]:
        return frozenset(k for coll in self.collections for k in coll.metadata_keys)

    def crosslink_keys(self) -> frozenset[str]:
        return frozenset(link.metadata_key for link in self.cross_links)

    @cached_property
    def signature(self) -> str:
        """``signature_of(self)``, hashed on first use; the schema is frozen."""
        return signature_of(self)

    def to_json(self) -> dict[str, Any]:
        return {
            "tables": [
                {
                    "name": t.name,
                    "columns": [{"name": c.name, "type": c.type} for c in t.columns],
                    "primary_key": t.primary_key,
                    "foreign_keys": [
                        {"column": f.column, "ref_table": f.ref_table, "ref_column": f.ref_column}
                        for f in t.foreign_keys
                    ],
                }
                for t in self.tables
            ],
            "collections": [
                {"name": c.name, "metadata_keys": list(c.metadata_keys)} for c in self.collections
            ],
            "cross_links": [
                {"metadata_key": l.metadata_key, "table_name": l.table_name, "column_name": l.column_name}
                for l in self.cross_links
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "GlobalSchema":
        tables = tuple(
            TableSchema(
                name=t["name"],
                columns=tuple(Column(c["name"], c["type"]) for c in t.get("columns", ())),
                primary_key=t.get("primary_key"),
                foreign_keys=tuple(
                    ForeignKey(f["column"], f["ref_table"], f["ref_column"])
                    for f in t.get("foreign_keys", ())
                ),
            )
            for t in obj.get("tables", ())
        )
        collections = tuple(
            CollectionSchema(name=c["name"], metadata_keys=tuple(c.get("metadata_keys", ())))
            for c in obj.get("collections", ())
        )
        cross_links = tuple(
            CrossLink(l["metadata_key"], l["table_name"], l["column_name"])
            for l in obj.get("cross_links", ())
        )
        return cls(tables=tables, collections=collections, cross_links=cross_links)


def signature_of(schema: GlobalSchema) -> str:
    """Stable content hash of the schema.

    Tables, columns, collections, keys and links are sorted before hashing,
    so two schemas that differ only in declaration order hash identically.
    The empty schema hashes to the fixed constant
    ``df6393f0796d9b7522b08af85576796fc37b4bbe57641fdcf447dd221c1e4665``.
    """
    canonical = {
        "tables": sorted(
            (
                t.name,
                sorted((c.name, c.type) for c in t.columns),
                t.primary_key,
                sorted((f.column, f.ref_table, f.ref_column) for f in t.foreign_keys),
            )
            for t in schema.tables
        ),
        "collections": sorted((c.name, sorted(c.metadata_keys)) for c in schema.collections),
        "cross_links": sorted(
            (l.metadata_key, l.table_name, l.column_name) for l in schema.cross_links
        ),
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
