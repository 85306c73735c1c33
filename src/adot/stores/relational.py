"""In-memory relational store and its query mini-language.

Supported surface: column projection, equality/range/IN filters, one
single-key equi-join, one aggregate of {count, sum, avg, min, max} with an
optional group-by. Every output row carries provenance back to the source
row ids. This is deliberately not a SQL engine.
"""

from __future__ import annotations

import operator
import re
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Any, Callable, Collection, Mapping, Sequence

from .schema import COLUMN_TYPES, TableSchema, read_value


class StoreQueryError(Exception):
    """Base class for structured-query failures."""


class UnknownTableError(StoreQueryError):
    pass


class UnknownColumnError(StoreQueryError):
    pass


class TypeMismatchError(StoreQueryError):
    pass


class MiniQuerySyntaxError(StoreQueryError):
    """The textual mini-language form could not be parsed."""


@dataclass(frozen=True)
class RowRef:
    """Provenance pointer to one table row."""

    table: str
    row_id: int

    def to_json(self) -> dict[str, Any]:
        return {"table": self.table, "row_id": self.row_id}


@dataclass(frozen=True)
class ChunkRef:
    """Provenance pointer to one document chunk."""

    document_id: int
    chunk_id: int

    def to_json(self) -> dict[str, Any]:
        return {"document_id": self.document_id, "chunk_id": self.chunk_id}


def ref_from_json(obj: Mapping[str, Any]) -> "RowRef | ChunkRef":
    if "table" in obj:
        return RowRef(table=obj["table"], row_id=int(obj["row_id"]))
    return ChunkRef(document_id=int(obj["document_id"]), chunk_id=int(obj["chunk_id"]))


@dataclass(frozen=True)
class Table:
    """A typed table; row ids are stable positions in ``rows``.

    ``rows`` is fixed at construction: any sequence of rows is stored as a
    tuple of tuples, so the column indexes built from it never go stale.
    """

    schema: TableSchema
    rows: tuple[tuple, ...] = ()
    _indexes: dict[int, dict[Any, tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _index_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        seen_pk: set[Any] = set()
        pk_idx = (
            self.schema.column_names.index(self.schema.primary_key)
            if self.schema.primary_key
            else None
        )
        holds = [COLUMN_TYPES[c.type].holds for c in self.schema.columns]
        for rid, row in enumerate(self.rows):
            if len(row) != len(holds):
                raise ValueError(f"table {self.schema.name!r} row {rid}: arity mismatch")
            for value, ok, col in zip(row, holds, self.schema.columns):
                if value is not None and not ok(value):
                    raise TypeMismatchError(
                        f"table {self.schema.name!r} row {rid}: {col.name} expects {col.type}, got {value!r}"
                    )
            if pk_idx is not None:
                pk = row[pk_idx]
                if pk in seen_pk:
                    raise ValueError(f"table {self.schema.name!r}: duplicate primary key {pk!r}")
                seen_pk.add(pk)

    @property
    def name(self) -> str:
        return self.schema.name

    def column_index(self, name: str) -> int:
        try:
            return self.schema.column_names.index(name)
        except ValueError:
            raise UnknownColumnError(f"table {self.name!r} has no column {name!r}") from None

    def index(self, col: int) -> Mapping[Any, tuple[int, ...]]:
        """Hash index of column position ``col``: each non-null cell -> its row ids, ascending.

        Built on first use, once, under a lock (queries run from several
        threads). Keys compare as a dict does, so ``1``, ``1.0`` and ``True``
        share a bucket, and a NaN cell is found only by the same NaN object.
        """
        index = self._indexes.get(col)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(col)
                if index is None:
                    index = self._indexes[col] = _build_index(self.rows, col)
        return index


def _build_index(rows: Sequence[tuple], col: int) -> dict[Any, tuple[int, ...]]:
    index: dict[Any, Any] = {}
    for rid, row in enumerate(rows):
        cell = row[col]
        if cell is not None:
            index.setdefault(cell, []).append(rid)
    for key, rids in index.items():
        index[key] = tuple(rids)  # in place, so each list is freed as it is replaced
    return index


@dataclass(frozen=True)
class Filter:
    column: str
    op: str  # one of = != < <= > >= in
    value: Any  # scalar, or a sequence for `in`


@dataclass(frozen=True)
class Join:
    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class Aggregate:
    func: str  # count sum avg min max
    column: str | None = None  # None means count(*)


@dataclass(frozen=True)
class StructuredQuery:
    table: str
    select: tuple[str, ...] = ("*",)
    join: Join | None = None
    filters: tuple[Filter, ...] = ()
    aggregate: Aggregate | None = None
    group_by: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResultSet:
    """Columns, typed rows, and one provenance entry per row."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: tuple[tuple, ...]  # per row: tuple of RowRef/ChunkRef

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.provenance):
            raise ValueError("every row needs a provenance entry")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity must equal column count")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def column_values(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def distinct_values(self, name: str) -> list:
        seen: set = set()
        out = []
        for v in self.column_values(name):
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out


_FLIPPED = {  # cell OP literal  is  _FLIPPED[OP](literal, cell)
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.gt,
    "<=": operator.ge,
    ">": operator.lt,
    ">=": operator.le,
}


def _check_literal(value: Any, col_type: str, column: str) -> None:
    if value is not None and not COLUMN_TYPES[col_type].compares(value):
        raise TypeMismatchError(f"filter {column!r}: {col_type} column compared with {value!r}")


def _cell_test(f: Filter, col_type: str) -> Callable[[Any], bool]:
    """Check ``f``'s literal once and return its test for one non-null cell.

    ``in`` becomes a hash semi-join: one set of the listed values, probed
    once per cell.
    """
    if f.op == "in":
        if not isinstance(f.value, (list, tuple, set, frozenset)):
            raise TypeMismatchError(f"filter {f.column!r}: IN expects a value list, got {f.value!r}")
        for v in f.value:
            _check_literal(v, col_type, f.column)
        return set(f.value).__contains__
    if f.op not in _FLIPPED:
        raise MiniQuerySyntaxError(f"unknown operator {f.op!r}")
    _check_literal(f.value, col_type, f.column)
    if f.value is None and f.op not in ("=", "!="):
        raise TypeMismatchError(f"filter {f.column!r}: {f.op} needs a non-null value")
    return partial(_FLIPPED[f.op], f.value)


def _probe_values(f: Filter) -> Collection[Any] | None:
    """The literals an ``=`` or ``in`` filter may look up in a column index.

    None means scan: for any other operator, and when a literal is null or
    not equal to itself (NaN). A dict probe would find a NaN cell by
    identity, which ``=`` never matches, and the scan keeps ``in``'s
    set-membership semantics for it.
    """
    if f.op == "=":
        values: Collection[Any] = (f.value,)
    elif f.op == "in":
        values = set(f.value)
    else:
        return None
    return values if all(v is not None and v == v for v in values) else None


def _aggregate_value(func: str, values: list) -> Any:
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
    raise MiniQuerySyntaxError(f"unknown aggregate {func!r}")


def _table(tables: Mapping[str, Table], name: str) -> Table:
    table = tables.get(name)
    if table is None:
        raise UnknownTableError(f"unknown table {name!r}")
    return table


def exec_structured(store: Any, query: StructuredQuery) -> ResultSet:
    """Execute a mini-language query against the store's tables.

    ``store`` is anything with a ``tables`` mapping (or a plain mapping of
    name -> Table). Execution is set-at-a-time. Each filter checks its
    literal once, before any row is read (every element of an ``in``
    list), then keeps the row ids whose cell passes; ``in`` probes one set
    of the listed values (a hash semi-join). A null cell passes no filter.
    An ill-typed literal raises :class:`TypeMismatchError` even when no row
    would reach the filter, and so does an ordering comparison with a null
    literal. Each filter runs on the table that owns its column, before the
    join: for this inner join that gives the rows, order and provenance
    that filtering the joined relation would. RowRef provenance is built
    only for rows that survive. Aggregates over an empty filtered set
    return an empty ResultSet rather than 0/null so downstream stages see
    "no data" unambiguously.

    Index use (see :meth:`Table.index`; rows are immutable after
    construction, so an index never goes stale): the first filter on a
    side, if it is ``=`` or ``in`` and every literal is non-null and equal
    to itself (not NaN), takes the union of its values' index buckets in
    ascending row order instead of scanning. Later filters on that side,
    and every other filter, scan the surviving rows. A join reads the right
    table's index on its key when no filter touched the right side, and
    otherwise hashes the surviving right rows. Results, row order and
    provenance equal the scan's. Each indexed column costs one dict entry
    and one tuple of row ids per distinct value: about 87 bytes per row for
    a column of unique values, and 1.64 MB for the six columns that the
    ``rel_wide`` bench workload indexes (measured with ``tracemalloc``).
    """
    tables: Mapping[str, Table] = getattr(store, "tables", store)
    sides = [_table(tables, query.table)]
    if query.join is not None:
        sides.append(_table(tables, query.join.table))

    # Output column name -> (its position, side, column index in that side's table, type).
    owner: dict[str, tuple[int, int, int, str]] = {}
    for side, table in enumerate(sides):
        for i, c in enumerate(table.schema.columns):
            name = c.name if c.name not in owner else f"{table.name}.{c.name}"
            owner[name] = (len(owner), side, i, c.type)
    columns = list(owner)

    def locate(name: str) -> tuple[int, int, int, str]:
        try:
            return owner[name]
        except KeyError:
            raise UnknownColumnError(f"no column {name!r} in {query.table!r} query") from None

    def col_idx(name: str) -> int:
        return locate(name)[0]

    if query.join is not None:
        left_key = sides[0].column_index(query.join.left_column)
        right_key = sides[1].column_index(query.join.right_column)

    # A side whose ``kept`` is still a range has not been narrowed by any filter.
    kept: list[Sequence[int]] = [range(len(t.rows)) for t in sides]
    for f in query.filters:
        _, side, idx, ctype = locate(f.column)
        test = _cell_test(f, ctype)
        table = sides[side]
        probe = _probe_values(f) if type(kept[side]) is range else None
        if probe is not None:
            index = table.index(idx)
            kept[side] = sorted(chain.from_iterable(index.get(v, ()) for v in probe))
        else:
            table_rows = table.rows
            kept[side] = [rid for rid in kept[side] if (cell := table_rows[rid][idx]) is not None and test(cell)]

    base = sides[0]
    if query.join is None:
        working = [(base.rows[rid], (RowRef(base.name, rid),)) for rid in kept[0]]
    else:
        other = sides[1]
        by_key: Mapping[Any, Sequence[int]]
        if type(kept[1]) is range:
            by_key = other.index(right_key)
        else:
            by_key = {}
            for rid in kept[1]:
                key = other.rows[rid][right_key]
                if key is not None:
                    by_key.setdefault(key, []).append(rid)
        working = [
            (base.rows[b] + other.rows[o], (RowRef(base.name, b), RowRef(other.name, o)))
            for b in kept[0]
            for o in by_key.get(base.rows[b][left_key], ())  # inner join
        ]

    if query.aggregate is None:
        if query.group_by:
            raise MiniQuerySyntaxError("group by requires an aggregate")
        if query.select == ("*",):
            sel = list(range(len(columns)))
            out_cols = tuple(columns)
        else:
            sel = [col_idx(c) for c in query.select]
            out_cols = tuple(query.select)
        rows = tuple(tuple(row[i] for i in sel) for row, _ in working)
        prov = tuple(refs for _, refs in working)
        return ResultSet(columns=out_cols, rows=rows, provenance=prov)

    agg = query.aggregate
    agg_label = f"{agg.func}({agg.column or '*'})"
    group_idx = [col_idx(c) for c in query.group_by]
    value_idx = col_idx(agg.column) if agg.column is not None else None

    groups: dict[tuple, tuple[list, list]] = {}
    order: list[tuple] = []
    for row, refs in working:
        key = tuple(row[i] for i in group_idx)
        if key not in groups:
            groups[key] = ([], [])
            order.append(key)
        values, reflist = groups[key]
        if value_idx is None:
            values.append(1)
        elif row[value_idx] is not None:
            values.append(row[value_idx])
        reflist.extend(refs)

    out_rows: list[tuple] = []
    out_prov: list[tuple] = []
    for key in order:
        values, refs = groups[key]
        if not values:
            continue  # aggregate over nothing yields no row
        out_rows.append(key + (_aggregate_value(agg.func, values),))
        out_prov.append(tuple(refs))
    return ResultSet(
        columns=tuple(query.group_by) + (agg_label,),
        rows=tuple(out_rows),
        provenance=tuple(out_prov),
    )


# --- textual mini-language -------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>-?\d+(?:\.\d+)?)
      | (?P<str>'(?:[^']*)')
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<punct>[(),\[\]*])
      | (?P<ref>\$var_\d+\.[A-Za-z_]\w*)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.$]*)
    )""",
    re.VERBOSE,
)

_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise MiniQuerySyntaxError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], bindings: Mapping[str, Mapping[str, Sequence[Any]]]):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise MiniQuerySyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        tok = self.next()
        if tok.lower() != word:
            raise MiniQuerySyntaxError(f"expected {word!r}, got {tok!r}")

    def reference_values(self, tok: str) -> list:
        label, column = tok.split(".")
        try:
            return list(self.bindings[label][column])
        except KeyError:
            raise MiniQuerySyntaxError(f"no bound values for {tok}") from None

    def parse_values(self) -> list:
        """One list element: a literal, or every value bound to a reference."""
        if self.peek() is not None and self.peek().startswith("$var_"):
            return self.reference_values(self.next())
        return [self.parse_value()]

    def parse_value(self) -> Any:
        tok = self.next()
        if tok.startswith("$var_"):
            values = self.reference_values(tok)
            if len(values) != 1:
                raise MiniQuerySyntaxError(f"{tok} binds {len(values)} values; use `in [{tok}]`")
            return values[0]
        if tok.startswith("'"):
            return tok[1:-1]
        value = read_value(tok)
        if isinstance(value, str):
            raise MiniQuerySyntaxError(f"expected a value, got {tok!r}")
        return value


def parse_mini_query(
    text: str, bindings: Mapping[str, Mapping[str, Sequence[Any]]] | None = None
) -> StructuredQuery:
    """Parse the textual mini-language.

    Grammar::

        select <item>[, <item>]* from <table>
          [join <table2> on <left_col> = <right_col>]
          [where <cond> [and <cond>]*]
          [group by <col>[, <col>]*]

    where an item is ``*``, a column, or ``agg(column|*)`` and a condition
    is ``col OP value`` or ``col in [v1, v2, ...]``. A value may be a
    ``$var_d.col`` reference to ``bindings[label][col]``: in a list it
    stands for all of its values, typed; elsewhere it must bind exactly one.
    """
    p = _Parser(_tokenize(text), bindings or {})
    p.expect("select")

    select: list[str] = []
    aggregate: Aggregate | None = None
    while True:
        tok = p.next()
        if tok == "*":
            select.append("*")
        elif tok.lower() in _AGG_FUNCS and p.peek() == "(":
            p.expect("(")
            col = p.next()
            p.expect(")")
            if aggregate is not None:
                raise MiniQuerySyntaxError("only one aggregate per query")
            aggregate = Aggregate(func=tok.lower(), column=None if col == "*" else col)
        else:
            select.append(tok)
        if p.peek() == ",":
            p.next()
            continue
        break

    p.expect("from")
    table = p.next()

    join = None
    if p.peek() and p.peek().lower() == "join":
        p.next()
        other = p.next()
        p.expect("on")
        left = p.next()
        p.expect("=")
        right = p.next()
        join = Join(table=other, left_column=left.split(".")[-1], right_column=right.split(".")[-1])

    filters: list[Filter] = []
    if p.peek() and p.peek().lower() == "where":
        p.next()
        while True:
            col = p.next()
            op = p.next()
            if op.lower() == "in":
                p.expect("[")
                values: list[Any] = []
                if p.peek() != "]":
                    values.extend(p.parse_values())
                    while p.peek() == ",":
                        p.next()
                        values.extend(p.parse_values())
                p.expect("]")
                filters.append(Filter(column=col, op="in", value=values))
            else:
                if op not in ("=", "!=", "<", "<=", ">", ">="):
                    raise MiniQuerySyntaxError(f"unknown operator {op!r}")
                filters.append(Filter(column=col, op=op, value=p.parse_value()))
            if p.peek() and p.peek().lower() == "and":
                p.next()
                continue
            break

    group_by: list[str] = []
    if p.peek() and p.peek().lower() == "group":
        p.next()
        p.expect("by")
        group_by.append(p.next())
        while p.peek() == ",":
            p.next()
            group_by.append(p.next())

    if p.peek() is not None:
        raise MiniQuerySyntaxError(f"trailing tokens: {' '.join(p.tokens[p.pos:])!r}")

    if aggregate is not None:
        return StructuredQuery(
            table=table,
            select=tuple(c for c in select if c != "*"),
            join=join,
            filters=tuple(filters),
            aggregate=aggregate,
            group_by=tuple(group_by or [c for c in select if c != "*"]),
        )
    return StructuredQuery(
        table=table,
        select=tuple(select) or ("*",),
        join=join,
        filters=tuple(filters),
    )
