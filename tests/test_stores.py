from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from adot.adapters import PatternTranslator, ResolvedSubQuery
from adot.plan_ir import Tool
from adot.stores.ingest import IngestError, chunk_document, ingest, load_tables
from adot.stores.relational import (
    Aggregate,
    Filter,
    Join,
    MiniQuerySyntaxError,
    StructuredQuery,
    Table,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    exec_structured,
    parse_mini_query,
)
from adot.stores.schema import (
    CollectionSchema,
    Column,
    CrossLink,
    GlobalSchema,
    TableSchema,
    read_value,
    signature_of,
)
from adot.stores import vector as vector_module
from adot.stores.store import Store, StoreFileError, load_store, save_store
from adot.stores.vector import (
    STOPWORDS,
    DenseEntries,
    EmptyIndexError,
    HashedBowEmbedder,
    VectorIndex,
    cosine,
    sparse_vector,
)
from oracles import (
    ScalarSearch,
    bow_cosine,
    bow_embed,
    frozen_coerce_csv,
    frozen_infer_csv_type,
    frozen_mini_value,
    frozen_parse_scalar,
    naive_aggregate,
    naive_exec,
    rank_chunks,
)

# --- schema signature -------------------------------------------------------


def _schema_variant(order: bool) -> GlobalSchema:
    cols_a = (Column("id", "int"), Column("name", "text"))
    cols_b = (Column("name", "text"), Column("id", "int"))
    tables = (
        TableSchema("alpha", cols_a if order else cols_b),
        TableSchema("beta", (Column("x", "float"),)),
    )
    if not order:
        tables = tables[::-1]
    return GlobalSchema(tables=tables, collections=(CollectionSchema("docs", ("document_id",)),))


def test_signature_order_insensitive():
    assert signature_of(_schema_variant(True)) == signature_of(_schema_variant(False))


def test_signature_changes_on_rename():
    base = _schema_variant(True)
    renamed = GlobalSchema(
        tables=(TableSchema("alpha", (Column("id", "int"), Column("label", "text"))),) + base.tables[1:],
        collections=base.collections,
    )
    assert signature_of(base) != signature_of(renamed)


def test_signature_empty_schema_is_stable_constant():
    sig = signature_of(GlobalSchema())
    assert sig == "df6393f0796d9b7522b08af85576796fc37b4bbe57641fdcf447dd221c1e4665"


def test_store_signature_is_hashed_once_per_schema(monkeypatch):
    import hashlib

    store = Store(schema=_schema_variant(True))
    expected = signature_of(store.schema)
    hashes = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashes.append(data) or sha256(data))
    assert [store.signature for _ in range(3)] == [expected] * 3
    assert len(hashes) <= 1
    assert Store(schema=_schema_variant(False)).signature == expected  # equal content, its own schema


def test_signature_injective_on_random_corpus():
    rng = Random(42)
    types = ("int", "float", "text", "bool")
    canon_to_sig: dict[str, str] = {}
    for _ in range(10_000):
        tables = []
        for t in range(rng.randint(1, 3)):
            cols = tuple(
                Column(f"c{rng.randint(0, 30)}_{i}", rng.choice(types)) for i in range(rng.randint(1, 4))
            )
            tables.append(TableSchema(f"t{rng.randint(0, 50)}_{t}", cols))
        schema = GlobalSchema(tables=tuple(tables))
        canon = json.dumps(schema.to_json(), sort_keys=True)
        sig = signature_of(schema)
        if canon in canon_to_sig:
            assert canon_to_sig[canon] == sig
        canon_to_sig[canon] = sig
    sigs = set(canon_to_sig.values())
    assert len(sigs) == len(canon_to_sig)


def test_cross_link_must_resolve():
    with pytest.raises(ValueError):
        GlobalSchema(
            tables=(TableSchema("t", (Column("a", "int"),)),),
            collections=(CollectionSchema("docs", ("document_id",)),),
            cross_links=(CrossLink("document_id", "t", "missing"),),
        )


# --- relational engine --------------------------------------------------------


@pytest.fixture
def people_table():
    schema = TableSchema(
        "people",
        (Column("id", "int"), Column("name", "text"), Column("age", "int"), Column("city", "text")),
        primary_key="id",
    )
    rows = [
        (1, "ann", 34, "reno"),
        (2, "bo", 41, "salem"),
        (3, "cy", 29, "reno"),
        (4, "dee", 58, "boise"),
        (5, "ed", 41, None),
    ]
    return {"people": Table(schema=schema, rows=rows)}


def test_select_in_filter_matches_fixture(queensland_store):
    q = StructuredQuery(
        table="sport_in_queensland",
        select=("venue",),
        filters=(Filter("document_id", "in", [7]),),
    )
    rs = exec_structured(queensland_store, q)
    assert rs.rows == (("Willowbank",),)
    assert rs.provenance[0][0].table == "sport_in_queensland"


def test_avg_over_empty_set_returns_empty_resultset(people_table):
    q = StructuredQuery(table="people", filters=(Filter("age", ">", 100),), aggregate=Aggregate("avg", "age"))
    rs = exec_structured(people_table, q)
    assert rs.is_empty and rs.rows == ()


def test_count_star_counts_rows(people_table):
    rs = exec_structured(people_table, StructuredQuery(table="people", aggregate=Aggregate("count", None)))
    assert rs.rows == ((5,),)
    assert len(rs.provenance[0]) == 5


def test_group_by_first_appearance_order(people_table):
    q = StructuredQuery(table="people", aggregate=Aggregate("count", None), group_by=("city",))
    rs = exec_structured(people_table, q)
    assert rs.columns == ("city", "count(*)")
    assert rs.rows == (("reno", 2), ("salem", 1), ("boise", 1), (None, 1))


def test_join_single_key(people_table):
    orders = TableSchema("orders", (Column("order_id", "int"), Column("person", "int"), Column("total", "float")))
    tables = dict(people_table)
    tables["orders"] = Table(schema=orders, rows=[(10, 1, 5.0), (11, 3, 7.5), (12, 3, 2.5)])
    q = StructuredQuery(
        table="orders",
        select=("order_id", "name"),
        join=Join(table="people", left_column="person", right_column="id"),
    )
    rs = exec_structured(tables, q)
    assert set(rs.rows) == {(10, "ann"), (11, "cy"), (12, "cy")}
    assert all(len(refs) == 2 for refs in rs.provenance)


def test_unknown_table_and_column_and_type_errors(people_table):
    with pytest.raises(UnknownTableError):
        exec_structured(people_table, StructuredQuery(table="ghosts"))
    with pytest.raises(UnknownColumnError):
        exec_structured(people_table, StructuredQuery(table="people", select=("ghost",)))
    with pytest.raises(TypeMismatchError):
        exec_structured(people_table, StructuredQuery(table="people", filters=(Filter("age", "=", "old"),)))


def test_in_accepts_bound_value_list(people_table):
    q = StructuredQuery(table="people", select=("name",), filters=(Filter("id", "in", [1, 3]),))
    rs = exec_structured(people_table, q)
    assert rs.rows == (("ann",), ("cy",))


def test_aggregates_match_naive_oracle_on_random_tables():
    rng = Random(77)
    for _ in range(25):
        n = rng.randint(0, 1000)
        rows = [
            (i, rng.choice(["a", "b", "c"]), rng.randint(0, 500) if rng.random() > 0.1 else None)
            for i in range(n)
        ]
        table = Table(
            schema=TableSchema("r", (Column("id", "int"), Column("grp", "text"), Column("v", "int"))),
            rows=rows,
        )
        for func in ("count", "sum", "avg", "min", "max"):
            threshold = rng.randint(0, 500)
            q = StructuredQuery(table="r", filters=(Filter("id", "<", threshold),), aggregate=Aggregate(func, "v"))
            rs = exec_structured({"r": table}, q)
            kept = [r for r in rows if r[0] < threshold]
            expected = naive_aggregate(kept, 2, func)
            if expected is None:
                assert rs.is_empty
            else:
                assert rs.rows[0][0] == pytest.approx(expected)


_DIFF_DOMAINS = {
    "int": lambda rng: rng.randint(-3, 3),
    "float": lambda rng: rng.choice([rng.randint(-3, 3), rng.randint(-6, 6) / 2]),
    "text": lambda rng: rng.choice(["a", "b", "c", "d"]),
    "bool": lambda rng: rng.random() < 0.5,
}


def _random_table(rng: Random, name: str, columns: tuple[tuple[str, str], ...]) -> Table:
    def cell(ctype: str):
        return None if rng.random() < 0.15 else _DIFF_DOMAINS[ctype](rng)

    rows = [tuple(cell(ctype) for _, ctype in columns) for _ in range(rng.choice([0, 1, 5, 30]))]
    return Table(schema=TableSchema(name, tuple(Column(c, t) for c, t in columns)), rows=rows)


def _random_filter(rng: Random, column: str, ctype: str) -> Filter:
    op = rng.choice(["=", "!=", "<", "<=", ">", ">=", "in", "in"])
    if op == "in":
        values = [_DIFF_DOMAINS[ctype](rng) for _ in range(rng.choice([0, 1, 3, 6]))]
        values += rng.sample(values, len(values) // 2)  # duplicates
        if rng.random() < 0.2:
            values.append(None)
        return Filter(column, "in", values)
    if op in ("=", "!=") and rng.random() < 0.1:
        return Filter(column, op, None)
    return Filter(column, op, _DIFF_DOMAINS[ctype](rng))


def test_exec_structured_matches_naive_oracle_on_random_tables():
    rng = Random(2024)
    left_cols = (("k", "int"), ("t", "text"), ("f", "float"), ("b", "bool"))
    right_cols = (("k", "int"), ("name", "text"), ("w", "float"))
    shapes = {"select": 0, "join": 0, "group": 0}
    for trial in range(600):
        tables = {"l": _random_table(rng, "l", left_cols), "r": _random_table(rng, "r", right_cols)}
        join = Join("r", "k", "k") if rng.random() < 0.4 else None
        typed = dict(left_cols) | ({"r.k": "int", "name": "text", "w": "float"} if join else {})
        filters = tuple(
            _random_filter(rng, col, typed[col]) for col in rng.sample(sorted(typed), rng.randint(0, 3))
        )
        if rng.random() < 0.5:
            func = rng.choice(["count", "sum", "avg", "min", "max"])
            numeric = [c for c, t in typed.items() if t in ("int", "float")]
            column = rng.choice(numeric if func in ("sum", "avg") else sorted(typed) + [None] * (func == "count"))
            group_by = tuple(rng.sample(sorted(typed), rng.randint(0, 2)))
            query = StructuredQuery("l", select=(), join=join, filters=filters,
                                    aggregate=Aggregate(func, column), group_by=group_by)
            shapes["group"] += 1
        else:
            select = ("*",) if rng.random() < 0.3 else tuple(rng.sample(sorted(typed), rng.randint(1, 3)))
            query = StructuredQuery("l", select=select, join=join, filters=filters)
            shapes["select"] += 1
        shapes["join"] += join is not None and any(f.column in ("name", "w", "r.k") for f in filters)
        assert exec_structured(tables, query) == naive_exec(tables, query), (trial, query)
    assert min(shapes.values()) >= 50


def test_ill_typed_literal_raises_even_when_no_row_reaches_the_filter(people_table):
    empty = {"people": Table(schema=people_table["people"].schema, rows=[])}
    for filters in (
        (Filter("age", "=", "old"),),
        (Filter("name", "in", ["ann", 3]),),
        (Filter("id", "in", 7),),
        (Filter("id", "=", -1), Filter("city", ">", 4)),  # the first filter keeps no row
        (Filter("age", "<", None),),
    ):
        for tables in (empty, people_table):
            with pytest.raises(TypeMismatchError):
                exec_structured(tables, StructuredQuery(table="people", filters=filters))


NAN = float("nan")  # one object, so a NaN cell and an `in` literal can be the same NaN


def _edge_tables() -> dict[str, Table]:
    def table(name: str, columns: tuple[tuple[str, str], ...], rows: list[tuple]) -> Table:
        return Table(schema=TableSchema(name, tuple(Column(c, t) for c, t in columns)), rows=rows)

    scores = [
        (0, 1, 1.0),
        (1, 2, NAN),
        (2, None, 1),
        (3, 1, 1),
        (4, 3, NAN),
        (5, 2, float("nan")),  # a NaN that is not the NAN object
        (6, 3, None),
        (7, 1, 2.5),
    ]
    teams = [(2, "bo"), (1, "ann"), (None, "nul"), (2, "bo2"), (4, "dee")]
    return {
        "scores": table("scores", (("id", "int"), ("team", "int"), ("pts", "float")), scores),
        "teams": table("teams", (("team", "int"), ("name", "text")), teams),
    }


_TEAMS = Join("teams", "team", "team")

# case -> (filters, join, provenance row ids per result row, (table, column) indexes built)
_INDEX_EDGE_CASES = {
    "nan_literal_scans_and_matches_nothing": ((Filter("pts", "=", NAN),), None, [], set()),
    "nan_in_list_matches_the_same_nan_object": ((Filter("pts", "in", [NAN]),), None, [(1,), (4,)], set()),
    "other_nan_in_list_matches_no_nan_cell": (
        (Filter("pts", "in", [float("nan"), 2.5]),), None, [(7,)], set()),
    "int_literal_matches_float_and_int_cells": (
        (Filter("pts", "=", 1),), None, [(0,), (2,), (3,)], {("scores", "pts")}),
    "equals_null_matches_nothing": ((Filter("team", "=", None),), None, [], set()),
    "in_list_with_duplicates": (
        (Filter("team", "in", [3, 1, 3, 1.0]),), None, [(0,), (3,), (4,), (6,), (7,)], {("scores", "team")}),
    "in_list_with_null_scans": ((Filter("team", "in", [None, 2]),), None, [(1,), (5,)], set()),
    "empty_in_list": ((Filter("team", "in", []),), None, [], {("scores", "team")}),
    "in_after_a_range_filter_scans_the_survivors": (
        (Filter("id", "<=", 4), Filter("team", "in", [1, 3])), None, [(0,), (3,), (4,)], set()),
    "range_after_a_probe_scans_the_bucket": (
        (Filter("team", "=", 1), Filter("id", ">", 0)), None, [(3,), (7,)], {("scores", "team")}),
    "join_without_right_filter_reads_the_key_index": (
        (), _TEAMS, [(0, 1), (1, 0), (1, 3), (3, 1), (5, 0), (5, 3), (7, 1)], {("teams", "team")}),
    "join_after_right_scan_hashes_the_survivors": (
        (Filter("name", "!=", "bo"),), _TEAMS, [(0, 1), (1, 3), (3, 1), (5, 3), (7, 1)], set()),
    "join_after_right_probe_hashes_the_survivors": (
        (Filter("name", "in", ["bo2", "ann"]),), _TEAMS, [(0, 1), (1, 3), (3, 1), (5, 3), (7, 1)],
        {("teams", "name")}),
    "join_skips_a_null_left_key": (
        (Filter("id", "in", [2, 3]),), _TEAMS, [(3, 1)], {("scores", "id"), ("teams", "team")}),
}


@pytest.mark.parametrize("case", sorted(_INDEX_EDGE_CASES))
def test_index_probe_edge_cases_match_naive_oracle(case):
    filters, join, expected, indexed = _INDEX_EDGE_CASES[case]
    tables = _edge_tables()
    query = StructuredQuery("scores", join=join, filters=filters)
    result = exec_structured(tables, query)
    assert result == naive_exec(tables, query)
    assert [tuple(ref.row_id for ref in refs) for refs in result.provenance] == expected
    built = {(t.name, t.schema.columns[col].name) for t in tables.values() for col in t._indexes}
    assert built == indexed


def _nan_cell(rng: Random, ctype: str):
    if rng.random() < 0.15:
        return None
    if ctype == "float":
        return rng.choice([rng.randint(-2, 2), rng.randint(-4, 4) / 2, NAN, 1])
    return _nan_literal(rng, ctype)


def _nan_literal(rng: Random, ctype: str):
    if ctype == "float":
        return rng.choice([rng.randint(-2, 2), rng.randint(-4, 4) / 2, NAN, float("nan")])
    if ctype == "int":
        return rng.randint(-2, 2)
    return rng.choice(["a", "b", "c"])


def _equality_filter(rng: Random, column: str, ctype: str) -> Filter:
    if rng.random() < 0.4:
        return Filter(column, "=", None if rng.random() < 0.1 else _nan_literal(rng, ctype))
    values = [_nan_literal(rng, ctype) for _ in range(rng.choice([0, 1, 2, 5]))]
    values += rng.sample(values, len(values) // 2)  # duplicates
    if rng.random() < 0.1:
        values.append(None)
    return Filter(column, "in", values)


def test_exec_structured_matches_naive_oracle_when_equality_filters_come_first():
    """Most sides start with `=`/`in`, so the index probe and the index join run.

    Cells include nulls, int `1` in float columns and NaN (both the shared
    NAN object and others); literals include null, NAN and other NaNs.
    """
    rng = Random(16)
    columns = {"l": (("k", "float"), ("t", "text"), ("f", "float")),
               "r": (("k", "float"), ("name", "text"), ("n", "int"))}
    seen: Counter = Counter()
    for trial in range(600):
        tables = {
            name: Table(
                schema=TableSchema(name, tuple(Column(c, t) for c, t in cols)),
                rows=[tuple(_nan_cell(rng, t) for _, t in cols) for _ in range(rng.choice([0, 3, 12, 40]))],
            )
            for name, cols in columns.items()
        }
        join = Join("r", "k", "k") if rng.random() < 0.5 else None
        sides = [dict(columns["l"])] + ([{"r.k": "float", "name": "text", "n": "int"}] if join else [])
        typed = {c: t for side in sides for c, t in side.items()}
        filters = [_equality_filter(rng, c, side[c]) for side in sides if rng.random() < 0.75
                   for c in [rng.choice(sorted(side))]]
        for c in rng.sample(sorted(typed), rng.randint(0, 2)):
            filters.append(rng.choice([_random_filter, _equality_filter])(rng, c, typed[c]))
        if rng.random() < 0.3:
            func = rng.choice(["count", "min", "max"])
            column = rng.choice(sorted(typed) + [None] * (func == "count"))
            query = StructuredQuery("l", select=(), join=join, filters=tuple(filters),
                                    aggregate=Aggregate(func, column),
                                    group_by=tuple(rng.sample(sorted(typed), rng.randint(0, 2))))
        else:
            query = StructuredQuery("l", join=join, filters=tuple(filters))
        result = exec_structured(tables, query)
        assert result == naive_exec(tables, query), (trial, query)
        seen["left_probe"] += bool(tables["l"]._indexes)
        seen["right_probe"] += bool(set(tables["r"]._indexes) - {0})
        seen["index_join"] += join is not None and not any(f.column in sides[1] for f in filters)
        seen["nan_row"] += any(v is NAN for row in result.rows for v in row)
    assert min(seen.values()) >= 40, seen


def test_concurrent_first_use_builds_a_column_index_once(monkeypatch):
    from adot.stores import relational

    builds = []
    build = relational._build_index

    def slow_build(rows, col):
        builds.append(col)
        time.sleep(0.05)  # hold the build open while the other thread arrives
        return build(rows, col)

    monkeypatch.setattr(relational, "_build_index", slow_build)
    table = Table(TableSchema("t", (Column("id", "int"), Column("grp", "int"))), rows=[(i, i % 7) for i in range(2000)])
    query = StructuredQuery("t", select=("id",), filters=(Filter("grp", "in", [3, 5]),))
    barrier = threading.Barrier(2, timeout=5)
    results = [None, None]

    def run(i: int) -> None:
        barrier.wait()
        results[i] = exec_structured({"t": table}, query)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert builds == [1]
    assert results[0] == results[1] == naive_exec({"t": table}, query)


def test_table_rows_are_fixed_as_a_tuple_of_tuples():
    table = Table(TableSchema("t", (Column("id", "int"), Column("name", "text"))), rows=[[1, "a"], (2, "b")])
    assert table.rows == ((1, "a"), (2, "b"))
    with pytest.raises(AttributeError):
        table.rows.append((3, "c"))
    with pytest.raises(AttributeError):
        table.rows = ()


def test_mini_language_parser_round_trip():
    q = parse_mini_query("select venue from sport_in_queensland where document_id in [7, 9] and venue != 'X'")
    assert q.table == "sport_in_queensland"
    assert q.select == ("venue",)
    assert q.filters[0] == Filter("document_id", "in", [7, 9])
    assert q.filters[1] == Filter("venue", "!=", "X")

    agg = parse_mini_query("select avg(total_amount) from invoices where state = 'texas'")
    assert agg.aggregate == Aggregate("avg", "total_amount")

    grouped = parse_mini_query("select state, sum(total_amount) from invoices group by state")
    assert grouped.group_by == ("state",)

    with pytest.raises(MiniQuerySyntaxError):
        parse_mini_query("selekt things")

    bindings = {"$var_1": {"name": ["O'Brien", "Smith, Jr."], "id": [7]}}
    typed = parse_mini_query("select pts from t where name in [$var_1.name, 'x'] and id = $var_1.id", bindings)
    assert typed.filters == (Filter("name", "in", ["O'Brien", "Smith, Jr.", "x"]), Filter("id", "=", 7))
    for text in ("select pts from t where id = $var_1.name", "select pts from t where id in [$var_2.id]"):
        with pytest.raises(MiniQuerySyntaxError):
            parse_mini_query(text, bindings)


def test_a_float_column_holds_numbers_but_not_bools(tmp_path):
    schema = TableSchema("t", (Column("id", "int"), Column("pts", "float")))
    assert Table(schema, rows=[(0, 1), (1, 2.5), (2, None)]).rows == ((0, 1), (1, 2.5), (2, None))
    with pytest.raises(TypeMismatchError, match=r"^table 't' row 1: pts expects float, got True$"):
        Table(schema, rows=[(0, 1.0), (1, True)])
    save_store(Store(GlobalSchema(tables=(schema,)), {"t": Table(schema, rows=[(0, 1.5)])}), tmp_path)
    path = tmp_path / "tables" / "t.jsonl"
    path.write_text("[0, true]\n", encoding="utf-8")
    with pytest.raises(StoreFileError) as info:
        load_store(tmp_path)
    assert str(info.value) == f"{path}: table 't' row 0: pts expects float, got True"


_LITERAL_PIECES = ["0", "7", "12", "-", ".", "5", "١", "٣", "e", "+", "_", " ", "x", "TRUE", "true",
                   "False", "fal", "ſe", "'", '"', "nan", "inf", "K", ","]
_LITERAL_TEXTS = ["-0", "1.", "TRUE", "'x'", '"x"', "١٢", "-٣.٥", "", " 1 ", "falſe", "True",
                  "fAlSe", "1.50", "-1.5", "+1", "1e5", "1_0", "inf", "nan", ".5", "--1", "0x1", "'a'b'", "\"x'"]
_ONE_MINI_TOKEN = re.compile(r"-?\d+(?:\.\d+)?|'[^']*'|[A-Za-z_][A-Za-z0-9_.$]*|<=|>=|!=|=|<|>|[(),\[\]*]")


def _literal_texts(rng: Random) -> list[str]:
    generated = ["".join(rng.choice(_LITERAL_PIECES) for _ in range(rng.randint(1, 4))) for _ in range(3000)]
    return _LITERAL_TEXTS + generated


def _typed(value):
    return type(value), value


def test_bare_literals_read_as_the_frozen_readers_did():
    """read_value, the mini-language and the structured translator each read a literal as before."""
    rng = Random(24)
    texts = _literal_texts(rng)
    read = [t for t in texts if t == t.strip() and not re.fullmatch(r"'[^']*'|\"[^\"]*\"", t)]
    for text in read:
        assert _typed(read_value(text)) == _typed(frozen_parse_scalar(text)), text

    mini = [t for t in texts if _ONE_MINI_TOKEN.fullmatch(t)]
    for text in mini:
        try:
            expected = _typed(frozen_mini_value(text))
        except ValueError:
            expected = None
        for where, unwrap in ((f"a = {text}", lambda v: v), (f"a in [{text}]", lambda v: v[0])):
            try:
                got = _typed(unwrap(parse_mini_query(f"select a from t where {where}").filters[0].value))
            except MiniQuerySyntaxError:
                got = None
            assert got == expected, (text, where)

    schema = GlobalSchema(tables=(TableSchema("t", (Column("id", "int"), Column("pts", "float"))),))
    plain = [t for t in texts if t.strip() and not set(t) & set("?,\n`$")]

    def translate(question):
        rq = ResolvedSubQuery(node_index=1, question_resolved=question, tool=Tool.STRUCTURED, bindings_in={})
        return PatternTranslator().translate(rq, schema).filters[0].value

    for a, b in zip(plain, plain[1:] + plain[:1]):
        assert _typed(translate(f"average of pts where id = {a}")) == _typed(frozen_parse_scalar(a)), a
        values = translate(f"what is the pts of t with id in {a}, {b}")
        assert list(map(_typed, values)) == [_typed(frozen_parse_scalar(a)), _typed(frozen_parse_scalar(b))], (a, b)
    assert len(read) > 1000 and len(mini) > 300 and len(plain) > 1000
    assert {type(read_value(t)) for t in read} == {bool, int, float, str}


def test_csv_fields_read_as_the_frozen_readers_did(tmp_path):
    """Each CSV column is typed and read as before; an empty field is null."""
    rng = Random(25)
    texts = [t for t in _literal_texts(rng) if t and "\r" not in t]
    samples = [["-0", "12", "٣", "7"], ["1.5", "-0.25", "3", "١.٢"], ["TRUE", "false", "True"], texts]
    pools = [[""] + rng.choice(samples) for _ in range(300)]
    columns = [[rng.choice(pool) for _ in range(6)] for pool in pools]
    columns.append([""] * 6)
    path = tmp_path / "t.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{i}" for i in range(len(columns))])
        writer.writerows(zip(*columns))
    [table] = load_tables(path)
    types = [frozen_infer_csv_type(col) for col in columns]
    assert [c.type for c in table.schema.columns] == types
    assert set(types) == {"bool", "int", "float", "text"}
    expected = [tuple(_typed(frozen_coerce_csv(v, t)) for v, t in zip(row, types)) for row in zip(*columns)]
    assert [tuple(map(_typed, row)) for row in table.rows] == expected


# --- vector index -------------------------------------------------------------


def test_embed_deterministic_and_empty_zero():
    embed = HashedBowEmbedder().embed
    assert np.array_equal(embed("payment terms"), embed("payment terms"))
    assert np.linalg.norm(embed("")) == 0.0
    assert cosine(embed(""), embed("anything")) == 0.0
    rng = np.random.default_rng(4)
    zero = np.zeros(256)
    for a, b in [(rng.standard_normal(256), rng.standard_normal(256)) for _ in range(50)] + [
        (rng.random(256), rng.random(256)), (zero, rng.random(256)), (rng.random(256), zero), (zero, zero),
        (embed("payment terms"), embed("net 30 days payment")),
    ]:
        assert cosine(a, b) == ScalarSearch.cosine(a, b)  # bit for bit


def test_embed_matches_independent_bow_oracle():
    embed = HashedBowEmbedder().embed
    s = "payment terms"
    doubled = s + " " + s
    ours = cosine(embed(s), embed(doubled))
    oracle = bow_cosine(bow_embed(s, 256, STOPWORDS), bow_embed(doubled, 256, STOPWORDS))
    assert ours == pytest.approx(oracle, abs=1e-12)
    sample = "net 30 days from receipt of invoice"
    assert list(embed(sample)) == pytest.approx(bow_embed(sample, 256, STOPWORDS), abs=1e-12)


def test_self_retrieval_single_chunk():
    index = VectorIndex()
    index.add_text(0, 1, "alpha beta gamma delta")
    hits = index.search("alpha beta gamma delta", k=3)
    assert len(hits) == 1
    assert hits[0].fused_score == pytest.approx(1.0)


def test_empty_doc_filter_yields_empty():
    index = VectorIndex()
    index.add_text(0, 1, "alpha beta")
    assert index.search("alpha", k=3, doc_filter=set()) == []


def test_empty_index_raises():
    with pytest.raises(EmptyIndexError):
        VectorIndex().search("anything", k=1)
    with pytest.raises(ValueError):
        index = VectorIndex()
        index.add_text(0, 1, "x y z")
        index.search("x", k=0)


def _twenty_chunk_index(rng: Random) -> tuple[VectorIndex, list[tuple[int, int, str]]]:
    vocabulary = [
        "engine", "payment", "invoice", "race", "venue", "violin", "biology",
        "charity", "quarter", "metres", "title", "club", "trophy", "stadium",
        "ledger", "terms", "receipt", "athlete", "sprint", "pace",
    ]
    index = VectorIndex()
    triples = []
    for cid in range(20):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(4, 10))]
        text = " ".join(words)
        doc_id = cid % 6
        index.add_text(cid, doc_id, text)
        triples.append((cid, doc_id, text))
    return index, triples


@pytest.mark.parametrize("k", [1, 3, 5])
def test_top_k_matches_brute_force_oracle(k):
    rng = Random(k)
    index, triples = _twenty_chunk_index(rng)
    query = "invoice payment terms venue race"
    hits = index.search(query, k=k)
    oracle = rank_chunks(query, triples, alpha=index.alpha, k=k, stopwords=STOPWORDS)
    assert [h.chunk.chunk_id for h in hits] == [cid for cid, _ in oracle]
    for hit, (_, score) in zip(hits, oracle):
        assert hit.fused_score == pytest.approx(score, abs=1e-12)


def test_tie_break_by_ascending_chunk_id():
    index = VectorIndex()
    index.add_text(5, 1, "identical words here")
    index.add_text(2, 1, "identical words here")
    index.add_text(9, 2, "identical words here")
    hits = index.search("identical words here", k=3)
    assert [h.chunk.chunk_id for h in hits] == [2, 5, 9]


def test_doc_filter_equals_filter_then_rank_on_random_fixtures():
    rng = Random(123)
    words = ["invoice", "race", "violin", "ledger", "pace", "trophy", "engine", "charity"]
    for trial in range(10):
        index = VectorIndex()
        triples = []
        for cid in range(rng.randint(20, 100)):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(3, 9)))
            doc_id = cid % 11
            index.add_text(cid, doc_id, text)
            triples.append((cid, doc_id, text))
        query = " ".join(rng.choice(words) for _ in range(3))
        doc_filter = {rng.randint(0, 10) for _ in range(rng.randint(0, 6))}
        hits = index.search(query, k=5, doc_filter=doc_filter)
        oracle = rank_chunks(query, triples, index.alpha, 5, STOPWORDS, doc_filter=doc_filter)
        assert [h.chunk.chunk_id for h in hits] == [cid for cid, _ in oracle]


def test_alpha_fusion_weight():
    index = VectorIndex(alpha=1.0)
    index.add_text(0, 1, "alpha beta")
    hit = index.search("alpha beta", k=1)[0]
    assert hit.fused_score == pytest.approx(hit.dense_score)
    index2 = VectorIndex(alpha=0.0)
    index2.add_text(0, 1, "alpha beta")
    hit2 = index2.search("alpha beta", k=1)[0]
    assert hit2.fused_score == pytest.approx(hit2.sparse_score)


_DIFF_WORDS = [
    "engine", "payment", "invoice", "race", "venue", "violin", "biology", "charity",
    "quarter", "metres", "title", "club", "trophy", "stadium", "ledger", "terms",
]


def _hit_tuples(hits):
    return [(id(h.chunk), h.dense_score, h.sparse_score, h.fused_score) for h in hits]


def _oracle_tuples(hits):
    return [(id(chunk), dense, sparse, fused) for chunk, dense, sparse, fused in hits]


def _random_query(rng: Random, index: VectorIndex) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return "the of and what"  # stopwords only
    if kind == 1:
        return "zyzzyva quokka"  # shares no token with any chunk
    if kind == 2:
        return rng.choice(index.chunks).text  # ties with every duplicate of that text
    return " ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(1, 5)))


def _assert_matches_scalar_loop(index: VectorIndex, oracle: ScalarSearch, rng: Random, doc_ids: int) -> None:
    query = _random_query(rng, index)
    k = rng.choice([1, 2, 3, 5, len(index) + 3])
    kind = rng.randrange(4)
    if kind == 0:
        docs = None
    elif kind == 1:
        docs = []
    else:  # may name unknown documents, and repeat some
        docs = [rng.randrange(doc_ids + 3) for _ in range(rng.randint(1, 6))]
    as_generator = docs is not None and rng.random() < 0.5

    def doc_filter():
        return None if docs is None else ((d for d in docs) if as_generator else set(docs))

    got = index.search(query, k=k, doc_filter=doc_filter())
    want = oracle.search(index.chunks, query, k, doc_filter())
    assert _hit_tuples(got) == _oracle_tuples(want), (query, k, docs)


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_frozen_scalar_loop_on_random_indexes(seed):
    rng = Random(seed)
    dim = rng.choice([16, 256])
    alpha = rng.choice([0.0, 0.3, 0.5, 1.0])
    index = VectorIndex(dim=dim, alpha=alpha)
    oracle = ScalarSearch(dim, alpha, STOPWORDS)
    n = rng.randint(1, 150)
    doc_ids = rng.randint(1, 12)
    chunk_ids = rng.sample(range(3 * n), n)  # out of insertion order
    chunk_ids = [rng.choice(chunk_ids[:i]) if i and rng.random() < 0.05 else c for i, c in enumerate(chunk_ids)]
    texts: list[str] = []
    for cid in chunk_ids:  # a repeated chunk id ties on both keys: insertion order decides
        if texts and rng.random() < 0.2:
            text = rng.choice(texts)  # exact duplicate: ties broken by chunk_id
        else:
            text = " ".join(rng.choice(_DIFF_WORDS + ["the", "of"]) for _ in range(rng.randint(0, 12)))
        texts.append(text)
        index.add_text(cid, rng.randrange(doc_ids), text)
    for _ in range(40):
        _assert_matches_scalar_loop(index, oracle, rng, doc_ids)


def _assert_postings_hold_the_grouped_entries(index: VectorIndex) -> None:
    """Each bucket's and each token's posting holds the count of each grouped row with it, rows ascending."""
    oracle = ScalarSearch(index.dim, index.alpha, STOPWORDS)
    tokens = [oracle.tokens(c.text) for c in index.chunks]
    token_ids: dict[str, int] = {}  # ids go to tokens in order of first occurrence
    for row_tokens in tokens:
        for t in row_tokens:
            token_ids.setdefault(t, len(token_ids))

    def bucket(token: str) -> int:
        return int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big") % index.dim

    for half, key_of in ((index._dense, bucket), (index._sparse, token_ids.__getitem__)):
        counts = [Counter(map(key_of, row_tokens)) for r, row_tokens in enumerate(tokens)
                  if half.offsets[r + 1] <= half.grouped]
        assert set(half.postings) == {key for row_counts in counts for key in row_counts}
        for key, (rows, posted) in half.postings.items():
            want = [(r, row_counts[key]) for r, row_counts in enumerate(counts) if row_counts[key]]
            assert list(zip(rows, posted)) == want, key


def test_search_matches_frozen_scalar_loop_across_groupings(monkeypatch):
    monkeypatch.setattr(vector_module, "_GROUP_ENTRIES", 7)  # a grouping takes many steps
    rng = Random(7)
    index = VectorIndex()
    oracle = ScalarSearch(index.dim, index.alpha, STOPWORDS)
    for cid in range(200):
        index.add_text(cid, cid % 40, " ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(1, 9))))
    for cid in range(200, 230):  # each search groups only the entries added since the last
        index.add_text(cid, rng.randrange(45), " ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(1, 9))))
        for _ in range(3):
            _assert_matches_scalar_loop(index, oracle, rng, 45)
    index.search("engine payment", k=3)
    assert index._dense.grouped == len(index._dense.values) and index._sparse.grouped == len(index._sparse.values)
    _assert_postings_hold_the_grouped_entries(index)


@pytest.mark.parametrize("dim", [8, 256])
@pytest.mark.parametrize("seed", range(4))
def test_postings_match_frozen_scalar_loop_with_adds_and_searches_interleaved(dim, seed):
    rng = Random(100 + seed)
    alpha = rng.choice([0.0, 0.3, 0.5, 1.0])
    index = VectorIndex(dim=dim, alpha=alpha)
    oracle = ScalarSearch(dim, alpha, STOPWORDS)
    doc_ids = rng.randint(1, 10)
    texts = ["", "the of and what"]  # empty and stopword-only texts have no entries
    for cid in rng.sample(range(300), 100):
        kind = rng.randrange(10)
        if kind == 0:
            text = rng.choice(texts)
        elif kind == 1:
            text = rng.choice(index.chunks).text if index.chunks else ""
        else:
            text = " ".join(rng.choice(_DIFF_WORDS + ["the", "of"]) for _ in range(rng.randint(1, 12)))
        index.add_text(cid, rng.randrange(doc_ids), text)
        for _ in range(rng.choice([0, 0, 1, 3])):
            _assert_matches_scalar_loop(index, oracle, rng, doc_ids)
    _assert_postings_hold_the_grouped_entries(index)


def test_concurrent_first_searches_group_each_dense_entry_once(monkeypatch):
    monkeypatch.setattr(vector_module, "_GROUP_ENTRIES", 3)
    rng = Random(11)
    index = VectorIndex()
    for cid in range(300):
        index.add_text(cid, cid % 7, " ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(0, 9))))
    oracle = ScalarSearch(index.dim, index.alpha, STOPWORDS)
    barrier = threading.Barrier(2)
    results, errors = [None, None], []

    def search(slot, query):
        try:
            barrier.wait()
            results[slot] = index.search(query, k=5)
        except Exception as exc:  # reported below
            errors.append(exc)

    queries = ["engine payment invoice", "race venue violin club"]
    threads = [threading.Thread(target=search, args=(i, q)) for i, q in enumerate(queries)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for query, hits in zip(queries, results):
        assert _hit_tuples(hits) == _oracle_tuples(oracle.search(index.chunks, query, 5))
    for half in (index._dense, index._sparse):  # each entry, dense or sparse, grouped exactly once
        keys = Counter(half.keys)
        assert set(half.postings) == set(keys)
        for key, (rows, counts) in half.postings.items():
            assert len(rows) == len(counts) == keys[key]
            assert len(set(rows)) == len(rows)
    _assert_postings_hold_the_grouped_entries(index)


def test_search_during_adds_sees_a_prefix_of_the_index():
    rng = Random(3)
    texts = [" ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(1, 8))) for _ in range(400)]
    index = VectorIndex()
    for cid, text in enumerate(texts[:20]):
        index.add_text(cid, cid % 9, text)
    oracle = ScalarSearch(index.dim, index.alpha, STOPWORDS)
    seen, errors = [], []

    def writer():
        for cid in range(20, len(texts)):
            index.add_text(cid, cid % 9, texts[cid])

    def reader(seed):
        r = Random(seed)
        try:
            for _ in range(40):
                query, docs = " ".join(r.sample(_DIFF_WORDS, 3)), r.choice([None, {1, 4}])
                before = len(index)
                hits = index.search(query, k=4, doc_filter=docs)
                seen.append((query, docs, before, len(index), _hit_tuples(hits)))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for query, docs, before, after, got in seen:  # the result over some prefix the search could have read
        assert any(
            got == _oracle_tuples(oracle.search(index.chunks[:m], query, 4, docs)) for m in range(before, after + 1)
        ), (query, docs, before, after)


def test_chunks_for_document_reads_the_document_map(queensland_store):
    chunks = queensland_store.index.chunks
    for document_id in {c.document_id for c in chunks} | {-1}:
        assert queensland_store.chunks_for_document(document_id) == [
            c for c in chunks if c.document_id == document_id
        ]


def test_dense_vec_is_bow_embed_rebuilt_from_the_chunks_entries():
    index = VectorIndex()
    texts = ["net 30 days from receipt of invoice", "", "the of and", "race race venue"]
    for cid, text in enumerate(texts):
        chunk = index.add_text(cid, 0, text)
        assert chunk.dense_vec.tolist() == bow_embed(text, 256, STOPWORDS)
        assert not chunk.dense_vec.flags.writeable
        assert chunk.dense_vec is not chunk.dense_vec  # rebuilt on each read
    # No chunk owns a dense vector: the index keeps one entry per nonzero bucket.
    for chunk in index.chunks:
        assert not any(isinstance(getattr(chunk, f.name), np.ndarray) for f in dataclasses.fields(chunk))
        assert not any(isinstance(getattr(chunk.dense_entries, a), np.ndarray) for a in DenseEntries.__slots__)
    nonzero = sum(np.count_nonzero(bow_embed(text, 256, STOPWORDS)) for text in texts)
    assert len(index._dense.keys) == len(index._dense.values) == nonzero


def test_indexed_sparse_vec_keeps_the_sparse_vector_map():
    oracle = ScalarSearch(256, 0.5, STOPWORDS)
    index = VectorIndex()
    for cid, text in enumerate(["payment terms payment", "", "the of", "Net 30 DAYS, net 60.", "terms ledger"]):
        want = oracle.sparse(text)
        assert list(sparse_vector(text).items()) == list(want.items())
        chunk = index.add_text(cid, 0, text)
        assert list(chunk.sparse_vec.items()) == list(want.items()) and len(chunk.sparse_vec) == len(want)
        assert [chunk.sparse_vec[t] for t in want] == list(want.values())
        assert chunk.sparse_vec.get("ledger", -1.0) == want.get("ledger", -1.0)
        with pytest.raises(KeyError):
            chunk.sparse_vec["zyzzyva"]


def test_embed_with_memoized_buckets_matches_the_sha256_loop(monkeypatch):
    monkeypatch.setattr(vector_module, "_BUCKET_MEMO_SIZE", 3)
    embedder = HashedBowEmbedder(64)
    oracle = ScalarSearch(64, 0.5, STOPWORDS)
    for text in ["alpha beta alpha", "", "gamma", "alpha beta alpha", "delta epsilon zeta eta theta"]:
        assert embedder.embed(text).tolist() == oracle.embed(text).tolist()
        assert len(embedder._buckets) <= 3  # the memo starts over when full


def test_search_identical_after_save_and_load(tmp_path):
    rng = Random(5)
    index = VectorIndex(alpha=0.3)
    for cid in rng.sample(range(100), 40):
        index.add_text(cid, cid % 6, " ".join(rng.choice(_DIFF_WORDS) for _ in range(rng.randint(0, 8))))
    store = Store(schema=GlobalSchema(tables=(), collections=()), index=index)
    save_store(store, tmp_path / "store")
    loaded = load_store(tmp_path / "store").index
    assert loaded.alpha == index.alpha
    for c, d in zip(index.chunks, loaded.chunks):
        assert (c, c.dense_vec.tolist(), list(c.sparse_vec.items())) == (d, d.dense_vec.tolist(), list(d.sparse_vec.items()))
    for _ in range(30):
        query = _random_query(rng, index)
        docs = rng.choice([None, {0, 2}, {9}])
        strip = lambda hits: [(h.chunk.chunk_id, h.dense_score, h.sparse_score, h.fused_score) for h in hits]
        assert strip(loaded.search(query, 4, docs)) == strip(index.search(query, 4, docs))


# chunks.jsonl of a dim-8 store as the earlier save_store wrote it, vectors included.
EARLIER_FORMAT_CHUNKS = """\
{"chunk_id": 4, "document_id": 1, "text": "Payment terms: net 30 days.", "dense": [0.0, 0.4472135954999579, 0.0, 0.4472135954999579, 0.0, 0.4472135954999579, 0.4472135954999579, 0.4472135954999579], "sparse": {"payment": 0.4472135954999579, "terms": 0.4472135954999579, "net": 0.4472135954999579, "30": 0.4472135954999579, "days": 0.4472135954999579}, "metadata": {"document_id": 1}}
{"chunk_id": 9, "document_id": 2, "text": "Late payment adds a fee", "dense": [0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0], "sparse": {"late": 0.5, "payment": 0.5, "adds": 0.5, "fee": 0.5}, "metadata": {"page": 2, "document_id": 2}}
{"chunk_id": 2, "document_id": 1, "text": "", "dense": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "sparse": {}, "metadata": {"document_id": 1}}
"""


def test_earlier_format_store_loads_to_the_same_chunks_vectors_and_hits(tmp_path):
    root = tmp_path / "store"
    save_store(Store(schema=GlobalSchema(tables=(), collections=()), index=VectorIndex(dim=8)), root)
    (root / "chunks.jsonl").write_text(EARLIER_FORMAT_CHUNKS, encoding="utf-8")
    loaded = load_store(root).index
    fresh = VectorIndex(dim=8)
    for line in EARLIER_FORMAT_CHUNKS.splitlines():
        obj = json.loads(line)
        fresh.add_text(obj["chunk_id"], obj["document_id"], obj["text"], obj["metadata"])
    for c, d, line in zip(loaded.chunks, fresh.chunks, EARLIER_FORMAT_CHUNKS.splitlines(), strict=True):
        stored = json.loads(line)
        assert (c, c.metadata) == (d, d.metadata)
        assert c.dense_vec.tolist() == d.dense_vec.tolist() == stored["dense"]
        assert list(c.sparse_vec.items()) == list(d.sparse_vec.items()) == list(stored["sparse"].items())
    strip = lambda hits: [(h.chunk.chunk_id, h.dense_score, h.sparse_score, h.fused_score) for h in hits]
    for query in ["payment terms", "late fee", "net 30", "nothing matches"]:
        for docs in [None, {1}]:
            assert strip(loaded.search(query, 2, docs)) == strip(fresh.search(query, 2, docs))


def test_saved_chunk_lines_hold_ids_text_and_metadata_only(tmp_path):
    index = VectorIndex()
    index.add_text(0, 1, "payment terms", {"page": 3})
    index.add_text(1, 2, "")
    save_store(Store(schema=GlobalSchema(tables=(), collections=()), index=index), tmp_path / "store")
    lines = (tmp_path / "store" / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {"chunk_id": 0, "document_id": 1, "text": "payment terms", "metadata": {"page": 3, "document_id": 1}},
        {"chunk_id": 1, "document_id": 2, "text": "", "metadata": {"document_id": 2}},
    ]


def _edit(edit):
    return lambda path: path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _replace_line(number, new):
    return _edit(lambda text: "".join(
        new + "\n" if i == number else line for i, line in enumerate(text.splitlines(keepends=True), start=1)
    ))


# (file under the store, damage, expected message after "<path>: ")
DAMAGED_STORE_FILES = {
    "torn_chunk_line": ("chunks.jsonl", _edit(lambda text: text[:-40]), "line 4: "),
    "chunk_line_not_an_object": ("chunks.jsonl", _replace_line(2, "[1, 2]"), "line 2: not a chunk"),
    "chunk_line_without_document_id": ("chunks.jsonl", _replace_line(3, '{"chunk_id": 9, "text": "x"}'),
                                       "line 3: missing key 'document_id'"),
    "chunk_text_not_a_string": ("chunks.jsonl", _replace_line(1, '{"chunk_id": 9, "document_id": 3, "text": 5}'),
                                "line 1: not a chunk"),
    "chunks_missing": ("chunks.jsonl", Path.unlink, "missing"),
    "torn_table_line": ("tables/athletes_1948.jsonl", _edit(lambda text: text[:-5]), "line 2: "),
    "table_line_not_an_array": ("tables/athletes_1948.jsonl", _replace_line(1, '{"athlete": "x"}'),
                                "line 1: not a row"),
    "table_row_of_wrong_arity": ("tables/athletes_1948.jsonl", _replace_line(2, '["x"]'), "table 'athletes_1948' row 1"),
    "table_missing": ("tables/athletes_1948.jsonl", Path.unlink, "missing"),
    "torn_schema": ("schema.json", _edit(lambda text: text[:-40]), "Expecting"),
    "schema_missing": ("schema.json", Path.unlink, "missing"),
    "meta_alpha_out_of_range": ("meta.json", _edit(lambda text: '{"dim": 256, "alpha": 2}'), "alpha must be in [0, 1]"),
    "meta_dim_not_a_number": ("meta.json", _edit(lambda text: '{"dim": "abc", "alpha": 0.5}'), "invalid literal"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_STORE_FILES))
def test_damaged_store_file_raises_store_file_error_naming_it(case, fixtures_dir, tmp_path):
    root = tmp_path / "store"
    ingest(fixtures_dir / "olympics" / "tables.json", fixtures_dir / "olympics" / "docs.jsonl", root)
    name, damage, reason = DAMAGED_STORE_FILES[case]
    damage(root / name)
    with pytest.raises(StoreFileError) as info:
        load_store(root)
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"{root / name}: {reason}"), str(info.value)


# --- chunking -----------------------------------------------------------------


def test_chunking_1300_char_document_three_chunks_with_overlap():
    sentence = "x" * 50 + "."
    text = " ".join([sentence] * 25)  # len 25*52 - 1 = 1299
    assert len(text) == 1299
    chunks = chunk_document(text, target=512, overlap=64)
    # boundaries sit at 52k + 51; nearest to 512 is 519, then 455+512=967 -> 987
    assert [len(c) for c in chunks] == [519, 532, 376]
    assert chunks[0] == text[0:519]
    assert chunks[1] == text[455:987]
    assert chunks[2] == text[923:]
    for prev, nxt in zip(chunks, chunks[1:]):
        assert nxt[:64] == prev[-64:]


def test_chunking_short_text_single_chunk():
    assert chunk_document("short sentence.") == ["short sentence."]
    assert chunk_document("") == []


def test_chunking_no_boundaries_hard_cut():
    text = "a" * 1200
    chunks = chunk_document(text, target=512, overlap=64)
    assert chunks[0] == "a" * 512
    assert chunks[1][:64] == "a" * 64


# --- ingest + persistence ------------------------------------------------------


def test_ingest_fixture_counts(fixtures_dir, tmp_path):
    report = ingest(
        fixtures_dir / "queensland" / "tables.json",
        fixtures_dir / "queensland" / "docs.jsonl",
        tmp_path / "store",
    )
    assert report.tables == 1
    assert report.rows == {"sport_in_queensland": 3}
    assert report.chunks >= 3
    assert report.cross_links == 1
    assert not report.warnings


def test_ingest_empty_docs_warns(tmp_path, fixtures_dir):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("")
    report = ingest(fixtures_dir / "queensland" / "tables.json", docs, tmp_path / "store")
    assert report.chunks == 0
    assert report.warnings


def test_ingest_duplicate_document_id_rejected(tmp_path, fixtures_dir):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"document_id": 1, "text": "a."}\n{"document_id": 1, "text": "b."}\n')
    with pytest.raises(IngestError):
        ingest(fixtures_dir / "queensland" / "tables.json", docs, tmp_path / "store")


def test_ingest_csv_with_row_map(tmp_path):
    csv_path = tmp_path / "players.csv"
    csv_path.write_text("player_id,name,score\n1,ann,10\n2,bo,20\n")
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"document_id": 7, "text": "ann bio."}\n{"document_id": 8, "text": "bo bio."}\n')
    row_map = tmp_path / "map.json"
    row_map.write_text(json.dumps({"players": [7, 8]}))
    report = ingest(csv_path, docs, tmp_path / "store", row_map_path=row_map)
    assert report.cross_links == 1
    store = load_store(tmp_path / "store")
    table = store.tables["players"]
    assert table.schema.column_names == ("player_id", "name", "score", "document_id")
    assert table.rows[0] == (1, "ann", 10, 7)


def test_ingest_row_map_unknown_document_rejected(tmp_path):
    csv_path = tmp_path / "players.csv"
    csv_path.write_text("player_id,name\n1,ann\n")
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"document_id": 7, "text": "ann bio."}\n')
    row_map = tmp_path / "map.json"
    row_map.write_text(json.dumps({"players": [99]}))
    with pytest.raises(IngestError):
        ingest(csv_path, docs, tmp_path / "store", row_map_path=row_map)


def test_cross_modal_round_trip(queensland_store):
    for chunk in queensland_store.index.chunks:
        rows = queensland_store.rows_for_document(chunk.document_id)
        assert isinstance(rows, list)
    table = queensland_store.tables["sport_in_queensland"]
    doc_idx = table.column_index("document_id")
    for row in table.rows:
        assert queensland_store.chunks_for_document(row[doc_idx])


def test_rows_for_document_equals_a_scan_of_each_cross_link(olympics_store):
    def scan(document_id):
        out = []
        for link in olympics_store.schema.cross_links:
            table = olympics_store.tables[link.table_name]
            idx = table.column_index(link.column_name)
            out += [(table.name, rid) for rid, row in enumerate(table.rows) if row[idx] == document_id]
        return out

    for document_id in range(-1, 20):
        assert olympics_store.rows_for_document(document_id) == scan(document_id)
    assert olympics_store.rows_for_document(12) == [("athletes_1948", 0)]
    assert olympics_store.rows_for_document(13) == [("athletes_1948", 1)]
    assert olympics_store.rows_for_document(12.0) == [("athletes_1948", 0)]


def test_persistence_round_trip(fixtures_dir, tmp_path):
    out = tmp_path / "store"
    ingest(fixtures_dir / "olympics" / "tables.json", fixtures_dir / "olympics" / "docs.jsonl", out)
    first = load_store(out)
    save_store(first, tmp_path / "copy")
    second = load_store(tmp_path / "copy")
    assert first.signature == second.signature
    query = "Find the document_id of the event that had 70 competitors from 39 countries, with 64 finishers?"
    h1 = first.index.search(query, k=3)
    h2 = second.index.search(query, k=3)
    assert [(h.chunk.chunk_id, h.fused_score) for h in h1] == [(h.chunk.chunk_id, h.fused_score) for h in h2]
    q = StructuredQuery(table="athletes_1948", select=("athlete",), filters=(Filter("event_document_id", "in", [3]),))
    assert exec_structured(first, q) == exec_structured(second, q)
