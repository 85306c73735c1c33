from __future__ import annotations

import json
from random import Random

import numpy as np
import pytest

from adot.stores.ingest import IngestError, chunk_document, ingest
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
    signature_of,
)
from adot.stores.store import load_store, save_store
from adot.stores.vector import (
    STOPWORDS,
    EmptyIndexError,
    VectorIndex,
    cosine,
    embed,
)
from oracles import bow_cosine, bow_embed, naive_aggregate, naive_exec, rank_chunks

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


# --- vector index -------------------------------------------------------------


def test_embed_deterministic_and_empty_zero():
    assert np.array_equal(embed("payment terms"), embed("payment terms"))
    assert np.linalg.norm(embed("")) == 0.0
    assert cosine(embed(""), embed("anything")) == 0.0


def test_embed_matches_independent_bow_oracle():
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
