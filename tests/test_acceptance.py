"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import json
import time
from random import Random

import pytest

from adot.adapters import ScriptedPlanner
from adot.cache import PlanCache, build_template, normalize_query
from adot.executor import execute_plan, slim_binding
from adot.lineage import trace_answer
from adot.pipeline import Pipeline, PipelineConfig
from adot.plan_ir import Context, Tool, find_cycle
from adot.stores.ingest import ingest
from adot.stores.relational import Filter, ResultSet, RowRef, StructuredQuery, exec_structured
from adot.stores.store import load_store
from adot.stores.vector import STOPWORDS, VectorIndex
from adot.validator import validate_plan
from conftest import FIXTURES, load_plan, make_store
from oracles import (
    all_digraph_masks_have_cycle,
    bow_cosine,
    bow_embed,
    brute_force_validate,
    rank_chunks,
)
from plangen import (
    mutated_corpus,
    parse_doc,
    random_valid_plan_doc,
    seeded_corruptions,
    simulated_adapters,
)
from test_executor import _marked, _unmarked
from test_validator import SIM_SCHEMA, codes

OLYMPICS_QUESTION = (
    "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
)
QLD_QUESTION = "Where is the venue of the club that won the Bathurst 12 Hour located?"
TEEN_QUESTION = (
    "What is the state represented by the teen whose home town is one of the gateways to the Great Smoky Mountains National Park?"
)


def _report(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS")


def test_acceptance_three_hop_golden_path():
    store = make_store("olympics")
    planner = ScriptedPlanner.from_file(FIXTURES / "olympics" / "script.json")
    pipeline = Pipeline(store=store, config=PipelineConfig(), planner=planner)

    start = time.perf_counter()
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    elapsed = time.perf_counter() - start

    assert result.status == "ok"
    assert result.answers == (("Birth year of the athlete", "1920"),)
    assert result.final_answer == "Birth year of the athlete: 1920"
    node_records = [r for r in result.lineage.records if r.kind == "node"]
    assert len(node_records) == 3
    closure = trace_answer(result.lineage.records, "$var_3")
    assert len(closure) == 3
    assert elapsed < 1.0, f"golden path took {elapsed:.3f}s"
    _report("three-hop-golden-path")


def test_acceptance_error_scenario_fixtures():
    start = time.perf_counter()

    smoky = execute_plan(load_plan("smoky_mountains"), make_store("smoky_mountains"))
    assert not smoky.ok
    (fb,) = smoky.feedback
    assert fb.node_index == 1 and fb.error_class.value == "NoMatch"
    failed_record = next(r for r in smoky.lineage.records if r.kind == "node" and r.status == "failed")
    assert failed_record.output_summary.get("answer_value") == []  # empty id list rides along with the failure
    from adot.dataops import DiagnosisClass, diagnose

    assert diagnose(list(smoky.feedback))[0].error_class is DiagnosisClass.SUBQUERY_FAILURE

    queensland = execute_plan(load_plan("queensland"), make_store("queensland"))
    assert queensland.ok
    assert queensland.final_answer == "Venue of the club that won the Bathurst 12 Hour: Willowbank"
    structured_record = next(
        r for r in queensland.lineage.records if r.kind == "node" and r.tool == "iceberg"
    )
    assert RowRef("sport_in_queensland", 1) in structured_record.provenance_refs

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"scenario fixtures took {elapsed:.3f}s"
    _report("error-scenario-fixtures")


def test_acceptance_validator_oracle_equivalence():
    rng = Random(20260810)
    corpus = mutated_corpus(rng, 1000)
    schema_columns = SIM_SCHEMA.all_column_names() | SIM_SCHEMA.all_metadata_keys()
    agreements = 0
    for doc in corpus:
        report = validate_plan(parse_doc(doc), SIM_SCHEMA)
        expected_valid, expected_codes = brute_force_validate(doc, set(schema_columns))
        assert (report.is_valid, codes(report)) == (expected_valid, expected_codes), json.dumps(doc)
        agreements += 1
    assert agreements == 1000

    # exhaustive cycle soundness/completeness: every digraph on <=4 nodes
    # including self-loops, and every loopless digraph on 5 nodes
    for n in range(0, 5):
        positions = [(i, j) for i in range(n) for j in range(n)]
        oracle = all_digraph_masks_have_cycle(n, include_self_loops=True)
        for mask in range(1 << len(positions)):
            adj = {u: set() for u in range(1, n + 1)}
            for b, (i, j) in enumerate(positions):
                if (mask >> b) & 1:
                    adj[i + 1].add(j + 1)
            assert (find_cycle(adj) is not None) == bool(oracle[mask])

    positions = [(i, j) for i in range(5) for j in range(5) if i != j]
    oracle = all_digraph_masks_have_cycle(5, include_self_loops=False)
    for mask in range(1 << 20):
        adj = {u: set() for u in range(1, 6)}
        m, b = mask, 0
        while m:
            if m & 1:
                i, j = positions[b]
                adj[i + 1].add(j + 1)
            m >>= 1
            b += 1
        assert (find_cycle(adj) is not None) == bool(oracle[mask])
    _report("validator-oracle-equivalence")


def test_acceptance_parallel_equals_sequential():
    """In-process nodes (marked adapters) run one at a time, pooled ones (unmarked) a wave at once: same run."""
    rng = Random(424242)
    for _ in range(200):
        plan = parse_doc(random_valid_plan_doc(rng, max_nodes=8))
        outcomes = []
        for adapters in (_marked(simulated_adapters()), _unmarked(simulated_adapters())):
            result = execute_plan(plan, adapters=adapters)
            assert result.ok
            assert len(result.bindings) == len(plan.subquestions)  # single assignment: one binding per node
            normalized_lineage = sorted(
                (
                    r.node_index,
                    r.label,
                    r.tool,
                    r.status,
                    r.question_resolved,
                    json.dumps(r.output_summary, sort_keys=True, default=str),
                    tuple(r.provenance_refs),
                    r.input_labels,
                    r.error_class,
                )
                for r in result.lineage.records
                if r.kind == "node"
            )
            outcomes.append(
                (
                    result.final_answer,
                    {l: (dict(b.slim_view), b.answer_value) for l, b in result.bindings.items()},
                    normalized_lineage,
                )
            )
        assert outcomes[0] == outcomes[1]

    # diamond timing: two 100 ms nodes in wave 2
    diamond = parse_doc(
        {
            "subquestions": [
                {"question": "root?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
                {"question": "left uses $var_1.val?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
                {"question": "right uses $var_1.val?", "tool": "sql", "label": "$var_3", "should_expose_answer": False},
                {"question": "join $var_2.val and $var_3.val?", "tool": "sql", "label": "$var_4",
                 "should_expose_answer": True, "answer_description": "joined"},
            ]
        }
    )

    def timed(wrap) -> float:
        from adot.adapters import AdapterOutcome

        def adapter(rq):
            if rq.node_index in (2, 3):
                time.sleep(0.1)
            rs = ResultSet(columns=("val",), rows=((rq.node_index,),), provenance=((RowRef("sim", rq.node_index),),))
            return AdapterOutcome(result=rs, answer_value=rq.node_index)

        start = time.perf_counter()
        execute_plan(diamond, adapters=wrap({Tool.STRUCTURED: adapter, Tool.VECTOR: adapter}))
        return time.perf_counter() - start

    pooled_wall = timed(_unmarked)
    in_process_wall = timed(_marked)
    assert pooled_wall < 0.160, f"pooled diamond took {pooled_wall:.3f}s"
    assert in_process_wall >= 0.200, f"in-process diamond took {in_process_wall:.3f}s"
    _report("parallel-equals-sequential")


def test_acceptance_slimming():
    distinct_ids = list(range(12))
    rows = tuple((f"name-{i}", "payload text " * 4, distinct_ids[i % 12]) for i in range(100_000))
    result = ResultSet(
        columns=("name", "body_text", "document_id"),
        rows=rows,
        provenance=tuple((RowRef("synthetic", i),) for i in range(len(rows))),
    )
    view = slim_binding(result, {"document_id"})
    assert sorted(view["document_id"]) == distinct_ids
    slim_size = len(json.dumps({k: list(v) for k, v in view.items()}))
    full_size = len(json.dumps({"columns": list(result.columns), "rows": [list(r) for r in result.rows]}))
    assert slim_size < 0.05 * full_size, f"slim {slim_size}B vs full {full_size}B"

    # on the fixtures, each binding forwards only the columns its dependents
    # reference plus the cross-link keys, and the answers are the golden ones
    for fixture, answer in (
        ("olympics", "Birth year of the athlete: 1920"),
        ("queensland", "Venue of the club that won the Bathurst 12 Hour: Willowbank"),
        ("smoky_mountains", None),
    ):
        plan = load_plan(fixture)
        store = make_store(fixture)
        referenced = {sq.label: set() for sq in plan.subquestions}
        for sq in plan.subquestions:
            for ref in sq.var_refs():
                if ref.column is not None:
                    referenced[f"$var_{ref.target_index}"].add(ref.column)
        result = execute_plan(plan, store)
        assert result.final_answer == answer
        for label, binding in result.bindings.items():
            assert referenced[label] <= set(binding.slim_view) <= referenced[label] | store.schema.crosslink_keys()
    _report("slimming")


def test_acceptance_cache():
    # exact: second ask performs zero planner calls
    store = make_store("olympics")
    planner = ScriptedPlanner.from_file(FIXTURES / "olympics" / "script.json")
    pipeline = Pipeline(store=store, config=PipelineConfig(), planner=planner)
    first = pipeline.answer_question(OLYMPICS_QUESTION)
    planner_calls = pipeline.planner_calls
    validations = pipeline.validation_calls
    second = pipeline.answer_question(OLYMPICS_QUESTION)
    assert pipeline.planner_calls == planner_calls == 1
    assert second.cache_strategy == "exact"
    assert second.final_answer == first.final_answer
    assert pipeline.validation_calls > validations  # instrumented: hits are validated

    # template: slot values instantiated into node questions
    ctx = Context()
    cache = PlanCache(capacity=8)
    plan = parse_doc(
        {
            "subquestions": [
                {"question": "What is the average of total_amount where state = 'texas'?", "tool": "sql",
                 "label": "$var_1", "should_expose_answer": True, "answer_description": "Average total amount"},
            ]
        }
    )
    template_text, skeleton = build_template(
        "Give me the average total amount for invoice receivers from Texas",
        plan,
        [("state", "texas", "identifier")],
    )
    cache.insert_template(template_text, "sig", ctx, skeleton)
    hit = cache.lookup("Give me the average total amount for invoice receivers from Ohio", "sig", ctx)
    assert hit is not None and hit.strategy == "template"
    assert "ohio" in hit.plan.subquestions[0].question

    # semantic: decisions match a brute-force cosine oracle at tau=0.85
    rng = Random(77)
    semantic = PlanCache(capacity=64, tau=0.85)
    stored = [
        "what is the venue of the club that won the bathurst 12 hour",
        "average total amount for invoice receivers from texas",
        "list the payment terms for overdue invoices",
    ]
    for q in stored:
        semantic.insert(q, "sig", ctx, plan)
    pool = "today ledger sprint deadline quarterly".split()
    hits = misses = 0
    for _ in range(150):
        words = stored[rng.randrange(len(stored))].split()
        for _ in range(rng.randint(0, 3)):
            if len(words) > 1:
                words.pop(rng.randrange(len(words)))
        for _ in range(rng.randint(0, 3)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(pool))
        rng.shuffle(words)
        query = " ".join(words)
        if any(normalize_query(s) == normalize_query(query) for s in stored):
            continue
        best = max(
            bow_cosine(
                bow_embed(normalize_query(query), 256, STOPWORDS),
                bow_embed(normalize_query(s), 256, STOPWORDS),
            )
            for s in stored
        )
        got = semantic.lookup(query, "sig", ctx)
        if best >= 0.85:
            hits += 1
            assert got is not None and got.strategy == "semantic"
        else:
            misses += 1
            assert got is None
    assert hits and misses

    # LRU at capacities 1, 2, 8
    for capacity in (1, 2, 8):
        lru = PlanCache(capacity=capacity, tau=1.0)
        for i in range(capacity):
            lru.insert(f"held{i} token{i}", "sig", ctx, plan)
        assert lru.lookup("held0 token0", "sig", ctx) is not None  # refresh 0
        lru.insert("newcomer entry", "sig", ctx, plan)
        if capacity == 1:
            assert lru.lookup("held0 token0", "sig", ctx) is None
        else:
            assert lru.lookup("held0 token0", "sig", ctx) is not None
            assert lru.lookup("held1 token1", "sig", ctx) is None  # LRU victim
        assert len(lru) == capacity
    _report("cache")


def test_acceptance_dataops_recovery():
    corpus = seeded_corruptions()
    assert len(corpus) == 5
    for name, doc in corpus.items():
        outcomes = {}
        for dataops_on in (True, False):
            pipeline = Pipeline(
                store=make_store("queensland"),
                config=PipelineConfig(audit=False, max_fix_iterations=3 if dataops_on else 0),
                planner=ScriptedPlanner({QLD_QUESTION: doc}),
            )
            result = pipeline.answer_question(QLD_QUESTION)
            outcomes[dataops_on] = result
        repaired = outcomes[True]
        assert repaired.status == "ok", (name, repaired.messages)
        assert "Willowbank" in repaired.final_answer, name
        assert sum(r.kind == "dataops" for r in repaired.lineage.records) <= 2, name
        failed = outcomes[False]
        assert failed.status != "ok", name  # 100% separation

    # termination: an unfixable plan aborts within the iteration budget
    unfixable = {
        "subquestions": [
            {"question": "uses $var_2?", "tool": "sql", "label": "$var_1",
             "should_expose_answer": True, "answer_description": "d"},
            {"question": "uses $var_1?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
        ]
    }
    pipeline = Pipeline(
        store=make_store("queensland"),
        config=PipelineConfig(audit=False, max_fix_iterations=3),
        planner=ScriptedPlanner({QLD_QUESTION: unfixable}),
    )
    result = pipeline.answer_question(QLD_QUESTION)
    assert result.status == "unrecoverable"
    assert sum(r.kind == "dataops" for r in result.lineage.records) <= 3
    _report("dataops-recovery")


def test_acceptance_hybrid_retrieval():
    rng = Random(5)
    vocabulary = [
        "engine", "payment", "invoice", "race", "venue", "violin", "biology",
        "charity", "quarter", "metres", "title", "club", "trophy", "stadium",
    ]
    index = VectorIndex()
    triples = []
    for cid in range(18):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(4, 9)))
        doc_id = cid % 6
        index.add_text(cid, doc_id, text)
        triples.append((cid, doc_id, text))
    # chunks 18/19 are identical, forcing a tie broken by chunk id (20 total)
    index.add_text(18, 6, "tied words example")
    index.add_text(19, 6, "tied words example")
    triples += [(18, 6, "tied words example"), (19, 6, "tied words example")]
    assert len(triples) == 20

    for query in ("invoice payment venue", "race trophy club stadium", "tied words example"):
        for k in (1, 3, 5):
            for doc_filter in (None, {1, 3, 6}):
                hits = index.search(query, k=k, doc_filter=doc_filter)
                oracle = rank_chunks(query, triples, index.alpha, k, STOPWORDS, doc_filter=doc_filter)
                assert [h.chunk.chunk_id for h in hits] == [cid for cid, _ in oracle], (query, k, doc_filter)
                for hit, (_, score) in zip(hits, oracle):
                    assert hit.fused_score == pytest.approx(score, abs=1e-12)
    _report("hybrid-retrieval")


def test_acceptance_ingest_round_trip(tmp_path):
    first_dir = tmp_path / "store"
    report = ingest(
        FIXTURES / "olympics" / "tables.json",
        FIXTURES / "olympics" / "docs.jsonl",
        first_dir,
    )
    assert report.tables == 1 and report.chunks == 4 and report.cross_links == 1

    first = load_store(first_dir)
    from adot.stores.store import save_store

    second_dir = tmp_path / "copy"
    save_store(first, second_dir)
    second = load_store(second_dir)

    assert first.signature == second.signature
    query = "Find the document_id of the event that had 70 competitors from 39 countries, with 64 finishers?"
    h1 = [(h.chunk.chunk_id, h.dense_score, h.sparse_score, h.fused_score) for h in first.index.search(query, k=4)]
    h2 = [(h.chunk.chunk_id, h.dense_score, h.sparse_score, h.fused_score) for h in second.index.search(query, k=4)]
    assert h1 == h2
    sq = StructuredQuery(
        table="athletes_1948", select=("athlete",), filters=(Filter("event_document_id", "in", [3]),)
    )
    assert exec_structured(first, sq) == exec_structured(second, sq)

    plan = load_plan("olympics")
    assert execute_plan(plan, first).final_answer == execute_plan(plan, second).final_answer
    _report("ingest-round-trip")
