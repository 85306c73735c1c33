from __future__ import annotations

import json
from random import Random

import pytest

from adot.adapters import (
    AdapterOutcome,
    ExecutionFeedback,
    FeedbackClass,
    PatternTranslator,
    PlannerMissError,
    ResolvedSubQuery,
    ScriptedPlanner,
    TranslationFailedError,
    run_structured_adapter,
    run_vector_adapter,
)
from adot.plan_ir import Tool
from adot.stores.vector import STOPWORDS, VectorIndex
from oracles import rank_chunks


def rq_structured(question: str, bindings=None) -> ResolvedSubQuery:
    return ResolvedSubQuery(node_index=1, question_resolved=question, tool=Tool.STRUCTURED, bindings_in=bindings or {})


def rq_vector(question: str, bindings=None) -> ResolvedSubQuery:
    return ResolvedSubQuery(node_index=1, question_resolved=question, tool=Tool.VECTOR, bindings_in=bindings or {})


def test_outcome_invariant_exactly_one_of_result_error():
    with pytest.raises(ValueError):
        AdapterOutcome(result=None, error=None)
    with pytest.raises(ValueError):
        AdapterOutcome(result=[], error=ExecutionFeedback(FeedbackClass.STORE_ERROR, "x"))


def test_structured_venue_lookup_with_binding(queensland_store):
    rq = rq_structured(
        "What is the venue of the club with document_id in 7?",
        bindings={"$var_1": {"document_id": [7]}},
    )
    outcome = run_structured_adapter(rq, queensland_store)
    assert outcome.ok
    assert outcome.result.rows == (("Willowbank",),)
    assert outcome.answer_value == "Willowbank"


def test_structured_literal_values_without_binding(queensland_store):
    rq = rq_structured("What is the venue of the club with document_id in 7?")
    outcome = run_structured_adapter(rq, queensland_store)
    assert outcome.answer_value == "Willowbank"


def test_structured_empty_in_list_returns_empty_no_error(queensland_store):
    rq = rq_structured(
        "What is the venue of the club with document_id in $var_1.document_id?",
        bindings={"$var_1": {"document_id": []}},
    )
    outcome = run_structured_adapter(rq, queensland_store)
    assert outcome.ok
    assert outcome.result.is_empty
    assert outcome.answer_value == []


def test_structured_untranslatable_question(queensland_store):
    outcome = run_structured_adapter(rq_structured("please dance"), queensland_store)
    assert outcome.error is not None
    assert outcome.error.error_class is FeedbackClass.TRANSLATION_FAILED


def test_structured_aggregate_template(queensland_store):
    outcome = run_structured_adapter(
        rq_structured("What is the count of club where league = 'Motorsport'?"), queensland_store
    )
    assert outcome.ok
    assert outcome.answer_value == 1


def test_structured_aggregate_template_takes_a_reference_typed(queensland_store):
    outcome = run_structured_adapter(
        rq_structured(
            "What is the count of club where league = $var_1.league?",
            bindings={"$var_1": {"league": ["Motorsport", "Rugby, League's"]}},
        ),
        queensland_store,
    )
    assert outcome.ok
    assert outcome.answer_value == 1


def test_structured_backtick_escape_hatch(invoices_store):
    outcome = run_structured_adapter(
        rq_structured("run `select avg(total_amount) from invoices where state = 'texas'`"),
        invoices_store,
    )
    assert outcome.ok
    assert outcome.answer_value == pytest.approx((120.5 + 200.0) / 2)


def test_structured_bad_backtick_is_translation_failure(invoices_store):
    outcome = run_structured_adapter(rq_structured("run `selekt things`"), invoices_store)
    assert outcome.error.error_class is FeedbackClass.TRANSLATION_FAILED


def test_in_list_equals_union_of_single_value_queries(invoices_store):
    rng = Random(3)
    ids = [1, 2, 3, 4]
    for _ in range(20):
        subset = sorted(rng.sample(ids, rng.randint(1, 4)))
        combined = run_structured_adapter(
            rq_structured(
                "What is the receiver of the invoice with invoice_id in $var_1.invoice_id?",
                bindings={"$var_1": {"invoice_id": subset}},
            ),
            invoices_store,
        )
        singles: set = set()
        for i in subset:
            one = run_structured_adapter(
                rq_structured(f"What is the receiver of the invoice with invoice_id in {i}?"),
                invoices_store,
            )
            singles.update(one.result.rows)
        assert set(combined.result.rows) == singles


def test_adapter_determinism_and_provenance(queensland_store):
    rq = rq_structured("What is the venue of the club with document_id in 7?")
    first = run_structured_adapter(rq, queensland_store)
    second = run_structured_adapter(rq, queensland_store)
    assert first.result == second.result
    for refs in first.result.provenance:
        for ref in refs:
            table = queensland_store.tables[ref.table]
            assert 0 <= ref.row_id < len(table.rows)


def test_translator_raises_for_unknown_columns(queensland_store):
    translator = PatternTranslator()
    with pytest.raises(TranslationFailedError):
        translator.translate(
            rq_structured("What is the nonsense of the club with mystery in 7?"),
            queensland_store.schema,
        )


# --- vector adapter -----------------------------------------------------------


def test_vector_no_match_mirrors_empty_document_id(smoky_store):
    rq = rq_vector(
        "Find the document_id of the teen whose hometown is one of the gateways to the Great Smoky Mountains National Park?"
    )
    outcome = run_vector_adapter(rq, smoky_store.index)
    assert outcome.error is not None
    assert outcome.error.error_class is FeedbackClass.NO_MATCH
    assert outcome.answer_value == []


def test_vector_single_chunk_document_id_form():
    index = VectorIndex()
    index.add_text(0, 42, "the championship race ended at dusk")
    outcome = run_vector_adapter(rq_vector("Find the document_id of the championship race?"), index)
    assert outcome.ok
    assert outcome.answer_value == [42]


def test_vector_doc_filter_from_bindings_matches_oracle():
    rng = Random(9)
    vocabulary = ["race", "violin", "ledger", "pace", "trophy", "engine"]
    index = VectorIndex()
    triples = []
    for cid in range(20):
        text = " ".join(rng.choice(vocabulary) for _ in range(6))
        doc = cid % 10
        index.add_text(cid, doc, text)
        triples.append((cid, doc, text))
    query = "race trophy pace"
    outcome = run_vector_adapter(
        rq_vector(query, bindings={"$var_1": {"document_id": [3, 9]}}), index, k=5
    )
    assert outcome.ok
    assert all(h.chunk.document_id in (3, 9) for h in outcome.result)
    oracle = rank_chunks(query, triples, index.alpha, 5, STOPWORDS, doc_filter={3, 9})
    best = oracle[0][1]
    oracle_kept = [cid for cid, s in oracle if s > 0 and s >= 0.5 * best]
    assert [h.chunk.chunk_id for h in outcome.result] == oracle_kept


def test_vector_empty_index_is_infrastructure_error():
    outcome = run_vector_adapter(rq_vector("anything"), VectorIndex())
    assert outcome.error.error_class is FeedbackClass.STORE_ERROR
    assert outcome.error.infrastructure


def test_vector_year_extraction(olympics_store):
    outcome = run_vector_adapter(
        rq_vector("What year was the athlete born, searching documents with document_id in 12?",
                  bindings={"$var_2": {"document_id": [12]}}),
        olympics_store.index,
    )
    assert outcome.answer_value == "1920"


def test_vector_default_answer_is_top_hit_text():
    index = VectorIndex()
    index.add_text(0, 1, "the trophy cabinet holds nine cups")
    outcome = run_vector_adapter(rq_vector("trophy cabinet cups"), index)
    assert outcome.answer_value == "the trophy cabinet holds nine cups"


# --- scripted planner -----------------------------------------------------------


def test_scripted_planner_hits_and_misses(fixtures_dir):
    planner = ScriptedPlanner.from_file(fixtures_dir / "olympics" / "script.json")
    plan = planner.generate(
        "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
    )
    assert len(plan) == 3
    with pytest.raises(PlannerMissError):
        planner.generate("who framed roger rabbit?")


def test_external_planner_reads_stdin_prints_plan(fixtures_dir):
    from adot.adapters import ExternalPlanner

    planner = ExternalPlanner(f"cat {fixtures_dir / 'olympics' / 'plan.json'}")
    plan = planner.generate("any question")
    assert len(plan) == 3

    for command in ("false", "definitely-not-a-command-xyz", "echo nope", "echo 'unbalanced"):
        with pytest.raises(PlannerMissError):
            ExternalPlanner(command).generate("any question")
    with pytest.raises(PlannerMissError):
        ExternalPlanner("sleep 5", timeout=0.2).generate("any question")


def test_scripted_planner_paraphrases_normalize_to_same_key(fixtures_dir):
    planner = ScriptedPlanner.from_file(fixtures_dir / "olympics" / "script.json")
    a = planner.generate(
        "  What YEAR was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers??  "
    )
    b = planner.generate(
        "what year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers"
    )
    assert a == b
