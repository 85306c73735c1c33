from __future__ import annotations

import json

import pytest

from adot.adapters import ScriptedPlanner
from adot.pipeline import Pipeline, PipelineConfig, load_config
from adot.lineage import read_lineage, trace_answer
from conftest import FIXTURES, make_store

OLYMPICS_QUESTION = (
    "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
)
QLD_QUESTION = "Where is the venue of the club that won the Bathurst 12 Hour located?"
TEEN_QUESTION = (
    "What is the state represented by the teen whose home town is one of the gateways to the Great Smoky Mountains National Park?"
)


def olympics_pipeline(**config_overrides) -> Pipeline:
    store = make_store("olympics")
    planner = ScriptedPlanner.from_file(FIXTURES / "olympics" / "script.json")
    config = PipelineConfig(**config_overrides)
    return Pipeline(store=store, config=config, planner=planner)


def fixture_pipeline(fixture: str, question: str, **config_overrides) -> Pipeline:
    store = make_store(fixture)
    plan_doc = json.loads((FIXTURES / fixture / "plan.json").read_text())
    planner = ScriptedPlanner({question: plan_doc})
    return Pipeline(store=store, config=PipelineConfig(**config_overrides), planner=planner)


def test_golden_path_end_to_end():
    pipeline = olympics_pipeline()
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "ok" and result.exit_code == 0
    assert result.final_answer == "Birth year of the athlete: 1920"
    assert pipeline.planner_calls == 1
    assert pipeline.cache.stats.insertions == 1


def test_second_ask_is_exact_cache_hit_with_zero_planner_calls():
    pipeline = olympics_pipeline()
    first = pipeline.answer_question(OLYMPICS_QUESTION)
    planner_calls = pipeline.planner_calls
    validations = pipeline.validation_calls
    second = pipeline.answer_question(OLYMPICS_QUESTION)
    assert pipeline.planner_calls == planner_calls  # no new planner call
    assert second.cache_strategy == "exact"
    assert second.final_answer == first.final_answer
    assert pipeline.validation_calls > validations  # hits are still validated


def test_cached_plan_is_scrubbed_and_revalidated():
    pipeline = olympics_pipeline()
    pipeline.answer_question(OLYMPICS_QUESTION)
    (entry,) = pipeline.cache.entries()
    assert all(sq.status.value == "pending" for sq in entry.plan.subquestions)
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "ok"


def test_no_plan_status_for_unscripted_question():
    pipeline = olympics_pipeline()
    result = pipeline.answer_question("what is the meaning of life?")
    assert result.status == "no_plan"
    assert result.exit_code == 4


def test_queensland_venue_through_pipeline():
    pipeline = fixture_pipeline("queensland", QLD_QUESTION)
    result = pipeline.answer_question(QLD_QUESTION)
    assert result.status == "ok"
    assert result.final_answer == "Venue of the club that won the Bathurst 12 Hour: Willowbank"


def test_smoky_retrieval_miss_yields_subquery_failure():
    pipeline = fixture_pipeline("smoky_mountains", TEEN_QUESTION)
    result = pipeline.answer_question(TEEN_QUESTION)
    assert result.status == "execution_failed"
    assert result.exit_code == 3
    assert any(f.error_class.value == "NoMatch" for f in result.feedback)
    assert any("SubqueryFailure" in rec.diagnosis_classes for rec in result.history)


def test_dataops_repairs_seeded_corruption_but_off_fails():
    from plangen import seeded_corruptions

    for name, doc in seeded_corruptions().items():
        for dataops_on in (True, False):
            store = make_store("queensland")
            planner = ScriptedPlanner({QLD_QUESTION: doc})
            pipeline = Pipeline(
                store=store,
                config=PipelineConfig(dataops=dataops_on, audit=False),
                planner=planner,
            )
            result = pipeline.answer_question(QLD_QUESTION)
            if dataops_on:
                assert result.status == "ok", (name, result.messages)
                assert "Willowbank" in result.final_answer
                assert len(result.history) <= 2
            else:
                assert result.status == "unrecoverable", name
                assert result.exit_code == 4


def test_disabling_optional_stages_preserves_clean_answers():
    baseline = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    for overrides in ({"cache_enabled": False}, {"audit": False}, {"dataops": False}):
        result = olympics_pipeline(**overrides).answer_question(OLYMPICS_QUESTION)
        assert result.status == "ok"
        assert result.final_answer == baseline.final_answer


def test_pipeline_is_deterministic_across_fresh_instances():
    a = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    b = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    assert a.final_answer == b.final_answer
    assert a.status == b.status
    assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]


def test_lineage_file_written_and_traceable(tmp_path):
    lineage_path = tmp_path / "lineage.jsonl"
    pipeline = olympics_pipeline(lineage_path=str(lineage_path))
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "ok"
    records = read_lineage(lineage_path)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    closure = trace_answer(lineage_path, "$var_3")
    assert len(closure) == 3


def test_cache_lineage_record_on_hit(tmp_path):
    pipeline = olympics_pipeline()
    pipeline.answer_question(OLYMPICS_QUESTION)
    pipeline.config.lineage_path = str(tmp_path / "second.jsonl")
    pipeline.answer_question(OLYMPICS_QUESTION)
    records = read_lineage(tmp_path / "second.jsonl")
    assert records[0].kind == "cache"
    assert records[0].extra["strategy"] == "exact"


def test_events_streamed_through_callback():
    pipeline = olympics_pipeline()
    seen = []
    result = pipeline.answer_question(OLYMPICS_QUESTION, on_event=seen.append)
    assert [e.to_json() for e in seen] == [e.to_json() for e in result.events]
    assert seen[-1].kind.value == "PlanCompleted"


def test_cache_file_persists_across_pipelines(tmp_path):
    cache_file = tmp_path / "cache.json"
    first = olympics_pipeline(cache_file=str(cache_file))
    first.answer_question(OLYMPICS_QUESTION)
    second = olympics_pipeline(cache_file=str(cache_file))
    result = second.answer_question(OLYMPICS_QUESTION)
    assert second.planner_calls == 0
    assert result.cache_strategy == "exact"


@pytest.mark.parametrize("damage", ["truncated", "not_json"])
def test_unreadable_cache_file_starts_empty_with_a_warning(tmp_path, caplog, damage):
    cache_file = tmp_path / "cache.json"
    olympics_pipeline(cache_file=str(cache_file)).answer_question(OLYMPICS_QUESTION)
    text = cache_file.read_text()
    cache_file.write_text(text[: len(text) // 2] if damage == "truncated" else "not a cache")
    with caplog.at_level("WARNING", logger="adot.pipeline"):
        pipeline = olympics_pipeline(cache_file=str(cache_file))
    assert len(pipeline.cache) == 0
    assert "empty plan cache" in caplog.text
    assert pipeline.answer_question(OLYMPICS_QUESTION).status == "ok"
    assert len(olympics_pipeline(cache_file=str(cache_file)).cache) == 1


def test_config_precedence_file_env_overrides(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"tau": 0.7, "top_k": 3, "context_role": "file-role"}))
    env = {"ADOT_TAU": "0.9", "ADOT_POLICY_FLAGS": "pii,audit"}
    config = load_config(config_file, env=env, top_k=7)
    assert config.tau == 0.9  # env beats file
    assert config.top_k == 7  # override beats both
    assert config.context_role == "file-role"
    assert config.policy_flags == ("pii", "audit")


def test_config_range_validation():
    with pytest.raises(ValueError):
        PipelineConfig(tau=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        PipelineConfig(cache_capacity=0)


def test_concurrent_sessions_share_cache_safely():
    import threading

    pipeline = olympics_pipeline()
    results = []
    errors = []

    def session():
        try:
            results.append(pipeline.answer_question(OLYMPICS_QUESTION))
        except Exception as exc:  # noqa: BLE001 - surface any race
            errors.append(exc)

    threads = [threading.Thread(target=session) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert {r.final_answer for r in results} == {"Birth year of the athlete: 1920"}
    assert len(pipeline.cache) == 1


def test_adapter_crash_becomes_store_error_feedback():
    from adot.executor import FeedbackClass, execute_plan
    from adot.plan_ir import Tool
    from plangen import parse_doc

    def explode(rq):
        raise RuntimeError("boom")

    doc = {"subquestions": [{"question": "a?", "tool": "sql", "label": "$var_1",
                             "should_expose_answer": True, "answer_description": "d"}]}
    result = execute_plan(parse_doc(doc), adapters={Tool.STRUCTURED: explode, Tool.VECTOR: explode})
    assert result.feedback[0].error_class is FeedbackClass.STORE_ERROR
    assert "boom" in result.feedback[0].message


def test_semantic_cache_hit_end_to_end():
    pipeline = olympics_pipeline(tau=0.8)
    first = pipeline.answer_question(OLYMPICS_QUESTION)
    paraphrase = (
        "In the event that had 70 competitors from 39 countries, with 64 finishers, what year was the athlete born?"
    )
    second = pipeline.answer_question(paraphrase)
    assert second.cache_strategy == "semantic"
    assert second.final_answer == first.final_answer
    assert pipeline.planner_calls == 1


def test_runtime_fix_resumes_from_unexecuted_nodes():
    import dataclasses

    from adot.executor import make_default_adapters
    from adot.plan_ir import NodeStatus, Tool

    store = make_store("queensland")
    broken_doc = {
        "subquestions": [
            {"question": "Find the document_id of the club that won the Bathurst 12 Hour?",
             "tool": "milvus", "label": "$var_1", "should_expose_answer": False},
            {"question": "please dance with $var_1.document_id?", "tool": "iceberg", "label": "$var_2",
             "should_expose_answer": True, "answer_description": "Venue of the winning club"},
        ]
    }

    calls: dict[int, int] = {}
    base = make_default_adapters(store)

    def counting(tool):
        def run(rq):
            calls[rq.node_index] = calls.get(rq.node_index, 0) + 1
            return base[tool](rq)

        return run

    class FixNodeTwoReplanner:
        def replan(self, plan, schema, diagnoses):
            node2 = plan.node(2)
            fixed = dataclasses.replace(
                node2,
                question="What is the venue of the club with document_id in $var_1.document_id?",
                status=NodeStatus.PENDING,
                partial_result_columns=None,
            )
            return plan.with_node(fixed)

    pipeline = Pipeline(
        store=store,
        config=PipelineConfig(audit=False),
        planner=ScriptedPlanner({QLD_QUESTION: broken_doc}),
        replanner=FixNodeTwoReplanner(),
        adapters={t: counting(t) for t in (Tool.STRUCTURED, Tool.VECTOR)},
    )
    result = pipeline.answer_question(QLD_QUESTION)
    assert result.status == "ok"
    assert "Willowbank" in result.final_answer
    assert calls[1] == 1  # the executed vector node was not re-run
    assert calls[2] == 2  # failed once, re-ran after the replan
    assert any(rec.action_kind == "replan" for rec in result.history)
    # events accumulate across both execution passes
    kinds = [e.kind.value for e in result.events]
    assert kinds.count("PlanCompleted") == 2
    assert "NodeFailed" in kinds


def test_context_participates_in_cache_key():
    pipeline = olympics_pipeline()
    pipeline.answer_question(OLYMPICS_QUESTION)
    pipeline.config.context_role = "analyst"
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.cache_strategy is None  # different context -> miss -> replanned
    assert pipeline.planner_calls == 2
