from __future__ import annotations

import dataclasses
import json

import pytest

from adot.adapters import ScriptedPlanner
from adot.cache import normalize_query
from adot.pipeline import Pipeline, PipelineConfig, load_config
from adot.lineage import read_lineage, trace_answer
from adot.plan_ir import parse_plan
from adot.stores.vector import cosine
from conftest import FIXTURES, make_store

OLYMPICS_QUESTION = (
    "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
)
PARAPHRASE = (
    "In the event that had 70 competitors from 39 countries, with 64 finishers, what year was the athlete born?"
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


def dataops_records(result) -> list:
    return [r for r in result.lineage.records if r.kind == "dataops"]


def lineage_content(result) -> list[dict]:
    """The lineage records without the per-run fields."""
    out = []
    for record in result.lineage.records:
        obj = record.to_json()
        for volatile in ("seq", "wall_ms"):
            obj.pop(volatile, None)
        out.append(obj)
    return out


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
    assert any("SubqueryFailure" in rec.extra["diagnoses"] for rec in dataops_records(result))


def test_dataops_repairs_seeded_corruption_but_off_fails():
    from plangen import seeded_corruptions

    for name, doc in seeded_corruptions().items():
        for dataops_on in (True, False):
            store = make_store("queensland")
            planner = ScriptedPlanner({QLD_QUESTION: doc})
            pipeline = Pipeline(
                store=store,
                config=PipelineConfig(max_fix_iterations=3 if dataops_on else 0, audit=False),
                planner=planner,
            )
            result = pipeline.answer_question(QLD_QUESTION)
            if dataops_on:
                assert result.status == "ok", (name, result.messages)
                assert "Willowbank" in result.final_answer
                assert len(dataops_records(result)) <= 2
            else:
                assert result.status == "unrecoverable", name
                assert result.exit_code == 4


def test_disabling_optional_stages_preserves_clean_answers():
    baseline = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    for overrides in ({"cache_enabled": False}, {"audit": False}, {"max_fix_iterations": 0}):
        result = olympics_pipeline(**overrides).answer_question(OLYMPICS_QUESTION)
        assert result.status == "ok"
        assert result.final_answer == baseline.final_answer


def test_pipeline_is_deterministic_across_fresh_instances():
    a = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    b = olympics_pipeline().answer_question(OLYMPICS_QUESTION)
    assert a.final_answer == b.final_answer
    assert a.status == b.status
    assert lineage_content(a) == lineage_content(b)


def test_lineage_file_written_and_traceable(tmp_path):
    lineage_path = tmp_path / "lineage.jsonl"
    pipeline = olympics_pipeline(lineage_path=str(lineage_path))
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "ok"
    records = read_lineage(lineage_path)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    closure = trace_answer(lineage_path, "$var_3")
    assert len(closure) == 3


def test_lineage_file_holds_only_the_last_answer(tmp_path):
    lineage_path = tmp_path / "lineage.jsonl"
    pipeline = olympics_pipeline(lineage_path=str(lineage_path))
    pipeline.answer_question(OLYMPICS_QUESTION)
    second = pipeline.answer_question(OLYMPICS_QUESTION)
    assert second.cache_strategy == "exact"
    assert read_lineage(lineage_path) == list(second.lineage.records)


def test_cache_lineage_record_on_hit(tmp_path):
    pipeline = olympics_pipeline()
    pipeline.answer_question(OLYMPICS_QUESTION)
    pipeline.config.lineage_path = str(tmp_path / "second.jsonl")
    pipeline.answer_question(OLYMPICS_QUESTION)
    records = read_lineage(tmp_path / "second.jsonl")
    assert records[0].kind == "cache"
    assert records[0].extra["strategy"] == "exact"


def test_cache_lineage_record_names_the_reused_question_and_its_similarity(tmp_path):
    """A semantic hit's record is what a check after the hit reads: what was reused, and how close it was."""
    pipeline = olympics_pipeline(tau=0.8)
    pipeline.answer_question(OLYMPICS_QUESTION)
    pipeline.config.lineage_path = str(tmp_path / "hit.jsonl")
    near = OLYMPICS_QUESTION.replace("event", "race")
    assert pipeline.answer_question(near).cache_strategy == "semantic"
    record = read_lineage(tmp_path / "hit.jsonl")[0]
    assert record.kind == "cache" and record.extra["strategy"] == "semantic"
    assert record.extra["cached_query"] == normalize_query(OLYMPICS_QUESTION)
    embed = pipeline.cache.embedder.embed
    assert record.extra["similarity"] == cosine(embed(normalize_query(near)), embed(normalize_query(OLYMPICS_QUESTION)))
    assert 0.8 <= record.extra["similarity"] < 1.0
    assert record.extra["slots"] is None


def test_records_streamed_through_callback(tmp_path):
    """The stream is the lineage, in seq order, cache and dataops records included."""
    from plangen import seeded_corruptions

    store = make_store("queensland")
    config = PipelineConfig(audit=False, lineage_path=str(tmp_path / "l.jsonl"))
    pipeline = Pipeline(store=store, config=config)
    broken = parse_plan(json.dumps(seeded_corruptions()["BadLabelFormat"]))
    pipeline.cache.insert(QLD_QUESTION, store.signature, config.context, broken)
    seen = []
    result = pipeline.answer_question(QLD_QUESTION, on_record=seen.append)
    assert result.status == "ok" and result.cache_strategy == "exact"
    assert seen == list(result.lineage.records) == read_lineage(tmp_path / "l.jsonl")
    assert [r.seq for r in seen] == list(range(1, len(seen) + 1))
    assert [(r.kind, r.status) for r in seen] == [
        ("cache", "hit"), ("dataops", "fix"), ("node", "ok"), ("node", "ok"), ("final", "ok"),
    ]


WIDE_QUESTION = "Who were the Jamaican athletes, and who ran in the event that had 70 competitors from 39 countries?"
WIDE_PLAN = {"subquestions": [
    {"question": "Find the document_id of the event that had 70 competitors from 39 countries, with 64 finishers?",
     "tool": "milvus", "label": "$var_1", "should_expose_answer": False},
    {"question": "What is the athlete of the athlete with nation in 'Jamaica'?", "tool": "iceberg",
     "label": "$var_2", "should_expose_answer": True, "answer_description": "Jamaican athletes"},
    {"question": "What is the athlete of the athlete with event_document_id in $var_1.document_id?",
     "tool": "iceberg", "label": "$var_3", "should_expose_answer": True, "answer_description": "Athlete of the event"},
]}


def test_built_in_adapters_start_no_thread(monkeypatch):
    import threading

    from adot.executor import topological_waves

    def no_pool(*args, **kwargs):
        raise AssertionError("execute_plan created a thread pool")

    monkeypatch.setattr("adot.executor.ThreadPoolExecutor", no_pool)
    pipeline = Pipeline(store=make_store("olympics"), config=PipelineConfig(),
                        planner=ScriptedPlanner({WIDE_QUESTION: WIDE_PLAN}))
    assert topological_waves(parse_plan(json.dumps(WIDE_PLAN))) == [[1, 2], [3]]
    threads = threading.active_count()
    result = pipeline.answer_question(WIDE_QUESTION)
    assert result.status == "ok", result.messages
    assert result.final_answer == "Jamaican athletes: Arthur Wint, Herb McKenley\nAthlete of the event: Arthur Wint"
    assert threading.active_count() == threads


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


def test_unwritable_cache_file_keeps_the_answer_with_a_warning(tmp_path, caplog):
    cache_file = tmp_path / "missing" / "cache.json"
    pipeline = olympics_pipeline(cache_file=str(cache_file))
    with caplog.at_level("WARNING", logger="adot.pipeline"):
        result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "ok" and result.final_answer == "Birth year of the athlete: 1920"
    assert str(cache_file) in caplog.text
    assert len(pipeline.cache) == 1 and not cache_file.parent.exists()
    assert pipeline.answer_question(OLYMPICS_QUESTION).cache_strategy == "exact"


def test_config_capacity_and_tau_win_over_the_cache_file(tmp_path):
    cache_file = tmp_path / "cache.json"
    olympics_pipeline(cache_file=str(cache_file)).answer_question(OLYMPICS_QUESTION)
    pipeline = olympics_pipeline(cache_file=str(cache_file), tau=1.0, cache_capacity=4)
    assert (pipeline.cache.tau, pipeline.cache.capacity, len(pipeline.cache)) == (1.0, 4, 1)
    env = {"ADOT_TAU": "0.5", "ADOT_CACHE_CAPACITY": "2"}
    store = make_store("olympics")
    from_env = Pipeline(store, load_config(env=env, cache_file=str(cache_file)), planner=ScriptedPlanner({}))
    assert (from_env.cache.tau, from_env.cache.capacity) == (0.5, 2)


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
        PipelineConfig(max_fix_iterations=-1)
    with pytest.raises(ValueError):
        PipelineConfig(cache_capacity=0)


@pytest.mark.parametrize("key, value", [("policy_flags", "pii"), ("top_k", True), ("audit", "off"),
                                        ("tau", "abc"), ("store_dir", 3)])
def test_config_value_of_the_wrong_type_names_its_field(key, value):
    with pytest.raises(ValueError, match=f"^{key}: expected "):
        PipelineConfig(**{key: value})


def test_config_takes_an_int_for_a_float_and_a_list_for_a_tuple():
    config = PipelineConfig(tau=1, node_timeout=2, policy_flags=["pii", "audit"])
    assert (config.tau, config.node_timeout, config.policy_flags) == (1, 2, ("pii", "audit"))


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
    second = pipeline.answer_question(PARAPHRASE)
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
    assert any(rec.status == "replan" for rec in dataops_records(result))
    # records accumulate across both execution passes
    records = result.lineage.records
    assert sum(r.kind == "final" for r in records) == 2
    assert any(r.kind == "node" and r.status == "failed" for r in records)


def test_replan_that_rewords_an_executed_node_runs_it_again():
    """A reworded node loses its binding, so it must run again even though the replanner kept it executed."""
    import dataclasses

    store = make_store("queensland")
    broken_doc = {
        "subquestions": [
            {"question": "Find the document_id of the club that won the Bathurst 12 Hour?",
             "tool": "milvus", "label": "$var_1", "should_expose_answer": False},
            {"question": "please dance with $var_1.document_id?", "tool": "iceberg", "label": "$var_2",
             "should_expose_answer": True, "answer_description": "Venue of the winning club"},
        ]
    }

    class RewordingReplanner:
        def replan(self, plan, schema, diagnoses):
            node1 = plan.node(1)  # still executed
            plan = plan.with_node(dataclasses.replace(node1, question=node1.question + " "))
            return plan.with_node(dataclasses.replace(
                plan.node(2), question="What is the venue of the club with document_id in $var_1.document_id?"))

    pipeline = Pipeline(
        store=store,
        config=PipelineConfig(audit=False),
        planner=ScriptedPlanner({QLD_QUESTION: broken_doc}),
        replanner=RewordingReplanner(),
    )
    result = pipeline.answer_question(QLD_QUESTION)
    assert result.status == "ok", result.messages
    assert "Willowbank" in result.final_answer
    assert [r.status for r in dataops_records(result)] == ["replan"]
    assert sum(r.kind == "node" and r.node_index == 1 and r.status == "ok" for r in result.lineage.records) == 2


def test_context_participates_in_cache_key():
    pipeline = olympics_pipeline()
    pipeline.answer_question(OLYMPICS_QUESTION)
    pipeline.config.context_role = "analyst"
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.cache_strategy is None  # different context -> miss -> replanned
    assert pipeline.planner_calls == 2


def _unknown_column_plan() -> dict:
    doc = json.loads((FIXTURES / "queensland" / "plan.json").read_text())
    node = doc["subquestions"][1]
    node["question"] = node["question"].replace("document_id", "zzzzzzzz")
    return doc


class _SamePlanReplanner:
    """Always proposes the same still-invalid plan, so only the budget stops the loop."""

    def replan(self, plan, schema, diagnoses):
        return parse_plan(json.dumps(_unknown_column_plan()))


def _exit_ok():
    return olympics_pipeline().answer_question(OLYMPICS_QUESTION)


def _exit_no_plan_miss():
    return olympics_pipeline().answer_question("what is the meaning of life?")


def _exit_no_plan_no_planner():
    return Pipeline(store=make_store("olympics")).answer_question(OLYMPICS_QUESTION)


def _exit_unrecoverable_dataops_off():
    from plangen import seeded_corruptions

    planner = ScriptedPlanner({QLD_QUESTION: seeded_corruptions()["BadLabelFormat"]})
    config = PipelineConfig(max_fix_iterations=0, audit=False)
    return Pipeline(store=make_store("queensland"), config=config, planner=planner).answer_question(QLD_QUESTION)


def _exit_execution_failed_dataops_off():
    return fixture_pipeline("smoky_mountains", TEEN_QUESTION, max_fix_iterations=0).answer_question(TEEN_QUESTION)


def _exit_execution_failed_after_abort():
    return fixture_pipeline("smoky_mountains", TEEN_QUESTION).answer_question(TEEN_QUESTION)


def _exit_unrecoverable_budget():
    pipeline = Pipeline(
        store=make_store("queensland"),
        config=PipelineConfig(max_fix_iterations=2, audit=False),
        planner=ScriptedPlanner({QLD_QUESTION: _unknown_column_plan()}),
        replanner=_SamePlanReplanner(),
    )
    return pipeline.answer_question(QLD_QUESTION)


ABORT_MESSAGE = "no applicable fix and the replanner offered no plan"
BUDGET_MESSAGE = "remediation budget of 2 iterations exhausted"

PINNED_EXITS = {
    "ok": (_exit_ok, dict(
        status="ok", final_answer="Birth year of the athlete: 1920",
        answers=(("Birth year of the athlete", "1920"),),
        partial_answers=[("$var_3", "Birth year of the athlete", "1920")],
        feedback=[], history=[], messages=(), plan=True,
        lineage=[("node", "ok"), ("node", "ok"), ("node", "ok"), ("final", "ok")],
    )),
    "no_plan_miss": (_exit_no_plan_miss, dict(
        status="no_plan", final_answer=None, answers=(), partial_answers=[], feedback=[], history=[],
        messages=("no plan available for this question",), plan=False, lineage=[],
    )),
    "no_plan_no_planner": (_exit_no_plan_no_planner, dict(
        status="no_plan", final_answer=None, answers=(), partial_answers=[], feedback=[], history=[],
        messages=("no planner configured",), plan=False, lineage=[],
    )),
    "unrecoverable_dataops_off": (_exit_unrecoverable_dataops_off, dict(
        status="unrecoverable", final_answer=None, answers=(), partial_answers=[], feedback=["BadLabel"],
        history=[], messages=("node 1: label '$v1' must be '$var_1'",), plan=True, lineage=[],
    )),
    "execution_failed_dataops_off": (_exit_execution_failed_dataops_off, dict(
        status="execution_failed", final_answer=None, answers=(), partial_answers=[],
        feedback=["NoMatch"], history=[], messages=("no chunk matches the question",), plan=True,
        lineage=[("node", "failed"), ("node", "skipped"), ("final", "failed")],
    )),
    "execution_failed_after_abort": (_exit_execution_failed_after_abort, dict(
        status="execution_failed", final_answer=None, answers=(), partial_answers=[],
        feedback=["NoMatch"], history=[("abort", ("SubqueryFailure",), (ABORT_MESSAGE,))],
        messages=(ABORT_MESSAGE,), plan=True,
        lineage=[("node", "failed"), ("node", "skipped"), ("final", "failed"), ("dataops", "abort")],
    )),
    "unrecoverable_budget": (_exit_unrecoverable_budget, dict(
        status="unrecoverable", final_answer=None, answers=(), partial_answers=[], feedback=["UnknownColumn"],
        history=[
            ("replan", ("SchemaDrift",), ("replanned",)),
            ("replan", ("SchemaDrift",), ("replanned",)),
            ("abort", ("SchemaDrift",), (BUDGET_MESSAGE,)),
        ],
        messages=(BUDGET_MESSAGE,), plan=True,
        lineage=[("dataops", "replan"), ("dataops", "replan"), ("dataops", "abort")],
    )),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXITS))
def test_every_exit_keeps_its_result_fields(name):
    run, expected = PINNED_EXITS[name]
    result = run()
    assert dict(
        status=result.status,
        final_answer=result.final_answer,
        answers=result.answers,
        partial_answers=[
            (r.label, r.extra["answer_description"], r.output_summary["answer_value_sample"])
            for r in result.lineage.records if r.kind == "node" and "answer_description" in r.extra
        ],
        feedback=[getattr(f, "code", None) or f.error_class for f in result.feedback],
        history=[(r.status, tuple(r.extra["diagnoses"]), tuple(r.extra["messages"]))
                 for r in dataops_records(result)],
        messages=result.messages,
        plan=result.plan is not None,
        lineage=[(r.kind, r.status) for r in result.lineage.records],
    ) == expected
    assert result.cache_strategy is None and result.lineage.path is None


@pytest.fixture
def opened_logs(monkeypatch):
    """Every LineageLog that ``answer_question`` opens, in order."""
    import adot.pipeline as pipeline_module
    from adot.lineage import LineageLog

    opened = []

    class RecordingLog(LineageLog):
        def __init__(self, path=None, on_record=None):
            super().__init__(path, on_record)
            opened.append(self)

    monkeypatch.setattr(pipeline_module, "LineageLog", RecordingLog)
    return opened


def test_lineage_file_closed_when_the_planner_raises(tmp_path, opened_logs):
    class FailingPlanner:
        def generate(self, question):
            raise RuntimeError("planner crashed")

    pipeline = Pipeline(
        store=make_store("olympics"),
        config=PipelineConfig(lineage_path=str(tmp_path / "l.jsonl")),
        planner=FailingPlanner(),
    )
    with pytest.raises(RuntimeError):
        pipeline.answer_question("q")
    (log,) = opened_logs
    assert log._fh is None


def test_unavailable_auditor_is_unrecoverable_with_no_repair_or_cache_insert(tmp_path, opened_logs):
    from adot.validator import AuditorUnavailable

    class DownAuditor:
        def audit(self, plan, query, schema):
            raise AuditorUnavailable("endpoint unreachable")

    pipeline = Pipeline(
        store=make_store("olympics"),
        config=PipelineConfig(lineage_path=str(tmp_path / "l.jsonl")),
        planner=ScriptedPlanner.from_file(FIXTURES / "olympics" / "script.json"),
        auditor=DownAuditor(),
    )
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "unrecoverable" and result.exit_code == 4
    assert result.messages == ("auditor unavailable: endpoint unreachable",)
    assert result.lineage.records == []
    assert pipeline.cache.stats.insertions == 0
    (log,) = opened_logs
    assert log._fh is None


def test_failing_auditor_is_unrecoverable_with_no_repair_or_cache_insert(tmp_path, opened_logs):
    class BrokenAuditor:
        def audit(self, plan, query, schema):
            raise KeyError("schema")

    pipeline = Pipeline(
        store=make_store("olympics"),
        config=PipelineConfig(lineage_path=str(tmp_path / "l.jsonl")),
        planner=ScriptedPlanner.from_file(FIXTURES / "olympics" / "script.json"),
        auditor=BrokenAuditor(),
    )
    result = pipeline.answer_question(OLYMPICS_QUESTION)
    assert result.status == "unrecoverable" and result.exit_code == 4
    assert result.messages == ("auditor failed: KeyError: 'schema'",)
    assert result.lineage.records == []
    assert pipeline.cache.stats.insertions == 0
    (log,) = opened_logs
    assert log._fh is None


ENV_SAMPLES = {
    "store_dir": ("/data/store", "/data/store"),
    "cache_capacity": ("7", 7),
    "tau": ("0.5", 0.5),
    "top_k": ("3", 3),
    "max_fix_iterations": ("1", 1),
    "node_timeout": ("1.5", 1.5),
    "planner": ("scripted:script.json", "scripted:script.json"),
    "replanner": ("external:cat", "external:cat"),
    "context_role": ("analyst", "analyst"),
    "policy_flags": ("pii,audit", ("pii", "audit")),
    "audit": ("0", False),
    "cache_enabled": ("no", False),
    "cache_file": ("cache.json", "cache.json"),
    "lineage_path": ("lineage.jsonl", "lineage.jsonl"),
}


@pytest.mark.parametrize("f", dataclasses.fields(PipelineConfig), ids=lambda f: f.name)
def test_every_config_field_round_trips_through_env(f):
    raw, expected = ENV_SAMPLES[f.name]
    config = load_config(env={f"ADOT_{f.name.upper()}": raw})
    assert getattr(config, f.name) == expected


def test_env_bad_value_names_the_variable():
    for key, raw in (("ADOT_TOP_K", "abc"), ("ADOT_TAU", "high"), ("ADOT_AUDIT", "maybe")):
        with pytest.raises(ValueError, match=key):
            load_config(env={key: raw})
    assert load_config(env={"ADOT_AUDIT": "ON"}).audit is True


def test_env_variable_that_names_no_config_field_is_an_error():
    for env in ({"ADOT_MAX_PARALLEL": "2"}, {"ADOT_TOPK": "3", "ADOT_TOP_K": "3"}):
        with pytest.raises(ValueError, match=f"unknown ADOT_\\* variable\\(s\\): {next(iter(env))}$"):
            load_config(env=env)
    assert load_config(env={"ADOTX": "1", "PATH": "/bin"}).top_k == PipelineConfig().top_k
