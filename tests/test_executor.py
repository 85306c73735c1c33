from __future__ import annotations

import json
import threading
import time
from random import Random

import pytest

from adot.adapters import AdapterOutcome
from adot.executor import (
    Binding,
    CycleDetectedError,
    ExecutionFeedback,
    FeedbackClass,
    MissingKeyError,
    NoExposedResultsError,
    UnboundVariableError,
    execute_plan,
    make_default_adapters,
    resolve_question,
    slim_binding,
    synthesize_answer,
    topological_waves,
)
from adot.lineage import LineageLog
from adot.plan_ir import NodeStatus, Tool
from adot.stores.ingest import build_store
from adot.stores.relational import ResultSet, RowRef
from plangen import parse_doc, random_valid_plan_doc, simulated_adapters

DIAMOND_DOC = {
    "subquestions": [
        {"question": "root?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "left uses $var_1.val?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
        {"question": "right uses $var_1.val?", "tool": "vector", "label": "$var_3", "should_expose_answer": False},
        {"question": "join $var_2.val and $var_3.val?", "tool": "sql", "label": "$var_4",
         "should_expose_answer": True, "answer_description": "joined"},
    ]
}


def rs(rows, columns=("val", "document_id"), table="t"):
    return ResultSet(
        columns=columns,
        rows=tuple(tuple(r) for r in rows),
        provenance=tuple((RowRef(table, i),) for i in range(len(rows))),
    )


# --- topological waves ---------------------------------------------------------


def test_waves_chain(olympics_plan):
    assert topological_waves(olympics_plan) == [[1], [2], [3]]


def test_waves_diamond():
    assert topological_waves(parse_doc(DIAMOND_DOC)) == [[1], [2, 3], [4]]


def test_waves_independent_nodes():
    doc = {"subquestions": [
        {"question": "a?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
        {"question": "b?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
        {"question": "c?", "tool": "sql", "label": "$var_3", "should_expose_answer": False},
    ]}
    assert topological_waves(parse_doc(doc)) == [[1, 2, 3]]


def test_waves_exclude_executed_nodes():
    doc = {"subquestions": [
        {"question": "a?", "tool": "sql", "label": "$var_1", "should_expose_answer": False, "status": "executed",
         "partial_result_columns": ["val"]},
        {"question": "b uses $var_1.val?", "tool": "sql", "label": "$var_2", "should_expose_answer": True,
         "answer_description": "d"},
    ]}
    assert topological_waves(parse_doc(doc)) == [[2]]


def test_waves_cycle_defensive_error():
    doc = {"subquestions": [
        {"question": "a uses $var_2?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
        {"question": "b uses $var_1?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
    ]}
    with pytest.raises(CycleDetectedError):
        topological_waves(parse_doc(doc))


# --- slimming -------------------------------------------------------------------


def test_slim_dedup_and_projection():
    result = rs([(3, "a"), (7, "b"), (3, "c")], columns=("document_id", "body"))
    view = slim_binding(result, {"document_id"})
    assert view == {"document_id": (3, 7)}


def test_slim_missing_key():
    with pytest.raises(MissingKeyError):
        slim_binding(rs([(1, 2)]), {"nope"})


def test_slim_empty_required_keys_rejected():
    with pytest.raises(ValueError):
        slim_binding(rs([(1, 2)]), set())


def test_slim_large_result_payload_reduction():
    rows = [(f"row-{i}", "x" * 40, i % 12) for i in range(100_000)]
    result = ResultSet(
        columns=("name", "body_text", "document_id"),
        rows=tuple(rows),
        provenance=tuple((RowRef("big", i),) for i in range(len(rows))),
    )
    view = slim_binding(result, {"document_id"})
    assert len(view["document_id"]) == 12
    slim_size = len(json.dumps({k: list(v) for k, v in view.items()}))
    full_size = len(json.dumps({"columns": list(result.columns), "rows": [list(r) for r in result.rows]}))
    assert slim_size < 0.05 * full_size


# --- resolve_question -----------------------------------------------------------


def binding(view, answer=None):
    return Binding(slim_view=view, answer_value=answer)


def test_resolve_inline_single_value():
    doc = {"subquestions": [
        {"question": "x?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "What is the venue of the club with document_id in $var_1.document_id?",
         "tool": "sql", "label": "$var_2", "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    rq = resolve_question(plan.node(2), {"$var_1": binding({"document_id": (7,)})})
    assert rq.question_resolved == "What is the venue of the club with document_id in 7?"
    assert rq.bindings_in == {"$var_1": {"document_id": [7]}}


def test_resolve_quotes_text_values():
    doc = {"subquestions": [
        {"question": "x?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "lookup names in $var_1.name?", "tool": "sql", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    rq = resolve_question(plan.node(2), {"$var_1": binding({"name": ("ann", "bo")})})
    assert rq.question_resolved == "lookup names in 'ann', 'bo'?"


def test_resolve_without_refs_is_unchanged(queensland_plan):
    rq = resolve_question(queensland_plan.node(1), {})
    assert rq.question_resolved == queensland_plan.node(1).question


def test_resolve_bare_ref_uses_answer_value():
    doc = {"subquestions": [
        {"question": "x?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "refine $var_1 please?", "tool": "vector", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    rq = resolve_question(plan.node(2), {"$var_1": binding({"val": (5,)}, answer="the answer")})
    assert rq.question_resolved == "refine the answer please?"


def test_resolve_unbound_variable():
    doc = {"subquestions": [
        {"question": "uses $var_1.val?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
    ]}
    with pytest.raises(UnboundVariableError):
        resolve_question(parse_doc(doc).node(1), {})


def test_resolve_symbolic_beyond_threshold_and_adapter_equivalence(invoices_store):
    from adot.adapters import run_structured_adapter

    values = tuple(range(1, 151))  # 150 distinct ids, inline limit is 100
    doc = {"subquestions": [
        {"question": "x?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "What is the receiver of the invoice with invoice_id in $var_1.invoice_id?",
         "tool": "sql", "label": "$var_2", "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    big = resolve_question(plan.node(2), {"$var_1": binding({"invoice_id": values})})
    assert "$var_1.invoice_id" in big.question_resolved
    assert big.bindings_in["$var_1"]["invoice_id"] == list(values)

    small_values = (1, 2, 3, 4)
    small = resolve_question(plan.node(2), {"$var_1": binding({"invoice_id": small_values})})
    assert "in 1, 2, 3, 4?" in small.question_resolved

    big_outcome = run_structured_adapter(big, invoices_store)
    small_outcome = run_structured_adapter(small, invoices_store)
    assert set(big_outcome.result.rows) == set(small_outcome.result.rows)


def test_resolve_empty_value_list_stays_symbolic():
    doc = {"subquestions": [
        {"question": "x?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "filter on $var_1.document_id?", "tool": "sql", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    rq = resolve_question(plan.node(2), {"$var_1": binding({"document_id": ()})})
    assert "$var_1.document_id" in rq.question_resolved
    assert rq.bindings_in["$var_1"]["document_id"] == []


# --- execute_plan ----------------------------------------------------------------


def test_execute_golden_path(olympics_plan, olympics_store):
    result = execute_plan(olympics_plan, olympics_store)
    assert result.ok
    assert result.final_answer == "Birth year of the athlete: 1920"
    assert [sq.status for sq in result.plan_after.subquestions] == [NodeStatus.EXECUTED] * 3
    assert result.plan_after.node(2).partial_result_columns == ("document_id",)


def test_execute_single_failing_node_yields_feedback():
    from conftest import make_store

    doc = {"subquestions": [
        {"question": "please dance", "tool": "sql", "label": "$var_1",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    store = make_store("queensland")
    result = execute_plan(plan, store)
    assert not result.ok
    assert result.answers == ()
    assert result.final_answer is None
    assert result.feedback[0].node_index == 1
    assert result.feedback[0].error_class is FeedbackClass.TRANSLATION_FAILED


def test_execute_failure_skips_dependents_and_keeps_siblings(smoky_store, smoky_plan):
    result = execute_plan(smoky_plan, smoky_store)
    assert result.skipped == (2,)
    assert result.feedback[0].error_class is FeedbackClass.NO_MATCH
    statuses = {sq.index: sq.status for sq in result.plan_after.subquestions}
    assert statuses[1] is NodeStatus.FAILED
    assert statuses[2] is NodeStatus.PENDING
    failed, skipped = (r for r in result.lineage.records if r.kind == "node")
    assert (failed.node_index, failed.status) == (1, "failed")
    assert (skipped.node_index, skipped.status) == (2, "skipped")
    assert failed.seq < skipped.seq
    assert skipped.wall_ms is None  # a skipped node never ran


def test_failure_isolation_sibling_branch_unaffected():
    doc = {"subquestions": [
        {"question": "left root?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "right root?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
        {"question": "left child uses $var_1.val?", "tool": "sql", "label": "$var_3",
         "should_expose_answer": True, "answer_description": "left"},
        {"question": "right child uses $var_2.val?", "tool": "sql", "label": "$var_4",
         "should_expose_answer": True, "answer_description": "right"},
    ]}
    plan = parse_doc(doc)
    clean = execute_plan(plan, adapters=simulated_adapters())
    broken = execute_plan(plan, adapters=simulated_adapters(fail_nodes=frozenset({1})))
    assert not broken.ok and broken.skipped == (3,)
    assert broken.bindings["$var_4"].answer_value == clean.bindings["$var_4"].answer_value
    assert ("right", clean.bindings["$var_4"].answer_value) in broken.answers


def test_execute_timeout_feedback():
    doc = {"subquestions": [
        {"question": "slow?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
    ]}
    plan = parse_doc(doc)
    result = execute_plan(
        plan,
        adapters=simulated_adapters(delay=0.5),
        node_timeout=0.05,
    )
    assert result.feedback[0].error_class is FeedbackClass.TIMEOUT


def _raising_adapters():
    def run(rq):
        raise RuntimeError("adapter bug")

    return {Tool.STRUCTURED: run, Tool.VECTOR: run}


ONE_NODE_DOC = {"subquestions": [
    {"question": "q?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
]}
UNBOUND_DOC = {"subquestions": [  # node 1 counts as executed, but no binding is passed in
    {"question": "a?", "tool": "sql", "label": "$var_1", "should_expose_answer": False,
     "status": "executed", "partial_result_columns": ["val"]},
    {"question": "q uses $var_1.val?", "tool": "sql", "label": "$var_2",
     "should_expose_answer": True, "answer_description": "d"},
]}
VECTOR_DOC = {"subquestions": [
    {"question": "q?", "tool": "vector", "label": "$var_1", "should_expose_answer": True, "answer_description": "d"},
]}


@pytest.mark.parametrize("doc, adapters, node_timeout, low_ms, klass, infrastructure, resolved", [
    (ONE_NODE_DOC, simulated_adapters(delay=0.3), 0.05, 40.0, FeedbackClass.TIMEOUT, False, None),
    (ONE_NODE_DOC, simulated_adapters(fail_nodes=frozenset({1})), 30.0, 0.0, FeedbackClass.NO_MATCH, False, "q?"),
    (ONE_NODE_DOC, _raising_adapters(), 30.0, 0.0, FeedbackClass.STORE_ERROR, False, "q?"),
    (UNBOUND_DOC, simulated_adapters(), 30.0, 0.0, FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME, False, None),
    (VECTOR_DOC, make_default_adapters(build_store([], [])[0]), 30.0, 0.0, FeedbackClass.STORE_ERROR, True, "q?"),
], ids=["timeout", "adapter_error", "adapter_raised", "unbound_variable", "empty_index"])
def test_failed_node_wall_ms_is_a_duration(doc, adapters, node_timeout, low_ms, klass, infrastructure, resolved):
    result = execute_plan(parse_doc(doc), adapters=adapters, node_timeout=node_timeout)
    (feedback,) = result.feedback
    assert feedback.error_class is klass
    assert feedback.infrastructure is infrastructure
    (record,) = [r for r in result.lineage.records if r.kind == "node"]
    assert (record.status, record.error_class) == ("failed", klass.value)
    assert record.question_resolved == resolved  # None when resolution failed or never finished
    assert low_ms <= record.wall_ms < 10_000.0


def test_adapter_feedback_is_recorded_with_its_node_index():
    """An adapter's ExecutionFeedback carries no node index; the executor adds it."""
    error = ExecutionFeedback(FeedbackClass.NO_MATCH, "nothing here")
    adapter = lambda rq: AdapterOutcome(error=error)
    result = execute_plan(parse_doc(ONE_NODE_DOC), adapters={Tool.STRUCTURED: adapter, Tool.VECTOR: adapter})
    assert error.node_index is None
    assert result.feedback == (ExecutionFeedback(FeedbackClass.NO_MATCH, "nothing here", node_index=1),)
    assert result.plan_after.node(1).status is NodeStatus.FAILED


def test_node_failed_in_an_earlier_pass_and_now_skipped_counts_as_skipped():
    doc = {"subquestions": [
        {"question": "a?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "b $var_1.val?", "tool": "sql", "label": "$var_2", "should_expose_answer": True,
         "answer_description": "d", "status": "failed"},
    ]}
    result = execute_plan(parse_doc(doc), adapters=simulated_adapters(fail_nodes=frozenset({1})))
    assert [f.node_index for f in result.feedback] == [1]
    assert result.skipped == (2,)
    assert result.plan_after.node(2).status is NodeStatus.PENDING
    final = result.lineage.records[-1]
    assert (final.output_summary["failed_nodes"], final.output_summary["skipped_nodes"]) == ([1], [2])


def test_node_timeout_bounds_wall_time():
    release = threading.Event()

    def stuck(rq):
        release.wait(2.0)
        return AdapterOutcome(result=rs([(1, 1)]), answer_value=1)

    start = time.perf_counter()
    try:
        result = execute_plan(parse_doc(ONE_NODE_DOC), adapters={Tool.STRUCTURED: stuck, Tool.VECTOR: stuck},
                              node_timeout=0.2)
        wall = time.perf_counter() - start
    finally:
        release.set()
    assert result.feedback[0].error_class is FeedbackClass.TIMEOUT
    assert wall < 1.0, f"execute_plan waited {wall:.2f}s for a node that timed out after 0.2s"


def test_node_queued_behind_a_timed_out_node_is_skipped_not_timed_out(monkeypatch):
    monkeypatch.setattr("adot.executor.MAX_PARALLEL_CAP", 1)  # a one-worker pool: node 2 queues behind node 1
    doc = {"subquestions": [
        {"question": "stuck?", "tool": "sql", "label": "$var_1", "should_expose_answer": True, "answer_description": "a"},
        {"question": "queued?", "tool": "sql", "label": "$var_2", "should_expose_answer": True, "answer_description": "b"},
    ]}
    release = threading.Event()
    called = []

    def adapter(rq):
        called.append(rq.question_resolved)
        if rq.question_resolved == "stuck?":
            release.wait(5.0)
        return AdapterOutcome(result=rs([(1, 1)]), answer_value=1)

    try:
        result = execute_plan(parse_doc(doc), adapters={Tool.STRUCTURED: adapter, Tool.VECTOR: adapter},
                              node_timeout=0.2)
    finally:
        release.set()
    assert [(f.node_index, f.error_class) for f in result.feedback] == [(1, FeedbackClass.TIMEOUT)]
    assert result.skipped == (2,)
    (record,) = [r for r in result.lineage.records if r.kind == "node" and r.node_index == 2]
    assert record.status == "skipped"
    assert record.extra == {"reason": "not started: an earlier node of its wave timed out"}
    assert called == ["stuck?"]


def test_a_worker_abandoned_in_one_wave_leaves_the_next_wave_a_thread(monkeypatch):
    monkeypatch.setattr("adot.executor.MAX_PARALLEL_CAP", 1)
    doc = {"subquestions": [
        {"question": "fast?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "stuck?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
        {"question": "next uses $var_1.val?", "tool": "sql", "label": "$var_3",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    release = threading.Event()

    def adapter(rq):
        if rq.question_resolved == "stuck?":
            release.wait(5.0)
        return AdapterOutcome(result=rs([(1, 1)]), answer_value=1)

    start = time.perf_counter()
    try:
        result = execute_plan(parse_doc(doc), adapters={Tool.STRUCTURED: adapter, Tool.VECTOR: adapter},
                              node_timeout=0.3)
        wall = time.perf_counter() - start
    finally:
        release.set()
    assert [(f.node_index, f.error_class) for f in result.feedback] == [(2, FeedbackClass.TIMEOUT)]
    statuses = {r.node_index: r.status for r in result.lineage.records if r.kind == "node"}
    assert statuses == {1: "ok", 2: "failed", 3: "ok"}
    assert result.final_answer == "d: 1"
    assert wall < 0.6, f"took {wall:.2f}s with node_timeout 0.3s"


def test_a_pooled_wave_shares_one_deadline():
    doc = {"subquestions": [
        {"question": f"stuck {i}?", "tool": "sql", "label": f"$var_{i}", "should_expose_answer": True,
         "answer_description": str(i)}
        for i in (1, 2, 3)
    ]}
    release = threading.Event()

    def stuck(rq):
        release.wait(5.0)
        return AdapterOutcome(result=rs([(1, 1)]), answer_value=1)

    start = time.perf_counter()
    try:
        result = execute_plan(parse_doc(doc), adapters={Tool.STRUCTURED: stuck, Tool.VECTOR: stuck},
                              node_timeout=0.3)
        wall = time.perf_counter() - start
    finally:
        release.set()
    assert [(f.node_index, f.error_class) for f in result.feedback] == [(i, FeedbackClass.TIMEOUT) for i in (1, 2, 3)]
    assert not result.bindings
    assert wall < 0.6, f"a wave of three stuck nodes took {wall:.2f}s with node_timeout 0.3s"


def _unmarked(adapters):
    """The adapters, each wrapped without the mark, so its nodes run on the pool."""
    return {tool: (lambda rq, fn=fn: fn(rq)) for tool, fn in adapters.items()}


def _marked(adapters):
    """The adapters, each wrapped and marked to run on the coordinating thread."""
    marked = _unmarked(adapters)
    for fn in marked.values():
        fn.in_process = True
    return marked


def test_in_process_node_that_overran_fails_as_timeout_after_it_returns():
    doc = {"subquestions": [
        {"question": "slow?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
        {"question": "next uses $var_1.val?", "tool": "sql", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    result = execute_plan(parse_doc(doc), adapters=_marked(simulated_adapters(delay=0.2)), node_timeout=0.1)
    assert [(f.node_index, f.error_class) for f in result.feedback] == [(1, FeedbackClass.TIMEOUT)]
    assert not result.bindings
    assert result.skipped == (2,)
    (record,) = [r for r in result.lineage.records if r.kind == "node" and r.node_index == 1]
    assert (record.status, record.error_class) == ("failed", "Timeout")
    assert record.wall_ms >= 100.0


def test_inline_pooled_and_mixed_runs_write_the_same_lineage(olympics_store, olympics_plan):
    from test_pipeline import lineage_content

    for plan, built_in in [(olympics_plan, make_default_adapters(olympics_store)),
                           (parse_doc(DIAMOND_DOC), _marked(simulated_adapters()))]:
        pooled = _unmarked(built_in)
        mixed = {Tool.STRUCTURED: built_in[Tool.STRUCTURED], Tool.VECTOR: pooled[Tool.VECTOR]}
        runs = [
            execute_plan(plan, adapters=built_in),
            execute_plan(plan, adapters=pooled),
            execute_plan(plan, adapters=mixed),
        ]
        assert runs[0].ok
        contents = [lineage_content(run) for run in runs]
        assert all(content == contents[0] for content in contents[1:])
        node_order = [r.node_index for r in runs[2].lineage.records if r.kind == "node"]
        assert node_order == sorted(node_order) == [sq.index for sq in plan.subquestions]


def test_record_ordering_properties():
    from adot.plan_ir import build_dependency_graph

    rng = Random(31)
    for _ in range(50):
        doc = random_valid_plan_doc(rng, max_nodes=6)
        plan = parse_doc(doc)
        seen = []
        result = execute_plan(plan, adapters=simulated_adapters(), lineage=LineageLog(on_record=seen.append))
        assert seen == list(result.lineage.records)
        assert [r.seq for r in seen] == list(range(1, len(seen) + 1))
        assert [r.kind for r in seen] == ["node"] * len(plan.subquestions) + ["final"]
        position = {r.node_index: i for i, r in enumerate(seen) if r.kind == "node"}
        graph = build_dependency_graph(plan)
        for u, deps in graph.items():
            for v in deps:
                assert position[v] < position[u]
        exposing = {sq.index for sq in plan.subquestions if sq.exposes}
        assert {r.node_index for r in seen if "answer_description" in r.extra} == exposing
        wave_of = {i: w for w, wave in enumerate(topological_waves(plan)) for i in wave}
        for e in exposing:
            assert all(position[e] < position[j] for j in position if wave_of[j] > wave_of[e])


def test_partial_answer_streamed_before_later_waves(olympics_store, fixtures_dir):
    doc = json.loads((fixtures_dir / "olympics" / "plan.json").read_text())
    doc["subquestions"][0]["should_expose_answer"] = True
    doc["subquestions"][0]["answer_description"] = "Event document id"
    plan = parse_doc(doc)
    assert topological_waves(plan) == [[1], [2], [3]]
    seen = []
    execute_plan(plan, olympics_store, lineage=LineageLog(on_record=seen.append))
    first_partial = next(i for i, r in enumerate(seen) if "answer_description" in r.extra)
    assert seen[first_partial].extra["answer_description"] == "Event document id"
    assert seen[first_partial].output_summary["answer_value_sample"]
    later_waves = [i for i, r in enumerate(seen) if r.kind == "node" and r.node_index in (2, 3)]
    assert first_partial < min(later_waves)


def test_resume_with_missing_binding_yields_feedback():
    doc = {"subquestions": [
        {"question": "a?", "tool": "sql", "label": "$var_1", "should_expose_answer": False,
         "status": "executed", "partial_result_columns": ["val"]},
        {"question": "b uses $var_1.val?", "tool": "sql", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "d"},
    ]}
    result = execute_plan(parse_doc(doc), adapters=simulated_adapters(), initial_bindings={})
    assert result.feedback[0].error_class is FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME


def test_default_parallelism_caps_wide_waves():
    doc = {"subquestions": [
        {"question": f"op {i}?", "tool": "sql", "label": f"$var_{i}",
         "should_expose_answer": i == 1, **({"answer_description": "d"} if i == 1 else {})}
        for i in range(1, 11)
    ]}
    result = execute_plan(parse_doc(doc), adapters=simulated_adapters())
    assert result.ok and len(result.bindings) == 10


def test_resume_with_initial_bindings(olympics_store, olympics_plan):
    first = execute_plan(olympics_plan, olympics_store)
    plan_after = first.plan_after
    # mark node 3 pending again and re-run only it, reusing bindings of 1..2
    import dataclasses

    node3 = dataclasses.replace(plan_after.node(3), status=NodeStatus.PENDING, partial_result_columns=None)
    resumed_plan = plan_after.with_node(node3)
    bindings = {k: v for k, v in first.bindings.items() if k != "$var_3"}
    second = execute_plan(resumed_plan, olympics_store, initial_bindings=bindings)
    assert topological_waves(resumed_plan) == [[3]]
    assert second.final_answer == first.final_answer


def test_multi_chunk_document_resolves_to_the_right_chunk():
    from adot.stores.ingest import build_store
    from adot.stores.relational import Table
    from adot.stores.schema import Column, TableSchema

    long_text = (
        "The harbor festival committee met through the spring to plan logistics. " * 8
        + "The regatta trophy was awarded to the Kestrel sailing crew after a tight final. "
        + "Afterwards the committee reviewed vendor feedback for the closing ceremony. " * 6
    )
    tables = [
        Table(
            schema=TableSchema("races", (Column("document_id", "int"), Column("winner", "text"))),
            rows=[(31, "Kestrel")],
        )
    ]
    store, report = build_store(tables, [(31, long_text)])
    assert report.chunks >= 2
    doc = {"subquestions": [
        {"question": "Find the document_id of the regatta trophy awarded to the sailing crew?",
         "tool": "milvus", "label": "$var_1", "should_expose_answer": False},
        {"question": "What is the winner of the race with document_id in $var_1.document_id?",
         "tool": "iceberg", "label": "$var_2", "should_expose_answer": True,
         "answer_description": "Winner of the regatta"},
    ]}
    result = execute_plan(parse_doc(doc), store)
    assert result.final_answer == "Winner of the regatta: Kestrel"
    vec_record = next(r for r in result.lineage.records if r.kind == "node" and r.tool == "milvus")
    # provenance names the specific chunk holding the sentence, not just the doc
    assert [r.to_json() for r in vec_record.provenance_refs] == [{"document_id": 31, "chunk_id": 1}]


def test_group_by_escape_hatch_through_a_plan(invoices_store):
    doc = {"subquestions": [
        {"question": "run `select state, avg(total_amount) from invoices group by state`",
         "tool": "iceberg", "label": "$var_1", "should_expose_answer": True,
         "answer_description": "Average amount by state"},
    ]}
    result = execute_plan(parse_doc(doc), invoices_store)
    assert result.ok
    assert "texas" in result.final_answer and "160.25" in result.final_answer


@pytest.mark.parametrize("second", [
    "What is the points of matches with player in $var_1.full_name?",
    "Points: `select points from matches where player in [$var_1.full_name]`",
])
def test_text_keys_with_quote_and_comma_reach_the_filter_typed(second):
    from adot.stores.ingest import build_store
    from adot.stores.relational import Table
    from adot.stores.schema import Column, TableSchema

    members = Table(
        TableSchema("members", (Column("member_id", "int"), Column("full_name", "text"), Column("club", "text"))),
        rows=[(1, "Dan O'Brien", "reds"), (2, "Al Smith, Jr.", "reds"), (3, "Bo Lee", "blues")],
    )
    matches = Table(
        TableSchema("matches", (Column("match_id", "int"), Column("player", "text"), Column("points", "int"))),
        rows=[(10, "Dan O'Brien", 7), (11, "Bo Lee", 3), (12, "Al Smith, Jr.", 9)],
    )
    store, _ = build_store([members, matches], [])
    doc = {"subquestions": [
        {"question": "What is the full_name of members with club in 'reds'?", "tool": "iceberg",
         "label": "$var_1", "should_expose_answer": False},
        {"question": second, "tool": "iceberg", "label": "$var_2",
         "should_expose_answer": True, "answer_description": "Points"},
    ]}
    result = execute_plan(parse_doc(doc), store)
    assert result.ok
    assert result.bindings["$var_2"].answer_value == [7, 9]
    record = next(r for r in result.lineage.records if r.label == "$var_2")
    assert record.question_resolved == second.replace("$var_1.full_name", "'Dan O'Brien', 'Al Smith, Jr.'")


# --- synthesize -------------------------------------------------------------------


def test_synthesize_single_line():
    text = synthesize_answer([("Venue of the club that won the Bathurst 12 Hour", "Willowbank")])
    assert text == "Venue of the club that won the Bathurst 12 Hour: Willowbank"


def test_synthesize_dedups_identical_values():
    text = synthesize_answer([("first", "42"), ("second", "42")])
    assert text == "first: 42"


def test_synthesize_no_exposed_raises():
    with pytest.raises(NoExposedResultsError):
        synthesize_answer([])
