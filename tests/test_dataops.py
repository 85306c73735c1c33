from __future__ import annotations

import json

import pytest

from adot.dataops import (
    ActionKind,
    DiagnosisClass,
    NoOpReplanner,
    diagnose,
    levenshtein,
    remediate,
)
from adot.executor import ExecutionFeedback, FeedbackClass, execute_plan
from adot.plan_ir import build_dependency_graph
from adot.validator import ErrorCode, ValidationError, validate_plan
from plangen import parse_doc, seeded_corruptions


def verr(code, node=1):
    return ValidationError(code=code, detail="detail", node_index=node)


def feedback(klass, node=1, infra=False):
    return ExecutionFeedback(node_index=node, error_class=klass, message="m", infrastructure=infra)


# --- diagnose -------------------------------------------------------------------


@pytest.mark.parametrize(
    "item,expected",
    [
        (verr(ErrorCode.BAD_TOOL), DiagnosisClass.TOOL_MISMATCH),
        (verr(ErrorCode.UNKNOWN_VARIABLE), DiagnosisClass.UNRESOLVED_VARIABLE),
        (verr(ErrorCode.UNKNOWN_COLUMN), DiagnosisClass.SCHEMA_DRIFT),
        (verr(ErrorCode.BAD_LABEL, node=2), DiagnosisClass.BAD_LABEL_FORMAT),
        (verr(ErrorCode.MISSING_ANSWER_DESCRIPTION), DiagnosisClass.MISSING_ANSWER_DESCRIPTION),
        (verr(ErrorCode.CYCLIC_DEPENDENCY), DiagnosisClass.UNKNOWN),
        (feedback(FeedbackClass.TRANSLATION_FAILED), DiagnosisClass.SUBQUERY_FAILURE),
        (feedback(FeedbackClass.NO_MATCH), DiagnosisClass.SUBQUERY_FAILURE),
        (feedback(FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME), DiagnosisClass.UNRESOLVED_VARIABLE),
        (feedback(FeedbackClass.TIMEOUT, infra=True), DiagnosisClass.INFRASTRUCTURE_DOWN),
        (feedback(FeedbackClass.STORE_ERROR, infra=True), DiagnosisClass.INFRASTRUCTURE_DOWN),
        (feedback(FeedbackClass.TIMEOUT, infra=False), DiagnosisClass.UNKNOWN),
        (feedback(FeedbackClass.STORE_ERROR, infra=False), DiagnosisClass.UNKNOWN),
    ],
)
def test_diagnose_mapping_table(item, expected):
    (diagnosis,) = diagnose([item])
    assert diagnosis.error_class is expected
    assert diagnosis.evidence == (item,)


def test_diagnose_bad_label_keeps_node_index():
    (diagnosis,) = diagnose([verr(ErrorCode.BAD_LABEL, node=2)])
    assert diagnosis.node_index == 2


def test_diagnose_empty_retrieval_is_subquery_failure(smoky_store, smoky_plan):
    result = execute_plan(smoky_plan, smoky_store)
    diagnoses = diagnose(list(result.feedback))
    assert diagnoses[0].error_class is DiagnosisClass.SUBQUERY_FAILURE
    assert diagnoses[0].node_index == 1


def test_diagnose_requires_evidence():
    with pytest.raises(ValueError):
        diagnose([])


def test_levenshtein():
    assert levenshtein("documnet_id", "document_id") == 2
    assert levenshtein("venue", "venue") == 0
    assert levenshtein("abc", "abcd") == 1


# --- remediate: the five fix rules ------------------------------------------------


def remediate_once(plan, schema, replanner=None):
    report = validate_plan(plan, schema)
    assert not report.is_valid
    diagnoses = diagnose(list(report.errors))
    return remediate(plan, schema, 0, diagnoses, replanner=replanner)


def test_fix_bad_label(queensland_store):
    plan = parse_doc(seeded_corruptions()["BadLabelFormat"])
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert action.plan.node(1).label == "$var_1"
    assert validate_plan(action.plan, queensland_store.schema).is_valid


def test_fix_bad_label_rewrites_references(queensland_store):
    doc = seeded_corruptions()["BadLabelFormat"]
    doc["subquestions"][1]["question"] = "What is the venue of the club with document_id in $v1?"
    plan = parse_doc(doc)
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert "$var_1" in action.plan.node(2).question
    assert "$v1" not in action.plan.node(2).question


def test_fix_tool_mismatch_prefers_structured_for_schema_terms(queensland_store):
    plan = parse_doc(seeded_corruptions()["ToolMismatch"])
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert action.plan.node(2).tool.value == "structured"


def test_fix_tool_mismatch_vector_when_no_schema_terms(queensland_store):
    doc = seeded_corruptions()["ToolMismatch"]
    doc["subquestions"][1]["question"] = "Summarize the championship narrative?"
    plan = parse_doc(doc)
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert action.plan.node(2).tool.value == "vector"


def test_fix_missing_answer_description_copies_question(queensland_store):
    plan = parse_doc(seeded_corruptions()["MissingAnswerDescription"])
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert action.plan.node(2).answer_description == action.plan.node(2).question


def test_fix_schema_drift_unique_edit_distance_rename(queensland_store):
    plan = parse_doc(seeded_corruptions()["SchemaDrift"])
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert "$var_1.document_id" in action.plan.node(2).question
    assert "documnet_id" not in action.plan.node(2).question


def test_fix_off_by_one_retarget(queensland_store):
    plan = parse_doc(seeded_corruptions()["UnresolvedVariable"])
    action = remediate_once(plan, queensland_store.schema)
    assert action.kind is ActionKind.FIX
    assert "$var_2.document_id" in action.plan.node(1).question


def test_off_by_one_self_loop_escalates_to_abort(queensland_store):
    # the dangling ref sits on node n itself; retargeting would self-loop
    doc = {
        "subquestions": [
            {"question": "Find the document_id of the club that won the Bathurst 12 Hour?",
             "tool": "milvus", "label": "$var_1", "should_expose_answer": False},
            {"question": "What is the venue of the club with document_id in $var_3.document_id?",
             "tool": "iceberg", "label": "$var_2", "should_expose_answer": True, "answer_description": "d"},
        ]
    }
    action = remediate_once(parse_doc(doc), queensland_store.schema)
    assert action.kind is ActionKind.ABORT


def test_infrastructure_down_routes_to_recommend(queensland_store, queensland_plan):
    diagnoses = diagnose([feedback(FeedbackClass.STORE_ERROR, infra=True)])
    action = remediate(queensland_plan, queensland_store.schema, 0, diagnoses)
    assert action.kind is ActionKind.RECOMMEND
    assert action.plan is None
    assert action.messages


def test_subquery_failure_goes_to_replan_then_abort_by_default(queensland_store, queensland_plan):
    diagnoses = diagnose([feedback(FeedbackClass.NO_MATCH)])
    action = remediate(queensland_plan, queensland_store.schema, 0, diagnoses, replanner=NoOpReplanner())
    assert action.kind is ActionKind.ABORT


def test_replanner_plan_is_used(queensland_store, queensland_plan):
    class CannedReplanner:
        def replan(self, plan, schema, diagnoses):
            return queensland_plan

    diagnoses = diagnose([feedback(FeedbackClass.NO_MATCH)])
    action = remediate(queensland_plan, queensland_store.schema, 0, diagnoses, replanner=CannedReplanner())
    assert action.kind is ActionKind.REPLAN
    assert action.plan == queensland_plan


def test_external_replanner_subprocess(tmp_path, queensland_store, queensland_plan):
    from adot.dataops import ExternalReplanner
    from adot.plan_ir import serialize_plan

    fixed = tmp_path / "fixed_plan.json"
    fixed.write_text(serialize_plan(queensland_plan))
    replanner = ExternalReplanner(f"cat {fixed}")
    diagnoses = diagnose([feedback(FeedbackClass.NO_MATCH)])
    proposal = replanner.replan(queensland_plan, queensland_store.schema, diagnoses)
    assert proposal is not None and len(proposal) == 2

    for command in ("false", "echo 'unbalanced"):
        broken = ExternalReplanner(command)
        assert broken.replan(queensland_plan, queensland_store.schema, diagnoses) is None


def test_budget_exhaustion_aborts_with_history(queensland_store, queensland_plan):
    diagnoses = diagnose([feedback(FeedbackClass.NO_MATCH)])
    action = remediate(queensland_plan, queensland_store.schema, 3, diagnoses, max_iterations=3)
    assert action.kind is ActionKind.ABORT
    assert "budget" in action.messages[0]


def test_fix_safety_structure_and_executed_outputs(queensland_store):
    corruptions = seeded_corruptions()
    for name, doc in corruptions.items():
        doc = json.loads(json.dumps(doc))
        doc["subquestions"][0]["status"] = "executed"
        doc["subquestions"][0]["partial_result_columns"] = ["document_id"]
        plan = parse_doc(doc)
        report = validate_plan(plan, queensland_store.schema)
        if report.is_valid:
            continue  # corruption sat on the now-executed node; nothing to fix
        action = remediate(plan, queensland_store.schema, 0, diagnose(list(report.errors)))
        if action.kind is not ActionKind.FIX:
            continue
        fixed = action.plan
        assert len(fixed.subquestions) == len(plan.subquestions), name
        assert fixed.node(1) == plan.node(1), name  # executed node untouched
        before = build_dependency_graph(plan)
        after = build_dependency_graph(fixed)
        if name == "UnresolvedVariable":
            added = {u: after[u] - before[u] for u in after if after[u] != before[u]}
            assert sum(len(v) for v in added.values()) <= 1, name
        else:
            assert before == after, name


def test_routing_determinism(queensland_store):
    plan = parse_doc(seeded_corruptions()["SchemaDrift"])
    report = validate_plan(plan, queensland_store.schema)
    diagnoses = diagnose(list(report.errors))
    a = remediate(plan, queensland_store.schema, 0, diagnoses)
    b = remediate(plan, queensland_store.schema, 0, diagnoses)
    assert a == b


def test_fixed_plans_execute_successfully(queensland_store):
    for name, doc in seeded_corruptions().items():
        plan = parse_doc(doc)
        report = validate_plan(plan, queensland_store.schema)
        assert not report.is_valid, name
        action = remediate(plan, queensland_store.schema, 0, diagnose(list(report.errors)))
        assert action.kind is ActionKind.FIX, name
        result = execute_plan(action.plan, queensland_store)
        assert result.ok, (name, result.feedback)
        assert "Willowbank" in result.final_answer, name
