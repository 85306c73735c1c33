from __future__ import annotations

import json

import pytest

from adot.executor import execute_plan
from adot.lineage import (
    LineageLog,
    LineageRecord,
    MissingRecordError,
    read_lineage,
    summarize_result,
    trace_answer,
)
from adot.stores.relational import ChunkRef, ResultSet, RowRef
from plangen import parse_doc, simulated_adapters


def test_append_assigns_increasing_seq(tmp_path):
    log = LineageLog(tmp_path / "lineage.jsonl")
    first = log.append(LineageRecord(kind="node", node_index=1, label="$var_1", status="ok"))
    second = log.append(LineageRecord(kind="cache", status="hit", extra={"strategy": "exact"}))
    log.close()
    assert (first, second) == (1, 2)
    records = read_lineage(tmp_path / "lineage.jsonl")
    assert [r.seq for r in records] == [1, 2]
    assert records[1].kind == "cache"
    assert records[1].extra["strategy"] == "exact"


def test_record_round_trip_with_refs(tmp_path):
    log = LineageLog(tmp_path / "l.jsonl")
    log.append(
        LineageRecord(
            kind="node",
            node_index=2,
            label="$var_2",
            tool="iceberg",
            question_resolved="resolved?",
            status="ok",
            output_summary={"rows": 1},
            provenance_refs=(RowRef("sport_in_queensland", 7), ChunkRef(3, 0)),
            input_labels=("$var_1",),
        )
    )
    log.close()
    (rec,) = read_lineage(tmp_path / "l.jsonl")
    assert rec.provenance_refs == (RowRef("sport_in_queensland", 7), ChunkRef(3, 0))
    assert rec.input_labels == ("$var_1",)


def test_earlier_file_with_started_and_finished_still_reads(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"seq": 1, "kind": "node", "status": "ok", "node_index": 1, "label": "$var_1", '
        '"started": 1, "finished": 2, "wall_ms": 0.5}\n'
        '{"seq": 2, "kind": "final", "status": "ok"}\n',
        encoding="utf-8",
    )
    node, final = read_lineage(path)
    assert (node.seq, node.label, node.wall_ms, final.kind) == (1, "$var_1", 0.5, "final")
    assert "started" not in node.to_json() and "finished" not in node.to_json()


def test_failed_node_record_has_error_class(smoky_store, smoky_plan):
    result = execute_plan(smoky_plan, smoky_store)
    failed = [r for r in result.lineage.records if r.kind == "node" and r.status == "failed"]
    assert failed and failed[0].error_class == "NoMatch"
    assert failed[0].provenance_refs == ()


def test_successful_node_records_carry_provenance(queensland_store, queensland_plan):
    result = execute_plan(queensland_plan, queensland_store)
    ok = [r for r in result.lineage.records if r.kind == "node" and r.status == "ok"]
    assert len(ok) == 2
    structured = next(r for r in ok if r.tool == "iceberg")
    assert RowRef("sport_in_queensland", 1) in structured.provenance_refs


def test_trace_single_node_plan():
    doc = {"subquestions": [{"question": "a?", "tool": "sql", "label": "$var_1",
                             "should_expose_answer": True, "answer_description": "d"}]}
    result = execute_plan(parse_doc(doc), adapters=simulated_adapters())
    closure = trace_answer(result.lineage.records, "$var_1")
    (only,) = {r for r in closure}
    assert only == RowRef("simulated", 1)


def test_trace_diamond_union_matches_reachability_oracle():
    doc = {
        "subquestions": [
            {"question": "root?", "tool": "sql", "label": "$var_1", "should_expose_answer": False},
            {"question": "left $var_1.val?", "tool": "sql", "label": "$var_2", "should_expose_answer": False},
            {"question": "right $var_1.val?", "tool": "sql", "label": "$var_3", "should_expose_answer": False},
            {"question": "merge $var_2.val $var_3.val?", "tool": "sql", "label": "$var_4",
             "should_expose_answer": True, "answer_description": "d"},
        ]
    }
    plan = parse_doc(doc)
    result = execute_plan(plan, adapters=simulated_adapters())
    closure = set(trace_answer(result.lineage.records, "$var_4"))

    # reachability oracle over the plan graph
    from adot.plan_ir import build_dependency_graph

    graph = build_dependency_graph(plan)
    reachable = set()
    stack = [4]
    while stack:
        u = stack.pop()
        if u in reachable:
            continue
        reachable.add(u)
        stack.extend(graph[u])
    expected = {RowRef("simulated", i) for i in reachable}
    assert closure == expected


def test_trace_missing_record_raises(tmp_path):
    log = LineageLog(tmp_path / "l.jsonl")
    log.append(LineageRecord(kind="node", node_index=2, label="$var_2", status="ok",
                             input_labels=("$var_1",)))
    log.close()
    with pytest.raises(MissingRecordError):
        trace_answer(tmp_path / "l.jsonl", "$var_2")


def test_completeness_every_node_has_exactly_one_record(olympics_store, olympics_plan):
    result = execute_plan(olympics_plan, olympics_store)
    node_records = [r for r in result.lineage.records if r.kind == "node"]
    assert sorted(r.node_index for r in node_records) == [1, 2, 3]
    final = [r for r in result.lineage.records if r.kind == "final"]
    assert len(final) == 1
    assert final[0].output_summary["final_answer"] == result.final_answer


def test_replayability_identical_up_to_seq_and_timing(olympics_store, olympics_plan):
    def normalized(result):
        out = []
        for r in result.lineage.records:
            obj = r.to_json()
            for volatile in ("seq", "wall_ms"):
                obj.pop(volatile, None)
            out.append(json.dumps(obj, sort_keys=True))
        return out

    a = execute_plan(olympics_plan, olympics_store)
    b = execute_plan(olympics_plan, olympics_store)
    assert normalized(a) == normalized(b)


def test_output_summaries_cap_samples():
    rows = tuple((i, f"name{i}") for i in range(50))
    rs = ResultSet(
        columns=("id", "name"),
        rows=rows,
        provenance=tuple((RowRef("t", i),) for i in range(50)),
    )
    summary, refs = summarize_result(rs)
    assert summary["rows"] == 50
    assert len(summary["samples"]) == 10
    assert len(refs) == 50
