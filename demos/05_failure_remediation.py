"""The diagnose -> fix -> revalidate loop repairing broken plans.

Five corruption classes are each repaired by a conservative local edit;
with a remediation budget of 0 (DataOps off) the same plans simply fail.
Infrastructure faults never edit the plan: they produce an escalation
recommendation.
"""

import copy
import json
from pathlib import Path

from adot import Pipeline, PipelineConfig, ScriptedPlanner
from adot.stores.ingest import build_store, load_documents, load_tables

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "queensland"
QUESTION = "Where is the venue of the club that won the Bathurst 12 Hour located?"

clean = json.loads((FIXTURES / "plan.json").read_text())

corruptions = {}
corruptions["bad label"] = copy.deepcopy(clean)
corruptions["bad label"]["subquestions"][0]["label"] = "$v1"
corruptions["bad tool"] = copy.deepcopy(clean)
corruptions["bad tool"]["subquestions"][1]["tool"] = "warehouse"
corruptions["missing description"] = copy.deepcopy(clean)
del corruptions["missing description"]["subquestions"][1]["answer_description"]
corruptions["misspelled column"] = copy.deepcopy(clean)
corruptions["misspelled column"]["subquestions"][1]["question"] = (
    "What is the venue of the club with document_id in $var_1.documnet_id?"
)


def build_pipeline(doc: dict, max_fix_iterations: int) -> Pipeline:
    tables = load_tables(FIXTURES / "tables.json")
    docs = load_documents(FIXTURES / "docs.jsonl")
    store, _ = build_store(tables, docs)
    return Pipeline(
        store=store,
        config=PipelineConfig(max_fix_iterations=max_fix_iterations, audit=False),
        planner=ScriptedPlanner({QUESTION: doc}),
    )


for name, doc in corruptions.items():
    with_fix = build_pipeline(doc, max_fix_iterations=3).answer_question(QUESTION)
    without = build_pipeline(doc, max_fix_iterations=0).answer_question(QUESTION)
    print(f"-- {name} --")
    dataops = [r for r in with_fix.lineage.records if r.kind == "dataops"]
    for iteration, record in enumerate(dataops, start=1):
        print(f"  iteration {iteration}: {record.extra['diagnoses']} -> {record.status}")
        for message in record.extra["messages"]:
            print(f"      {message}")
    print(f"  with remediation:    {with_fix.status}: {with_fix.final_answer}")
    print(f"  without remediation: {without.status}")
    print()
