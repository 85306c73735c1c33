"""Execute a three-hop plan across both stores, streaming lineage records.

The question hops document -> table -> document: find the event document,
use its id to locate the athlete row, then read the birth year back out of
the athlete's bio chunk. Each lineage record is printed as it is written;
the exposing node's record carries the partial answer. Afterwards the log
is walked backward to list exactly which rows and chunks produced the answer.
"""

from pathlib import Path

from adot import LineageLog, execute_plan, parse_plan, topological_waves, trace_answer
from adot.stores.ingest import build_store, load_documents, load_tables

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "olympics"

store, _ = build_store(load_tables(FIXTURES / "tables.json"), load_documents(FIXTURES / "docs.jsonl"))
plan = parse_plan((FIXTURES / "plan.json").read_text())

print("execution waves:", topological_waves(plan))
print("\n-- streaming lineage records --")


def show(record):
    print(f"  [{record.seq}] {record.kind} node={record.node_index} {record.status} "
          f"{dict(record.output_summary)} {dict(record.extra)}")


result = execute_plan(plan, store, lineage=LineageLog(on_record=show))

print("\nfinal answer:", result.final_answer)

print("\n-- lineage records --")
for record in result.lineage.records:
    if record.kind == "node":
        print(f"  node {record.node_index} ({record.tool}): {record.question_resolved}")
        for ref in record.provenance_refs:
            print(f"      source: {ref.to_json()}")

print("\n-- provenance closure of the answer --")
for ref in trace_answer(result.lineage.records, "$var_3"):
    print("  ", ref.to_json())
