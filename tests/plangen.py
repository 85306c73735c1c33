"""Random plan generation, the mutation catalog, and simulated adapters."""

from __future__ import annotations

import copy
import hashlib
import json
import time
from random import Random

from adot.adapters import AdapterOutcome
from adot.plan_ir import Plan, Tool, parse_plan
from adot.stores.relational import ResultSet, RowRef

SIM_COLUMNS = ("val", "document_id")


def random_valid_plan_doc(rng: Random, columns=SIM_COLUMNS, max_nodes: int = 6,
                          allow_executed: bool = False) -> dict:
    """A structurally valid plan document with acyclic references."""
    n = rng.randint(1, max_nodes)
    nodes = []
    for i in range(1, n + 1):
        parts = [f"simulated op {i}"]
        for j in range(1, i):
            if rng.random() < 0.4:
                if rng.random() < 0.75:
                    parts.append(f"using $var_{j}.{rng.choice(columns)}")
                else:
                    parts.append(f"using $var_{j}")
        node = {
            "question": " ".join(parts) + "?",
            "tool": rng.choice(["sql", "iceberg", "vector", "milvus"]),
            "label": f"$var_{i}",
            "should_expose_answer": False,
        }
        if allow_executed and rng.random() < 0.15:
            node["status"] = "executed"
            node["partial_result_columns"] = [f"runtime_col_{i}"]
        nodes.append(node)
    exposed = rng.randrange(n)
    nodes[exposed]["should_expose_answer"] = True
    nodes[exposed]["answer_description"] = f"answer of op {exposed + 1}"
    return {"subquestions": nodes}


def _pick_node(rng: Random, doc: dict) -> int:
    return rng.randrange(len(doc["subquestions"]))


def mutate_drop_field(rng: Random, doc: dict) -> None:
    node = doc["subquestions"][_pick_node(rng, doc)]
    fields = [f for f in ("question", "tool", "label", "should_expose_answer") if f in node]
    if node.get("should_expose_answer") is True and "answer_description" in node:
        fields.append("answer_description")
    node.pop(rng.choice(fields), None)


def mutate_corrupt_label(rng: Random, doc: dict) -> None:
    i = _pick_node(rng, doc)
    node = doc["subquestions"][i]
    node["label"] = rng.choice([f"$v{i + 1}", "$var_x", f"$var_{i + 2}", f"var_{i + 1}"])


def mutate_out_of_range_ref(rng: Random, doc: dict) -> None:
    node = doc["subquestions"][_pick_node(rng, doc)]
    n = len(doc["subquestions"])
    target = rng.choice([0, n + 1, n + rng.randint(2, 4)])
    node["question"] = node.get("question", "") + f" and $var_{target}"


def mutate_unknown_column(rng: Random, doc: dict) -> None:
    node = doc["subquestions"][_pick_node(rng, doc)]
    d = rng.randint(1, len(doc["subquestions"]))
    node["question"] = node.get("question", "") + f" and $var_{d}.col_nonexistent_zz"


def mutate_add_cycle(rng: Random, doc: dict) -> None:
    i = _pick_node(rng, doc)
    node = doc["subquestions"][i]
    node["question"] = node.get("question", "") + f" and $var_{i + 1}"  # self-loop


def mutate_clear_exposure(rng: Random, doc: dict) -> None:
    for node in doc["subquestions"]:
        if "should_expose_answer" in node:
            node["should_expose_answer"] = False


def mutate_bad_tool(rng: Random, doc: dict) -> None:
    doc["subquestions"][_pick_node(rng, doc)]["tool"] = rng.choice(["warehouse", "graphdb", "s3"])


def mutate_empty_question(rng: Random, doc: dict) -> None:
    doc["subquestions"][_pick_node(rng, doc)]["question"] = "   "


def mutate_string_bool(rng: Random, doc: dict) -> None:
    doc["subquestions"][_pick_node(rng, doc)]["should_expose_answer"] = rng.choice(["true", "false"])


def mutate_empty_plan(rng: Random, doc: dict) -> None:
    doc["subquestions"] = []


MUTATIONS = [
    mutate_drop_field,
    mutate_corrupt_label,
    mutate_out_of_range_ref,
    mutate_unknown_column,
    mutate_add_cycle,
    mutate_clear_exposure,
    mutate_bad_tool,
    mutate_empty_question,
    mutate_string_bool,
    mutate_empty_plan,
]


def mutated_corpus(rng: Random, count: int, columns=SIM_COLUMNS) -> list[dict]:
    """Mix of clean and corrupted plan documents."""
    docs = []
    for _ in range(count):
        doc = random_valid_plan_doc(rng, columns=columns, allow_executed=True)
        if rng.random() >= 0.25:
            for _ in range(rng.randint(1, 3)):
                mutation = rng.choice(MUTATIONS)
                mutation(rng, doc)
                if not doc["subquestions"]:
                    break
        docs.append(doc)
    return docs


def simulated_adapters(delay: float = 0.0, fail_nodes: frozenset[int] = frozenset()):
    """Deterministic model-free adapters for executor tests.

    Each node's value is a hash of its index and everything it consumed, so
    any scheduling difference that changed data flow would change answers.
    """

    def run(rq) -> AdapterOutcome:
        if delay:
            time.sleep(delay)
        if rq.node_index in fail_nodes:
            from adot.adapters import ExecutionFeedback, FeedbackClass

            return AdapterOutcome(
                error=ExecutionFeedback(FeedbackClass.NO_MATCH, f"simulated failure at node {rq.node_index}")
            )
        consumed = sorted(
            (label, key, tuple(values))
            for label, slim in rq.bindings_in.items()
            for key, values in slim.items()
        )
        seed = json.dumps([rq.node_index, rq.question_resolved, consumed], default=str)
        digest = hashlib.sha256(seed.encode()).hexdigest()
        val = int(digest[:8], 16)
        result = ResultSet(
            columns=SIM_COLUMNS,
            rows=((val, val % 7),),
            provenance=((RowRef("simulated", rq.node_index),),),
        )
        return AdapterOutcome(result=result, answer_value=val)

    return {Tool.STRUCTURED: run, Tool.VECTOR: run}


def parse_doc(doc: dict) -> Plan:
    return parse_plan(json.dumps(doc))


# --- seeded corruption corpus for the remediation loop ----------------------

QUEENSLAND_PLAN = {
    "subquestions": [
        {
            "question": "Find the document_id of the club that won the Bathurst 12 Hour?",
            "tool": "milvus",
            "label": "$var_1",
            "should_expose_answer": False,
        },
        {
            "question": "What is the venue of the club with document_id in $var_1.document_id?",
            "tool": "iceberg",
            "label": "$var_2",
            "should_expose_answer": True,
            "answer_description": "Venue of the club that won the Bathurst 12 Hour",
        },
    ]
}

OFF_BY_ONE_PLAN = {
    "subquestions": [
        {
            "question": "What is the venue of the club with document_id in $var_3.document_id?",
            "tool": "iceberg",
            "label": "$var_1",
            "should_expose_answer": True,
            "answer_description": "Venue of the winning club",
        },
        {
            "question": "Find the document_id of the club that won the Bathurst 12 Hour?",
            "tool": "milvus",
            "label": "$var_2",
            "should_expose_answer": False,
        },
    ]
}


def seeded_corruptions() -> dict[str, dict]:
    """The five fixable error classes, each as a corrupted queensland plan."""
    bad_label = copy.deepcopy(QUEENSLAND_PLAN)
    bad_label["subquestions"][0]["label"] = "$v1"

    bad_tool = copy.deepcopy(QUEENSLAND_PLAN)
    bad_tool["subquestions"][1]["tool"] = "warehouse"

    missing_desc = copy.deepcopy(QUEENSLAND_PLAN)
    del missing_desc["subquestions"][1]["answer_description"]

    drift = copy.deepcopy(QUEENSLAND_PLAN)
    drift["subquestions"][1]["question"] = (
        "What is the venue of the club with document_id in $var_1.documnet_id?"
    )

    return {
        "BadLabelFormat": bad_label,
        "ToolMismatch": bad_tool,
        "MissingAnswerDescription": missing_desc,
        "SchemaDrift": drift,
        "UnresolvedVariable": copy.deepcopy(OFF_BY_ONE_PLAN),
    }
