"""DAG plan intermediate representation.

A plan is an ordered list of atomic sub-queries. Each sub-query targets one
data source (structured store or vector index), stores its output under a
``$var_<i>`` label, and may reference earlier outputs inside its question
text via ``$var_<d>`` or ``$var_<d>.<column>``. This module owns the data
model, the JSON codec, and dependency extraction; semantic checks live in
:mod:`adot.validator`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Mapping


class Tool(str, Enum):
    """Target data source of a sub-query."""

    STRUCTURED = "structured"
    VECTOR = "vector"


# Accepted on input; the serializer always emits the canonical names below.
TOOL_ALIASES: dict[str, Tool] = {
    "sql": Tool.STRUCTURED,
    "iceberg": Tool.STRUCTURED,
    "structured": Tool.STRUCTURED,
    "vector": Tool.VECTOR,
    "milvus": Tool.VECTOR,
}
TOOL_CANONICAL: dict[Tool, str] = {Tool.STRUCTURED: "iceberg", Tool.VECTOR: "milvus"}


class NodeStatus(str, Enum):
    PENDING = "pending"
    EXECUTED = "executed"
    FAILED = "failed"


class ParseError(ValueError):
    """Plan JSON could not be decoded into the IR."""


VAR_REF_PATTERN = re.compile(r"\$var_(\d+)(?:\.([A-Za-z_][A-Za-z0-9_]*))?")

_NODE_KEYS = (
    "question",
    "tool",
    "label",
    "should_expose_answer",
    "answer_description",
    "status",
    "partial_result_columns",
)
_PLAN_KEYS = ("subquestions", "source_query", "schema_signature", "context")


@dataclass(frozen=True)
class VarRef:
    """One ``$var_<d>[.<column>]`` occurrence inside a question."""

    target_index: int
    column: str | None = None


@dataclass(frozen=True)
class Context:
    """Execution context participating in cache keys (role + policy flags)."""

    role: str = "default"
    policy_flags: frozenset[str] = frozenset()

    def fingerprint(self) -> str:
        payload = json.dumps(
            {"role": self.role, "policy_flags": sorted(self.policy_flags)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> dict[str, Any]:
        return {"role": self.role, "policy_flags": sorted(self.policy_flags)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Context":
        return cls(
            role=str(obj.get("role", "default")),
            policy_flags=frozenset(str(f) for f in obj.get("policy_flags", ())),
        )


@dataclass(frozen=True)
class SubQuery:
    """One plan node.

    Field values mirror the JSON as parsed: missing fields stay ``None`` so
    the validator can distinguish "absent" from "present but wrong". The
    parser never rejects on semantic grounds. ``should_expose_answer`` keeps
    whatever JSON value was supplied; only a literal ``true`` exposes.
    """

    index: int
    question: str | None = None
    tool: Tool | None = None
    label: str | None = None
    should_expose_answer: Any = None
    answer_description: str | None = None
    status: NodeStatus = NodeStatus.PENDING
    partial_result_columns: tuple[str, ...] | None = None
    # Original tool string when it matched no known alias (kept for feedback).
    tool_text: str | None = None
    # Unknown JSON keys, preserved for forward compatibility.
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def exposes(self) -> bool:
        return self.should_expose_answer is True

    @property
    def executed(self) -> bool:
        return self.status is NodeStatus.EXECUTED

    def var_refs(self) -> list[VarRef]:
        return extract_var_refs(self.question or "")


@dataclass(frozen=True)
class Plan:
    """An ordered DAG plan plus the query/schema/context it was made for."""

    subquestions: tuple[SubQuery, ...]
    source_query: str = ""
    schema_signature: str = ""
    context: Context = Context()
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.subquestions)

    def node(self, index: int) -> SubQuery:
        """Return the node with 1-based ``index``."""
        for sq in self.subquestions:
            if sq.index == index:
                return sq
        raise KeyError(index)

    def with_node(self, node: SubQuery) -> "Plan":
        """Return a copy with the node of the same index replaced."""
        subs = tuple(node if sq.index == node.index else sq for sq in self.subquestions)
        return replace(self, subquestions=subs)


def extract_var_refs(question: str) -> list[VarRef]:
    """Return every ``$var_<d>[.<col>]`` occurrence in order of appearance."""
    refs = []
    for m in VAR_REF_PATTERN.finditer(question):
        refs.append(VarRef(target_index=int(m.group(1)), column=m.group(2)))
    return refs


def build_dependency_graph(plan: Plan) -> dict[int, frozenset[int]]:
    """Adjacency map ``u -> {v}``: node u references ``$var_v`` in its question.

    One vertex per subquestion. References whose target index falls outside
    1..n are excluded here; the validator reports them.
    """
    n = len(plan.subquestions)
    graph: dict[int, frozenset[int]] = {}
    for sq in plan.subquestions:
        targets = {r.target_index for r in sq.var_refs() if 1 <= r.target_index <= n}
        graph[sq.index] = frozenset(targets)
    return graph


def find_cycle(adjacency: Mapping[int, Iterable[int]]) -> list[int] | None:
    """Return one directed cycle as a node list, or None if acyclic.

    Iterative depth-first search with a three-color marking; nodes and
    neighbors are visited in ascending order so the result is deterministic.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in adjacency}
    neighbors = {u: sorted(v for v in vs if v in color) for u, vs in adjacency.items()}

    for start in sorted(adjacency):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        path = [start]
        color[start] = GRAY
        while stack:
            node, i = stack[-1]
            if i < len(neighbors[node]):
                stack[-1] = (node, i + 1)
                nxt = neighbors[node][i]
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def _expect_str(obj: Mapping[str, Any], key: str, where: str) -> str | None:
    if key not in obj:
        return None
    value = obj[key]
    if not isinstance(value, str):
        raise ParseError(f"{where}: field {key!r} must be a string, got {type(value).__name__}")
    return value


def _parse_subquery(obj: Any, position: int) -> SubQuery:
    where = f"subquestions[{position}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")

    question = _expect_str(obj, "question", where)
    label = _expect_str(obj, "label", where)
    answer_description = _expect_str(obj, "answer_description", where)

    tool: Tool | None = None
    tool_text: str | None = None
    raw_tool = _expect_str(obj, "tool", where)
    if raw_tool is not None:
        tool = TOOL_ALIASES.get(raw_tool.lower())
        if tool is None:
            tool_text = raw_tool

    status = NodeStatus.PENDING
    raw_status = _expect_str(obj, "status", where)
    if raw_status is not None:
        try:
            status = NodeStatus(raw_status.lower())
        except ValueError:
            raise ParseError(f"{where}: unknown status {raw_status!r}") from None

    partial_cols: tuple[str, ...] | None = None
    if "partial_result_columns" in obj:
        raw_cols = obj["partial_result_columns"]
        if not isinstance(raw_cols, list) or not all(isinstance(c, str) for c in raw_cols):
            raise ParseError(f"{where}: partial_result_columns must be a list of strings")
        partial_cols = tuple(raw_cols)

    extras = {k: v for k, v in obj.items() if k not in _NODE_KEYS}
    return SubQuery(
        index=position + 1,
        question=question,
        tool=tool,
        label=label,
        should_expose_answer=obj.get("should_expose_answer"),
        answer_description=answer_description,
        status=status,
        partial_result_columns=partial_cols,
        tool_text=tool_text,
        extras=extras,
    )


def parse_plan(json_text: str) -> Plan:
    """Decode plan JSON into a :class:`Plan`.

    Raises :class:`ParseError` on malformed JSON, a missing ``subquestions``
    list, or wrongly typed string fields. Semantic rules (labels, exposure,
    dependency hygiene, acyclicity) are deliberately not enforced here.
    """
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    subs = doc.get("subquestions")
    if not isinstance(subs, list):
        raise ParseError("missing or non-list 'subquestions'")

    nodes = tuple(_parse_subquery(item, i) for i, item in enumerate(subs))
    context = Context()
    if isinstance(doc.get("context"), dict):
        context = Context.from_json(doc["context"])
    extras = {k: v for k, v in doc.items() if k not in _PLAN_KEYS}
    return Plan(
        subquestions=nodes,
        source_query=_expect_str(doc, "source_query", "plan") or "",
        schema_signature=_expect_str(doc, "schema_signature", "plan") or "",
        context=context,
        extras=extras,
    )


def scrub_plan(plan: Plan) -> Plan:
    """The plan with every node pending and no recorded result columns: execution state reset."""
    nodes = tuple(
        replace(sq, status=NodeStatus.PENDING, partial_result_columns=None) for sq in plan.subquestions
    )
    return replace(plan, subquestions=nodes)


def _subquery_to_json(sq: SubQuery) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    if sq.question is not None:
        obj["question"] = sq.question
    if sq.tool is not None:
        obj["tool"] = TOOL_CANONICAL[sq.tool]
    elif sq.tool_text is not None:
        obj["tool"] = sq.tool_text
    if sq.label is not None:
        obj["label"] = sq.label
    if sq.should_expose_answer is not None:
        obj["should_expose_answer"] = sq.should_expose_answer
    if sq.answer_description is not None:
        obj["answer_description"] = sq.answer_description
    if sq.status is not NodeStatus.PENDING:
        obj["status"] = sq.status.value
    if sq.partial_result_columns is not None:
        obj["partial_result_columns"] = list(sq.partial_result_columns)
    obj.update(sq.extras)
    return obj


def plan_to_json(plan: Plan) -> dict[str, Any]:
    doc: dict[str, Any] = {"subquestions": [_subquery_to_json(sq) for sq in plan.subquestions]}
    if plan.source_query:
        doc["source_query"] = plan.source_query
    if plan.schema_signature:
        doc["schema_signature"] = plan.schema_signature
    if plan.context != Context():
        doc["context"] = plan.context.to_json()
    doc.update(plan.extras)
    return doc


def serialize_plan(plan: Plan, *, indent: int | None = 2) -> str:
    """Encode a plan as JSON; ``parse_plan`` of the output round-trips.

    Tools are written with the canonical store names ("iceberg"/"milvus").
    Absent optional fields are omitted.
    """
    return json.dumps(plan_to_json(plan), indent=indent)
