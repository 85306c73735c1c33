"""Failure remediation: diagnose feedback, then recommend, fix, or replan.

Both roles are deterministic rule tables. The diagnoser maps validator and
executor findings onto root-cause classes; the remediator applies local,
conservative edits from a fixed catalog, escalates infrastructure faults to
a recommendation, and hands structural problems to a pluggable replanner
(the default replans nothing, which aborts). Every fix is revalidated
before it is returned.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Protocol, Sequence

from .adapters import ExternalCommandError, run_command
from .executor import ExecutionFeedback, FeedbackClass
from .plan_ir import Plan, SubQuery, Tool, extract_var_refs, parse_plan, serialize_plan
from .stores.schema import GlobalSchema
from .validator import ErrorCode, ValidationError, validate_plan, _mentions

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 3


class DiagnosisClass(str, Enum):
    TOOL_MISMATCH = "ToolMismatch"
    UNRESOLVED_VARIABLE = "UnresolvedVariable"
    SCHEMA_DRIFT = "SchemaDrift"
    BAD_LABEL_FORMAT = "BadLabelFormat"
    MISSING_ANSWER_DESCRIPTION = "MissingAnswerDescription"
    INFRASTRUCTURE_DOWN = "InfrastructureDown"
    SUBQUERY_FAILURE = "SubqueryFailure"
    UNKNOWN = "Unknown"


class ActionKind(str, Enum):
    RECOMMEND = "recommend"
    FIX = "fix"
    REPLAN = "replan"
    ABORT = "abort"


@dataclass(frozen=True)
class Diagnosis:
    error_class: DiagnosisClass
    node_index: int | None
    evidence: tuple[Any, ...]  # source ValidationError / ExecutionFeedback items

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("diagnosis needs evidence")


@dataclass(frozen=True)
class DataOpsAction:
    kind: ActionKind
    messages: tuple[str, ...] = ()
    plan: Plan | None = None


_VALIDATION_MAP = {
    ErrorCode.BAD_TOOL: DiagnosisClass.TOOL_MISMATCH,
    ErrorCode.UNKNOWN_VARIABLE: DiagnosisClass.UNRESOLVED_VARIABLE,
    ErrorCode.UNKNOWN_COLUMN: DiagnosisClass.SCHEMA_DRIFT,
    ErrorCode.BAD_LABEL: DiagnosisClass.BAD_LABEL_FORMAT,
    ErrorCode.MISSING_ANSWER_DESCRIPTION: DiagnosisClass.MISSING_ANSWER_DESCRIPTION,
}

_FEEDBACK_MAP = {
    FeedbackClass.TRANSLATION_FAILED: DiagnosisClass.SUBQUERY_FAILURE,
    FeedbackClass.NO_MATCH: DiagnosisClass.SUBQUERY_FAILURE,
    FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME: DiagnosisClass.UNRESOLVED_VARIABLE,
}


def diagnose(feedback: Sequence[Any]) -> list[Diagnosis]:
    """Classify validator/executor findings into root-cause diagnoses."""
    if not feedback:
        raise ValueError("diagnose requires at least one feedback item")
    diagnoses: list[Diagnosis] = []
    for item in feedback:
        if isinstance(item, ValidationError):
            klass = _VALIDATION_MAP.get(item.code, DiagnosisClass.UNKNOWN)
        elif isinstance(item, ExecutionFeedback):
            if item.error_class in (FeedbackClass.STORE_ERROR, FeedbackClass.TIMEOUT):
                klass = (
                    DiagnosisClass.INFRASTRUCTURE_DOWN
                    if item.infrastructure
                    else DiagnosisClass.UNKNOWN
                )
            else:
                klass = _FEEDBACK_MAP.get(item.error_class, DiagnosisClass.UNKNOWN)
        else:
            klass = DiagnosisClass.UNKNOWN
        diagnoses.append(
            Diagnosis(error_class=klass, node_index=getattr(item, "node_index", None), evidence=(item,))
        )
    return diagnoses


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _replace_token(text: str, old: str, new: str) -> str:
    import re

    return re.sub(re.escape(old) + r"(?![A-Za-z0-9_])", new.replace("\\", "\\\\"), text)


def _fix_bad_label(plan: Plan, schema: GlobalSchema, node: SubQuery):
    canonical = f"$var_{node.index}"
    if node.label == canonical:
        return None
    old = node.label
    plan = plan.with_node(replace(node, label=canonical))
    if old:
        nodes = tuple(
            replace(sq, question=_replace_token(sq.question, old, canonical))
            if sq.question and old in sq.question
            else sq
            for sq in plan.subquestions
        )
        plan = replace(plan, subquestions=nodes)
    return plan, f"node {node.index}: label {old!r} -> {canonical!r}"


def _fix_tool(plan: Plan, schema: GlobalSchema, node: SubQuery):
    question = node.question or ""
    names = {t.name for t in schema.tables} | set(schema.all_column_names())
    structured = any(_mentions(question, name) for name in names)
    choice = Tool.STRUCTURED if structured else Tool.VECTOR
    if node.tool is choice:
        return None
    plan = plan.with_node(replace(node, tool=choice, tool_text=None))
    return plan, f"node {node.index}: tool -> {choice.value}"


def _fix_missing_answer_description(plan: Plan, schema: GlobalSchema, node: SubQuery):
    if (node.answer_description or "").strip():
        return None
    description = (node.question or "").strip() or "answer"
    plan = plan.with_node(replace(node, answer_description=description))
    return plan, f"node {node.index}: answer_description copied from question"


def _fix_schema_drift(plan: Plan, schema: GlobalSchema, node: SubQuery):
    question = node.question or ""
    known = schema.all_column_names() | schema.all_metadata_keys()
    partial = {sq.index: frozenset(sq.partial_result_columns or ()) for sq in plan.subquestions}
    replacements: list[tuple[str, str, int]] = []
    for ref in extract_var_refs(question):
        c = ref.column
        if c is None or c in known or c in partial.get(ref.target_index, frozenset()):
            continue
        candidates = sorted(col for col in known if levenshtein(c, col) <= 2)
        if len(candidates) != 1:
            return None  # ambiguous or hopeless; escalate
        replacements.append((c, candidates[0], ref.target_index))
    if not replacements:
        return None
    for old_col, new_col, target in replacements:
        question = _replace_token(question, f"$var_{target}.{old_col}", f"$var_{target}.{new_col}")
    plan = plan.with_node(replace(node, question=question))
    deltas = ", ".join(f"{o!r} -> {n!r}" for o, n, _ in replacements)
    return plan, f"node {node.index}: column rename {deltas}"


def _fix_unresolved_variable(plan: Plan, schema: GlobalSchema, node: SubQuery):
    """Off-by-one repair: a reference to $var_{n+1} snaps to $var_n.

    Applied only when that is the sole dangling reference and the
    referencing node is not node n itself (which would self-loop); anything
    else escalates to the replanner.
    """
    n = len(plan.subquestions)
    question = node.question or ""
    dangling = sorted({r.target_index for r in extract_var_refs(question) if r.target_index < 1 or r.target_index > n})
    if dangling != [n + 1] or node.index == n:
        return None
    question = _replace_token(question, f"$var_{n + 1}", f"$var_{n}")
    plan = plan.with_node(replace(node, question=question))
    return plan, f"node {node.index}: reference $var_{n + 1} -> $var_{n}"


FIX_RULES = {
    DiagnosisClass.BAD_LABEL_FORMAT: _fix_bad_label,
    DiagnosisClass.TOOL_MISMATCH: _fix_tool,
    DiagnosisClass.MISSING_ANSWER_DESCRIPTION: _fix_missing_answer_description,
    DiagnosisClass.SCHEMA_DRIFT: _fix_schema_drift,
    DiagnosisClass.UNRESOLVED_VARIABLE: _fix_unresolved_variable,
}


class Replanner(Protocol):
    def replan(self, plan: Plan, schema: GlobalSchema, diagnoses: Sequence[Diagnosis]) -> Plan | None: ...


class NoOpReplanner:
    """Default: no model available, nothing to propose."""

    def replan(self, plan: Plan, schema: GlobalSchema, diagnoses: Sequence[Diagnosis]) -> Plan | None:
        return None


class ExternalReplanner:
    """Pipes (plan, schema, feedback) JSON to a command, reads a new plan."""

    def __init__(self, command: str, timeout: float = 60.0):
        self.command = command
        self.timeout = timeout

    def replan(self, plan: Plan, schema: GlobalSchema, diagnoses: Sequence[Diagnosis]) -> Plan | None:
        payload = json.dumps(
            {
                "plan": json.loads(serialize_plan(plan)),
                "schema": schema.to_json(),
                "feedback": [
                    {
                        "error_class": d.error_class.value,
                        "node_index": d.node_index,
                        "evidence": [str(e) for e in d.evidence],
                    }
                    for d in diagnoses
                ],
            }
        )
        try:
            stdout = run_command(self.command, payload, self.timeout)
        except ExternalCommandError as exc:
            logger.warning("external replanner failed: %s", exc)
            return None
        try:
            return parse_plan(stdout)
        except Exception:
            logger.warning("external replanner produced unparseable plan")
            return None


def remediate(
    plan: Plan,
    schema: GlobalSchema,
    attempts: int,
    diagnoses: Sequence[Diagnosis],
    replanner: Replanner | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DataOpsAction:
    """Route diagnoses to an action, after ``attempts`` earlier remediations of the plan.

    Infrastructure faults produce a recommendation (no plan edit); anything
    with an applicable fix rule produces a pre-validated Fix; the rest goes
    to the replanner, and when it offers nothing the loop aborts. A Fix
    never adds or removes nodes and never touches executed nodes' outputs.
    """
    if attempts >= max_iterations:
        return DataOpsAction(
            kind=ActionKind.ABORT,
            messages=(f"remediation budget of {max_iterations} iterations exhausted",),
        )
    if any(d.error_class is DiagnosisClass.INFRASTRUCTURE_DOWN for d in diagnoses):
        return DataOpsAction(
            kind=ActionKind.RECOMMEND,
            messages=("store unreachable or timing out; retry later or escalate to an operator",),
        )

    candidate = plan
    deltas: list[str] = []
    for d in diagnoses:
        rule = FIX_RULES.get(d.error_class)
        if rule is None or d.node_index is None:
            continue
        outcome = rule(candidate, schema, candidate.node(d.node_index))
        if outcome is None:
            continue
        candidate, delta = outcome
        deltas.append(delta)

    if deltas and validate_plan(candidate, schema).is_valid:
        return DataOpsAction(kind=ActionKind.FIX, plan=candidate, messages=tuple(deltas))

    proposed = replanner.replan(plan, schema, diagnoses) if replanner is not None else None
    if proposed is not None:
        return DataOpsAction(kind=ActionKind.REPLAN, plan=proposed, messages=("replanned",))
    return DataOpsAction(
        kind=ActionKind.ABORT,
        messages=("no applicable fix and the replanner offered no plan",),
    )
