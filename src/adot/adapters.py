"""Tool adapters: resolved sub-question + bound variables -> store execution.

The NL-to-query step is pluggable. The reference implementations are
deterministic so the whole engine runs model-free: the structured
translator is pattern-based (plus a backtick escape hatch embedding a
literal mini-language query), and the vector adapter shapes its answer with
two small heuristics ("find the document_id ..." returns ids, "what year
..." extracts a 4-digit token from the top hit).
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

from .cache import normalize_query
from .jsonfiles import read_json
from .plan_ir import VAR_REF_PATTERN, ParseError, Plan, Tool, parse_plan
from .stores.relational import (
    Aggregate,
    Filter,
    MiniQuerySyntaxError,
    ResultSet,
    StoreQueryError,
    StructuredQuery,
    exec_structured,
    parse_mini_query,
)
from .stores.schema import GlobalSchema, read_value
from .stores.vector import ChunkHit, EmptyIndexError, VectorIndex

DEFAULT_TOP_K = 5


class FeedbackClass(str, Enum):
    """Why a node failed, from the adapter through the executor to DataOps."""

    TRANSLATION_FAILED = "TranslationFailed"
    UNKNOWN_VARIABLE_AT_RUNTIME = "UnknownVariableAtRuntime"
    STORE_ERROR = "StoreError"
    TIMEOUT = "Timeout"
    NO_MATCH = "NoMatch"


@dataclass(frozen=True)
class ExecutionFeedback:
    """A failed node, from the adapter through the executor to DataOps.

    An adapter returns it without a node index; the executor records it
    with its node's index.
    """

    error_class: FeedbackClass
    message: str
    infrastructure: bool = False
    node_index: int | None = None


class TranslationFailedError(ValueError):
    """The reference translator matched no template."""


class PlannerMissError(KeyError):
    """The scripted planner has no plan for this question."""


@dataclass(frozen=True)
class ResolvedSubQuery:
    """A node ready to run: variables substituted, bindings attached.

    ``question_resolved`` is the display text, with small value lists
    inlined. ``question`` keeps every ``$var_d.col`` reference symbolic
    (bare ``$var_d`` references are substituted); the structured
    translator reads it and takes each reference's values, typed, from
    ``bindings_in``, which maps each referenced label to its slimmed view
    (column -> distinct values). ``question`` defaults to
    ``question_resolved``.
    """

    node_index: int
    question_resolved: str
    tool: Tool
    bindings_in: Mapping[str, Mapping[str, Sequence[Any]]] = None  # type: ignore[assignment]
    question: str = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bindings_in is None:
            object.__setattr__(self, "bindings_in", {})
        if self.question is None:
            object.__setattr__(self, "question", self.question_resolved)


@dataclass(frozen=True)
class AdapterOutcome:
    result: ResultSet | list[ChunkHit] | None = None
    answer_value: Any = None
    error: ExecutionFeedback | None = None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError("exactly one of result/error must be present")

    @property
    def ok(self) -> bool:
        return self.error is None


def _bound_values(rq: ResolvedSubQuery, key: str) -> list | None:
    """Union of ``key`` values across bindings, ordered by label index."""
    found = False
    out: list = []
    seen: set = set()
    for label in sorted(rq.bindings_in, key=lambda l: int(l.rsplit("_", 1)[-1])):
        slim = rq.bindings_in[label]
        if key in slim:
            found = True
            for v in slim[key]:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
    return out if found else None


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if re.fullmatch(r"'[^']*'", text) or re.fullmatch(r'"[^"]*"', text):
        return text[1:-1]
    return read_value(text)


def _parse_value_list(tail: str) -> list:
    tail = tail.strip().rstrip("?").strip()
    if not tail or "$var_" in tail:
        return []
    return [_parse_scalar(part) for part in tail.split(",") if part.strip()]


def _reference_values(rq: ResolvedSubQuery, text: str) -> list | None:
    """Typed values of ``text`` when it is one ``$var_d.col`` reference."""
    m = VAR_REF_PATTERN.fullmatch(text.strip())
    if m is None or m.group(2) is None:
        return None
    try:
        return list(rq.bindings_in[f"$var_{m.group(1)}"][m.group(2)])
    except KeyError:
        raise TranslationFailedError(f"no bound values for {m.group(0)}") from None


_TEMPLATE_SELECT_IN = re.compile(
    r"^\s*what\s+(?:is|are)\s+the\s+([A-Za-z_]\w*)\s+of\s+.*?\bwith\s+(?:the\s+)?([A-Za-z_]\w*)\s+in\s+(.+?)\s*\??\s*$",
    re.IGNORECASE,
)
_TEMPLATE_AGGREGATE = re.compile(
    r"^\s*(?:what\s+is\s+the\s+|find\s+the\s+)?(average|avg|sum|count|min|max)\s+(?:of\s+)?(?:the\s+)?([A-Za-z_]\w*|\*)"
    r"(?:\s+where\s+([A-Za-z_]\w*)\s*(?:=|is)\s*(.+?))?\s*\??\s*$",
    re.IGNORECASE,
)
_BACKTICK = re.compile(r"`([^`]+)`")

_AGG_CANON = {"average": "avg"}


class PatternTranslator:
    """Reference NL-to-mini-language translator.

    Recognized forms:
      * "what is the <col> ... with <key> in <values>"  -> filtered select
      * "average|sum|count|min|max of <col> [where <col> = <value>]"
      * a backtick-quoted literal mini-language query (escape hatch)

    It reads ``rq.question``. A ``$var_d.col`` reference in place of
    ``<values>``, ``<value>`` or a mini-language value list stands for the
    typed values bound to it in ``rq.bindings_in``; ``where <col> =
    <reference>`` keeps rows whose cell is any of them.
    """

    def translate(self, rq: ResolvedSubQuery, schema: GlobalSchema) -> StructuredQuery:
        question = rq.question

        m = _BACKTICK.search(question)
        if m:
            try:
                return parse_mini_query(m.group(1), rq.bindings_in)
            except MiniQuerySyntaxError as exc:
                raise TranslationFailedError(f"backtick query: {exc}") from exc

        m = _TEMPLATE_SELECT_IN.match(question)
        if m:
            select_col, key_col, tail = m.group(1), m.group(2), m.group(3)
            values = _reference_values(rq, tail)
            if values is None:
                values = _parse_value_list(tail)
            table = self._find_table(schema, (select_col, key_col))
            return StructuredQuery(
                table=table,
                select=(select_col,),
                filters=(Filter(column=key_col, op="in", value=values),),
            )

        m = _TEMPLATE_AGGREGATE.match(question)
        if m:
            func = _AGG_CANON.get(m.group(1).lower(), m.group(1).lower())
            col = None if m.group(2) == "*" else m.group(2)
            needed = [col] if col else []
            filters: tuple[Filter, ...] = ()
            if m.group(3):
                needed.append(m.group(3))
                values = _reference_values(rq, m.group(4))
                filters = (
                    Filter(column=m.group(3), op="=", value=_parse_scalar(m.group(4)))
                    if values is None
                    else Filter(column=m.group(3), op="in", value=values),
                )
            table = self._find_table(schema, tuple(needed))
            return StructuredQuery(
                table=table, select=(), filters=filters, aggregate=Aggregate(func=func, column=col)
            )

        raise TranslationFailedError(f"no template matches {question!r}")

    @staticmethod
    def _find_table(schema: GlobalSchema, columns: tuple[str, ...]) -> str:
        for t in schema.tables:
            if all(c in t.column_names for c in columns):
                return t.name
        raise TranslationFailedError(f"no table holds columns {columns!r}")


def render_result(result: ResultSet) -> Any:
    """Compact answer value: scalar, value list, or row lists."""
    if result.is_empty:
        return []
    if len(result.columns) == 1:
        distinct = result.distinct_values(result.columns[0])
        return distinct[0] if len(distinct) == 1 else distinct
    return [list(row) for row in result.rows]


def run_structured_adapter(rq: ResolvedSubQuery, store: Any) -> AdapterOutcome:
    """Translate and execute a structured-tool sub-question."""
    try:
        query = PatternTranslator().translate(rq, store.schema)
    except TranslationFailedError as exc:
        return AdapterOutcome(error=ExecutionFeedback(FeedbackClass.TRANSLATION_FAILED, str(exc)))
    try:
        result = exec_structured(store, query)
    except StoreQueryError as exc:
        return AdapterOutcome(error=ExecutionFeedback(FeedbackClass.STORE_ERROR, str(exc)))
    return AdapterOutcome(result=result, answer_value=render_result(result))


_FIND_DOC_ID = re.compile(r"^\s*find\s+the\s+document_id", re.IGNORECASE)
_WHAT_YEAR = re.compile(r"\bwhat\s+year\b", re.IGNORECASE)
_FOUR_DIGITS = re.compile(r"\b(\d{4})\b")


DEFAULT_REL_CUTOFF = 0.5


def run_vector_adapter(rq: ResolvedSubQuery, index: VectorIndex, k: int = DEFAULT_TOP_K) -> AdapterOutcome:
    """Search the vector index for a vector-tool sub-question.

    Bound ``document_id`` values become a candidate filter. The adapter
    keeps only hits scoring at least ``DEFAULT_REL_CUTOFF`` of the best
    fused score (and above zero), so trailing near-noise matches never leak
    into downstream bindings. A result where every fused score is zero (or no
    candidate survives the filter) is a NoMatch: nothing in the index
    supports the question.
    """
    doc_ids = _bound_values(rq, "document_id")
    doc_filter = set(doc_ids) if doc_ids is not None else None
    wants_doc_ids = bool(_FIND_DOC_ID.match(rq.question_resolved))
    try:
        hits = index.search(rq.question_resolved, k=k, doc_filter=doc_filter)
    except EmptyIndexError as exc:
        return AdapterOutcome(error=ExecutionFeedback(FeedbackClass.STORE_ERROR, str(exc), infrastructure=True))

    best = hits[0].fused_score if hits else 0.0
    hits = [h for h in hits if h.fused_score > 0.0 and h.fused_score >= DEFAULT_REL_CUTOFF * best]
    if not hits:
        return AdapterOutcome(
            error=ExecutionFeedback(FeedbackClass.NO_MATCH, "no chunk matches the question"),
            answer_value=[] if wants_doc_ids else None,
        )

    if wants_doc_ids:
        answer: Any = list(dict.fromkeys(h.chunk.document_id for h in hits))
    elif _WHAT_YEAR.search(rq.question_resolved):
        m = _FOUR_DIGITS.search(hits[0].chunk.text)
        answer = m.group(1) if m else hits[0].chunk.text
    else:
        answer = hits[0].chunk.text
    return AdapterOutcome(result=hits, answer_value=answer)


# --- planners ---------------------------------------------------------------


class Planner(Protocol):
    def generate(self, question: str) -> Plan: ...


class ScriptedPlanner:
    """Deterministic planner backed by a question -> plan JSON map."""

    def __init__(self, script: Mapping[str, Any]):
        self._script = {normalize_query(q): plan for q, plan in script.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedPlanner":
        return read_json(path, cls, ValueError)

    def generate(self, question: str) -> Plan:
        """The plan scripted for the normalized question; a missing or unparsable one is a :class:`PlannerMissError`."""
        entry = self._script.get(normalize_query(question))
        if entry is None:
            raise PlannerMissError(question)
        try:
            return parse_plan(entry if isinstance(entry, str) else json.dumps(entry))
        except ParseError as exc:
            raise PlannerMissError(f"scripted plan is not a plan: {exc}") from exc


class ExternalCommandError(RuntimeError):
    """An external command that could not be run, timed out or exited non-zero."""


def run_command(command: str, stdin: str, timeout: float) -> str:
    """Run ``command`` (split like a shell would) on ``stdin`` and return its stdout."""
    try:
        proc = subprocess.run(
            shlex.split(command),
            input=stdin,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (OSError, ValueError, subprocess.TimeoutExpired) as exc:  # ValueError: unbalanced quotes
        raise ExternalCommandError(str(exc)) from exc
    if proc.returncode != 0:
        raise ExternalCommandError(f"exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


class ExternalPlanner:
    """Planner that pipes the question to a command and reads plan JSON."""

    def __init__(self, command: str, timeout: float = 60.0):
        self.command = command
        self.timeout = timeout

    def generate(self, question: str) -> Plan:
        """The command's plan; any failure to get one is a :class:`PlannerMissError`."""
        try:
            stdout = run_command(self.command, question, self.timeout)
        except ExternalCommandError as exc:
            raise PlannerMissError(f"external planner failed: {exc}") from exc
        try:
            return parse_plan(stdout)
        except ParseError as exc:
            raise PlannerMissError(f"external planner printed no plan: {exc}") from exc
