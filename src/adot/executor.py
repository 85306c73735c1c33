"""Topological wave execution with variable slimming and event streaming.

Nodes whose dependencies are all satisfied form a wave; a wave's nodes run
concurrently on a thread pool while all bookkeeping (bindings, lineage,
events) happens on the coordinating thread in node order, which keeps runs
deterministic regardless of parallelism. A failed node fails alone: its
dependents are skipped, sibling branches keep running, and the failure is
returned as structured feedback for the remediation loop.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

from .adapters import (
    AdapterOutcome,
    DEFAULT_REL_CUTOFF,
    DEFAULT_TOP_K,
    ERR_EMPTY_INDEX,
    ERR_NO_MATCH,
    ERR_STORE,
    ERR_TRANSLATION_FAILED,
    PatternTranslator,
    ResolvedSubQuery,
    run_structured_adapter,
    run_vector_adapter,
)
from .lineage import LineageLog, LineageRecord, summarize_result
from .plan_ir import (
    NodeStatus,
    Plan,
    SubQuery,
    Tool,
    TOOL_CANONICAL,
    build_dependency_graph,
    VAR_REF_PATTERN,
)
from .stores.relational import ResultSet
from .stores.store import Store

logger = logging.getLogger(__name__)

MAX_PARALLEL_CAP = 8
INLINE_VALUE_LIMIT = 100
DEFAULT_NODE_TIMEOUT = 30.0


class FeedbackClass(str, Enum):
    TRANSLATION_FAILED = "TranslationFailed"
    UNKNOWN_VARIABLE_AT_RUNTIME = "UnknownVariableAtRuntime"
    EMPTY_DEPENDENCY = "EmptyDependency"
    STORE_ERROR = "StoreError"
    TIMEOUT = "Timeout"
    NO_MATCH = "NoMatch"


_ADAPTER_ERROR_MAP = {
    ERR_TRANSLATION_FAILED: FeedbackClass.TRANSLATION_FAILED,
    ERR_NO_MATCH: FeedbackClass.NO_MATCH,
    ERR_EMPTY_INDEX: FeedbackClass.STORE_ERROR,
    ERR_STORE: FeedbackClass.STORE_ERROR,
}


class EventKind(str, Enum):
    PARTIAL_ANSWER = "PartialAnswer"
    NODE_COMPLETED = "NodeCompleted"
    NODE_FAILED = "NodeFailed"
    PLAN_COMPLETED = "PlanCompleted"


@dataclass(frozen=True)
class ExecutionEvent:
    kind: EventKind
    node_index: int | None
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "node_index": self.node_index, "payload": dict(self.payload)}


@dataclass(frozen=True)
class ExecutionFeedback:
    node_index: int
    error_class: FeedbackClass
    message: str
    bound_labels: tuple[str, ...] = ()
    infrastructure: bool = False


@dataclass(frozen=True)
class Binding:
    """A node's output under its label, plus the slimmed forwarding view."""

    label: str
    full_result: Any
    slim_view: Mapping[str, tuple]
    produced_by: int
    answer_value: Any = None


@dataclass(frozen=True)
class ExecutorConfig:
    max_parallel: int | None = None  # None: widest wave, capped at 8
    node_timeout: float = DEFAULT_NODE_TIMEOUT
    slimming: bool = True
    inline_threshold: int = INLINE_VALUE_LIMIT


class CycleDetectedError(RuntimeError):
    """Defensive: a validated plan should never reach this."""


class MissingKeyError(KeyError):
    def __init__(self, key: str):
        super().__init__(key)
        self.key = key


class UnboundVariableError(RuntimeError):
    def __init__(self, what: str):
        super().__init__(f"unbound variable {what}")
        self.what = what


class NoExposedResultsError(RuntimeError):
    """Every exposing node failed; there is nothing to synthesize."""


AdapterFn = Callable[[ResolvedSubQuery], AdapterOutcome]


def make_default_adapters(
    store: Store,
    k: int = DEFAULT_TOP_K,
    translator: PatternTranslator | None = None,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> dict[Tool, AdapterFn]:
    return {
        Tool.STRUCTURED: lambda rq: run_structured_adapter(rq, store, translator=translator),
        Tool.VECTOR: lambda rq: run_vector_adapter(rq, store.index, k=k, rel_cutoff=rel_cutoff),
    }


def topological_waves(plan: Plan) -> list[list[int]]:
    """Group non-executed nodes into dependency waves.

    Wave 1 holds nodes with no unmet dependencies; wave i+1 holds nodes
    whose dependencies all lie in earlier waves (or are already executed).
    """
    graph = build_dependency_graph(plan)
    done = {sq.index for sq in plan.subquestions if sq.executed}
    remaining = {sq.index for sq in plan.subquestions if not sq.executed}
    waves: list[list[int]] = []
    while remaining:
        wave = [i for i in sorted(remaining) if graph[i] <= done]
        if not wave:
            raise CycleDetectedError(f"cyclic dependencies among nodes {sorted(remaining)}")
        waves.append(wave)
        done.update(wave)
        remaining.difference_update(wave)
    return waves


def result_keys(result: Any) -> tuple[str, ...]:
    """Column names of a ResultSet, or metadata keys of chunk hits."""
    if result is None:
        return ()
    if isinstance(result, ResultSet):
        return result.columns
    keys: list[str] = []
    for hit in result:
        for key in hit.chunk.metadata:
            if key not in keys:
                keys.append(key)
    return tuple(keys)


def slim_binding(result: Any, required_keys: set[str]) -> dict[str, tuple]:
    """Project a result down to distinct values of the required keys.

    Values keep first-appearance order. A required key absent from the
    result raises :class:`MissingKeyError` (nothing sensible can be
    forwarded); an empty result yields empty value tuples.
    """
    if not required_keys:
        raise ValueError("required_keys must be non-empty")
    if result is None:
        raise MissingKeyError(sorted(required_keys)[0])
    view: dict[str, tuple] = {}
    if isinstance(result, ResultSet):
        for key in sorted(required_keys):
            if key not in result.columns:
                raise MissingKeyError(key)
            view[key] = tuple(result.distinct_values(key))
        return view
    hits = list(result)
    for key in sorted(required_keys):
        values = []
        seen: set = set()
        for hit in hits:
            if key not in hit.chunk.metadata:
                raise MissingKeyError(key)
            v = hit.chunk.metadata[key]
            if v not in seen:
                seen.add(v)
                values.append(v)
        view[key] = tuple(values)
    return view


def _quote(value: Any) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def render_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def _binding_inline_value(binding: Binding) -> str:
    if binding.answer_value is not None:
        return render_value(binding.answer_value)
    if len(binding.slim_view) == 1:
        (values,) = binding.slim_view.values()
        return ", ".join(_quote(v) for v in values)
    return ""


def resolve_question(
    node: SubQuery,
    bindings: Mapping[str, Binding],
    inline_threshold: int = INLINE_VALUE_LIMIT,
) -> ResolvedSubQuery:
    """Substitute variable references with bound values.

    A bare ``$var_d`` becomes the producing node's answer value. In the
    display text ``question_resolved``, ``$var_d.c`` becomes an inline
    comma-separated value list (text values quoted) when there are
    1..inline_threshold distinct values; larger or empty lists stay
    symbolic. In ``question`` every ``$var_d.c`` stays symbolic: its values
    reach the adapter only through ``bindings_in``, typed.
    """
    question = node.question or ""
    refs = node.var_refs()
    bindings_in: dict[str, dict[str, list]] = {}
    for ref in refs:
        label = f"$var_{ref.target_index}"
        if label not in bindings:
            raise UnboundVariableError(label)
        bindings_in[label] = {k: list(v) for k, v in bindings[label].slim_view.items()}

    def substitute(m, inline: bool) -> str:
        label = f"$var_{m.group(1)}"
        column = m.group(2)
        binding = bindings[label]
        if column is None:
            return _binding_inline_value(binding)
        values = binding.slim_view.get(column)
        if values is None:
            raise UnboundVariableError(f"{label}.{column}")
        if inline and 1 <= len(values) <= inline_threshold:
            return ", ".join(_quote(v) for v in values)
        return m.group(0)

    resolved = VAR_REF_PATTERN.sub(lambda m: substitute(m, inline=True), question)
    symbolic = VAR_REF_PATTERN.sub(lambda m: substitute(m, inline=False), question)
    if node.tool is None:
        raise UnboundVariableError(f"node {node.index} has no tool")
    return ResolvedSubQuery(
        node_index=node.index,
        question_resolved=resolved,
        tool=node.tool,
        bindings_in=bindings_in,
        question=symbolic,
    )


class TemplateSynthesizer:
    """Default answer synthesis: one "description: value" line per exposure,
    node order, identical values deduplicated."""

    def synthesize(self, exposed: Sequence[tuple[str, Any]]) -> str:
        lines = []
        seen_values: set[str] = set()
        for description, value in exposed:
            rendered = render_value(value)
            if rendered in seen_values:
                continue
            seen_values.add(rendered)
            lines.append(f"{description}: {rendered}")
        return "\n".join(lines)


def synthesize_answer(exposed: Sequence[tuple[str, Any]], synthesizer: Any = None) -> str:
    if not exposed:
        raise NoExposedResultsError("no exposed results to synthesize")
    return (synthesizer or TemplateSynthesizer()).synthesize(exposed)


@dataclass
class ExecutionResult:
    final_answer: str | None
    answers: tuple[tuple[str, Any], ...]
    feedback: tuple[ExecutionFeedback, ...]
    events: tuple[ExecutionEvent, ...]
    bindings: dict[str, Binding]
    plan_after: Plan
    skipped: tuple[int, ...]
    lineage: LineageLog

    @property
    def ok(self) -> bool:
        return not self.feedback


def _required_text_keys(plan: Plan) -> dict[int, set[str]]:
    required: dict[int, set[str]] = {sq.index: set() for sq in plan.subquestions}
    for sq in plan.subquestions:
        for ref in sq.var_refs():
            if ref.column is not None and ref.target_index in required:
                required[ref.target_index].add(ref.column)
    return required


def execute_plan(
    plan: Plan,
    store: Store | None = None,
    adapters: Mapping[Tool, AdapterFn] | None = None,
    config: ExecutorConfig | None = None,
    lineage: LineageLog | None = None,
    on_event: Callable[[ExecutionEvent], None] | None = None,
    initial_bindings: Mapping[str, Binding] | None = None,
) -> ExecutionResult:
    """Run a validated plan to completion.

    Failures never raise: each failed node contributes an
    :class:`ExecutionFeedback`, its dependents are skipped, and independent
    branches keep executing. ``initial_bindings`` lets a remediation loop
    resume a partially executed plan without recomputing executed nodes.
    """
    cfg = config or ExecutorConfig()
    log = lineage if lineage is not None else LineageLog()
    if adapters is None:
        if store is None:
            raise ValueError("either a store or an adapter registry is required")
        adapters = make_default_adapters(store)

    crosslink_keys: frozenset[str] = frozenset({"document_id"})
    if store is not None and store.schema.cross_links:
        crosslink_keys = store.schema.crosslink_keys()

    nodes: dict[int, SubQuery] = {sq.index: sq for sq in plan.subquestions}
    graph = build_dependency_graph(plan)
    required_keys = _required_text_keys(plan)
    waves = topological_waves(plan)

    bindings: dict[str, Binding] = dict(initial_bindings or {})
    feedback: list[ExecutionFeedback] = []
    events: list[ExecutionEvent] = []
    failed: set[int] = set()
    skipped: set[int] = set()

    def emit(kind: EventKind, node_index: int | None, payload: dict) -> None:
        event = ExecutionEvent(kind=kind, node_index=node_index, payload=payload)
        events.append(event)
        if on_event is not None:
            on_event(event)

    def record(index: int, status: str, rq: ResolvedSubQuery | None = None, **fields: Any) -> None:
        """Append the lineage record of one node outcome (ok, failed or skipped)."""
        node = nodes[index]
        fields.setdefault("label", node.label)
        log.append(
            LineageRecord(
                kind="node",
                node_index=index,
                tool=TOOL_CANONICAL.get(node.tool) if node.tool else None,
                question_resolved=rq.question_resolved if rq else None,
                status=status,
                input_labels=tuple(sorted({f"$var_{r.target_index}" for r in node.var_refs()})),
                started=log.tick(),
                finished=log.tick(),
                **fields,
            )
        )

    def fail_node(index: int, klass: FeedbackClass, message: str, elapsed_ms: float, *,
                  infrastructure: bool = False, rq: ResolvedSubQuery | None = None,
                  answer_value: Any = None) -> None:
        failed.add(index)
        nodes[index] = replace(nodes[index], status=NodeStatus.FAILED)
        feedback.append(
            ExecutionFeedback(
                node_index=index,
                error_class=klass,
                message=message,
                bound_labels=tuple(sorted(bindings)),
                infrastructure=infrastructure,
            )
        )
        record(index, "failed", rq, error_class=klass.value, wall_ms=elapsed_ms,
               output_summary={"answer_value": answer_value} if answer_value is not None else {})
        emit(EventKind.NODE_FAILED, index,
             {"label": nodes[index].label, "error_class": klass.value, "message": message})

    def run_node(index: int):
        """(resolved sub-question, outcome, exception raised, elapsed ms)."""
        t0 = time.perf_counter()
        rq = outcome = None
        try:
            rq = resolve_question(nodes[index], bindings, cfg.inline_threshold)
            outcome = adapters[rq.tool](rq)
        except Exception as exc:  # adapter bugs reified as feedback below
            return rq, None, exc, (time.perf_counter() - t0) * 1000.0
        return rq, outcome, None, (time.perf_counter() - t0) * 1000.0

    max_parallel = cfg.max_parallel
    if max_parallel is None:
        widest = max((len(w) for w in waves), default=1)
        max_parallel = max(1, min(widest, MAX_PARALLEL_CAP))

    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        for wave in waves:
            runnable = []
            for i in wave:
                if graph[i] & (failed | skipped):
                    skipped.add(i)
                    record(i, "skipped")
                    continue
                runnable.append(i)
            futures = {i: pool.submit(run_node, i) for i in runnable}
            for i in runnable:
                node = nodes[i]
                waiting = time.perf_counter()
                try:
                    rq, outcome, exc, elapsed = futures[i].result(timeout=cfg.node_timeout)
                except FutureTimeoutError:
                    futures[i].cancel()
                    fail_node(i, FeedbackClass.TIMEOUT, f"node {i} exceeded {cfg.node_timeout}s",
                              (time.perf_counter() - waiting) * 1000.0)
                    continue
                if isinstance(exc, UnboundVariableError):
                    fail_node(i, FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME, str(exc), elapsed)
                    continue
                if exc is not None:
                    logger.error("node %d adapter raised", i, exc_info=exc)
                    fail_node(i, FeedbackClass.STORE_ERROR, f"adapter raised: {exc}", elapsed, rq=rq)
                    continue

                if outcome.error is not None:
                    klass = _ADAPTER_ERROR_MAP.get(outcome.error.klass, FeedbackClass.STORE_ERROR)
                    infra = outcome.error.infrastructure or outcome.error.klass == ERR_EMPTY_INDEX
                    fail_node(i, klass, outcome.error.message, elapsed, infrastructure=infra,
                              rq=rq, answer_value=outcome.answer_value)
                    continue

                available = result_keys(outcome.result)
                needed = set(required_keys[i]) | (set(crosslink_keys) & set(available))
                try:
                    if not cfg.slimming:
                        slim = slim_binding(outcome.result, set(available)) if available else {}
                    elif needed:
                        slim = slim_binding(outcome.result, needed)
                    else:
                        slim = {}
                except MissingKeyError as exc:
                    fail_node(i, FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME,
                              f"result of node {i} lacks required key {exc.key!r}", elapsed, rq=rq)
                    continue

                label = node.label or f"$var_{i}"
                if label in bindings:
                    fail_node(i, FeedbackClass.STORE_ERROR, f"label {label} already bound", elapsed, rq=rq)
                    continue
                bindings[label] = Binding(
                    label=label,
                    full_result=outcome.result,
                    slim_view=slim,
                    produced_by=i,
                    answer_value=outcome.answer_value,
                )
                nodes[i] = replace(
                    node,
                    status=NodeStatus.EXECUTED,
                    partial_result_columns=tuple(available),
                )
                summary, provenance = summarize_result(outcome.result)
                if outcome.answer_value is not None:
                    summary["answer_value_sample"] = render_value(outcome.answer_value)[:200]
                record(i, "ok", rq, label=label, output_summary=summary,
                       provenance_refs=provenance, wall_ms=elapsed)
                emit(EventKind.NODE_COMPLETED, i, {"label": label, "summary": summary})
                if node.exposes:
                    emit(
                        EventKind.PARTIAL_ANSWER,
                        i,
                        {
                            "label": label,
                            "answer_description": node.answer_description,
                            "value": outcome.answer_value,
                        },
                    )

    ordered = sorted(nodes)
    exposed = tuple(
        (nodes[i].answer_description or "", bindings[nodes[i].label].answer_value)
        for i in ordered
        if nodes[i].executed and nodes[i].exposes and nodes[i].label in bindings
    )
    final_answer = synthesize_answer(exposed) if exposed else None
    plan_after = replace(plan, subquestions=tuple(nodes[i] for i in ordered))

    log.append(
        LineageRecord(
            kind="final",
            status="ok" if not feedback else "failed",
            output_summary={
                "final_answer": final_answer,
                "exposed": len(exposed),
                "failed_nodes": sorted(failed),
                "skipped_nodes": sorted(skipped),
            },
        )
    )
    emit(
        EventKind.PLAN_COMPLETED,
        None,
        {"final_answer": final_answer, "failed": sorted(failed), "skipped": sorted(skipped)},
    )
    return ExecutionResult(
        final_answer=final_answer,
        answers=exposed,
        feedback=tuple(feedback),
        events=tuple(events),
        bindings=bindings,
        plan_after=plan_after,
        skipped=tuple(sorted(skipped)),
        lineage=log,
    )
