"""Topological wave execution with variable slimming.

Nodes whose dependencies are all satisfied form a wave. A node whose adapter
is marked ``in_process`` (the built-in adapters, which do GIL-bound work in
this process) runs on the coordinating thread; any other adapter may block,
so its nodes run on a thread pool that belongs to their wave alone: created
only for a wave that holds one, and shut down when the wave ends.
A wave's pooled nodes are submitted first and share one deadline; its
in-process nodes then run, and every node is settled (bound, failed or
skipped, and recorded) on the coordinating thread in node order, which
keeps runs deterministic whatever runs where. A failed node fails alone:
its dependents are skipped, sibling branches keep running, and the failure
is returned as structured feedback for the remediation loop. The lineage
log is the only record of a run; a caller that wants it live passes
``lineage=LineageLog(on_record=...)``.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from .adapters import (
    AdapterOutcome,
    DEFAULT_TOP_K,
    ExecutionFeedback,
    FeedbackClass,
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

MAX_PARALLEL_CAP = 8  # bounds the threads that one wave of a plan from outside can start
INLINE_VALUE_LIMIT = 100
DEFAULT_NODE_TIMEOUT = 30.0


@dataclass(frozen=True)
class Binding:
    """A node's answer value, plus the slimmed forwarding view; stored under the node's label."""

    slim_view: Mapping[str, tuple]
    answer_value: Any = None


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


def _failure(error_class: FeedbackClass, message: str) -> AdapterOutcome:
    return AdapterOutcome(error=ExecutionFeedback(error_class, message))


def make_default_adapters(store: Store, k: int = DEFAULT_TOP_K) -> dict[Tool, AdapterFn]:
    """The built-in adapters, marked ``in_process`` so their nodes run on the coordinating thread."""
    # Each lambda looks its adapter up as a module global when called, so a
    # wrapper installed on this module later still sees every call.
    structured = lambda rq: run_structured_adapter(rq, store)
    vector = lambda rq: run_vector_adapter(rq, store.index, k=k)
    structured.in_process = vector.in_process = True
    return {Tool.STRUCTURED: structured, Tool.VECTOR: vector}


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


def resolve_question(node: SubQuery, bindings: Mapping[str, Binding]) -> ResolvedSubQuery:
    """Substitute variable references with bound values.

    A bare ``$var_d`` becomes the producing node's answer value. In the
    display text ``question_resolved``, ``$var_d.c`` becomes an inline
    comma-separated value list (text values quoted) when there are
    1..INLINE_VALUE_LIMIT distinct values; larger or empty lists stay
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
        if inline and 1 <= len(values) <= INLINE_VALUE_LIMIT:
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


def synthesize_answer(exposed: Sequence[tuple[str, Any]]) -> str:
    """One "description: value" line per exposure, node order, identical values deduplicated."""
    if not exposed:
        raise NoExposedResultsError("no exposed results to synthesize")
    lines = []
    seen_values: set[str] = set()
    for description, value in exposed:
        rendered = render_value(value)
        if rendered in seen_values:
            continue
        seen_values.add(rendered)
        lines.append(f"{description}: {rendered}")
    return "\n".join(lines)


@dataclass
class ExecutionResult:
    final_answer: str | None
    answers: tuple[tuple[str, Any], ...]
    feedback: tuple[ExecutionFeedback, ...]
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
    node_timeout: float = DEFAULT_NODE_TIMEOUT,
    lineage: LineageLog | None = None,
    initial_bindings: Mapping[str, Binding] | None = None,
) -> ExecutionResult:
    """Run a validated plan to completion.

    Failures never raise: each failed node contributes an
    :class:`ExecutionFeedback`, its dependents are skipped, and independent
    branches keep executing. ``initial_bindings`` lets a remediation loop
    resume a partially executed plan without recomputing executed nodes.
    A node whose adapter is marked ``in_process`` runs on the calling
    thread and cannot be interrupted: if it ran longer than
    ``node_timeout`` seconds, it fails as a timeout once it returns and its
    result is dropped. Other nodes run on a thread pool of their own wave,
    one worker per node up to ``MAX_PARALLEL_CAP``, and share one deadline,
    ``node_timeout`` seconds from their submission: a node still running
    then fails as a timeout and its worker is abandoned, never waited for,
    so the call returns on time; a node still queued (only in a wave of
    more than ``MAX_PARALLEL_CAP`` pooled nodes) is cancelled and recorded
    as skipped.
    The ``ok`` record of an exposing node carries its partial answer:
    ``answer_value_sample`` in ``output_summary`` and ``answer_description``
    in ``extra``.
    """
    log = lineage if lineage is not None else LineageLog()
    if adapters is None:
        if store is None:
            raise ValueError("either a store or an adapter registry is required")
        adapters = make_default_adapters(store)

    crosslink_keys: frozenset[str] = frozenset({"document_id"})
    if store is not None and store.schema.cross_links:
        crosslink_keys = store.schema.crosslink_keys()

    # A node that failed in an earlier pass runs again, so it starts pending:
    # every node of a wave ends executed, failed, or pending (skipped).
    nodes: dict[int, SubQuery] = {
        sq.index: replace(sq, status=NodeStatus.PENDING) if sq.status is NodeStatus.FAILED else sq
        for sq in plan.subquestions
    }
    graph = build_dependency_graph(plan)
    required_keys = _required_text_keys(plan)
    waves = topological_waves(plan)

    bindings: dict[str, Binding] = dict(initial_bindings or {})
    feedback: list[ExecutionFeedback] = []

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
                **fields,
            )
        )

    def settle(index: int, rq: ResolvedSubQuery | None, outcome: AdapterOutcome, elapsed_ms: float) -> None:
        """Apply a finished node's outcome: bind, mark and record it, or fail it."""
        node = nodes[index]
        label = node.label or f"$var_{index}"
        if outcome.ok:
            available = result_keys(outcome.result)
            needed = set(required_keys[index]) | (set(crosslink_keys) & set(available))
            try:
                slim = slim_binding(outcome.result, needed) if needed else {}
            except MissingKeyError as exc:
                outcome = _failure(FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME,
                                   f"result of node {index} lacks required key {exc.key!r}")
            else:
                if label in bindings:
                    outcome = _failure(FeedbackClass.STORE_ERROR, f"label {label} already bound")
        if not outcome.ok:
            nodes[index] = replace(node, status=NodeStatus.FAILED)
            feedback.append(replace(outcome.error, node_index=index))
            record(index, "failed", rq, error_class=outcome.error.error_class.value, wall_ms=elapsed_ms,
                   output_summary={} if outcome.answer_value is None else {"answer_value": outcome.answer_value})
            return
        bindings[label] = Binding(slim_view=slim, answer_value=outcome.answer_value)
        nodes[index] = replace(node, status=NodeStatus.EXECUTED, partial_result_columns=tuple(available))
        summary, provenance = summarize_result(outcome.result)
        if outcome.answer_value is not None:
            summary["answer_value_sample"] = render_value(outcome.answer_value)[:200]
        record(index, "ok", rq, label=label, output_summary=summary, provenance_refs=provenance,
               wall_ms=elapsed_ms, extra={"answer_description": node.answer_description} if node.exposes else {})

    def run_node(index: int) -> tuple[ResolvedSubQuery | None, AdapterOutcome, float]:
        """(resolved sub-question, outcome, elapsed ms); a raised exception becomes the outcome's error."""
        t0 = time.perf_counter()
        rq = None
        try:
            rq = resolve_question(nodes[index], bindings)
            outcome = adapters[rq.tool](rq)
        except UnboundVariableError as exc:
            outcome = _failure(FeedbackClass.UNKNOWN_VARIABLE_AT_RUNTIME, str(exc))
        except Exception as exc:  # an adapter bug fails its node, not the run
            logger.error("node %d adapter raised", index, exc_info=exc)
            outcome = _failure(FeedbackClass.STORE_ERROR, f"adapter raised: {exc}")
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if elapsed_ms > node_timeout * 1000.0:  # detected after the fact: an in-process node cannot be stopped
            outcome = _failure(FeedbackClass.TIMEOUT, f"node {index} exceeded {node_timeout}s")
        return rq, outcome, elapsed_ms

    for wave in waves:
        ready = []
        for i in wave:
            if all(nodes[d].executed for d in graph[i]):
                ready.append(i)
            else:
                record(i, "skipped")
        pooled = [i for i in ready if not getattr(adapters.get(nodes[i].tool), "in_process", False)]
        # Each wave owns its pool, so a worker abandoned in one wave never
        # holds a thread that a later wave needs.
        pool = ThreadPoolExecutor(max_workers=min(len(pooled), MAX_PARALLEL_CAP)) if pooled else None
        futures = {}
        try:
            submitted = time.perf_counter()
            futures = {i: pool.submit(run_node, i) for i in pooled}
            finished = {i: run_node(i) for i in ready if i not in futures}
            if futures:
                remaining = node_timeout - (time.perf_counter() - submitted)
                _, late = wait(futures.values(), timeout=max(0.0, remaining))
                waited_ms = (time.perf_counter() - submitted) * 1000.0
                for i, future in futures.items():
                    if future not in late:
                        finished[i] = future.result()
                    elif future.cancel():  # still queued behind a hung worker: it never ran
                        finished[i] = None
                    else:
                        finished[i] = (None, _failure(FeedbackClass.TIMEOUT, f"node {i} exceeded {node_timeout}s"),
                                       waited_ms)
        finally:
            # A worker still running is abandoned, not joined: waiting for it
            # would stretch the call past node_timeout.
            if pool is not None:
                pool.shutdown(wait=all(f.done() for f in futures.values()), cancel_futures=True)
        for i in ready:
            if finished[i] is None:
                record(i, "skipped", extra={"reason": "not started: an earlier node of its wave timed out"})
            else:
                settle(i, *finished[i])

    ordered = sorted(nodes)
    failed = [i for i in ordered if nodes[i].status is NodeStatus.FAILED]
    skipped = tuple(i for i in ordered if nodes[i].status is NodeStatus.PENDING)
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
                "failed_nodes": failed,
                "skipped_nodes": list(skipped),
            },
        )
    )
    return ExecutionResult(
        final_answer=final_answer,
        answers=exposed,
        feedback=tuple(feedback),
        bindings=bindings,
        plan_after=plan_after,
        skipped=skipped,
        lineage=log,
    )
