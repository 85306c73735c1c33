"""Boundary tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each layer's entry point at the place where its
caller looks it up (a module global or a class attribute) with a wrapper
that records a span: id, parent id, name, start, end, the operation it
belongs to, and a small info value taken from the call. Nothing under
``src/`` changes. A span opened on an executor worker thread has no
enclosing span on that thread, so it takes the running ``execute_plan``
span as its parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

SETUP = -1  # operation id of set-up spans; warm-up answers count down from -2


def _bindings_width(args, kwargs, result) -> int:
    return sum(len(v) for slim in result.bindings_in.values() for v in slim.values())


def _exec_info(args, kwargs, result) -> tuple[int, int]:
    store, query = args
    tables = getattr(store, "tables", store)
    scanned = len(tables[query.table].rows)
    if query.join is not None:
        scanned += len(tables[query.join.table].rows)
    return scanned, len(result.rows)


def _search_info(args, kwargs, result):
    index = args[0]
    doc_filter = kwargs.get("doc_filter", args[3] if len(args) > 3 else None)
    return (len(index.chunks) if doc_filter is None else tuple(doc_filter)), len(result)


def _waves_info(args, kwargs, result) -> tuple[int, ...]:
    return tuple(len(w) for w in result)


def _action_info(args, kwargs, result) -> str:
    return result.kind.value


def boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, info function) for every layer entry."""
    pipeline, executor, adapters, cache, vector, ingest, lineage = (
        importlib.import_module(f"adot.{m}")
        for m in ("pipeline", "executor", "adapters", "cache", "stores.vector", "stores.ingest", "lineage")
    )
    return [
        (pipeline.Pipeline, "answer_question", "pipeline.answer", None),
        (cache.PlanCache, "lookup", "cache.lookup", None),
        (cache.PlanCache, "insert", "cache.insert", None),
        (cache.PlanCache, "save", "cache.save", None),
        (adapters.ScriptedPlanner, "generate", "planner.generate", None),
        (pipeline, "validate_plan", "validator.validate", None),
        (pipeline, "audit_plan", "validator.audit", None),
        (pipeline, "diagnose", "dataops.diagnose", None),
        (pipeline, "remediate", "dataops.remediate", _action_info),
        (pipeline, "execute_plan", "executor.execute", None),
        (executor, "topological_waves", "executor.waves", _waves_info),
        (executor, "resolve_question", "executor.resolve", _bindings_width),
        (executor, "slim_binding", "executor.slim", None),
        (executor, "synthesize_answer", "executor.synthesize", None),
        (executor, "run_structured_adapter", "adapters.structured", None),
        (executor, "run_vector_adapter", "adapters.vector", None),
        (adapters.PatternTranslator, "translate", "adapters.translate", None),
        (adapters, "exec_structured", "relational.exec", _exec_info),
        (vector.VectorIndex, "search", "vector.search", _search_info),
        (vector.HashedBowEmbedder, "embed", "vector.embed", None),
        (vector.VectorIndex, "add_text", "ingest.add_text", None),
        (ingest, "chunk_document", "ingest.chunk", None),
        (lineage.LineageLog, "__init__", "lineage.open", None),
        (lineage.LineageLog, "append", "lineage.append", None),
        (lineage.LineageLog, "close", "lineage.close", None),
        (executor, "summarize_result", "lineage.summarize", None),
    ]


class Tracer:
    """In-memory span recorder; ``op`` is the id of the running operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op, info)
        self.op = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._execute_span: int | None = None
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for owner, attr, name, info in boundaries():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name: str, info_fn: Callable | None) -> Callable:
        tracer = self
        is_execute = name == "executor.execute"

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._execute_span
            sid = next(tracer._ids)
            stack.append(sid)
            if is_execute:
                tracer._execute_span = sid
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_execute:
                    tracer._execute_span = None
                info = info_fn(args, kwargs, result) if info_fn is not None and result is not None else None
                tracer.spans.append((sid, parent, name, start, end, tracer.op, info))

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                                     "op": op, "info": info}) + "\n")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 when nothing was timed."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_unit(name: str) -> str:
    if name.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_per_hit", "_per_answer", "_per_row_returned")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[tuple], window: int, chunk_counts: dict[int, int],
                  strategies: dict[int, str | None], cache_delta: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Timings pool every span of the traced run, set-up and warm-up included,
    so a layer that works only while setting up still has a timing; counts
    and ratios use only the first ``window`` measured operations, so they
    repeat exactly for one seed. ``strategies`` maps each answered
    operation, warm-up included, to its cache strategy.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
        by_name[span[2]].append(span)

    def ms(name: str) -> list[float]:
        return [(s[4] - s[3]) * 1000.0 for s in by_name[name]]

    def self_ms(name: str) -> list[float]:
        return [(s[4] - s[3] - _union(children[s[0]], s[3], s[4])) * 1000.0 for s in by_name[name]]

    def in_window(name: str) -> list[tuple]:
        return [s for s in by_name[name] if 0 <= s[5] < window]

    answers = by_name["pipeline.answer"]
    window_answers = max(1, len(in_window("pipeline.answer")))
    covered = sum(_union(children[s[0]], s[3], s[4]) for s in answers)
    total = sum(s[4] - s[3] for s in answers)
    hit_ms = [(s[4] - s[3]) * 1000.0 for s in answers if strategies.get(s[5])]
    miss_ms = [(s[4] - s[3]) * 1000.0 for s in answers if s[5] in strategies and not strategies[s[5]]]
    lookups = sum(cache_delta[k] for k in ("hits_exact", "hits_template", "hits_semantic", "misses")) or 1

    actions = Counter(s[6] for s in in_window("dataops.remediate"))
    waves = [w for s in in_window("executor.waves") for w in s[6]]
    widths = [float(s[6]) for s in by_name["executor.resolve"] if s[6]]  # nodes that consume bindings
    scanned = [s[6] for s in in_window("relational.exec") if s[6] is not None]  # (rows scanned, returned)
    searches = [s[6] for s in in_window("vector.search") if s[6] is not None]  # (candidates, hits)
    candidates = sum(c if isinstance(c, int) else sum(chunk_counts.get(d, 0) for d in c) for c, _ in searches)
    ingest_s = sum(s[4] - s[3] for s in by_name["ingest.chunk"] + by_name["ingest.add_text"])

    return {
        "pipeline.answer.self_ms_p50": percentile(self_ms("pipeline.answer"), 50),
        "cache.lookup_ms_p50": percentile(ms("cache.lookup"), 50),
        "cache.hit_exact_ratio": cache_delta["hits_exact"] / lookups,
        "cache.hit_template_ratio": cache_delta["hits_template"] / lookups,
        "cache.hit_semantic_ratio": cache_delta["hits_semantic"] / lookups,
        "cache.miss_ratio": cache_delta["misses"] / lookups,
        "cache.evictions": cache_delta["evictions"],
        "cache.insert_ms_p50": percentile(ms("cache.insert"), 50),
        "cache.save_ms_p50": percentile(ms("cache.save"), 50),
        "cache.hit_answer_ms_p50": percentile(hit_ms, 50),
        "cache.miss_answer_ms_p50": percentile(miss_ms, 50),
        "planner.generate_ms_p50": percentile(ms("planner.generate"), 50),
        "planner.calls": len(in_window("planner.generate")),
        "validator.validate_ms_p50": percentile(ms("validator.validate"), 50),
        "validator.audit_ms_p50": percentile(ms("validator.audit"), 50),
        "validator.calls": len(in_window("validator.validate")),
        "dataops.remediate_calls": sum(actions.values()),
        "dataops.remediate_ms_p50": percentile(ms("dataops.remediate"), 50),
        "dataops.fix_ratio": actions["fix"] / sum(actions.values()) if actions else 0.0,
        "executor.execute.self_ms_p50": percentile(self_ms("executor.execute"), 50),
        "executor.waves_per_answer": len(waves) / window_answers,
        "executor.nodes_per_answer": sum(waves) / window_answers,
        "executor.parallel_wave_ratio": sum(1 for w in waves if w > 1) / len(waves) if waves else 0.0,
        "executor.resolve_ms_p50": percentile(ms("executor.resolve"), 50),
        "executor.slim_ms_p50": percentile(ms("executor.slim"), 50),
        "executor.synthesize_ms_p50": percentile(ms("executor.synthesize"), 50),
        "executor.binding_values_p50": percentile(widths, 50),
        "adapters.translate_ms_p50": percentile(ms("adapters.translate"), 50),
        "adapters.structured.self_ms_p50": percentile(self_ms("adapters.structured"), 50),
        "adapters.vector.self_ms_p50": percentile(self_ms("adapters.vector"), 50),
        "relational.exec_ms_p50": percentile(ms("relational.exec"), 50),
        "relational.exec_ms_p90": percentile(ms("relational.exec"), 90),
        "relational.exec_calls": len(scanned),
        "relational.rows_scanned_per_row_returned": sum(r for r, _ in scanned) / max(1, sum(n for _, n in scanned)),
        "vector.search_ms_p50": percentile(ms("vector.search"), 50),
        "vector.search_ms_p90": percentile(ms("vector.search"), 90),
        "vector.search_calls": len(searches),
        "vector.candidates_per_hit": candidates / max(1, sum(h for _, h in searches)),
        "vector.embed_ms_p50": percentile(ms("vector.embed"), 50),
        "vector.embed_calls": len(in_window("vector.embed")),
        "ingest.chunk_ms_p50": percentile(ms("ingest.chunk"), 50),
        "ingest.add_text_ms_p50": percentile(ms("ingest.add_text"), 50),
        "ingest.chunks_per_s": len(by_name["ingest.add_text"]) / ingest_s if ingest_s else 0.0,
        "lineage.append_ms_p50": percentile(ms("lineage.append"), 50),
        "lineage.summarize_ms_p50": percentile(ms("lineage.summarize"), 50),
        "lineage.records_per_answer": len(in_window("lineage.append")) / window_answers,
        "trace.coverage_ratio": covered / total if total else 0.0,
    }
