"""Benchmark of adot's question answering on a seeded hybrid lake.

Usage, from the root of a checkout::

    python3 bench/run.py --workload hot_small|rel_wide|vec_churn --seed N --seconds S --trace 0|1

One closed-loop client in one process drives ``Pipeline.answer_question``
(and, on ``vec_churn``, ingest batches) for ``--seconds`` seconds and at
least the workload's count window of operations. Every answer is checked
against the generator's ground truth. With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` an untraced half-run and a traced
half-run give the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # at least this many set-ups per run, and
SETUP_MIN_S = 3.0  # until they add up to this many seconds,
SETUP_MAX_REPEATS = 25  # but no more than this many
MIN_ANSWERS = 110  # p90 keeps at least ten samples above it

sys.path.insert(0, str(BENCH))
from check import Checker, Outcome, vector_hits  # noqa: E402
from lake import WORKLOADS, Ask, Lake  # noqa: E402
from spans import SETUP, Tracer, layer_metrics, layer_unit, percentile  # noqa: E402

GATED = {  # metric -> unit, as listed in BENCHMARK.json
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "answers_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_engine():
    """Import adot from this checkout's sources, never from elsewhere."""
    if not (SRC / "adot" / "__init__.py").is_file():
        raise SystemExit(f"error: no adot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adot

    if Path(adot.__file__).resolve().parent != (SRC / "adot").resolve():
        raise SystemExit(f"error: imported adot from {adot.__file__}, not from {SRC}")
    return adot


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Session:
    lake: Lake
    pipeline: object
    setup_s: float
    warmup_strategies: dict  # warm-up operation id (negative) -> cache strategy


def set_up(adot, workload: str, seed: int, scale: float, work: Path, tracer: Tracer | None = None) -> Session:
    """Generate the lake, ingest it, build the pipeline, load templates, warm up."""
    from adot.stores.relational import Table
    from adot.stores.schema import Column, TableSchema

    ingest = importlib.import_module("adot.stores.ingest")
    cache_file = work / "plans.json"
    cache_file.unlink(missing_ok=True)
    start = time.perf_counter()
    lake = WORKLOADS[workload](seed, scale)
    tables = [
        Table(TableSchema(t.name, tuple(Column(n, ty) for n, ty in t.columns), t.primary_key), rows=list(t.rows))
        for t in lake.tables
    ]
    store, _ = ingest.build_store(tables, lake.documents)
    config = adot.PipelineConfig(
        cache_file=str(cache_file),
        lineage_path=str(work / "lineage.jsonl"),
    )
    pipeline = adot.Pipeline(store, config, planner=adot.ScriptedPlanner(lake.script))
    for question in lake.preload:
        pipeline.cache.insert(question, store.signature, config.context,
                              adot.parse_plan(json.dumps(lake.asks[question].plan)))
    for text, skeleton in lake.templates:
        pipeline.cache.insert_template(text, store.signature, config.context,
                                       adot.parse_plan(json.dumps(skeleton)))
    strategies = {}
    for k, question in enumerate(lake.warmup):
        if tracer is not None:
            tracer.op = SETUP - 1 - k
        result = pipeline.answer_question(question)
        if result.status != "ok":
            raise RuntimeError(f"warm-up question failed: {question!r}: {result.messages}")
        strategies[SETUP - 1 - k] = result.cache_strategy
    if tracer is not None:
        tracer.op = SETUP
    return Session(lake, pipeline, time.perf_counter() - start, strategies)


@dataclasses.dataclass
class RunLog:
    outcomes: list  # distinct answer outcomes with their counts
    answer_ms: array.array
    write_ms: array.array
    seconds: float
    planner_calls_window: int
    cache_delta: dict
    chunks_written: int
    strategies: dict  # operation -> cache strategy, kept on traced runs only


def drive(adot, session: Session, seconds: float, tracer: Tracer | None = None) -> RunLog:
    """Closed loop: issue the next operation once the previous one is done."""
    lake, pipeline = session.lake, session.pipeline
    index = pipeline.store.index
    ingest = importlib.import_module("adot.stores.ingest")
    ops = lake.ops()
    window = lake.count_window
    stats0 = dict(pipeline.cache.stats.to_json())
    planner0 = pipeline.planner_calls
    tally: dict[tuple, Outcome] = {}
    answer_ms, write_ms = array.array("d"), array.array("d")
    strategies: dict[int, str | None] = {}
    planner_window, cache_delta = None, None
    chunks_written = 0
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or i < window or len(answer_ms) < MIN_ANSWERS:
        op = next(ops)
        if tracer is not None:
            tracer.op = i
        if isinstance(op, Ask):
            t0 = time.perf_counter()
            try:
                result = pipeline.answer_question(op.question)
            except Exception as exc:  # counted as a failed answer, never hidden
                answer_ms.append((time.perf_counter() - t0) * 1000.0)
                key = (op.question, f"exception: {exc!r}", None, None, ())
            else:
                answer_ms.append((time.perf_counter() - t0) * 1000.0)
                key = (op.question, result.status, result.final_answer, result.cache_strategy,
                       vector_hits(result.lineage.records))
            outcome = tally.get(key)
            if outcome is None:
                outcome = tally[key] = Outcome(i, *key)
            outcome.count += 1
            outcome.in_window += i < window
            if tracer is not None:
                strategies[i] = key[3]
        else:
            t0 = time.perf_counter()
            for doc_id, text in op.documents:
                for piece in ingest.chunk_document(text):
                    index.add_text(len(index.chunks), doc_id, piece)
                    chunks_written += 1
            write_ms.append((time.perf_counter() - t0) * 1000.0)
        i += 1
        if i == window:
            planner_window = pipeline.planner_calls - planner0
            cache_delta = {k: v - stats0[k] for k, v in pipeline.cache.stats.to_json().items()}
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = SETUP
    return RunLog(list(tally.values()), answer_ms, write_ms, elapsed, planner_window, cache_delta,
                  chunks_written, strategies)


def fresh_session(adot, args, work: Path, tracer: Tracer | None = None) -> Session:
    gc.collect()
    return set_up(adot, args.workload, args.seed, args.scale, work, tracer)


def checker_for(adot, session: Session) -> Checker:
    pipeline = session.pipeline
    return Checker(session.lake, pipeline.store.index, pipeline.cache.tau, pipeline.store.index.alpha,
                   importlib.import_module("adot.stores.vector").tokenize, pipeline.cache.embedder.embed)


def run(args) -> dict:
    adot = load_engine()
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(adot, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(adot, args, work: Path) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }
    if args.trace:
        plain = fresh_session(adot, args, work)
        plain_log = drive(adot, plain, args.seconds / 2)
        del plain
        tracer = Tracer()
        tracer.install()
        try:
            session = fresh_session(adot, args, work, tracer)
            log = drive(adot, session, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        setups = [session.setup_s]
    else:
        setups = []
        while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
            session = None
            session = fresh_session(adot, args, work)
            setups.append(session.setup_s)
        log = drive(adot, session, args.seconds)
    env["pipeline_config"] = dataclasses.asdict(session.pipeline.config)
    env["sizes"] = dict(session.lake.sizes, chunks_at_setup=len(session.pipeline.store.index.chunks)
                        - log.chunks_written)
    summary = checker_for(adot, session).check(log.outcomes)
    answers = len(log.answer_ms)
    window_answers = max(1, summary["window_answers"])
    e2e = {
        "answer_p50_ms": statistics.median(log.answer_ms),
        "answer_p90_ms": percentile(log.answer_ms, 90),
        "answers_per_s": answers / log.seconds,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrong_answer_ratio": summary["window_wrong"] / window_answers,
        "failed_ratio": summary["window_failed"] / window_answers,
        "planner_calls_per_answer": log.planner_calls_window / window_answers,
    }
    units = dict(GATED, wrong_answer_ratio="ratio", failed_ratio="ratio", planner_calls_per_answer="count")
    if log.write_ms:
        e2e["write_p50_ms"] = statistics.median(log.write_ms)
        e2e["write_p90_ms"] = percentile(log.write_ms, 90)
        units.update(write_p50_ms="ms", write_p90_ms="ms")
    samples = {"answer": answers, "write": len(log.write_ms), "setup": len(setups),
               "count_window_ops": session.lake.count_window, "count_window_answers": summary["window_answers"]}

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"checked {summary['answers']} answers: {summary['wrong']} wrong {summary['causes']}, "
          f"{summary['failed']} failed; unexplained: {json.dumps(summary['unexplained'])}")
    print(f"samples {json.dumps(samples)}")
    for name, value in e2e.items():
        print(f"  {name:<26} {value:>14.6f} {units[name]}")

    if args.trace:
        chunk_counts: dict[int, int] = {}
        for c in session.pipeline.store.index.chunks:
            chunk_counts[c.document_id] = chunk_counts.get(c.document_id, 0) + 1
        metrics = layer_metrics(tracer.spans, session.lake.count_window, chunk_counts,
                                {**session.warmup_strategies, **log.strategies}, log.cache_delta)
        metrics["trace.overhead_ratio"] = statistics.median(log.answer_ms) / statistics.median(plain_log.answer_ms)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>14.6f}")
        reported = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    else:
        reported = {name: {"value": e2e[name], "unit": unit} for name, unit in GATED.items()}
    return {
        "correct": summary["correct"] and summary["failed"] == 0,
        "attempted": answers + len(log.write_ms),
        "failed": summary["failed"],
        "metrics": reported,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="lake and window size factor (self-check only)")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
