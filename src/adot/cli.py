"""Command line surface: ingest, validate, run, ask, cache, trace.

Exit codes: 0 ok, 2 bad input, 3 execution failure, 4 unrecoverable or
no plan, 141 standard output closed by its reader. A plan that fails validation and cannot be fixed exits 2 from
``validate`` and ``run`` and 4 (unrecoverable) from ``ask``. Bad input,
``ingest``'s included, prints one line, ``adot: <message>``; a bad input
file is named in it, with the line for a line-based file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .adapters import ScriptedPlanner
from .cache import CacheFileError, PlanCache
from .jsonfiles import read_json, read_text
from .lineage import LineageIOError, MissingRecordError, trace_answer
from .pipeline import Pipeline, PipelineConfig, field_type, load_config
from .plan_ir import ParseError, Plan, parse_plan
from .stores.ingest import CHUNK_OVERLAP_CHARS, CHUNK_TARGET_CHARS, ingest
from .stores.schema import GlobalSchema
from .stores.store import load_store
from .validator import validate_plan


def _print_record(record) -> None:
    """One lineage record as the lineage file holds it."""
    print(json.dumps(record.to_json()), flush=True)


def _cmd_ingest(args: argparse.Namespace) -> int:
    report = ingest(
        args.tables,
        args.docs,
        args.out,
        row_map_path=args.row_map,
        target=args.target_chars,
        overlap=args.overlap,
    )
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _read_plan(path: str) -> tuple[str, Plan]:
    """The plan file's text and plan; a parse error names the file."""
    text = read_text(path, ParseError)
    try:
        return text, parse_plan(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    _, plan = _read_plan(args.plan)
    schema = read_json(args.schema, GlobalSchema.from_json, ValueError)
    report = validate_plan(plan, schema)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif report.is_valid:
        print("plan is valid")
    else:
        for err in report.errors:
            print(f"{err.code.value}: {err.detail}")
    return 0 if report.is_valid else 2


def _config_flags(args: argparse.Namespace) -> dict:
    """The config fields the command's flags set."""
    fields = dataclasses.fields(PipelineConfig)
    return {f.name: value for f in fields if (value := getattr(args, f.name, None)) is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    plan_text, plan = _read_plan(args.plan)
    question = plan.source_query
    config = PipelineConfig(**_config_flags(args), cache_enabled=False, audit=False)
    pipeline = Pipeline(load_store(config.store_dir), config, planner=ScriptedPlanner({question: plan_text}))
    result = pipeline.answer_question(question, on_record=_print_record if args.stream else None)
    if result.final_answer:
        print(result.final_answer)
    for message in result.messages:
        print(message, file=sys.stderr)
    if result.status == "ok":
        return 0
    if result.status == "execution_failed":
        return 3
    return 2  # never validated -> invalid plan


def _cmd_ask(args: argparse.Namespace) -> int:
    pipeline = Pipeline.from_config(load_config(args.config, **_config_flags(args)))
    result = pipeline.answer_question(args.question, on_record=_print_record if args.stream else None)
    if result.final_answer:
        print(result.final_answer)
    if result.status != "ok":
        print(f"status: {result.status}", file=sys.stderr)
        for message in result.messages:
            print(message, file=sys.stderr)
    return result.exit_code


def _cmd_cache(args: argparse.Namespace) -> int:
    path = Path(args.cache_file)
    config = load_config()
    cache = PlanCache(capacity=config.cache_capacity, tau=config.tau)
    if path.exists():
        try:
            cache = PlanCache.load(path, capacity=cache.capacity, tau=cache.tau)
        except CacheFileError as exc:
            if args.action == "stats":
                print(f"cache stats failed: {exc}", file=sys.stderr)
                return 1
    if args.action == "stats":
        stats = cache.stats.to_json()
        stats.update(
            {
                "entries": len(cache),
                "capacity": cache.capacity,
                "tau": cache.tau,
                "provenance": [e.provenance_summary for e in cache.entries()],
            }
        )
        print(json.dumps(stats, indent=2))
        return 0
    cache.clear()
    cache.save(path)
    print("cache cleared")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    refs = trace_answer(args.lineage, args.label)
    print(json.dumps([r.to_json() for r in refs], indent=2))
    return 0


# The config fields whose flag is not ``--<field-name>``; every other field's
# flag parses its value as the field's ADOT_* variable does.
_FLAGS = {
    "store_dir": ("--store", {"required": True}),
    "lineage_path": ("--lineage", {}),
    "policy_flags": ("--policy-flag", {"action": "append"}),
    "cache_enabled": ("--no-cache", {"action": "store_const", "const": False}),
}


def _add_config_flags(parser: argparse.ArgumentParser, names: set[str]) -> None:
    """One flag per named config field, stored under the field's name."""
    for f in dataclasses.fields(PipelineConfig):
        if f.name in names:
            flag, kwargs = _FLAGS.get(f.name, ("--" + f.name.replace("_", "-"), {"type": field_type(f).parse}))
            parser.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adot",
        description="DAG-orchestrated multi-hop query engine over a hybrid data lake",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a store directory from tables + documents")
    p.add_argument("--tables", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--row-map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--target-chars", type=int, default=CHUNK_TARGET_CHARS)
    p.add_argument("--overlap", type=int, default=CHUNK_OVERLAP_CHARS)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="validate a plan file against a schema file")
    p.add_argument("--plan", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="validate and execute a plan file against a store")
    p.add_argument("--plan", required=True)
    p.add_argument("--stream", action="store_true")
    _add_config_flags(p, {"store_dir", "lineage_path", "max_fix_iterations", "replanner"})
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ask", help="answer a question end to end")
    p.add_argument("--question", required=True)
    p.add_argument("--config", default=None, help="JSON config file (ADOT_* env overrides apply)")
    p.add_argument("--stream", action="store_true")
    _add_config_flags(p, {f.name for f in dataclasses.fields(PipelineConfig)})
    p.set_defaults(func=_cmd_ask)

    p = sub.add_parser("cache", help="inspect or clear a persistent cache file")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-file", required=True)
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("trace", help="provenance closure for an answer label")
    p.add_argument("--lineage", required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader closed standard output (``adot ask --stream | head -1``):
        # send what is still buffered to devnull so the flush at exit cannot
        # fail again, and exit as a shell reports a SIGPIPE death, silently.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError, LineageIOError, MissingRecordError) as exc:
        print(f"adot: {exc}", file=sys.stderr)  # bad input: a message, not a traceback
        return 2


if __name__ == "__main__":
    sys.exit(main())
