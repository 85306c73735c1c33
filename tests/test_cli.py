from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adot.cache import PlanCache
from adot.cli import build_parser, main
from adot.lineage import read_lineage
from adot.pipeline import Pipeline, PipelineConfig
from adot.stores.ingest import ingest
from adot.stores.store import load_store
from conftest import FIXTURES


@pytest.fixture
def store_dir(tmp_path):
    out = tmp_path / "store"
    code = main([
        "ingest",
        "--tables", str(FIXTURES / "olympics" / "tables.json"),
        "--docs", str(FIXTURES / "olympics" / "docs.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_ingest_reports_counts(store_dir, capsys):
    assert (store_dir / "schema.json").exists()
    assert (store_dir / "chunks.jsonl").exists()
    store = load_store(store_dir)
    assert len(store.index.chunks) == 4


def test_validate_exit_codes(store_dir, tmp_path, capsys):
    schema_file = store_dir / "schema.json"
    plan_file = FIXTURES / "olympics" / "plan.json"
    assert main(["validate", "--plan", str(plan_file), "--schema", str(schema_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out

    broken = tmp_path / "broken.json"
    doc = json.loads(plan_file.read_text())
    doc["subquestions"][0]["label"] = "$v1"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "--plan", str(broken), "--schema", str(schema_file), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["is_valid"] is False
    assert report["errors"][0]["code"] == "BadLabel"


def test_run_executes_plan(store_dir, tmp_path, capsys):
    lineage = tmp_path / "lineage.jsonl"
    code = main([
        "run",
        "--plan", str(FIXTURES / "olympics" / "plan.json"),
        "--store", str(store_dir),
        "--lineage", str(lineage),
        "--stream",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Birth year of the athlete: 1920" in out
    streamed = [line for line in out.splitlines() if line.startswith("{")]
    assert streamed == lineage.read_text(encoding="utf-8").splitlines()
    assert any("answer_description" in json.loads(line).get("extra", {}) for line in streamed)

    code = main(["trace", "--lineage", str(lineage), "--label", "$var_3"])
    closure = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(closure) == 3


def test_run_execution_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "smoky_store"
    main([
        "ingest",
        "--tables", str(FIXTURES / "smoky_mountains" / "tables.json"),
        "--docs", str(FIXTURES / "smoky_mountains" / "docs.jsonl"),
        "--out", str(out),
    ])
    capsys.readouterr()
    code = main([
        "run",
        "--plan", str(FIXTURES / "smoky_mountains" / "plan.json"),
        "--store", str(out),
    ])
    assert code == 3


def test_run_invalid_plan_exit_code(store_dir, tmp_path, capsys):
    doc = json.loads((FIXTURES / "olympics" / "plan.json").read_text())
    for node in doc["subquestions"]:
        node["should_expose_answer"] = False
        node.pop("answer_description", None)
    broken = tmp_path / "noexpose.json"
    broken.write_text(json.dumps(doc))
    code = main(["run", "--plan", str(broken), "--store", str(store_dir), "--max-fix-iterations", "0"])
    assert code == 2


@pytest.mark.parametrize("executed", [1, 3])
def test_run_and_ask_start_a_plan_with_every_node_pending(executed, store_dir, tmp_path, capsys):
    """A plan from outside that marks a node executed still runs every node and answers."""
    question = "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
    doc = json.loads((FIXTURES / "olympics" / "plan.json").read_text())
    doc["subquestions"][executed - 1]["status"] = "executed"
    plan, script = tmp_path / "plan.json", tmp_path / "script.json"
    plan.write_text(json.dumps(doc))
    script.write_text(json.dumps({question: doc}))
    assert main(["run", "--plan", str(plan), "--store", str(store_dir)]) == 0
    assert "Birth year of the athlete: 1920" in capsys.readouterr().out
    assert main(["ask", "--question", question, "--store", str(store_dir), "--planner", f"scripted:{script}",
                 "--no-cache"]) == 0
    assert "Birth year of the athlete: 1920" in capsys.readouterr().out


def test_ask_with_cache_file_round_trip(store_dir, tmp_path, capsys):
    cache_file = tmp_path / "cache.json"
    question = "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
    args = [
        "ask",
        "--question", question,
        "--store", str(store_dir),
        "--planner", f"scripted:{FIXTURES / 'olympics' / 'script.json'}",
        "--cache-file", str(cache_file),
    ]
    assert main(args) == 0
    assert "1920" in capsys.readouterr().out

    assert main(args) == 0
    assert "1920" in capsys.readouterr().out

    assert main(["cache", "stats", "--cache-file", str(cache_file)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert stats["insertions"] >= 1

    assert main(["cache", "clear", "--cache-file", str(cache_file)]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-file", str(cache_file)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0


@pytest.fixture
def unreadable_cache_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"stats": {"hits_exact": 0, "hits_templ')  # a truncated cache file
    return path


def test_cache_stats_on_an_unreadable_file_exits_1(unreadable_cache_file, capsys):
    assert main(["cache", "stats", "--cache-file", str(unreadable_cache_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not a plan cache file" in captured.err


def test_cache_clear_on_an_unreadable_file_writes_an_empty_cache(unreadable_cache_file, capsys):
    assert main(["cache", "clear", "--cache-file", str(unreadable_cache_file)]) == 0
    assert "cache cleared" in capsys.readouterr().out
    assert len(PlanCache.load(unreadable_cache_file)) == 0


def test_ask_with_config_file_and_env_override(store_dir, tmp_path, capsys, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"top_k": 3, "max_fix_iterations": 3}))
    monkeypatch.setenv("ADOT_TOP_K", "5")
    question = "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
    code = main([
        "ask",
        "--question", question,
        "--store", str(store_dir),
        "--planner", f"scripted:{FIXTURES / 'olympics' / 'script.json'}",
        "--config", str(config_file),
        "--no-cache",
    ])
    assert code == 0
    assert "1920" in capsys.readouterr().out


def test_ask_no_plan_exit_code(store_dir, capsys):
    code = main([
        "ask",
        "--question", "completely unknown question?",
        "--store", str(store_dir),
        "--planner", f"scripted:{FIXTURES / 'olympics' / 'script.json'}",
    ])
    assert code == 4


def test_ask_external_planner_failure_exits_no_plan(store_dir, capsys):
    code = main([
        "ask",
        "--question", "any question?",
        "--store", str(store_dir),
        "--planner", "external:definitely-not-a-command-xyz",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "status: no_plan" in err and "Traceback" not in err


def test_ask_scripted_entry_that_is_not_a_plan_exits_no_plan(store_dir, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"any question?": "{not json"}), encoding="utf-8")
    code = main([
        "ask",
        "--question", "any question?",
        "--store", str(store_dir),
        "--planner", f"scripted:{script}",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "status: no_plan" in err and "Traceback" not in err


def test_ask_into_a_closed_pipe_exits_141_silently(store_dir):
    """`adot ask --stream | head -1`: the reader is gone, which is not bad input."""
    question = "What year was the athlete born in the event that had 70 competitors from 39 countries, with 64 finishers?"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "adot.cli", "ask", "--question", question, "--store", str(store_dir),
         "--planner", f"scripted:{FIXTURES / 'olympics' / 'script.json'}", "--no-cache", "--stream"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()  # closed before the first record is written
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
    assert (code, err) == (141, "")


def _bad_env_value(tmp_path, store_dir, monkeypatch):
    monkeypatch.setenv("ADOT_TOP_K", "abc")
    return ["cache", "stats", "--cache-file", str(tmp_path / "cache.json")], "ADOT_TOP_K"


def _unknown_env_variable(tmp_path, store_dir, monkeypatch):
    monkeypatch.setenv("ADOT_MAX_PARALLEL", "abc")
    return ["ask", "--question", "q?", "--store", str(store_dir)], "ADOT_MAX_PARALLEL"


def _plan_not_json(tmp_path, store_dir, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text("{not json", encoding="utf-8")
    return ["validate", "--plan", str(plan), "--schema", str(store_dir / "schema.json")], f"{plan}: invalid JSON"


def _run_plan_not_json(tmp_path, store_dir, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text("{not json", encoding="utf-8")
    return ["run", "--plan", str(plan), "--store", str(store_dir)], f"{plan}: invalid JSON"


def _missing_lineage(tmp_path, store_dir, monkeypatch):
    return ["trace", "--lineage", str(tmp_path / "missing.jsonl"), "--label", "$var_1"], "missing.jsonl"


NODE_LINE = '{"seq": 1, "kind": "node", "status": "ok", "label": "$var_1"}\n'


def _torn_lineage(tmp_path, store_dir, monkeypatch):
    lineage = tmp_path / "torn.jsonl"
    lineage.write_text(NODE_LINE + '{"seq": 2, "kind": "final", "output_summary": {"final_answer": "Bir',
                       encoding="utf-8")
    return ["trace", "--lineage", str(lineage), "--label", "$var_1"], f"{lineage}: line 2: Unterminated string"


def _lineage_line_not_a_record(tmp_path, store_dir, monkeypatch):
    lineage = tmp_path / "empty-object.jsonl"
    lineage.write_text(NODE_LINE + "{}\n", encoding="utf-8")
    return ["trace", "--lineage", str(lineage), "--label", "$var_1"], f"{lineage}: line 2: not a lineage record"


def _label_not_in_lineage(tmp_path, store_dir, monkeypatch):
    lineage = tmp_path / "lineage.jsonl"
    lineage.write_text(NODE_LINE, encoding="utf-8")
    return ["trace", "--lineage", str(lineage), "--label", "$var_9"], "adot: lineage has no node record for '$var_9'\n"


def _torn_store_chunks(tmp_path, store_dir, monkeypatch):
    chunks = store_dir / "chunks.jsonl"
    chunks.write_bytes(chunks.read_bytes()[:-40])
    return ["run", "--plan", str(FIXTURES / "olympics" / "plan.json"), "--store", str(store_dir)], f"{chunks}: line 4: "


def _store_table_file_missing(tmp_path, store_dir, monkeypatch):
    table = store_dir / "tables" / "athletes_1948.jsonl"
    table.unlink()
    return ["run", "--plan", str(FIXTURES / "olympics" / "plan.json"), "--store", str(store_dir)], f"{table}: missing"


def _unknown_config_key(tmp_path, store_dir, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"top_k": 3, "slimming": False}))
    return ["ask", "--question", "q?", "--store", str(store_dir), "--config", str(config_file)], "slimming"


def _removed_config_key(key, value):
    """A config file naming a removed field, such as ``dataops`` or ``alpha``."""
    def bad_input(tmp_path, store_dir, monkeypatch):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"top_k": 3, key: value}))
        return ["ask", "--question", "q?", "--store", str(store_dir), "--config", str(config_file)], key
    bad_input.__name__ = f"_removed_config_key_{key}"
    return bad_input


def _config_file(case, content):
    """A ``--config`` file holding ``content``: not an object, or cut short."""
    def bad_input(tmp_path, store_dir, monkeypatch):
        config_file = tmp_path / "config.json"
        config_file.write_text(content)
        return ["ask", "--question", "q?", "--store", str(store_dir), "--config", str(config_file)], str(config_file)
    bad_input.__name__ = f"_config_file_{case}"
    return bad_input


def _config_value(key, value):
    """A ``--config`` file whose ``key`` holds a value of the wrong type."""
    def bad_input(tmp_path, store_dir, monkeypatch):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({key: value}))
        return (["ask", "--question", "q?", "--store", str(store_dir), "--config", str(config_file)],
                f"{config_file}: {key}: expected ")
    bad_input.__name__ = f"_config_value_{key}"
    return bad_input


def _torn_scripted_planner(tmp_path, store_dir, monkeypatch):
    script = tmp_path / "script.json"
    script.write_text('{"q?": ', encoding="utf-8")
    return ["ask", "--question", "q?", "--store", str(store_dir), "--planner", f"scripted:{script}"], str(script)


def _schema_table_without_name(tmp_path, store_dir, monkeypatch):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"tables": [{"columns": []}]}), encoding="utf-8")
    return (["validate", "--plan", str(FIXTURES / "olympics" / "plan.json"), "--schema", str(schema)],
            f"{schema}: missing key 'name'")


def _ingest_file(case, name, content, named):
    """``adot ingest`` with one bad input file, ``name``, holding ``content``; ``named`` follows its path."""
    def bad_input(tmp_path, store_dir, monkeypatch):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        tables = path if name != "docs.jsonl" else FIXTURES / "olympics" / "tables.json"
        docs = path if name == "docs.jsonl" else FIXTURES / "olympics" / "docs.jsonl"
        return ["ingest", "--tables", str(tables), "--docs", str(docs), "--out", str(tmp_path / "out")], f"{path}: {named}"
    bad_input.__name__ = f"_ingest_{case}"
    return bad_input


@pytest.mark.parametrize("bad_input", [_bad_env_value, _unknown_env_variable, _plan_not_json, _run_plan_not_json, _missing_lineage,
                                       _torn_lineage, _lineage_line_not_a_record, _label_not_in_lineage,
                                       _torn_store_chunks, _store_table_file_missing, _unknown_config_key, _removed_config_key("dataops", False),
                                       _removed_config_key("max_parallel", 2),
                                       _removed_config_key("alpha", 0.7), _config_file("not_an_object", "[1]"),
                                       _config_file("torn", '{"top_k": '), _config_value("top_k", 2.5),
                                       _config_value("policy_flags", "pii"), _config_value("audit", "off"),
                                       _config_value("tau", "abc"),
                                       _torn_scripted_planner, _schema_table_without_name,
                                       _ingest_file("csv_long_row", "t.csv", "x,y\n1,2,3\n", "line 2: 3 fields"),
                                       _ingest_file("csv_short_row", "t.csv", "x,y\n1,2\n3\n", "line 3: 1 fields"),
                                       _ingest_file("table_without_columns", "tables.json", '{"tables": [{"name": "t"}]}', "missing key 'columns'"),
                                       _ingest_file("table_row_of_wrong_type", "tables.json", json.dumps({"tables": [
                                           {"name": "t", "columns": [{"name": "a", "type": "int"}], "rows": [["x"]]}]}),
                                           "table 't' row 0"),
                                       _ingest_file("table_true_in_float_column", "tables.json", json.dumps({"tables": [
                                           {"name": "t", "columns": [{"name": "pts", "type": "float"}], "rows": [[1.5], [True]]}]}),
                                           "table 't' row 1: pts expects float, got True"),
                                       _ingest_file("document_without_text", "docs.jsonl", '{"document_id": 1}\n', "line 1: missing key 'text'"),
                                       _ingest_file("torn_document", "docs.jsonl", '{"document_id": 1, "text": "a."}\n{"document_', "line 2: ")],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_bad_input_exits_2_with_a_message(bad_input, store_dir, tmp_path, capsys, monkeypatch):
    argv, named = bad_input(tmp_path, store_dir, monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("adot: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, raw, message", [("--top-k", "abc", "argument --top-k: invalid int value: 'abc'"),
                                               ("--audit", "maybe", "argument --audit: invalid parse_bool value: 'maybe'")],
                         ids=["top_k", "audit"])
def test_bad_flag_value_exits_2_naming_the_flag(flag, raw, message, store_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ask", "--question", "q?", "--store", str(store_dir), flag, raw])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_audit_flag_parses_as_its_env_variable():
    for raw, expected in (("off", False), ("0", False), ("ON", True), ("yes", True)):
        args = build_parser().parse_args(["ask", "--question", "q?", "--store", "s", "--audit", raw])
        assert args.audit is expected


ASK_FLAGS = {"--question", "--store", "--planner", "--replanner", "--config", "--stream", "--cache-file", "--no-cache",
             "--lineage", "--max-fix-iterations", "--audit", "--tau", "--top-k", "--cache-capacity",
             "--node-timeout", "--context-role", "--policy-flag"}
RUN_FLAGS = {"--plan", "--store", "--stream", "--lineage", "--max-fix-iterations", "--replanner"}


def _flags(command):
    """``command``'s flags: their option string and where each stores its value."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.option_strings[0]: a.dest for a in subparsers.choices[command]._actions if a.option_strings[0] != "-h"}


def test_ask_and_run_flags_are_the_config_fields_and_the_readme_synopsis():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    ask, run = _flags("ask"), _flags("run")
    assert set(ask) == ASK_FLAGS and set(run) == RUN_FLAGS
    config_flags = [dest for dest in ask.values() if dest in fields]
    assert sorted(config_flags) == sorted(fields)  # each field is set by exactly one flag
    assert set(ask.items()) >= {(flag, dest) for flag, dest in run.items() if dest in fields}
    synopsis = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    assert ASK_FLAGS | RUN_FLAGS <= set(re.findall(r"--[a-z-]+", synopsis))


def test_store_alpha_ranks_chunks_for_run_and_ask_alike(tmp_path, capsys):
    """``meta.json``'s fusion weight is the only one: ``run`` and ``ask`` rank with it.

    At 0.7 the query keeps documents 3 and 1; at 0.5 it would keep only 3.
    """
    tables, docs, store = tmp_path / "tables.json", tmp_path / "docs.jsonl", tmp_path / "store"
    tables.write_text(json.dumps({"tables": [
        {"name": "places", "columns": [{"name": "document_id", "type": "int"}], "rows": [[1], [2], [3]]},
    ]}))
    texts = ["tower river orchard river bridge", "bridge apple", "orchard stone stone bridge river"]
    docs.write_text("".join(json.dumps({"document_id": i, "text": t}) + "\n" for i, t in enumerate(texts, 1)))
    ingest(tables, docs, store, alpha=0.7)
    question = "Find the document_id of the stone tower?"
    plan = {"source_query": question, "subquestions": [
        {"question": question, "tool": "milvus", "label": "$var_1",
         "should_expose_answer": True, "answer_description": "Documents"},
    ]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "script.json").write_text(json.dumps({question: plan}))

    assert Pipeline.from_config(PipelineConfig(store_dir=str(store))).store.index.alpha == 0.7
    assert main(["run", "--plan", str(tmp_path / "plan.json"), "--store", str(store),
                 "--lineage", str(tmp_path / "run.jsonl")]) == 0
    assert main(["ask", "--question", question, "--store", str(store), "--no-cache",
                 "--planner", f"scripted:{tmp_path / 'script.json'}",
                 "--lineage", str(tmp_path / "ask.jsonl")]) == 0
    assert capsys.readouterr().out.splitlines() == ["Documents: 3, 1", "Documents: 3, 1"]

    def hits(path):
        return [r.provenance_refs for r in read_lineage(path) if r.kind == "node"]

    assert hits(tmp_path / "run.jsonl") == hits(tmp_path / "ask.jsonl") != []
