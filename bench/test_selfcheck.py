"""Self-check of the benchmark at a tiny scale: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from lake import WORKLOADS

TINY = {"hot_small": 0.3, "rel_wide": 0.05, "vec_churn": 0.02}


@pytest.fixture(scope="module")
def adot():
    return run.load_engine()


def _replay(adot, workload: str, seed: int, tmp_path: Path):
    session = run.set_up(adot, workload, seed, TINY[workload], tmp_path)
    log = run.drive(adot, session, 0.0)  # zero seconds: exactly the count window and MIN_ANSWERS
    return session, log


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_and_checks_out(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--scale", str(TINY[workload])]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.GATED)


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "hot_small", "--seed", "4", "--seconds", "0.4", "--trace", "1",
                     "--scale", str(TINY["hot_small"])]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    assert metrics["trace.coverage_ratio"]["value"] >= 0.9


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs_answers_and_counts(adot, workload, tmp_path):
    first_session, first = _replay(adot, workload, 7, tmp_path)
    second_session, second = _replay(adot, workload, 7, tmp_path)
    n = len(first.outcomes) + len(first.write_ms)
    assert first_session.lake.digest(n) == second_session.lake.digest(n)
    assert first_session.lake.digest(n) != WORKLOADS[workload](8, TINY[workload]).digest(n)
    assert first.outcomes == second.outcomes
    assert (first.cache_delta, first.planner_calls_window) == (second.cache_delta, second.planner_calls_window)


def test_checker_flags_a_corrupted_answer(adot, tmp_path):
    session, log = _replay(adot, "hot_small", 5, tmp_path)
    checker = run.checker_for(adot, session)
    clean = checker.check(log.outcomes)
    assert clean["correct"]
    victim = next(o for o in log.outcomes if o.answer == checker.truth(o.question))
    victim.answer = victim.answer + " (corrupted)"
    flagged = checker.check(log.outcomes)
    assert not flagged["correct"]
    assert flagged["unexplained"][0]["op"] == victim.op
    assert flagged["wrong"] == clean["wrong"] + victim.count
