from __future__ import annotations

import json
import os
import threading
from random import Random

import pytest

from adot.cache import PlanCache, build_template, normalize_query
from adot.plan_ir import Context
from adot.stores.vector import STOPWORDS
from oracles import bow_cosine, bow_embed
from plangen import parse_doc

SIG_A = "sig-aaaa"
SIG_B = "sig-bbbb"
CTX = Context()


def simple_plan(question="What is the venue of club x?"):
    return parse_doc({
        "subquestions": [
            {"question": question, "tool": "sql", "label": "$var_1",
             "should_expose_answer": True, "answer_description": "d"},
        ]
    })


# --- normalize_query ---------------------------------------------------------


def test_normalize_collapses_case_whitespace_punctuation():
    assert normalize_query("  What is  the VENUE? ") == "what is the venue"


def test_normalize_idempotent():
    q = normalize_query("Average Total Amount for receivers from Texas!?")
    assert normalize_query(q) == q


def test_normalize_strips_only_terminal_punctuation():
    assert normalize_query("plan.cache?") == "plan.cache"


# --- exact strategy ------------------------------------------------------------


def test_exact_hit_after_normalization():
    cache = PlanCache(capacity=4)
    plan = simple_plan()
    cache.insert("what is the venue of club x", SIG_A, CTX, plan)
    hit = cache.lookup("What is the venue of club X?", SIG_A, CTX)
    assert hit is not None and hit.strategy == "exact"
    assert hit.plan == plan


def test_miss_on_different_signature_or_context():
    cache = PlanCache(capacity=4)
    cache.insert("q one", SIG_A, CTX, simple_plan())
    assert cache.lookup("q one", SIG_B, CTX) is None
    assert cache.lookup("q one", SIG_A, Context(role="analyst")) is None


def test_schema_change_makes_all_entries_unreachable():
    rng = Random(8)
    cache = PlanCache(capacity=64, tau=0.99)
    questions = [f"question number {i} about topic {i}" for i in range(20)]
    for q in questions:
        cache.insert(q, SIG_A, CTX, simple_plan(q))
    for _ in range(50):
        q = rng.choice(questions)
        assert cache.lookup(q, SIG_B, CTX) is None
        assert cache.lookup(q, SIG_A, CTX) is not None


# --- template strategy -----------------------------------------------------------


def invoice_template_cache() -> PlanCache:
    cache = PlanCache(capacity=8)
    plan = parse_doc({
        "subquestions": [
            {"question": "What is the average of total_amount where state = 'texas'?", "tool": "sql",
             "label": "$var_1", "should_expose_answer": True, "answer_description": "Average total amount"},
        ]
    })
    template_text, skeleton = build_template(
        "Give me the average total amount for invoice receivers from Texas",
        plan,
        [("state", "texas", "identifier")],
    )
    assert template_text == "give me the average total amount for invoice receivers from {state:identifier}"
    cache.insert_template(template_text, SIG_A, CTX, skeleton)
    return cache


def test_template_hit_instantiates_slot_values():
    cache = invoice_template_cache()
    hit = cache.lookup("Give me the average total amount for invoice receivers from Ohio", SIG_A, CTX)
    assert hit is not None and hit.strategy == "template"
    question = hit.plan.subquestions[0].question
    assert "ohio" in question
    assert "{state}" not in question


def test_template_requires_exact_token_alignment():
    cache = invoice_template_cache()
    assert cache.lookup("Give me the maximum total amount for invoice receivers from Ohio", SIG_A, CTX) is None
    assert cache.lookup("Give me the average total amount for invoice receivers from", SIG_A, CTX) is None


def test_template_slot_type_checking():
    cache = PlanCache(capacity=4)
    plan = simple_plan("count of rows where id = {n}?")
    cache.insert_template("count rows above {n:number}", SIG_A, CTX, plan)
    assert cache.lookup("count rows above 17", SIG_A, CTX) is not None
    assert cache.lookup("count rows above seventeen", SIG_A, CTX) is None


def test_template_entries_need_slots():
    cache = PlanCache(capacity=4)
    with pytest.raises(ValueError):
        cache.insert_template("no slots here", SIG_A, CTX, simple_plan())


def test_exact_precedence_over_template_and_semantic():
    cache = invoice_template_cache()
    exact_plan = simple_plan("the exact one")
    cache.insert("give me the average total amount for invoice receivers from texas", SIG_A, CTX, exact_plan)
    hit = cache.lookup("Give me the average total amount for invoice receivers from Texas", SIG_A, CTX)
    assert hit.strategy == "exact"
    assert hit.plan == exact_plan


# --- semantic strategy ------------------------------------------------------------


def test_semantic_hit_and_miss_match_brute_force_oracle():
    rng = Random(202)
    cache = PlanCache(capacity=64, tau=0.85)
    stored = [
        "what is the venue of the club that won the bathurst 12 hour",
        "average total amount for invoice receivers from texas",
        "list the payment terms for overdue invoices",
        "which athlete claimed the metres title",
    ]
    for q in stored:
        cache.insert(q, SIG_A, CTX, simple_plan(q))
    pool = "today ranking ledger sprint deadline quarterly festival".split()
    checked_hit = checked_miss = 0
    for _ in range(200):
        words = normalize_query(rng.choice(stored)).split()
        for _ in range(rng.randint(0, 3)):
            if len(words) > 1:
                words.pop(rng.randrange(len(words)))
        for _ in range(rng.randint(0, 3)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(pool))
        rng.shuffle(words)
        query = " ".join(words)
        nq = normalize_query(query)
        if any(normalize_query(s) == nq for s in stored):
            continue  # would be an exact hit; semantic not exercised
        best = max(
            bow_cosine(bow_embed(nq, 256, STOPWORDS), bow_embed(normalize_query(s), 256, STOPWORDS))
            for s in stored
        )
        hit = cache.lookup(query, SIG_A, CTX)
        if best >= 0.85:
            checked_hit += 1
            assert hit is not None and hit.strategy == "semantic", (query, best)
        else:
            checked_miss += 1
            assert hit is None, (query, best)
    assert checked_hit > 5 and checked_miss > 5


def test_semantic_respects_tau():
    cache = PlanCache(capacity=4, tau=1.0)
    cache.insert("alpha beta gamma", SIG_A, CTX, simple_plan())
    assert cache.lookup("alpha beta gamma delta", SIG_A, CTX) is None
    low = PlanCache(capacity=4, tau=0.5)
    low.insert("alpha beta gamma", SIG_A, CTX, simple_plan())
    assert low.lookup("alpha beta gamma delta", SIG_A, CTX) is not None


# --- LRU ---------------------------------------------------------------------------


def test_lru_capacity_two_spec_sequence():
    cache = PlanCache(capacity=2)
    cache.insert("a", SIG_A, CTX, simple_plan("a"))
    cache.insert("b", SIG_A, CTX, simple_plan("b"))
    assert cache.lookup("a", SIG_A, CTX) is not None  # refresh A
    cache.insert("c", SIG_A, CTX, simple_plan("c"))
    assert cache.lookup("b", SIG_A, CTX) is None  # B evicted
    assert cache.lookup("a", SIG_A, CTX) is not None
    assert cache.lookup("c", SIG_A, CTX) is not None
    assert cache.stats.evictions == 1


def test_lru_reinsert_same_key_refreshes():
    cache = PlanCache(capacity=2)
    cache.insert("a", SIG_A, CTX, simple_plan("a1"))
    cache.insert("b", SIG_A, CTX, simple_plan("b"))
    cache.insert("a", SIG_A, CTX, simple_plan("a2"))
    assert len(cache) == 2
    cache.insert("c", SIG_A, CTX, simple_plan("c"))
    assert cache.lookup("b", SIG_A, CTX) is None
    hit = cache.lookup("a", SIG_A, CTX)
    assert hit.plan.subquestions[0].question == "a2"


def test_lru_capacity_one():
    cache = PlanCache(capacity=1)
    cache.insert("a", SIG_A, CTX, simple_plan("a"))
    cache.insert("b", SIG_A, CTX, simple_plan("b"))
    assert len(cache) == 1
    assert cache.lookup("a", SIG_A, CTX) is None
    assert cache.lookup("b", SIG_A, CTX) is not None


def test_lru_capacity_eight_eviction_order():
    # distinct token sets per query so semantic matching (tau=1.0) cannot
    # accidentally resolve a lookup for an evicted entry
    cache = PlanCache(capacity=8, tau=1.0)
    for i in range(8):
        cache.insert(f"subject{i} flavor{i}", SIG_A, CTX, simple_plan(str(i)))
    for i in (3, 5, 1):
        assert cache.lookup(f"subject{i} flavor{i}", SIG_A, CTX) is not None
    expected_eviction_order = [0, 2, 4, 6, 7, 3, 5, 1]
    for n, newcomer in enumerate(range(100, 108)):
        cache.insert(f"fresh{newcomer} item{newcomer}", SIG_A, CTX, simple_plan(str(newcomer)))
        evicted = expected_eviction_order[n]
        assert cache.lookup(f"subject{evicted} flavor{evicted}", SIG_A, CTX) is None


def test_deterministic_given_history():
    def build():
        cache = PlanCache(capacity=3)
        cache.insert("one two three", SIG_A, CTX, simple_plan("p1"))
        cache.insert("four five six", SIG_A, CTX, simple_plan("p2"))
        cache.lookup("one two three", SIG_A, CTX)
        cache.insert("seven eight nine", SIG_A, CTX, simple_plan("p3"))
        return cache

    a, b = build(), build()
    for q in ("one two three", "four five six", "seven eight nine", "unknown words entirely"):
        ha, hb = a.lookup(q, SIG_A, CTX), b.lookup(q, SIG_A, CTX)
        assert (ha is None) == (hb is None)
        if ha is not None:
            assert ha.strategy == hb.strategy and ha.plan == hb.plan
    assert a.stats == b.stats


# --- persistence ---------------------------------------------------------------------


def test_cache_snapshot_round_trip(tmp_path):
    cache = invoice_template_cache()
    cache.insert("another concrete question", SIG_A, CTX, simple_plan("concrete"))
    cache.lookup("another concrete question", SIG_A, CTX)
    path = tmp_path / "cache.json"
    cache.save(path)
    loaded = PlanCache.load(path)
    assert len(loaded) == len(cache)
    assert loaded.stats == cache.stats
    hit = loaded.lookup("Give me the average total amount for invoice receivers from Ohio", SIG_A, CTX)
    assert hit is not None and hit.strategy == "template"
    exact = loaded.lookup("another concrete question", SIG_A, CTX)
    assert exact.strategy == "exact"


def test_save_interrupted_before_rename_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = invoice_template_cache()
    cache.save(path)
    cache.insert("another concrete question", SIG_A, CTX, simple_plan("concrete"))

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        cache.save(path)
    monkeypatch.undo()
    assert len(PlanCache.load(path)) == len(cache) - 1
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_entries_waits_for_the_lock():
    cache = invoice_template_cache()
    got: list = []
    with cache._lock:
        reader = threading.Thread(target=lambda: got.append(cache.entries()))
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive() and not got
    reader.join(timeout=5)
    assert not reader.is_alive() and len(got[0]) == len(cache)


def test_capacity_and_tau_validation():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)
    with pytest.raises(ValueError):
        PlanCache(tau=1.5)
