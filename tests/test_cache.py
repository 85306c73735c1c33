from __future__ import annotations

import json
import os
import threading
from random import Random

import numpy as np
import pytest

from adot.cache import CacheFileError, PlanCache, build_template, normalize_query
from adot.plan_ir import Context, plan_to_json
from adot.stores.vector import STOPWORDS, HashedBowEmbedder, cosine
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


def test_hit_names_the_entry_it_reused():
    cache = invoice_template_cache()
    template = cache.lookup("Give me the average total amount for invoice receivers from Ohio", SIG_A, CTX)
    assert template.cached_query == "give me the average total amount for invoice receivers from {state:identifier}"
    assert template.slots == {"state": "ohio"} and template.similarity is None
    cache.insert("Alpha beta gamma?", SIG_A, CTX, simple_plan())
    exact = cache.lookup("alpha  BETA gamma", SIG_A, CTX)
    assert (exact.strategy, exact.cached_query, exact.similarity, exact.slots) == ("exact", "alpha beta gamma", None, None)
    semantic = cache.lookup("gamma beta alpha delta", SIG_A, CTX)
    assert semantic.strategy == "semantic" and semantic.cached_query == "alpha beta gamma"
    embed = cache.embedder.embed
    assert semantic.similarity == cosine(embed("gamma beta alpha delta"), embed("alpha beta gamma"))
    assert semantic.slots is None


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


def test_semantic_hit_and_miss_match_brute_force_oracle(tmp_path):
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
    cache.save(tmp_path / "cache.json")
    caches = (cache, PlanCache.load(tmp_path / "cache.json", capacity=64, tau=0.85))
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
        hits = [c.lookup(query, SIG_A, CTX) for c in caches]  # live, then saved and reloaded
        if best >= 0.85:
            checked_hit += 1
            assert all(hit is not None and hit.strategy == "semantic" for hit in hits), (query, best)
            assert hits[0].plan == hits[1].plan
        else:
            checked_miss += 1
            assert hits == [None, None], (query, best)
    assert checked_hit > 5 and checked_miss > 5


def test_semantic_respects_tau():
    cache = PlanCache(capacity=4, tau=1.0)
    cache.insert("alpha beta gamma", SIG_A, CTX, simple_plan())
    assert cache.lookup("alpha beta gamma delta", SIG_A, CTX) is None
    low = PlanCache(capacity=4, tau=0.5)
    low.insert("alpha beta gamma", SIG_A, CTX, simple_plan())
    assert low.lookup("alpha beta gamma delta", SIG_A, CTX) is not None


def test_semantic_tie_goes_to_the_most_recently_used_entry():
    cache = PlanCache(capacity=4)
    cache.insert("alpha beta gamma delta", SIG_A, CTX, simple_plan("first"))
    cache.insert("delta gamma beta alpha", SIG_A, CTX, simple_plan("second"))

    def winner():
        hit = cache.lookup("beta alpha delta gamma", SIG_A, CTX)
        assert hit.strategy == "semantic"
        return hit.plan.subquestions[0].question

    assert winner() == "second"
    cache.lookup("alpha beta gamma delta", SIG_A, CTX)  # exact hit refreshes the first
    assert winner() == "first"


def test_template_tie_goes_to_the_most_recently_used_entry():
    cache = PlanCache(capacity=4)
    cache.insert_template("count rows above {n:number}", SIG_A, CTX, simple_plan("number {n}"))
    cache.insert_template("count rows above {n:identifier}", SIG_A, CTX, simple_plan("name {n}"))
    assert cache.lookup("count rows above x17", SIG_A, CTX).plan.subquestions[0].question == "name x17"
    assert cache.lookup("count rows above 17", SIG_A, CTX).plan.subquestions[0].question == "number 17"
    cache.insert_template("count rows above {m:number}", SIG_A, CTX, simple_plan("other {m}"))
    assert cache.lookup("count rows above 17", SIG_A, CTX).plan.subquestions[0].question == "other 17"


class FixedEmbedder(HashedBowEmbedder):
    """Maps each normalized text to a given vector."""

    def __init__(self, vectors):
        super().__init__(dim=4)
        self.vectors = vectors

    def embed(self, text):
        return self.vectors[text]


def test_semantic_tie_is_decided_on_the_exact_cosine_not_the_matrix_score():
    base = np.array([0.0, 1.0, 1.0, 1.0])
    q = np.array([0.0, 3.0, 0.0, 2.0])
    vectors = {
        "older question": base / np.linalg.norm(base),
        "newer question": base * 3 / np.linalg.norm(base * 3),
        "the query": q / np.linalg.norm(q),
    }
    # The two cached vectors differ in their last bits, so a matrix score can
    # rank one of them an ulp ahead; their scalar cosines with the query tie.
    assert cosine(vectors["the query"], vectors["older question"]) == cosine(
        vectors["the query"], vectors["newer question"])
    cache = PlanCache(capacity=4, tau=0.5, embedder=FixedEmbedder(vectors))
    cache.insert("older question", SIG_A, CTX, simple_plan("older"))
    cache.insert("newer question", SIG_A, CTX, simple_plan("newer"))
    assert cache.lookup("the query", SIG_A, CTX).plan.subquestions[0].question == "newer"


def test_semantic_hit_at_exactly_tau_and_miss_one_ulp_below():
    stored, query = "alpha beta gamma delta epsilon", "alpha beta gamma zeta"
    embedder = PlanCache().embedder
    sim = cosine(embedder.embed(query), embedder.embed(stored))
    assert 0.5 < sim < 1.0
    at_tau = PlanCache(capacity=4, tau=sim)
    above = PlanCache(capacity=4, tau=float(np.nextafter(sim, 1.0)))
    for cache in (at_tau, above):
        cache.insert(stored, SIG_A, CTX, simple_plan())
    assert at_tau.lookup(query, SIG_A, CTX).strategy == "semantic"
    assert above.lookup(query, SIG_A, CTX) is None


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


def test_template_and_semantic_hits_refresh_recency():
    cache = PlanCache(capacity=3)
    cache.insert_template("count rows above {n:number}", SIG_A, CTX, simple_plan("rows above {n}"))
    cache.insert("alpha beta gamma delta", SIG_A, CTX, simple_plan("alpha"))
    cache.insert("unrelated words entirely", SIG_A, CTX, simple_plan("other"))
    assert cache.lookup("count rows above 3", SIG_A, CTX).strategy == "template"
    assert cache.lookup("delta gamma beta alpha", SIG_A, CTX).strategy == "semantic"
    cache.insert("fresh question here", SIG_A, CTX, simple_plan("fresh"))
    assert [e.key.normalized_query for e in cache.entries()] == [
        "count rows above {n:number}", "alpha beta gamma delta", "fresh question here",
    ]


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


def test_cached_and_loaded_plans_start_with_every_node_pending(tmp_path):
    """A plan is cached with its execution state reset, however it arrives."""
    executed = parse_doc({
        "subquestions": [
            {"question": "What is the venue of club {club}?", "tool": "sql", "label": "$var_1",
             "should_expose_answer": True, "answer_description": "d",
             "status": "executed", "partial_result_columns": ["venue"]},
        ]
    })
    fresh = simple_plan("What is the venue of club {club}?")
    cache = PlanCache(capacity=4)
    cache.insert("what is the venue of club x", SIG_A, CTX, executed)
    cache.insert_template("venue of club {club:identifier}", SIG_A, CTX, executed)
    assert [e.plan for e in cache.entries()] == [fresh, fresh]
    assert cache.lookup("what is the venue of club x", SIG_A, CTX).plan == fresh
    assert cache.lookup("venue of club y", SIG_A, CTX).plan == simple_plan("What is the venue of club y?")
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"stats": {}, "entries": [
        {"kind": "concrete", "key": {"normalized_query": "q", "schema_signature": SIG_A,
                                     "context_fingerprint": CTX.fingerprint()}, "plan": plan_to_json(executed)}]}))
    assert PlanCache.load(path).lookup("q", SIG_A, CTX).plan == fresh


# --- persistence ---------------------------------------------------------------------


def test_cache_snapshot_round_trip(tmp_path):
    cache = invoice_template_cache()
    cache.insert("another concrete question", SIG_A, CTX, simple_plan("concrete"))
    cache.lookup("another concrete question", SIG_A, CTX)
    path = tmp_path / "cache.json"
    cache.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"stats", "entries"}
    assert [sorted(item) for item in doc["entries"]] == [["key", "kind", "plan"]] * 2
    loaded = PlanCache.load(path)
    assert len(loaded) == len(cache)
    assert loaded.stats == cache.stats
    hit = loaded.lookup("Give me the average total amount for invoice receivers from Ohio", SIG_A, CTX)
    assert hit is not None and hit.strategy == "template"
    exact = loaded.lookup("another concrete question", SIG_A, CTX)
    assert exact.strategy == "exact"


def whole_document_dump(cache: PlanCache) -> bytes:
    """The file as one ``json.dumps`` of the whole document (the earlier way to save)."""
    doc = {
        "stats": cache.stats.to_json(),
        "entries": [
            {"kind": e.kind, "key": e.key.__dict__, "plan": plan_to_json(e.plan)} for e in cache.entries()
        ],
    }
    return json.dumps(doc).encode("utf-8")


def test_saved_bytes_equal_a_whole_document_dump_and_survive_a_reload(tmp_path):
    empty = PlanCache()
    empty.save(tmp_path / "empty.json")
    assert (tmp_path / "empty.json").read_bytes() == whole_document_dump(empty)
    cache = invoice_template_cache()
    for q in ('who won "the cup" in 1920', "naïve café über", "what is the venue of club x"):
        cache.insert(q, SIG_A, CTX, simple_plan(q + "?"))
    cache.lookup("Give me the average total amount for invoice receivers from Ohio", SIG_A, CTX)
    cache.lookup("nothing cached", SIG_A, CTX)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    cache.save(first)
    assert first.read_bytes() == whole_document_dump(cache)
    PlanCache.load(first).save(second)
    assert second.read_bytes() == first.read_bytes()


def recency(cache: PlanCache) -> list[str]:
    return [e.key.normalized_query for e in cache.entries()]


def test_lru_order_and_stats_survive_save_and_load(tmp_path):
    cache = PlanCache(capacity=4, tau=1.0)
    for name in ("one", "two", "three", "four", "five"):
        cache.insert(f"{name} things", SIG_A, CTX, simple_plan(name))
    cache.lookup("three things", SIG_A, CTX)
    cache.lookup("two things", SIG_A, CTX)
    cache.lookup("nothing cached", SIG_A, CTX)
    assert recency(cache) == ["four things", "five things", "three things", "two things"]
    path = tmp_path / "cache.json"
    cache.save(path)
    loaded = PlanCache.load(path, capacity=4, tau=1.0)
    assert recency(loaded) == recency(cache)
    assert loaded.stats == cache.stats and loaded.stats.evictions == 1
    for probe in (cache, loaded):  # the same next victim on both sides
        probe.insert("six things", SIG_A, CTX, simple_plan("six"))
        assert recency(probe) == ["five things", "three things", "two things", "six things"]


EARLIER_FORMAT_FILE = """{"capacity": 2, "tau": 0.5, "counter": 9,
 "stats": {"hits_exact": 4, "hits_template": 3, "hits_semantic": 0, "misses": 2, "insertions": 3, "evictions": 0},
 "entries": [
  {"kind": "concrete", "key": {"normalized_query": "alpha things", "schema_signature": "sig-aaaa",
   "context_fingerprint": "FP"},
   "plan": {"subquestions": [{"question": "alpha", "tool": "iceberg", "label": "$var_1",
    "should_expose_answer": true, "answer_description": "d"}]},
   "skeleton": null, "slots": [], "provenance_summary": "from query: 'alpha things'",
   "last_used": 7, "created": 1, "embedding": [0.0, 0.25, 0.0]},
  {"kind": "template", "key": {"normalized_query": "count rows above {n:number}", "schema_signature": "sig-aaaa",
   "context_fingerprint": "FP"},
   "plan": null,
   "skeleton": {"subquestions": [{"question": "rows above {n}", "tool": "iceberg", "label": "$var_1",
    "should_expose_answer": true, "answer_description": "d"}]},
   "slots": [{"name": "n", "type": "number"}], "provenance_summary": "template: 'count rows above {n:number}'",
   "last_used": 9, "created": 2, "embedding": null},
  {"kind": "concrete", "key": {"normalized_query": "beta things", "schema_signature": "sig-aaaa",
   "context_fingerprint": "FP"},
   "plan": {"subquestions": [{"question": "beta", "tool": "iceberg", "label": "$var_1",
    "should_expose_answer": true, "answer_description": "d"}]},
   "skeleton": null, "slots": [], "provenance_summary": "from query: 'beta things'",
   "last_used": 3, "created": 3, "embedding": [0.5, 0.0, 0.0]}
 ]}"""


def test_earlier_format_file_loads_with_recency_from_last_used(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(EARLIER_FORMAT_FILE.replace("FP", CTX.fingerprint()))
    loaded = PlanCache.load(path)
    assert (loaded.capacity, loaded.tau) == (128, 0.85)  # the file's capacity and tau are ignored
    assert recency(loaded) == ["beta things", "alpha things", "count rows above {n:number}"]
    assert loaded.stats.hits_exact == 4 and loaded.stats.insertions == 3
    hit = loaded.lookup("count rows above 12", SIG_A, CTX)
    assert hit.strategy == "template" and hit.plan.subquestions[0].question == "rows above 12"
    semantic = loaded.lookup("things beta", SIG_A, CTX)  # embedding recomputed, not the stored one
    assert semantic.strategy == "semantic" and semantic.plan.subquestions[0].question == "beta"
    assert recency(PlanCache.load(path, capacity=2)) == ["alpha things", "count rows above {n:number}"]


def test_earlier_format_file_saves_as_a_whole_document_dump(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(EARLIER_FORMAT_FILE.replace("FP", CTX.fingerprint()))
    loaded = PlanCache.load(path)
    loaded.save(path)
    assert path.read_bytes() == whole_document_dump(loaded)


def test_reloaded_embeddings_equal_inserted_ones(tmp_path):
    cache = PlanCache()
    cache.insert("what is the venue of club x", SIG_A, CTX, simple_plan())
    cache.save(tmp_path / "cache.json")
    (before,), (after,) = cache.entries(), PlanCache.load(tmp_path / "cache.json").entries()
    assert after.embedding.tobytes() == before.embedding.tobytes()
    assert after.provenance_summary == "from query: 'what is the venue of club x'"


@pytest.mark.parametrize("text", [
    '{"stats": {}, "entries": [1]}',
    '{"stats": {}, "entries": [{"kind": "odd", "key": {"normalized_query": "q", "schema_signature": "s",'
    ' "context_fingerprint": "f"}, "plan": {"subquestions": []}}]}',
])
def test_unreadable_file_is_a_cache_file_error(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_text(text)
    with pytest.raises(CacheFileError):
        PlanCache.load(path)


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
