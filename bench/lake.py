"""Seeded hybrid lake and operation stream for the three benchmark workloads.

Everything here is derived from one integer seed, so the same seed gives
byte-identical tables, documents, templates, scripted plans and operation
streams. The program under test receives only those inputs; the ground
truth (and the model of the known inlining defect) stays on this side and
is computed with plain Python over the generator's own rows, not with the
engine's code.

Question texts are kept short, and every question carries at least one
token of its own (an id, a name, a region), so that two distinct questions
stay below the cache's semantic threshold unless two of their hashed tokens
collide. Such collisions are real and the checker recognises them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

INLINE_THRESHOLD = 100  # PipelineConfig.inline_threshold default
CACHE_CAPACITY = 128  # PipelineConfig.cache_capacity default

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
# Words a generated name must never equal: schema terms, aggregate keywords,
# stopwords and the question vocabulary used below.
_RESERVED = frozenset(
    """a an and are as at be but by for from had has have he her his i if in is it its of on one
    or our she so that the their them they this to was were what where which who whose will with
    you your avg sum count min max average year founded first play played member members club
    city region venue venues matches match points season player guild guilds name ground open
    find profile document id home side hosted per total jr""".split()
)


class Namer:
    """Unique pronounceable pseudo-words, so every name token is its own."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = self.rng.randint(2, 3)
            w = "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(syllables))
            if self.rng.random() < 0.5:
                w += self.rng.choice(_CONSONANTS)
            if w not in self.used and w not in _RESERVED:
                self.used.add(w)
                return w

    def title(self) -> str:
        return self.word().capitalize()

    def person(self) -> str:
        """A full name; about 12% carry an apostrophe and 8% a comma suffix."""
        first, last = self.title(), self.title()
        r = self.rng.random()
        if r < 0.12:
            return f"{first} O'{last}"
        if r < 0.20:
            return f"{first} {last}, Jr."
        return f"{first} {last}"


# --- reference semantics of answers (independent of the engine's code) ------


def render(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def synthesize(exposed: list[tuple[str, Any]]) -> str:
    """Final answer text: one "description: value" line per exposed node."""
    lines, seen = [], set()
    for description, value in exposed:
        rendered = render(value)
        if rendered not in seen:
            seen.add(rendered)
            lines.append(f"{description}: {rendered}")
    return "\n".join(lines)


def column_answer(values: list) -> Any:
    """Answer value of a one-column result: its distinct values in row order."""
    distinct = list(dict.fromkeys(values))
    if not distinct:
        return []
    return distinct[0] if len(distinct) == 1 else distinct


def inlined_filter_values(values: list[str]) -> list:
    """What a text key inlined into a question comes back as.

    Model of the known defect: values are quoted without escaping, joined
    with ", " and split again on every comma, so ``O'Brien`` and
    ``Smith, Jr.`` come back as wrong literals.
    """
    if not 1 <= len(values) <= INLINE_THRESHOLD:
        return []
    out: list = []
    for part in ", ".join(f"'{v}'" for v in values).split(","):
        text = part.strip()
        if not text:
            continue
        if len(text) >= 2 and text[0] == text[-1] == "'" and "'" not in text[1:-1]:
            out.append(text[1:-1])
        else:
            out.append(text)
    return out


def node(i: int, question: str, tool: str, desc: str | None = None) -> dict:
    n = {"question": question, "tool": tool, "label": f"$var_{i}", "should_expose_answer": desc is not None}
    if desc is not None:
        n["answer_description"] = desc
    return n


def rotate(question: str, k: int) -> str:
    """Word-reordered paraphrase: same bag of words, different text."""
    words = question.rstrip("?").split(" ")
    k = k % (len(words) - 1) + 1
    return " ".join(words[k:] + words[:k]) + "?"


# --- defects the DataOps loop can repair -------------------------------------

DEFECTS = ("BadLabelFormat", "ToolMismatch", "MissingAnswerDescription", "SchemaDrift", "UnresolvedVariable")
_CHAIN_REF = re.compile(r"\$var_1\.(\w+)")


def is_chain(plan: dict) -> bool:
    """Two nodes, the second reading a column of the first."""
    nodes = plan["subquestions"]
    return len(nodes) == 2 and _CHAIN_REF.search(nodes[1]["question"]) is not None


def applicable(plan: dict, defect: str) -> bool:
    return is_chain(plan) or defect not in ("SchemaDrift", "UnresolvedVariable")


def apply_defect(plan: dict, defect: str) -> dict:
    """Return a copy of ``plan`` carrying one fixable defect."""
    plan = json.loads(json.dumps(plan))
    nodes = plan["subquestions"]
    if defect == "BadLabelFormat":
        nodes[0]["label"] = "$v1"
    elif defect == "ToolMismatch":
        structured = [n for n in nodes if n["tool"] == "iceberg"]
        (structured or nodes)[0]["tool"] = "warehouse"
    elif defect == "MissingAnswerDescription":
        for n in nodes:
            n.pop("answer_description", None)
    elif defect == "SchemaDrift":
        column = _CHAIN_REF.search(nodes[1]["question"]).group(1)
        k = len(column) // 2 - 1
        typo = column[:k] + column[k + 1] + column[k] + column[k + 2:]  # a transposition
        if typo == column:
            raise ValueError(f"no transposition changes {column!r}")
        nodes[1]["question"] = nodes[1]["question"].replace(f"$var_1.{column}", f"$var_1.{typo}", 1)
    elif defect == "UnresolvedVariable":
        # The referenced node moves last and the reference points one past it.
        first, second = nodes
        plan["subquestions"] = [dict(second, label="$var_1", question=second["question"].replace("$var_1", "$var_3")),
                                dict(first, label="$var_2")]
    else:
        raise ValueError(defect)
    return plan


# --- workload data model ------------------------------------------------------


@dataclass
class Ask:
    """One question: its clean plan, its defect, and how to compute its answer."""

    question: str
    shape: str
    variant: str  # base | template | paraphrase | fresh
    plan: dict  # the plan as a correct planner would write it
    values: Callable[[], list]  # exposed values, in node order
    vector_targets: dict = field(default_factory=dict)  # label -> (document_id, fact text or None)
    defect_values: Callable[[], list] | None = None  # values under the inlining defect
    defect: str | None = None  # fixable DataOps defect of the scripted plan

    @property
    def scripted(self) -> dict:
        return apply_defect(self.plan, self.defect) if self.defect else self.plan

    def _answer(self, values: list) -> str:
        exposed = [n for n in self.plan["subquestions"] if n["should_expose_answer"]]
        # The MissingAnswerDescription fix copies each exposed node's question.
        descriptions = [n["question"].strip() if self.defect == "MissingAnswerDescription"
                        else n["answer_description"] for n in exposed]
        return synthesize(list(zip(descriptions, values)))

    def truth(self) -> str:
        return self._answer(self.values())

    def defect_answer(self) -> str | None:
        return self._answer(self.defect_values()) if self.defect_values else None

    def targets(self) -> dict:
        """Vector targets under the labels of the repaired plan."""
        if self.defect != "UnresolvedVariable":
            return self.vector_targets
        swap = {"$var_1": "$var_2", "$var_2": "$var_1"}
        return {swap[label]: target for label, target in self.vector_targets.items()}

    def paraphrase(self, rng: random.Random) -> "Ask":
        return replace(self, question=rotate(self.question, rng.randrange(100)), variant="paraphrase")


def with_defects(asks: list[Ask], positions) -> None:
    """Give the asks at ``positions`` the next applicable defect, in turn.

    Paraphrases share their base question's plan, and so its defect.
    """
    kinds = itertools.cycle(DEFECTS)
    by_plan = {}
    for i in positions:
        kind = next(kinds)
        while not applicable(asks[i].plan, kind):
            kind = next(kinds)
        by_plan[id(asks[i].plan)] = kind
    for ask in asks:
        ask.defect = by_plan.get(id(ask.plan), ask.defect)


@dataclass
class Write:
    documents: list[tuple[int, str]]


@dataclass
class TableSpec:
    name: str
    columns: tuple[tuple[str, str], ...]
    rows: list[tuple]
    primary_key: str | None = None


@dataclass
class Lake:
    workload: str
    seed: int
    tables: list[TableSpec]
    documents: list[tuple[int, str]]
    templates: list[tuple[str, dict]]  # (template text, skeleton plan)
    asks: dict[str, Ask]  # every question the stream can ask
    ops: Callable[[], Iterator[Ask | Write]]
    warmup: list[str]  # questions answered once during set-up
    preload: list[str]  # questions whose plans set-up inserts into the cache directly
    count_window: int  # first N operations over which counts are reported
    sizes: dict

    @property
    def script(self) -> dict[str, dict]:
        """Question -> plan, as the scripted planner receives it."""
        return {q: a.scripted for q, a in self.asks.items()}

    def digest(self, n_ops: int) -> str:
        """Hash of every input the program receives, plus the first ops."""
        h = hashlib.sha256()
        for t in self.tables:
            h.update(json.dumps([t.name, t.columns, t.primary_key, t.rows]).encode())
        h.update(json.dumps(self.documents).encode())
        h.update(json.dumps(self.templates, sort_keys=True).encode())
        h.update(json.dumps(self.script, sort_keys=True).encode())
        h.update(json.dumps([self.warmup, self.preload]).encode())
        for op in itertools.islice(self.ops(), n_ops):
            h.update(json.dumps(op.question if isinstance(op, Ask) else op.documents).encode())
        return h.hexdigest()


def zipf_draws(rng: random.Random, pool: list, s: float) -> Iterator:
    weights = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(pool) + 1)))
    while True:
        yield rng.choices(pool, cum_weights=weights)[0]


def filler_sentence(rng: random.Random, vocab: list[str], low: int, high: int) -> str:
    words = [rng.choice(vocab) for _ in range(rng.randint(low, high))]
    for i in range(2, len(words), 4):
        words[i] = rng.choice(("the", "of", "and", "with", "for"))
    return " ".join(words).capitalize() + "."


# --- hot_small ----------------------------------------------------------------


def hot_small(seed: int, scale: float = 1.0) -> Lake:
    """About 100 rows, 100 one-chunk documents, a 96-question Zipf pool."""
    rng = random.Random(f"hot_small:{seed}")
    namer = Namer(rng)
    n_members = max(20, int(100 * scale))
    clubs = [f"{namer.title()} {namer.title()}" for _ in range(5)]
    vocab = [namer.word() for _ in range(400)]
    members = []
    documents = []
    for mid in range(1, n_members + 1):
        name = namer.person()
        year = rng.randint(1950, 2020)
        doc_id = 1000 + mid
        club = clubs[mid % len(clubs)]
        members.append((mid, name, club, namer.title(), year, doc_id))
        text = (
            f"{name} first played for the {club} side in {year}. "
            f"{filler_sentence(rng, vocab, 8, 12)} Teammates still call {name} by that name. "
            f"{filler_sentence(rng, vocab, 6, 10)}"
        )
        documents.append((doc_id, text))
    tables = [
        TableSpec(
            "members",
            (("member_id", "int"), ("full_name", "text"), ("club", "text"), ("city", "text"),
             ("joined", "int"), ("document_id", "int")),
            members,
            "member_id",
        )
    ]

    def year_node(i, m):
        return node(i, f"In what year did {m[1]} first play?", "milvus", f"First season of {m[1]}")

    def hs2(m):
        return Ask(f"In what year did {m[1]} first play?", "year", "base",
                   {"subquestions": [year_node(1, m)]}, lambda: [str(m[4])], {"$var_1": (m[5], str(m[4]))})

    def hs3(m):
        plan = {"subquestions": [
            node(1, f"What is the club of members with member_id in {m[0]}?", "iceberg", f"Club of member {m[0]}"),
            year_node(2, m),
        ]}
        return Ask(f"Club and first season of {m[1]} (member {m[0]})?", "club_and_year", "base", plan,
                   lambda: [m[2], str(m[4])], {"$var_2": (m[5], str(m[4]))})

    def hs4(m):
        plan = {"subquestions": [
            node(1, f"Find the document_id of the profile of {m[1]}?", "milvus"),
            node(2, "What is the city of members with document_id in $var_1.document_id?", "iceberg",
                 f"Home city of {m[1]}"),
        ]}
        return Ask(f"Home city of the member profiled as {m[1]}?", "profile_city", "base", plan,
                   lambda: [m[3]], {"$var_1": (m[5], None)})

    city_q = ("What is the city of members with member_id in {mid}?", "Home city of member {mid}")
    club_q = ("What is the club of members with member_id in {mid}?", "Club of member {mid}")
    templates = [
        ("what is the home city of member {mid:number}", {"subquestions": [node(1, city_q[0], "iceberg", city_q[1])]}),
        ("which club does member {mid:number} play for", {"subquestions": [node(1, club_q[0], "iceberg", club_q[1])]}),
    ]

    def t1(m):
        q, d = (t.replace("{mid}", str(m[0])) for t in city_q)
        return Ask(f"What is the home city of member {m[0]}?", "template_city", "template",
                   {"subquestions": [node(1, q, "iceberg", d)]}, lambda: [m[3]])

    def t2(m):
        q, d = (t.replace("{mid}", str(m[0])) for t in club_q)
        return Ask(f"Which club does member {m[0]} play for?", "template_club", "template",
                   {"subquestions": [node(1, q, "iceberg", d)]}, lambda: [m[2]])

    # Pool ranks cycle through the shapes in a fixed order, so every seed
    # gives the same mix at every Zipf rank. Two-node plans take about 70%
    # of the draws, so the median falls well inside their cluster of
    # latencies rather than on the edge of the one-node clusters.
    cycle = ["hs4", "hs3", "hs2", "hs4", "p", "hs3", "t1", "hs4", "hs3", "p", "hs2", "t2"]
    makers = {"hs2": hs2, "hs3": hs3, "hs4": hs4, "t1": t1, "t2": t2}
    pool_size = max(12, int(96 * scale)) // 12 * 12
    pick = itertools.cycle(rng.sample(members, len(members)))
    pool: list[Ask] = []
    for slot in itertools.islice(itertools.cycle(cycle), pool_size):
        if slot == "p":
            bases = [a for a in pool if a.variant == "base"]
            pool.append(bases[rng.randrange(len(bases))].paraphrase(rng))
        else:
            pool.append(makers[slot](next(pick)))
    # One pool entry in twenty, when it is a base question, is planned with a
    # fixable defect; set-up repairs it while warming the cache.
    with_defects(pool, [i for i in range(9, len(pool), 20) if pool[i].variant == "base"])
    bases = [a for a in pool if a.variant == "base"]

    def ops() -> Iterator[Ask]:
        return zipf_draws(random.Random(f"hot_small-ops:{seed}"), pool, 1.0)

    return Lake(
        workload="hot_small", seed=seed, tables=tables, documents=documents, templates=templates,
        asks={a.question: a for a in pool}, ops=ops, warmup=[a.question for a in bases], preload=[],
        count_window=int(2000 * scale),
        sizes={"rows": len(members), "documents": len(documents), "question_pool": len(pool),
               "cached_plans_after_warmup": len(bases) + len(templates),
               "defective_base_plans": sum(1 for a in bases if a.defect)},
    )


# --- rel_wide -----------------------------------------------------------------


def rel_wide(seed: int, scale: float = 1.0) -> Lake:
    """A 10k-row fact table, 4k-row member dimension, fresh questions only."""
    rng = random.Random(f"rel_wide:{seed}")
    namer = Namer(rng)
    club_size, region_size = 20, 125
    n_members = max(500, int(4000 * scale)) // 500 * 500  # whole clubs and whole regions
    n_matches = max(500, int(10_000 * scale))
    clubs = [f"{namer.title()} {namer.title()}" for _ in range(n_members // club_size)]
    regions = [f"{namer.title()} {namer.title()}" for _ in range(n_members // region_size)]
    venue_names = [f"{namer.title()} {namer.title()}" for _ in range(30)]
    venue_cities = [namer.title() for _ in range(12)]
    vocab = [namer.word() for _ in range(300)]
    club_of = [clubs[i // club_size] for i in range(n_members)]
    region_of = [regions[i // region_size] for i in range(n_members)]
    rng.shuffle(club_of)
    rng.shuffle(region_of)
    members = [
        (mid, namer.person(), club_of[mid - 1], region_of[mid - 1], namer.title())
        for mid in range(1, n_members + 1)
    ]
    venues = []
    documents = []
    for i, v in enumerate(venue_names):
        doc_id = 5000 + i if i < 20 else None
        venues.append((v, rng.randint(5, 80) * 1000, rng.choice(venue_cities), doc_id))
        if doc_id is not None:
            opened = rng.randint(1880, 2010)
            documents.append((doc_id, f"The {v} ground was opened in {opened}. "
                                      f"{filler_sentence(rng, vocab, 8, 14)} {v} has hosted derbies since. "
                                      f"{filler_sentence(rng, vocab, 8, 14)}"))
    matches = []
    for match_id in range(1, n_matches + 1):
        m = members[rng.randrange(n_members)]
        matches.append((match_id, m[0], m[1], rng.randint(2015, 2024), rng.randint(0, 40), rng.choice(venue_names)))
    tables = [
        TableSpec("members", (("member_id", "int"), ("full_name", "text"), ("club", "text"), ("region", "text"),
                              ("city", "text")), members, "member_id"),
        TableSpec("matches", (("match_id", "int"), ("member_id", "int"), ("player", "text"), ("season", "int"),
                              ("points", "int"), ("venue", "text")), matches, "match_id"),
        TableSpec("venues", (("venue", "text"), ("capacity", "int"), ("city", "text"), ("document_id", "int")),
                  venues, "venue"),
    ]
    col = {"member_id": 1, "player": 2, "season": 3, "points": 4, "venue": 5}
    by_club: dict[str, list] = {}
    by_region: dict[str, list] = {}
    for m in members:
        by_club.setdefault(m[2], []).append(m)
        by_region.setdefault(m[3], []).append(m)
    venue_city = {v[0]: v[2] for v in venues}
    venue_docs = [(v, doc, text) for (v, _, _, doc), (_, text) in zip(venues, documents)]

    def select_where(column: str, key: str, allowed) -> list:
        allowed = set(allowed)
        return [r[col[column]] for r in matches if r[col[key]] in allowed]

    def chain(first: str, second: str, desc: str) -> dict:
        return {"subquestions": [node(1, first, "iceberg"), node(2, second, "iceberg", desc)]}

    def rw1(m):
        plan = chain(f"What is the full_name of members with member_id in {m[0]}?",
                     "What is the points of matches with player in $var_1.full_name?", f"Points of member {m[0]}")
        return Ask(f"Points scored by member {m[0]} from {m[2]}?", "one_value", "fresh", plan,
                   lambda: [column_answer(select_where("points", "player", [m[1]]))],
                   defect_values=lambda: [column_answer(select_where("points", "player",
                                                                     inlined_filter_values([m[1]])))])

    def rw2(club, what):
        names = [m[1] for m in by_club[club]]
        plan = chain(f"What is the full_name of members with club in '{club}'?",
                     f"What is the {what} of matches with player in $var_1.full_name?",
                     f"{what.capitalize()}s of club {club}")
        question = (f"Which grounds hosted players of club {club}?" if what == "venue"
                    else f"Which seasons did club {club} players appear in?")
        return Ask(question, "twenty_values", "fresh", plan,
                   lambda: [column_answer(select_where(what, "player", names))],
                   defect_values=lambda: [column_answer(select_where(what, "player", inlined_filter_values(names)))])

    def rw3(region, what):
        ids = [m[0] for m in by_region[region]]
        plan = chain(f"What is the member_id of members with region in '{region}'?",
                     f"What is the {what} of matches with member_id in $var_1.member_id?",
                     f"{what.capitalize()} for region {region}")
        return Ask(f"{what.capitalize()} for members of the {region} region?", "wide_symbolic", "fresh", plan,
                   lambda: [column_answer(select_where(what, "member_id", ids))])

    def rw4(club, season):
        ids = {m[0] for m in by_club[club]}
        plan = chain(f"What is the member_id of members with club in '{club}'?",
                     "Find the average points: `select avg(points) from matches where member_id in "
                     f"[$var_1.member_id] and season = {season}`", f"Average points of club {club} in {season}")

        def values():
            pts = [r[4] for r in matches if r[1] in ids and r[3] == season]
            return [sum(pts) / len(pts) if pts else []]

        return Ask(f"Club {club} average in {season}?", "aggregate", "fresh", plan, values)

    def rw5(club):
        ids = {m[0] for m in by_club[club]}
        plan = chain(f"What is the member_id of members with club in '{club}'?",
                     "`select city, sum(points) from matches join venues on venue = venue where member_id in "
                     "[$var_1.member_id] group by city`", f"Points per venue city for club {club}")

        def values():
            sums: dict[str, int] = {}
            for r in matches:
                if r[1] in ids:
                    sums[venue_city[r[5]]] = sums.get(venue_city[r[5]], 0) + r[4]
            return [[[c, total] for c, total in sums.items()]]

        return Ask(f"Points per venue city for club {club}?", "join_group", "fresh", plan, values)

    def rw6(entry):
        venue, doc_id, text = entry
        year = text.split(" opened in ")[1][:4]
        question = f"In what year did the {venue} ground open?"
        plan = {"subquestions": [node(1, question, "milvus", f"Opening year of {venue}")]}
        return Ask(question, "vector_year", "fresh", plan, lambda: [year], {"$var_1": (doc_id, year)})

    seasons = list(range(2015, 2025))
    spaces = {
        "rw1": [(rw1, (m,)) for m in members],
        "rw2": [(rw2, (c, w)) for c in clubs for w in ("venue", "season")],
        # One column per region: two questions about one region that differ
        # in a single word are near-duplicates for the semantic cache.
        "rw3": [(rw3, (r, rng.choice(("points", "venue", "season")))) for r in regions],
        "rw4": [(rw4, (c, s)) for c in clubs for s in seasons],
        "rw5": [(rw5, (c,)) for c in clubs],
        "rw6": [(rw6, (e,)) for e in venue_docs],
    }
    for space in spaces.values():
        rng.shuffle(space)
    # Twenty-slot mix, slowest last: vector 1, one-value 4, twenty-value and
    # average 8, join 3, >100-value 4. The wide hops stay a minority, and the
    # median and p90 both fall inside a cluster rather than on its edge.
    block = ["rw1"] * 4 + ["rw2"] * 4 + ["rw3"] * 4 + ["rw4"] * 4 + ["rw5"] * 3 + ["rw6"]
    n_ops = 2000
    stream_rng = random.Random(f"rel_wide-ops:{seed}")
    shapes: list[str] = []
    while len(shapes) < n_ops:
        b = block[:]
        stream_rng.shuffle(b)
        shapes.extend(b)
    cursor = {k: 0 for k in spaces}
    asks: dict[str, Ask] = {}
    stream: list[Ask] = []
    for shape in shapes:
        fn, args = spaces[shape][cursor[shape] % len(spaces[shape])]
        cursor[shape] += 1
        ask = fn(*args)
        stream.append(asks.setdefault(ask.question, ask))
    # The first question of every block of twenty is planned with a defect.
    with_defects(stream, range(0, len(stream), len(block)))

    return Lake(
        workload="rel_wide", seed=seed, tables=tables, documents=documents, templates=[], asks=asks,
        ops=lambda: itertools.cycle(stream), warmup=[], preload=[], count_window=int(60 * scale),
        sizes={"members": n_members, "matches": n_matches, "venues": len(venues), "documents": len(documents),
               "club_size": club_size, "region_size": region_size, "distinct_questions": len(asks)},
    )


# --- vec_churn ----------------------------------------------------------------


def vec_churn(seed: int, scale: float = 1.0) -> Lake:
    """About 9k chunks, a 384-question Zipf pool, ingest batches every tenth op.

    Each batch adds three documents, and one of them is asked about two
    operations later, so written documents are read back.
    """
    rng = random.Random(f"vec_churn:{seed}")
    namer = Namer(rng)
    n_guilds = max(30, int(1500 * scale))
    vocab = [namer.word() for _ in range(3000)]
    doc_rng = random.Random(f"vec_churn-docs:{seed}")

    def document(name: str, year: int, r: random.Random) -> str:
        sentences = [filler_sentence(r, vocab, 9, 15) for _ in range(r.randint(30, 38))]
        fact = f"{name} was founded in {year}, and {name} still keeps that charter."
        sentences.insert(r.randrange(len(sentences) + 1), fact)
        return " ".join(sentences)

    guilds = []
    documents = []
    for gid in range(1, n_guilds + 1):
        name = f"{namer.title()} {namer.title()}"
        year = rng.randint(1700, 1999)
        doc_id = 10_000 + gid
        guilds.append((gid, name, f"{namer.title()} {namer.title()}", rng.randint(5, 500), doc_id, year))
        documents.append((doc_id, document(name, year, doc_rng)))
    tables = [
        TableSpec("guilds", (("guild_id", "int"), ("guild_name", "text"), ("city", "text"), ("members", "int"),
                             ("document_id", "int")), [g[:5] for g in guilds], "guild_id")
    ]

    # Guilds ingested later, one batch of three every tenth operation.
    batch_size, write_every, n_batches = 3, 10, 400
    fresh = [(f"{namer.title()} {namer.title()}", rng.randint(1700, 1999), 20_000 + k)
             for k in range(n_batches * batch_size)]

    year_q = "In what year was $var_1.guild_name founded?"
    templates = [
        ("in what year was guild {gid:number} founded",
         {"subquestions": [
             node(1, "Name and document_id of guild {gid}: "
                     "`select guild_name, document_id from guilds where guild_id = {gid}`", "iceberg"),
             node(2, year_q, "milvus", "Founding year of guild {gid}"),
         ]}),
    ]

    def vc1(name, year, doc_id, variant="base"):
        question = f"In what year was {name} founded?"
        plan = {"subquestions": [node(1, question, "milvus", f"Founding year of {name}")]}
        return Ask(question, "vector_year", variant, plan, lambda: [str(year)], {"$var_1": (doc_id, str(year))})

    def vc5(g):
        gid, name, city, _, doc_id, year = g
        plan = {"subquestions": [
            node(1, f"Name and document_id of the guild in {city}: "
                    f"`select guild_name, document_id from guilds where city = '{city}'`", "iceberg"),
            node(2, year_q, "milvus", f"Founding year of the {city} guild"),
        ]}
        return Ask(f"Founding year of the guild based in {city}?", "filtered_year", "base", plan,
                   lambda: [str(year)], {"$var_2": (doc_id, str(year))})

    def vc2(g):
        gid, _, _, _, doc_id, year = g
        plan = json.loads(json.dumps(templates[0][1]).replace("{gid}", str(gid)))
        return Ask(f"In what year was guild {gid} founded?", "template_year", "template", plan,
                   lambda: [str(year)], {"$var_2": (doc_id, str(year))})

    cycle = ["vc1", "vc5", "vc2", "vc1", "p", "vc1", "vc5", "p"]
    pool_size = max(8, int(3 * CACHE_CAPACITY * scale)) // 8 * 8
    pick = itertools.cycle(rng.sample(guilds, len(guilds)))
    pool: list[Ask] = []
    for i, slot in enumerate(itertools.islice(itertools.cycle(cycle), pool_size)):
        if slot == "p":
            bases = [a for a in pool if a.variant == "base"]
            pool.append(bases[rng.randrange(len(bases))].paraphrase(rng))
        elif slot == "vc1":
            g = next(pick)
            pool.append(vc1(g[1], g[5], g[4]))
        else:
            pool.append({"vc5": vc5, "vc2": vc2}[slot](next(pick)))
    # One pool entry in twenty carries a fixable defect (a base question, as
    # position 9 of every twenty is a vc1 or vc5 slot); its paraphrases too.
    with_defects(pool, range(9, len(pool), 20))
    fresh_asks = [vc1(name, year, doc_id, variant="fresh") for name, year, doc_id in fresh]
    # Start from a full cache, as a restarted deployment that reloads its
    # cache file would: the most popular clean concrete plans, in rank order.
    preload = list(dict.fromkeys(a.question for a in pool if a.variant != "template" and not a.defect))
    preload = preload[:CACHE_CAPACITY - len(templates)]

    def ops() -> Iterator[Ask | Write]:
        draws = zipf_draws(random.Random(f"vec_churn-ops:{seed}"), pool, 1.0)
        pending: list[Ask] = []
        batch = 0
        for i in itertools.count(1):
            if i % write_every == 0 and batch < n_batches:
                new = fresh[batch * batch_size:(batch + 1) * batch_size]
                r = random.Random(f"vec_churn-write:{seed}:{batch}")
                yield Write([(doc_id, document(name, year, r)) for name, year, doc_id in new])
                pending.append(fresh_asks[batch * batch_size + batch % batch_size])
                batch += 1
            elif pending and i % 2 == 0:
                yield pending.pop(0)
            else:
                yield next(draws)

    bases = [a for a in pool if a.variant == "base"]
    return Lake(
        workload="vec_churn", seed=seed, tables=tables, documents=documents, templates=templates,
        asks={a.question: a for a in pool + fresh_asks}, ops=ops, warmup=[], preload=preload,
        count_window=int(100 * scale),
        sizes={"guilds": n_guilds, "documents": len(documents), "question_pool": len(pool),
               "pool_over_cache_capacity": round(len(pool) / CACHE_CAPACITY, 2),
               "defective_base_plans": sum(1 for a in bases if a.defect), "base_plans": len(bases),
               "write_every": write_every, "docs_per_write": batch_size},
    )


WORKLOADS = {"hot_small": hot_small, "rel_wide": rel_wide, "vec_churn": vec_churn}
