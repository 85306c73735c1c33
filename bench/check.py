"""Answer checker: compare every answer with the generator's ground truth.

A wrong answer is counted in ``wrong_answer_ratio`` whatever its cause. The
run stays ``correct`` only while every wrong answer has one of the known
causes below, each confirmed from evidence rather than assumed:

* ``inline_quote``: the answer equals the one the generator predicts under
  the known inlining defect (text keys with ``'`` or ``,`` re-parsed from
  question text).
* ``misrank``: a vector hop returned another chunk than the one holding
  the fact, and rescoring both chunks with the documented fused score
  confirms that the returned one scores at least as high (bucket
  collisions of the hashed bag-of-words embedder), or an extra document
  passed the relative cutoff with a score that really is that high.
* ``semantic_false_hit``: the plan came from a semantic cache hit and the
  answer equals the ground truth (or the inlining-defect answer) of another
  question whose embedding is within the cache threshold.

Anything else is unexplained and makes the run incorrect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

REL_CUTOFF = 0.5  # adapters.DEFAULT_REL_CUTOFF
EPS = 1e-9


@dataclass
class Outcome:
    """One distinct result of a question, with how often it occurred.

    Identical results are tallied rather than stored once per operation,
    so the checker's memory does not grow with the number of operations.
    """

    op: int  # first operation that produced it
    question: str
    status: str
    answer: str | None
    strategy: str | None
    vector_hits: tuple = ()  # (label, resolved question, returned chunk ids) per ok vector node
    count: int = 0
    in_window: int = 0  # occurrences among the first count-window operations


def vector_hits(records) -> tuple:
    """(label, resolved question, returned chunk ids) of ok vector nodes."""
    return tuple(
        (rec.label, rec.question_resolved, tuple(r.chunk_id for r in rec.provenance_refs))
        for rec in records
        if rec.kind == "node" and rec.tool == "milvus" and rec.status == "ok"
    )


class Checker:
    def __init__(self, lake, index, tau: float, alpha: float, tokenize, embed):
        self.lake = lake
        self.index = index
        self.tau = tau
        self.alpha = alpha
        self.tokenize = tokenize
        self.embed = embed
        self._truth: dict[str, str] = {}
        self._embedded: dict[str, np.ndarray] | None = None

    def truth(self, question: str) -> str:
        if question not in self._truth:
            self._truth[question] = self.lake.asks[question].truth()
        return self._truth[question]

    # -- fused score, computed from the documented formula ------------------

    def _score(self, query: str, chunk) -> float:
        q = self.embed(query)
        nq, nc = float(np.linalg.norm(q)), float(np.linalg.norm(chunk.dense_vec))
        dense = float(np.dot(q, chunk.dense_vec)) / (nq * nc) if nq and nc else 0.0
        counts = Counter(self.tokenize(query))
        norm = sum(c * c for c in counts.values()) ** 0.5
        sparse = sum(c / norm * chunk.sparse_vec.get(t, 0.0) for t, c in counts.items()) if norm else 0.0
        return self.alpha * dense + (1.0 - self.alpha) * sparse

    def _misranked(self, query: str, returned: list[int], document_id: int, fact: str | None) -> bool:
        chunks = self.index.chunks
        wanted = [c for c in chunks if c.document_id == document_id and (fact is None or fact in c.text)]
        if not returned or not wanted:
            return False
        top = chunks[returned[0]]
        top_score = self._score(query, top)
        if top not in wanted:
            return top_score >= max(self._score(query, c) for c in wanted) - EPS
        extras = [chunks[i] for i in returned[1:] if chunks[i].document_id != document_id]
        return bool(extras) and all(self._score(query, c) >= REL_CUTOFF * top_score - EPS for c in extras)

    def _semantic_twin(self, outcome: Outcome) -> bool:
        if self._embedded is None:
            self._embedded = {q: self.embed(q.lower()) for q in self.lake.asks}
        mine = self._embedded[outcome.question]
        for other, vec in self._embedded.items():
            if other != outcome.question and float(np.dot(mine, vec)) >= self.tau - EPS:
                twin = self.lake.asks[other]
                if outcome.answer in (self.truth(other), twin.defect_answer()):
                    return True
        return False

    def explain(self, outcome: Outcome) -> str | None:
        ask = self.lake.asks[outcome.question]
        if ask.defect_values is not None and outcome.answer == ask.defect_answer():
            return "inline_quote"
        hits = {label: (query, returned) for label, query, returned in outcome.vector_hits}
        for label, (document_id, fact) in ask.targets().items():
            query, returned = hits.get(label, (None, ()))
            if query is not None and self._misranked(query, returned, document_id, fact):
                return "misrank"
        if outcome.strategy == "semantic" and self._semantic_twin(outcome):
            return "semantic_false_hit"
        return None

    def check(self, outcomes: list[Outcome]) -> dict:
        """Answer counts over all operations and over the count window."""
        causes: Counter = Counter()
        unexplained: list[dict] = []
        totals = Counter()
        for o in outcomes:
            totals["answers"] += o.count
            totals["window_answers"] += o.in_window
            if o.status != "ok":
                totals["failed"] += o.count
                totals["window_failed"] += o.in_window
                continue
            if o.answer == self.truth(o.question):
                continue
            totals["wrong"] += o.count
            totals["window_wrong"] += o.in_window
            cause = self.explain(o)
            causes[cause or "unexplained"] += o.count
            if cause is None and len(unexplained) < 5:
                unexplained.append({"op": o.op, "question": o.question, "shape": self.lake.asks[o.question].shape,
                                    "expected": self.truth(o.question), "got": o.answer, "strategy": o.strategy})
        return dict(
            {k: totals[k] for k in ("answers", "wrong", "failed", "window_answers", "window_wrong", "window_failed")},
            causes=dict(causes),
            unexplained=unexplained,
            correct="unexplained" not in causes,
        )
