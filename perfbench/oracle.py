"""Reference answers the benchmark computes apart from the program.

Nothing here imports the program's index, query or ranking code: terms are
normalised by :func:`norm` (the documented rule: lower-case, split into
words / numbers / structural punctuation, strip surrounding hyphens and
apostrophes), documents are plain per-field term lists, and boolean
answers, BM25 scores and facet counts are recomputed from those lists.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

_TOKEN = re.compile(
    r"\d+\s+\d+/\d+|\d+/\d+|\d+(?:\.\d+)?-\d+(?:\.\d+)?|\d+(?:\.\d+)?"
    r"|[a-z]+(?:[-'][a-z]+)*|[(),;:!?./&%°-]"
)

K1 = 1.2
B = 0.75


def norm(text: str) -> str:
    """Canonical term form of an entity name or title."""
    words = (re.sub(r"\s+", " ", raw).strip("-'") for raw in _TOKEN.findall(text.lower()))
    return " ".join(word for word in words if word)


@dataclass(frozen=True)
class DocTerms:
    """One document's indexed view: per-field term occurrence counts."""

    doc_id: int
    recipe_id: str
    tf: dict  # (field, term) -> occurrences
    length: int


def doc_terms(doc_id: int, recipe) -> DocTerms:
    """Index view of a structured recipe (ingredient records, events, title)."""
    counts: Counter = Counter()

    def add(field: str, raw: str) -> None:
        term = norm(raw)
        if term:
            counts[(field, term)] += 1

    for record in recipe.ingredients:
        add("ingredient", record.name)
    for event in recipe.events:
        for name in event.ingredients:
            add("ingredient", name)
        for process in event.processes:
            add("process", process)
        for utensil in event.utensils:
            add("utensil", utensil)
    title = norm(recipe.title)
    if title:
        counts[("title", title)] += 1
        for token in title.split(" "):
            if token != title:
                counts[("title", token)] += 1
    return DocTerms(doc_id, recipe.recipe_id, dict(counts), sum(counts.values()))


# ------------------------------------------------------------------ queries
#
# A query is a nested tuple: ("term", field, value) | ("and", a, b) |
# ("or", a, b) | ("andnot", a, b).  ``render`` gives the program's syntax.


def render(query) -> str:
    kind = query[0]
    if kind == "term":
        return f'{query[1]}:"{query[2]}"'
    left, right = render(query[1]), render(query[2])
    if kind == "and":
        return f"({left} AND {right})"
    if kind == "or":
        return f"({left} OR {right})"
    return f"({left} AND NOT {right})"


def positive_terms(query) -> list[tuple[str, str]]:
    """Scored terms: deduplicated, traversal order, nothing under NOT."""
    out: list[tuple[str, str]] = []

    def walk(node) -> None:
        if node[0] == "term":
            key = (node[1], norm(node[2]))
            if key not in out:
                out.append(key)
            return
        walk(node[1])
        if node[0] != "andnot":
            walk(node[2])

    walk(query)
    return out


class Corpus:
    """Documents by doc id, their postings and the statistics BM25 needs."""

    def __init__(self, docs) -> None:
        self.docs = {doc.doc_id: doc for doc in docs}
        self.postings: dict[tuple[str, str], set[int]] = {}
        for doc in self.docs.values():
            for key in doc.tf:
                self.postings.setdefault(key, set()).add(doc.doc_id)
        self.avgdl = sum(doc.length for doc in self.docs.values()) / len(self.docs)

    def match_set(self, query) -> set[int]:
        kind = query[0]
        if kind == "term":
            return self.postings.get((query[1], norm(query[2])), set())
        left, right = self.match_set(query[1]), self.match_set(query[2])
        if kind == "and":
            return left & right
        if kind == "or":
            return left | right
        return left - right

    def bm25(self, query, ids) -> dict[int, float]:
        n = len(self.docs)
        scores = {doc_id: 0.0 for doc_id in ids}
        for key in positive_terms(query):
            df = len(self.postings.get(key, ()))
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for doc_id in ids:
                doc = self.docs[doc_id]
                tf = doc.tf.get(key, 0)
                if tf:
                    norm_len = K1 * (1.0 - B + B * doc.length / self.avgdl)
                    scores[doc_id] += idf * tf * (K1 + 1.0) / (tf + norm_len)
        return scores

    def ranked(self, query, limit: int) -> list[tuple[int, float]]:
        scores = self.bm25(query, self.match_set(query))
        return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))[:limit]

    def facets(self, query, field: str, top: int = 10) -> list[tuple[str, int]]:
        matched = self.match_set(query)
        rows = []
        for (posting_field, term), ids in self.postings.items():
            if posting_field == field:
                count = len(ids & matched)
                if count:
                    rows.append((term, count))
        return sorted(rows, key=lambda pair: (-pair[1], pair[0]))[:top]


# ------------------------------------------------------------ quality scores


def char_spans(text: str, tags) -> list[tuple[str, str]]:
    """``(label, text)`` runs of equal non-``O`` tags."""
    spans: list[tuple[str, str]] = []
    start = None
    for position in range(len(tags) + 1):
        label = tags[position] if position < len(tags) else "O"
        if start is not None and label != tags[start]:
            spans.append((tags[start], text[start:position]))
            start = None
        if start is None and label != "O":
            start = position
    return spans


def structured_spans(recipe) -> Counter:
    """``(line, label, text)`` spans a char-structured recipe reports."""
    spans: Counter = Counter()
    for record in recipe.ingredients:
        for label, value in (
            ("QUANTITY", record.quantity),
            ("UNIT", record.unit),
            ("STATE", record.state),
            ("NAME", record.name),
        ):
            if value:
                spans[(record.phrase, label, value)] += 1
    for event in recipe.events:
        for label, values in (
            ("PROCESS", event.processes),
            ("NAME", event.ingredients),
            ("UTENSIL", event.utensils),
        ):
            for value in values:
                spans[(event.text, label, value)] += 1
    return spans


def gold_spans(lines) -> Counter:
    spans: Counter = Counter()
    for example in lines:
        for label, value in char_spans(example.text, example.tags):
            spans[(example.text, label, value)] += 1
    return spans


@dataclass
class SpanScore:
    """Running span precision/recall counts."""

    true_positive: int = 0
    predicted: int = 0
    gold: int = 0

    def add(self, predicted: Counter, gold: Counter) -> None:
        self.true_positive += sum((predicted & gold).values())
        self.predicted += sum(predicted.values())
        self.gold += sum(gold.values())

    @property
    def f1(self) -> float:
        denominator = self.predicted + self.gold
        return 2.0 * self.true_positive / denominator if denominator else 0.0
