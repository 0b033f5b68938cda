"""Boolean entity queries over a :class:`~repro.index.builder.RecipeIndex`.

The query language is conjunctive/disjunctive/negated entity predicates::

    ingredient:tomato AND process:saute AND NOT ingredient:garlic
    (ingredient:basil OR ingredient:"olive oil") AND utensil:skillet

``NOT`` binds tightest, then ``AND``, then ``OR``; parentheses group; quoted
values carry spaces.  :func:`parse_query` produces a small AST
(:class:`Term` / :class:`And` / :class:`Or` / :class:`Not`) which two
evaluators consume:

* :class:`QueryEngine` answers from the index with sorted-posting-list
  intersection/union/difference — the interactive path ("precompute once,
  answer interactively");
* :func:`matches_recipe` / :func:`scan_structured_jsonl` answer by scanning
  recipes directly — the brute-force baseline.

Both build the recipe's indexed view with the same
:func:`~repro.index.builder.extract_entities`, so their results (ids *and*
matched spans) are element-wise identical by construction; the property
tests and ``BENCH_index.json`` enforce exactly that.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from repro.core.recipe_model import StructuredRecipe
from repro.errors import QueryError
from repro.index.builder import FIELDS, PostingList, RecipeIndex, extract_entities
from repro.index.sharding import ShardedRecipeIndex
from repro.text.normalize import normalize_phrase

__all__ = [
    "And",
    "Not",
    "Or",
    "QueryEngine",
    "QueryMatch",
    "Term",
    "difference_adaptive",
    "difference_galloping",
    "difference_sorted",
    "intersect_adaptive",
    "intersect_count",
    "intersect_galloping",
    "intersect_sorted",
    "matches_recipe",
    "parse_query",
    "render_query",
    "scan_recipes",
    "scan_structured_jsonl",
    "union_sorted",
]


# ------------------------------------------------------------------------ AST


@dataclass(frozen=True)
class Term:
    """One entity predicate, e.g. ``ingredient:tomato``."""

    field: str
    value: str

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise QueryError(
                f"unknown query field {self.field!r}; expected one of {FIELDS}"
            )
        if not str(self.value).strip():
            raise QueryError(f"query term for field {self.field!r} has an empty value")

    @property
    def normalized(self) -> str:
        """The normalised form the index keys on."""
        return normalize_phrase(self.value)


@dataclass(frozen=True)
class And:
    """Every child must match."""

    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("AND requires at least one operand")


@dataclass(frozen=True)
class Or:
    """At least one child must match."""

    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("OR requires at least one operand")


@dataclass(frozen=True)
class Not:
    """The child must not match."""

    child: object


# --------------------------------------------------------------------- parser

_TOKEN_PATTERN = re.compile(
    r"""\(|\)|[A-Za-z_]+:"[^"]*"|[^\s()]+""",
)
_QUOTED_TERM = re.compile(r'^(?P<field>[A-Za-z_]+):"(?P<value>[^"]*)"$')
_KEYWORDS = {"AND", "OR", "NOT"}


def parse_query(text: str):
    """Parse a query string into an AST (``NOT`` > ``AND`` > ``OR``).

    Raises:
        QueryError: On empty input, unbalanced parentheses, dangling
            operators, valueless terms or unknown fields.
    """
    tokens = _TOKEN_PATTERN.findall(text)
    if not tokens:
        raise QueryError("empty query")
    parser = _Parser(tokens)
    node = parser.parse_or()
    if parser.peek() is not None:
        raise QueryError(f"unexpected token {parser.peek()!r} after the query")
    return node


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._position = 0

    def peek(self) -> str | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("query ended unexpectedly (dangling operator?)")
        self._position += 1
        return token

    def _keyword(self) -> str | None:
        """The upper-cased keyword at the cursor, if any."""
        token = self.peek()
        if token is not None and token.upper() in _KEYWORDS:
            return token.upper()
        return None

    def parse_or(self):
        children = [self.parse_and()]
        while self._keyword() == "OR":
            self._take()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_and(self):
        children = [self.parse_unary()]
        while self._keyword() == "AND":
            self._take()
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_unary(self):
        if self._keyword() == "NOT":
            self._take()
            return Not(self.parse_unary())
        token = self._take()
        if token == "(":
            node = self.parse_or()
            if self.peek() != ")":
                raise QueryError("unbalanced parentheses in query")
            self._take()
            return node
        if token == ")":
            raise QueryError("unbalanced parentheses in query")
        if token.upper() in _KEYWORDS:
            raise QueryError(f"operator {token!r} is missing an operand")
        quoted = _QUOTED_TERM.match(token)
        if quoted is not None:
            return Term(quoted.group("field"), quoted.group("value"))
        field, separator, value = token.partition(":")
        if not separator or not value:
            raise QueryError(
                f"malformed term {token!r}; expected field:value "
                f'(e.g. ingredient:tomato or ingredient:"olive oil")'
            )
        return Term(field, value)


def render_query(node) -> str:
    """Render an AST back to a parseable query string (canonical form)."""
    if isinstance(node, Term):
        value = node.value
        if re.search(r"[\s()]", value):
            if '"' in value:
                raise QueryError(
                    f"cannot render term value {value!r}: the query grammar has "
                    "no escape for a double quote inside a quoted value"
                )
            return f'{node.field}:"{value}"'
        rendered = f"{node.field}:{value}"
        if _QUOTED_TERM.match(rendered):
            # A value that is itself quote-wrapped would re-parse with the
            # quotes stripped; refuse rather than round-trip to a different term.
            raise QueryError(
                f"cannot render term value {value!r}: it is indistinguishable "
                "from quoting syntax"
            )
        return rendered
    if isinstance(node, Not):
        return f"NOT {_render_group(node.child)}"
    if isinstance(node, And):
        return " AND ".join(_render_group(child) for child in node.children)
    if isinstance(node, Or):
        return " OR ".join(_render_group(child) for child in node.children)
    raise QueryError(f"not a query node: {node!r}")


def _render_group(node) -> str:
    rendered = render_query(node)
    return f"({rendered})" if isinstance(node, (And, Or)) else rendered


def _facet_fields(fields, top) -> list[str]:
    """Validate :meth:`QueryEngine.facets` arguments; returns the field list."""
    if isinstance(fields, str):
        fields = (fields,)
    fields = list(fields)
    if not fields:
        raise QueryError("facets requires at least one field")
    for field in fields:
        if field not in FIELDS:
            raise QueryError(
                f"unknown facet field {field!r}; expected one of {FIELDS}"
            )
    if top is not None and (
        not isinstance(top, int) or isinstance(top, bool) or top < 0
    ):
        raise QueryError("facet 'top' must be a non-negative integer")
    return fields


def _with_scores(matches, scores) -> list:
    """Attach BM25 ``scores`` to materialised ``matches`` (same order)."""
    from repro.index.ranking import RankedMatch

    return [
        RankedMatch(
            doc_id=match.doc_id,
            recipe_id=match.recipe_id,
            title=match.title,
            spans=match.spans,
            score=score,
        )
        for match, score in zip(matches, scores)
    ]


def _as_node(query):
    node = parse_query(query) if isinstance(query, str) else query
    if not isinstance(node, (Term, And, Or, Not)):
        raise QueryError(f"not a query string or query node: {query!r}")
    return node


# ------------------------------------------------------- sorted-list algebra


def intersect_sorted(left: list[int], right: list[int]) -> list[int]:
    """Merge-intersect two sorted id lists."""
    result: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            result.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return result


def union_sorted(left: list[int], right: list[int]) -> list[int]:
    """Merge-union two sorted id lists."""
    result: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            result.append(a)
            i += 1
            j += 1
        elif a < b:
            result.append(a)
            i += 1
        else:
            result.append(b)
            j += 1
    result.extend(left[i:])
    result.extend(right[j:])
    return result


def difference_sorted(left: list[int], right: list[int]) -> list[int]:
    """Sorted ids in ``left`` but not in ``right``."""
    result: list[int] = []
    i = j = 0
    while i < len(left):
        while j < len(right) and right[j] < left[i]:
            j += 1
        if j >= len(right) or right[j] != left[i]:
            result.append(left[i])
        i += 1
    return result


#: Size ratio at which the adaptive kernels switch from a linear merge to a
#: galloping (exponential-probe) scan of the larger list.  Linear is
#: O(n + m); galloping is O(n log m) — the crossover sits around m/n ≈ 8.
GALLOP_SKEW = 8


def _gallop_to(values: list[int], start: int, target: int) -> int:
    """First position ``>= start`` with ``values[position] >= target``.

    Exponential probe (1, 2, 4, ... elements ahead) brackets the target,
    then a bisect inside the final bracket pins it — O(log distance), so a
    pass over the small list advances through the large one in amortised
    O(small * log(large / small)) instead of O(large).
    """
    length = len(values)
    offset = 1
    while start + offset < length and values[start + offset] < target:
        offset <<= 1
    return bisect_left(values, target, start + (offset >> 1), min(start + offset, length))


def intersect_galloping(small: list[int], large: list[int]) -> list[int]:
    """Intersect two sorted lists, galloping through the larger one.

    Callers are expected to pass the smaller list first; the result is
    element-wise identical to :func:`intersect_sorted` either way.
    """
    result: list[int] = []
    position = 0
    length = len(large)
    for value in small:
        position = _gallop_to(large, position, value)
        if position >= length:
            break
        if large[position] == value:
            result.append(value)
            position += 1
    return result


def intersect_adaptive(left: list[int], right: list[int]) -> list[int]:
    """Intersect, picking the kernel by size skew (identical results).

    Near-equal lengths take the linear merge; once one side is
    ``GALLOP_SKEW``× the other, galloping through the long side wins.
    """
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    if len(small) * GALLOP_SKEW <= len(large):
        return intersect_galloping(small, large)
    return intersect_sorted(left, right)


def intersect_count(left: list[int], right: list[int]) -> int:
    """``len(intersect_adaptive(left, right))`` without building the list.

    The facet aggregator's kernel: counts co-occurrence cardinalities
    against thousands of terms without materialising a single id list.
    """
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    count = 0
    if len(small) * GALLOP_SKEW <= len(large):
        position = 0
        length = len(large)
        for value in small:
            position = _gallop_to(large, position, value)
            if position >= length:
                break
            if large[position] == value:
                count += 1
                position += 1
        return count
    i = j = 0
    while i < len(small) and j < len(large):
        a, b = small[i], large[j]
        if a == b:
            count += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return count


def difference_galloping(left: list[int], right: list[int]) -> list[int]:
    """``left - right`` galloping through whichever side is longer.

    ``left`` small: gallop each of its values through ``right``.  ``right``
    small: gallop through ``left`` copying the untouched slices between the
    (few) removed values wholesale.
    """
    if not left or not right:
        return list(left)
    if len(left) <= len(right):
        result: list[int] = []
        position = 0
        length = len(right)
        for value in left:
            position = _gallop_to(right, position, value)
            if position >= length or right[position] != value:
                result.append(value)
        return result
    result = []
    start = 0
    length = len(left)
    for value in right:
        at = _gallop_to(left, start, value)
        result.extend(left[start:at])
        if at < length and left[at] == value:
            at += 1
        start = at
        if start >= length:
            break
    result.extend(left[start:])
    return result


def difference_adaptive(left: list[int], right: list[int]) -> list[int]:
    """``left - right``, picking the kernel by size skew (identical results)."""
    shorter, longer = min(len(left), len(right)), max(len(left), len(right))
    if shorter * GALLOP_SKEW <= longer:
        return difference_galloping(left, right)
    return difference_sorted(left, right)


# -------------------------------------------------------------------- results


@dataclass(frozen=True)
class QueryMatch:
    """One matching recipe: identity plus where the query's terms occurred.

    Attributes:
        doc_id: Position of the recipe in the indexed corpus (JSONL order).
        recipe_id: The recipe's own identifier.
        title: Recipe title.
        spans: ``"field:term" -> [[where, position], ...]`` for every
            positive term of the query that occurs in this recipe (negated
            terms contribute nothing — they matched by absence).
    """

    doc_id: int
    recipe_id: str
    title: str
    spans: dict[str, list]

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``/v1/search`` result shape)."""
        return {
            "doc_id": self.doc_id,
            "recipe_id": self.recipe_id,
            "title": self.title,
            "spans": self.spans,
        }


def _collect_spans(node, lookup, out: dict[str, list]) -> None:
    """Gather spans of every positive term via ``lookup(field, term)``."""
    if isinstance(node, Term):
        spans = lookup(node.field, node.normalized)
        if spans:
            out[f"{node.field}:{node.normalized}"] = spans
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _collect_spans(child, lookup, out)
    # Not: matched by absence; nothing to point at.


def _resolve_terms(node, index: RecipeIndex, out: dict) -> None:
    """Resolve every positive term's posting list once (same traversal as
    :func:`_collect_spans`, so the lookup dict covers exactly its keys)."""
    if isinstance(node, Term):
        key = (node.field, node.normalized)
        if key not in out:
            out[key] = index.postings(node.field, node.normalized)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _resolve_terms(child, index, out)


# --------------------------------------------------------------------- engine


class QueryEngine:
    """Evaluates query trees against a :class:`RecipeIndex` — or per shard.

    Evaluation is pure posting-list algebra: ``AND`` intersects its positive
    children smallest-list-first and subtracts its negated children,
    ``OR`` unions, and a bare ``NOT`` complements against the doc universe.

    Over a :class:`~repro.index.sharding.ShardedRecipeIndex` the same
    algebra runs once per shard (boolean entity queries are per-document
    predicates, so a shard's answer over its own doc universe is exactly its
    slice of the global answer) and the sorted per-shard global doc-id
    streams are k-way merged back into corpus order.  Results — ids,
    titles *and* matched spans — are element-wise identical to the
    monolithic engine and to the brute-force scan; the property suite
    enforces all three.  On both paths the matching doc ids are truncated to
    ``limit`` *before* any span materialisation, so per-result work is
    bounded by ``limit``, never by the match count.

    ``rank=True`` turns :meth:`search` into BM25 top-k retrieval (see
    :mod:`repro.index.ranking`); :meth:`facets` aggregates match counts per
    term without materialising a single match.  ``workers > 1`` fans
    per-shard evaluation (boolean, ranked and facet) out over
    :func:`~repro.corpus.executor.ordered_parallel_map` threads and k-way
    heap-merges the per-shard answers — results stay element-wise identical
    to the serial path (``workers=1``, the default).
    """

    def __init__(
        self, index: "RecipeIndex | ShardedRecipeIndex", *, workers: int = 1
    ) -> None:
        self._index = index
        self._workers = max(1, int(workers))
        self._shard_engines = (
            [QueryEngine(shard) for shard in index.shards]
            if isinstance(index, ShardedRecipeIndex)
            else None
        )

    @property
    def index(self) -> "RecipeIndex | ShardedRecipeIndex":
        return self._index

    def doc_ids(self, query) -> list[int]:
        """Sorted doc ids matching ``query`` (string or AST)."""
        node = _as_node(query)
        if self._shard_engines is not None:
            return [global_id for global_id, _, _ in self._eval_sharded(node)]
        return self._eval(node)

    def execute(self, query, *, limit: int | None = None) -> list[QueryMatch]:
        """Matching recipes in doc order, with matched spans per recipe."""
        return self.search(query, limit=limit)[1]

    def count(self, query) -> int:
        """Number of matching recipes.

        A bare term answers straight from header metadata
        (:meth:`RecipeIndex.posting_count`; summed per shard on a manifest)
        — no posting decode, no global id-list merge.  Compound queries
        evaluate per shard and sum the per-shard cardinalities; the global
        doc-id stream is never built (each doc lives in exactly one shard,
        so the sum is exact).
        """
        node = _as_node(query)
        if isinstance(node, Term):
            if self._shard_engines is not None:
                # Tombstone-aware df: identical to posting_count (and as
                # metadata-cheap) when no deletes are pending compaction.
                return self._index.live_posting_count(node.field, node.value)
            return self._index.posting_count(node.field, node.value)
        if self._shard_engines is not None:
            return sum(self._map_shards(lambda i: len(self._live_eval(i, node))))
        return len(self._eval(node))

    def search(
        self,
        query,
        *,
        limit: int | None = None,
        rank: bool = False,
        params=None,
        facets=None,
        facet_top: int | None = 10,
    ):
        """One evaluation returning ``(total, limited matches)``.

        What the serving layer wants: the full match count plus at most
        ``limit`` materialised results, without evaluating the query twice.

        ``rank=True`` scores every matching doc with BM25
        (:mod:`repro.index.ranking`; ``params`` overrides the k1/b
        defaults) and returns the top ``limit``
        :class:`~repro.index.ranking.RankedMatch` objects best-first, ties
        on ascending doc id — element-wise identical across the monolithic,
        sharded and brute-force oracle paths.

        ``facets`` (a field name or list of them) adds the :meth:`facets`
        aggregation (``facet_top`` terms per field) and makes the result
        ``(total, matches, facet_counts)``; the counts come from the same
        matching ids as the page, so a faceted search still evaluates the
        query once.
        """
        node = _as_node(query)
        if limit is not None and limit < 0:
            raise QueryError("limit must not be negative")
        fields = None if facets is None else _facet_fields(facets, facet_top)
        if self._shard_engines is not None:
            total, matches, counts = self._search_sharded(
                node, limit=limit, rank=rank, params=params, fields=fields, top=facet_top
            )
        else:
            total, matches, counts = self._search_local(
                node, limit=limit, rank=rank, params=params, fields=fields, top=facet_top
            )
        return (total, matches) if fields is None else (total, matches, counts)

    def facets(
        self, query, fields, *, top: int | None = 10
    ) -> dict[str, list[tuple[str, int]]]:
        """Top facet terms co-occurring with the query's matches.

        For each requested field: ``[(term, count), ...]`` where ``count``
        is how many matching docs carry that term, ordered by ``(-count,
        term)`` and truncated to ``top`` per field.  Counts come from
        posting-list intersection cardinalities
        (:func:`~repro.index.ranking.facet_counts`) — no match is ever
        materialised.  Sharded: per-shard counts sum exactly (each doc
        lives in one shard); shards are counted with ``top=None`` so the
        global top-N cannot miss a term that is mid-pack in every shard.
        """
        return self.search(query, limit=0, facets=fields, facet_top=top)[2]

    def _search_local(self, node, *, limit, rank, params, fields, top):
        """:meth:`search` over a single (unsharded) index."""
        from repro.index import ranking

        ids = self._eval(node)
        if rank:
            scores = ranking.Bm25Scorer(self._index, node, params=params).scores(ids)
            selected = ranking.select_top_k(zip(ids, scores), limit)
            base = self._materialize(node, [doc_id for doc_id, _ in selected])
            matches = _with_scores(base, [score for _, score in selected])
        else:
            matches = self._materialize(node, ids if limit is None else ids[:limit])
        counts = None
        if fields is not None:
            counts = {
                field: ranking.facet_counts(self._index, ids, field, top=top)
                for field in fields
            }
        return len(ids), matches, counts

    # ------------------------------------------------------- sharded internals

    def _map_shards(self, function) -> list:
        """``[function(shard_index) for every shard]``, threaded on request.

        With ``workers > 1`` the per-shard closures fan out over
        :func:`~repro.corpus.executor.ordered_parallel_map` threads (the
        engines share one in-memory index, so processes are not an option
        here; v2 shards release the GIL in zlib inflate and mmap page
        faults).  Results come back in shard order either way, so callers
        are oblivious to the mode.
        """
        count = len(self._shard_engines)
        if self._workers <= 1 or count <= 1:
            return [function(index) for index in range(count)]
        from repro.corpus.executor import ordered_parallel_map

        return list(
            ordered_parallel_map(
                function,
                range(count),
                workers=min(self._workers, count),
                threads=True,
            )
        )

    def _live_eval(self, shard_index: int, node) -> list[int]:
        """One shard's matching local ids, tombstoned docs masked out.

        Boolean queries are per-document predicates, so subtracting the
        shard's (sorted) dead locals *after* evaluation is exact — a bare
        ``NOT`` complements against the shard universe first and the dead
        docs are removed from that complement here.  With no tombstones
        the mask is a no-op and the underlying answer returns untouched.
        """
        ids = self._shard_engines[shard_index]._eval(node)
        dead = self._index.tombstoned_locals(shard_index)
        if dead and ids:
            ids = difference_adaptive(ids, dead)
        return ids

    def _eval_sharded(self, node) -> list[tuple[int, int, int]]:
        """Merged ``(global_id, shard, local_id)`` triples in corpus order."""

        def shard_stream(shard_index: int) -> list[tuple[int, int, int]]:
            global_ids = self._index.global_ids(shard_index)
            return [
                (global_ids[local], shard_index, local)
                for local in self._live_eval(shard_index, node)
            ]

        streams = self._map_shards(shard_stream)
        if len(streams) == 1:
            return streams[0]
        # Streams are ascending in global id (and ids are disjoint across
        # shards), so a k-way heap merge restores exact corpus order.
        return list(heapq.merge(*streams))

    def _search_sharded(self, node, *, limit, rank, params, fields, top):
        """:meth:`search` over a manifest: one evaluation per shard.

        Each shard evaluates the query once and derives from those ids its
        candidate rows (top-``limit`` by score, or its first ``limit`` ids)
        and, when asked, its facet counts; the rows are heap-merged into
        the global page and the counts summed.
        """
        from repro.index import ranking

        if rank:
            # Global statistics, so each shard scores its local docs to the
            # exact floats the monolithic engine would produce.  Live (not
            # raw) N / avgdl / df: tombstoned docs are out of the corpus as
            # far as BM25 is concerned, which makes every score bitwise
            # what a from-scratch build over the survivors computes.
            stats = ranking.CorpusStats(
                doc_count=self._index.live_doc_count,
                total_occurrences=self._index.live_total_occurrences(),
            )
            df = {
                (term.field, term.normalized): self._index.live_posting_count(
                    term.field, term.normalized
                )
                for term in ranking.positive_terms(node)
            }
        key = lambda row: (-row[0], row[1])  # noqa: E731 - (score, global id)

        def shard_pass(shard_index: int):
            engine = self._shard_engines[shard_index]
            ids = self._live_eval(shard_index, node)
            global_ids = self._index.global_ids(shard_index)
            if rank:
                scores = ranking.Bm25Scorer(
                    engine._index, node, stats=stats, df=df, params=params
                ).scores(ids)
                scored = [
                    (scores[i], global_ids[local], shard_index, local)
                    for i, local in enumerate(ids)
                ]
                # Bounded per-shard heap: k rows per shard suffice — the
                # global top-k cannot contain a doc outside its shard's top-k.
                rows = (
                    sorted(scored, key=key)
                    if limit is None
                    else heapq.nsmallest(limit, scored, key=key)
                )
            else:
                # A shard's ids ascend in global id too, so the global first
                # `limit` cannot contain a doc past its shard's first `limit`.
                rows = [
                    (global_ids[local], shard_index, local)
                    for local in (ids if limit is None else ids[:limit])
                ]
            counts = None
            if fields is not None:
                counts = {
                    field: ranking.facet_counts(engine._index, ids, field, top=None)
                    for field in fields
                }
            return len(ids), rows, counts

        per_shard = self._map_shards(shard_pass)
        total = sum(shard_total for shard_total, _, _ in per_shard)
        shard_rows = [rows for _, rows, _ in per_shard]
        if rank:
            merged = heapq.merge(*shard_rows, key=key)
            selected = list(merged if limit is None else islice(merged, limit))
            base = self._materialize_sharded(node, [row[1:] for row in selected])
            matches = _with_scores(base, [row[0] for row in selected])
        else:
            merged = heapq.merge(*shard_rows)
            selected = list(merged if limit is None else islice(merged, limit))
            matches = self._materialize_sharded(node, selected)
        counts = None
        if fields is not None:
            counts = {}
            for field in fields:
                totals: dict[str, int] = {}
                for _, _, shard_counts in per_shard:
                    for term, count in shard_counts[field]:
                        totals[term] = totals.get(term, 0) + count
                rows = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
                counts[field] = rows[:top] if top is not None else rows
        return total, matches, counts

    def _materialize_sharded(
        self, node, selected: list[tuple[int, int, int]]
    ) -> list[QueryMatch]:
        per_shard: dict[int, list[int]] = {}
        for _, shard_index, local in selected:
            per_shard.setdefault(shard_index, []).append(local)
        materialized = {
            shard_index: deque(self._shard_engines[shard_index]._materialize(node, locals_))
            for shard_index, locals_ in per_shard.items()
        }
        return [
            replace(materialized[shard_index].popleft(), doc_id=global_id)
            for global_id, shard_index, _ in selected
        ]

    # ------------------------------------------------------------- internals

    def _term_ids(self, term: Term) -> list[int]:
        posting = self._index.postings(term.field, term.value)
        # Copy: the evaluator's lists are the caller's to keep; the index's
        # posting arrays must never leak out mutable.
        return list(posting.ids) if posting is not None else []

    def _selectivity(self, node) -> int:
        """Upper-bound estimate of a node's result size, without evaluating.

        Term estimates come from :meth:`RecipeIndex.posting_count`, which on
        a lazy v2 index is header metadata — the planner orders work without
        decoding a single posting list.  Estimates only order the AND plan;
        intersection is commutative, so any order gives identical results.
        """
        if isinstance(node, Term):
            return self._index.posting_count(node.field, node.value)
        if isinstance(node, And):
            positives = [c for c in node.children if not isinstance(c, Not)]
            if positives:
                return min(self._selectivity(child) for child in positives)
            return self._index.doc_count
        if isinstance(node, Or):
            return min(
                self._index.doc_count,
                sum(self._selectivity(child) for child in node.children),
            )
        # Not: complement — could be anything up to the whole universe.
        return self._index.doc_count

    def _eval(self, node) -> list[int]:
        if isinstance(node, Term):
            return self._term_ids(node)
        if isinstance(node, Or):
            result: list[int] = []
            for child in node.children:
                result = union_sorted(result, self._eval(child))
            return result
        if isinstance(node, And):
            positives = [c for c in node.children if not isinstance(c, Not)]
            negatives = [c for c in node.children if isinstance(c, Not)]
            if positives:
                # Plan: evaluate the (estimated) most selective child first
                # and intersect upward, stopping as soon as the running
                # result empties — later children are then never evaluated
                # (on a lazy v2 index: never even decoded).
                positives.sort(key=self._selectivity)
                result = self._eval(positives[0])
                for child in positives[1:]:
                    if not result:
                        break
                    if isinstance(child, Term):
                        # Chunk-skipping path: only the term's blocks that
                        # overlap the running candidate range are decoded.
                        result = self._intersect_with_term(result, child)
                    else:
                        result = intersect_adaptive(result, self._eval(child))
            else:
                result = list(range(self._index.doc_count))
            for negative in negatives:
                if not result:
                    break
                result = difference_adaptive(result, self._eval(negative.child))
            return result
        if isinstance(node, Not):
            return difference_sorted(
                list(range(self._index.doc_count)), self._eval(node.child)
            )
        raise QueryError(f"not a query node: {node!r}")

    def _intersect_with_term(self, result: list[int], term: Term) -> list[int]:
        """``result ∩ term``, decoding only chunks the candidates can hit.

        The term's :meth:`~repro.index.builder.RecipeIndex.posting_blocks`
        view carries per-chunk ``(first_id, last_id)`` bounds from the v2
        skip headers; a chunk whose bound window holds no candidate is
        skipped without inflating a byte.  PR-6-era entries have no bounds
        (``(None, None)``) and simply decode — same answer, no skips.
        """
        blocks = self._index.posting_blocks(term.field, term.value)
        if blocks is None or not result:
            return []
        out: list[int] = []
        for k, (first, last) in enumerate(blocks.bounds):
            if first is None:
                candidates = result
            else:
                low = bisect_left(result, first)
                high = bisect_right(result, last, low)
                if low == high:
                    continue  # no candidate inside this chunk's id window
                candidates = result[low:high]
            out.extend(intersect_adaptive(candidates, blocks.block(k).ids))
        return out

    def _materialize(self, node, ids: list[int]) -> list[QueryMatch]:
        """Build the result objects: resolve each positive term's posting
        list once for the whole query, then only bisect per (term, doc)."""
        if not ids:
            return []  # e.g. a facets-only search: resolve no posting list
        resolved: dict[tuple[str, str], PostingList | None] = {}
        _resolve_terms(node, self._index, resolved)

        def match(doc_id: int) -> QueryMatch:
            def lookup(field: str, normalized: str):
                posting = resolved[(field, normalized)]
                if posting is None:
                    return None
                at = bisect_left(posting.ids, doc_id)
                if at < len(posting.ids) and posting.ids[at] == doc_id:
                    return posting.spans[at]
                return None

            spans: dict[str, list] = {}
            _collect_spans(node, lookup, spans)
            doc = self._index.doc(doc_id)
            return QueryMatch(
                doc_id=doc_id,
                recipe_id=doc["recipe_id"],
                title=doc["title"],
                spans=spans,
            )

        return [match(doc_id) for doc_id in ids]


# --------------------------------------------------------------- brute force


def matches_recipe(query, recipe: StructuredRecipe) -> bool:
    """Evaluate ``query`` directly against one structured recipe."""
    return _matches(_as_node(query), extract_entities(recipe))


def _matches(node, entities: dict[str, dict[str, list]]) -> bool:
    if isinstance(node, Term):
        if node.field not in entities:
            raise QueryError(f"unknown query field {node.field!r}; expected one of {FIELDS}")
        return node.normalized in entities[node.field]
    if isinstance(node, And):
        return all(_matches(child, entities) for child in node.children)
    if isinstance(node, Or):
        return any(_matches(child, entities) for child in node.children)
    if isinstance(node, Not):
        return not _matches(node.child, entities)
    raise QueryError(f"not a query node: {node!r}")


def scan_recipes(
    recipes: Iterable[StructuredRecipe], query, *, limit: int | None = None
) -> list[QueryMatch]:
    """Brute-force scan: evaluate ``query`` against every recipe in order.

    Returns the same :class:`QueryMatch` objects (ids, titles *and* spans)
    an indexed :meth:`QueryEngine.execute` produces over the same corpus —
    the equivalence the property tests and the benchmark pin down.
    """
    node = _as_node(query)
    if limit is not None and limit < 0:
        raise QueryError("limit must not be negative")
    matches: list[QueryMatch] = []
    for doc_id, recipe in enumerate(recipes):
        if limit is not None and len(matches) >= limit:
            break
        entities = extract_entities(recipe)
        if not _matches(node, entities):
            continue
        spans: dict[str, list] = {}
        _collect_spans(node, lambda field, term: entities[field].get(term), spans)
        matches.append(
            QueryMatch(
                doc_id=doc_id,
                recipe_id=recipe.recipe_id,
                title=recipe.title,
                spans=spans,
            )
        )
    return matches


def scan_structured_jsonl(path: str | Path, query, *, limit: int | None = None) -> list[QueryMatch]:
    """Brute-force a structured-recipe JSONL file (parses every line)."""
    from repro.corpus.sink import iter_structured_jsonl

    return scan_recipes(iter_structured_jsonl(path), query, limit=limit)
