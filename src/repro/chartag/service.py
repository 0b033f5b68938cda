"""Serving facade for the char-tagging workload.

:class:`CharTagService` exposes the exact surface the HTTP front end is
duck-typed over (``plan_tag`` / ``tag_lines`` / ``tag_line`` / ``reload`` /
``model_record`` / ``stats`` / ``close`` plus context management), so
:class:`~repro.serve.aio.AsyncTaggingServer` serves a char bundle with zero
changes — the only visible difference is the section name: requests address
``{"section": "char"}`` and the per-request "tokens" are the line's
characters.  A single :class:`~repro.serve.microbatch.MicrobatchQueue`
coalesces concurrent lines into shared batch decodes, and the registry is
consulted at flush time so a hot-swap reload lands on the very next flush.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engine.batching import plan_flush_chunks
from repro.errors import ConfigurationError
from repro.serve.microbatch import MicrobatchQueue
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.service import TagPlan

__all__ = ["CHAR_SECTION", "CharTagService"]

#: The one section this service answers for; requests to the recipe
#: sections get the same ConfigurationError a recipe service raises for
#: ``"char"`` — each front end simply reports the sections it serves.
CHAR_SECTION = "char"


class CharTagService:
    """Tag text lines character-by-character through a microbatch queue.

    Args:
        registry: Registry holding the serving
            :class:`~repro.chartag.bundle.CharTagBundle` (construct it with
            ``loader=lambda text, source: CharTagBundle.loads(text,
            source=source)``).
        model: Registry name of the bundle to serve.
        max_batch / max_tokens / max_delay_s: Forwarded to the queue; the
            token budget counts characters here.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        model: str = "default",
        max_batch: int = 256,
        max_tokens: int = 16384,
        max_delay_s: float = 0.002,
    ) -> None:
        self._registry = registry
        self._model_name = model
        registry.get(model)  # fail fast if nothing is registered under `model`
        self._queues = {
            CHAR_SECTION: MicrobatchQueue(
                self._tag_char_batch,
                name=CHAR_SECTION,
                max_batch=max_batch,
                max_tokens=max_tokens,
                max_delay_s=max_delay_s,
            )
        }

    # ------------------------------------------------------- flush callbacks

    def _tagger(self):
        return self._registry.get(self._model_name).bundle.tagger

    def _tag_char_batch(self, char_sequences):
        return self._tagger().tag_batch(char_sequences)

    # ---------------------------------------------------------------- public

    def plan_tag(self, section: str, lines: Sequence[str]) -> TagPlan:
        """Cut ``lines`` into budget-bounded queue submissions.

        The "token sequences" are the lines' character lists, so the
        queue's padded-token budget bounds the padded *character* count of
        a flush — same invariant, finer grain.
        """
        queue = self._queue(section)
        char_sequences = [list(line) for line in lines]
        nonempty = [index for index, chars in enumerate(char_sequences) if chars]
        chunks = [
            [nonempty[offset] for offset in chunk]
            for chunk in plan_flush_chunks(
                [len(char_sequences[index]) for index in nonempty],
                max_sentences=queue.max_batch,
                max_tokens=queue.max_tokens,
            )
        ]
        return TagPlan(queue=queue, token_sequences=char_sequences, chunks=chunks)

    def tag_lines(
        self, section: str, lines: Sequence[str], *, timeout: float | None = 30.0
    ) -> list[dict]:
        """Tag raw lines; returns ``{"tokens": chars, "tags": ...}`` each.

        Identical contract to the recipe service's ``tag_lines`` (overall
        deadline, empty lines yield empty lists, concurrent callers'
        lines coalesce), with one tag per character.
        """
        plan = self.plan_tag(section, lines)
        deadline = None if timeout is None else time.monotonic() + timeout
        tags: list[list[str]] = [[] for _ in lines]
        for positions in plan.chunks:
            group = plan.queue.submit_many(
                [plan.token_sequences[index] for index in positions]
            )
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                results = group.result(timeout=remaining)
            except TimeoutError:
                group.cancel()
                raise TimeoutError(
                    f"tag request exceeded its {timeout:g}s deadline"
                ) from None
            for index, line_tags in zip(positions, results):
                tags[index] = line_tags
        return [
            {"tokens": list(chars), "tags": line_tags}
            for chars, line_tags in zip(plan.token_sequences, tags)
        ]

    def tag_line(self, section: str, line: str, *, timeout: float | None = 30.0) -> dict:
        """Tag one raw line."""
        return self.tag_lines(section, [line], timeout=timeout)[0]

    def reload(self, *, force: bool = False) -> ModelRecord:
        """Hot-swap the serving bundle from its artifact path (see registry)."""
        return self._registry.reload(self._model_name, force=force)

    def model_record(self) -> ModelRecord:
        """Provenance of the currently serving bundle."""
        return self._registry.get(self._model_name)

    def stats(self) -> dict:
        """Model provenance + queue coalescing counters + decode-cache stats."""
        return {
            "model": self.model_record().describe(),
            "queues": {name: queue.stats() for name, queue in self._queues.items()},
            "caches": {CHAR_SECTION: self._tagger().cache_stats()},
        }

    def close(self) -> None:
        """Drain and stop the queue."""
        for queue in self._queues.values():
            queue.close()

    def __enter__(self) -> "CharTagService":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- internal

    def _queue(self, section: str) -> MicrobatchQueue:
        queue = self._queues.get(section)
        if queue is None:
            raise ConfigurationError(
                f"unknown section {section!r}; this server serves "
                f"{tuple(self._queues)}"
            )
        return queue
