"""The tagging service: a registry-backed, microbatched facade for serving.

:class:`TaggingService` is what both front ends (the HTTP server and the
``repro tag`` CLI) talk to.  It owns one :class:`MicrobatchQueue` per recipe
section and resolves the serving bundle through the registry *at flush time*,
so a hot-swap reload takes effect on the very next flush without restarting
the queues or dropping queued requests.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.batching import plan_flush_chunks
from repro.errors import ConfigurationError
from repro.serve.microbatch import MicrobatchQueue
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.text.tokenizer import tokenize

__all__ = ["TagPlan", "TaggingService"]


@dataclass(frozen=True)
class TagPlan:
    """A tag request cut into budget-bounded queue submissions.

    ``chunks`` holds ascending positions into the original line list, one
    inner list per flush-budgeted submission; empty lines appear in no chunk
    (they yield empty token/tag lists without occupying the queue).  Both the
    blocking path (:meth:`TaggingService.tag_lines`) and the asyncio bridge
    (:func:`repro.serve.aio.tag_lines_async`) execute the same plan, so their
    results are identical by construction.
    """

    queue: MicrobatchQueue
    token_sequences: list[list[str]]
    chunks: list[list[int]]

#: Recipe sections a request may address, each served by its own queue.
SECTIONS = ("ingredient", "instruction")


class TaggingService:
    """Tag recipe lines through per-section microbatching queues.

    Args:
        registry: Registry holding the serving bundle.
        model: Registry name of the bundle to serve.
        apply_dictionary: Filter instruction predictions through the bundled
            frequency dictionaries (the paper's two-stage filter).
        max_batch / max_tokens / max_delay_s: Forwarded to each
            :class:`MicrobatchQueue`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        model: str = "default",
        apply_dictionary: bool = True,
        max_batch: int = 256,
        max_tokens: int = 16384,
        max_delay_s: float = 0.002,
    ) -> None:
        self._registry = registry
        self._model_name = model
        self._apply_dictionary = bool(apply_dictionary)
        registry.get(model)  # fail fast if nothing is registered under `model`
        queue_options = {
            "max_batch": max_batch,
            "max_tokens": max_tokens,
            "max_delay_s": max_delay_s,
        }
        self._queues = {
            "ingredient": MicrobatchQueue(
                self._tag_ingredient_batch, name="ingredient", **queue_options
            ),
            "instruction": MicrobatchQueue(
                self._tag_instruction_batch, name="instruction", **queue_options
            ),
        }

    # ------------------------------------------------------- flush callbacks

    def _bundle(self):
        return self._registry.get(self._model_name).bundle

    def _tag_ingredient_batch(self, token_sequences):
        return self._bundle().ingredient_pipeline.tag_token_batch(token_sequences)

    def _tag_instruction_batch(self, token_sequences):
        return self._bundle().instruction_pipeline.tag_token_batch(
            token_sequences, apply_dictionary=self._apply_dictionary
        )

    # ---------------------------------------------------------------- public

    def plan_tag(self, section: str, lines: Sequence[str]) -> TagPlan:
        """Tokenize ``lines`` and cut them into budget-bounded submissions.

        The chunks follow the queue's own flush budgets (sentences and
        padded tokens), so a single caller can never enqueue an unbounded
        line list: executing the plan one chunk at a time caps the request's
        in-flight footprint at one flush regardless of its length.
        """
        queue = self._queue(section)
        token_sequences = [tokenize(line) for line in lines]
        nonempty = [index for index, tokens in enumerate(token_sequences) if tokens]
        chunks = [
            [nonempty[offset] for offset in chunk]
            for chunk in plan_flush_chunks(
                [len(token_sequences[index]) for index in nonempty],
                max_sentences=queue.max_batch,
                max_tokens=queue.max_tokens,
            )
        ]
        return TagPlan(queue=queue, token_sequences=token_sequences, chunks=chunks)

    def tag_lines(
        self, section: str, lines: Sequence[str], *, timeout: float | None = 30.0
    ) -> list[dict]:
        """Tag raw recipe lines; returns ``{"tokens": ..., "tags": ...}`` each.

        Every line becomes one queue request, so concurrent callers' lines
        coalesce into shared flushes.  Blank lines yield empty token/tag
        lists without occupying the queue.  ``timeout`` is an *overall*
        deadline for the whole request, not a per-line wait: a 100-line
        request cannot stretch its budget 100-fold, and the first expired
        wait raises ``TimeoutError`` immediately.
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
            {"tokens": list(tokens), "tags": line_tags}
            for tokens, line_tags in zip(plan.token_sequences, tags)
        ]

    def tag_line(self, section: str, line: str, *, timeout: float | None = 30.0) -> dict:
        """Tag one raw recipe line."""
        return self.tag_lines(section, [line], timeout=timeout)[0]

    def reload(self, *, force: bool = False) -> ModelRecord:
        """Hot-swap the serving bundle from its artifact path (see registry)."""
        return self._registry.reload(self._model_name, force=force)

    def model_record(self) -> ModelRecord:
        """Provenance of the currently serving bundle."""
        return self._registry.get(self._model_name)

    def stats(self) -> dict:
        """Model provenance + queue coalescing counters + decode-cache stats."""
        bundle = self._bundle()
        return {
            "model": self.model_record().describe(),
            "queues": {name: queue.stats() for name, queue in self._queues.items()},
            "caches": {
                "ingredient": bundle.ingredient_pipeline.ner.cache_stats(),
                "instruction": bundle.instruction_pipeline.ner.cache_stats(),
            },
        }

    def close(self) -> None:
        """Drain and stop both queues."""
        for queue in self._queues.values():
            queue.close()

    def __enter__(self) -> "TaggingService":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- internal

    def _queue(self, section: str) -> MicrobatchQueue:
        queue = self._queues.get(section)
        if queue is None:
            raise ConfigurationError(
                f"unknown recipe section {section!r}; expected one of {SECTIONS}"
            )
        return queue
