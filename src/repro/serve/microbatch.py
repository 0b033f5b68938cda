"""Microbatching queue: coalesce concurrent tag requests into batch decodes.

Per-request serving pays the per-kernel overhead of the lattice sweep once
per line; the engine's length-bucketed batch Viterbi amortises it over
hundreds of lines.  :class:`MicrobatchQueue` converts the former traffic
shape into the latter: callers submit token sequences and get futures, a
single worker thread drains everything that arrived within a short
coalescing window (or as soon as a full batch is pending) and pushes the
whole flush through one ``tag_batch`` call.  Results are identical to
per-request decoding -- the queue only changes *when* sequences are decoded,
never *how*.

Flush sizes are bounded by :func:`repro.engine.batching.plan_flush_chunks`
so a traffic spike cannot allocate an arbitrarily large padded lattice.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, InvalidStateError

from repro.engine.batching import plan_flush_chunks
from repro.errors import ConfigurationError, ReproError

__all__ = ["MicrobatchQueue", "QueueSaturatedError"]


class QueueSaturatedError(ReproError):
    """The queue's pending backlog is full; the caller should shed load."""


class _Group(Future):
    """One future for a whole :meth:`MicrobatchQueue.submit_many` call.

    Only the queue's worker thread fills slots, so the countdown needs no
    lock; the future resolves to the tag lists in submission order once the
    last slot is filled, or fails with the first flush error.
    """

    def __init__(self, size: int) -> None:
        super().__init__()
        self.results: list = [None] * size
        self.missing = size


#: One queued request: (tokens, future, slot) -- the future is the request's
#: own (slot None) or a _Group shared by a whole submit_many call (slot = the
#: sequence's position in it).
_Entry = tuple[tuple[str, ...], Future, int | None]


class MicrobatchQueue:
    """Coalesces concurrent tag requests into one batched decode per flush.

    Args:
        tag_batch: ``list[token sequence] -> list[tag sequence]`` callable;
            typically :meth:`NerModel.tag_batch` or a pipeline's
            ``tag_token_batch``.
        max_batch: Flush as soon as this many requests are pending; also the
            per-kernel sentence cap.
        max_tokens: Per-kernel padded-token cap (see ``plan_flush_chunks``).
        max_delay_s: Coalescing window: how long the worker waits for more
            requests to arrive after the first one, i.e. the latency budget
            traded for batching.
        max_pending: Backpressure cap: submits raise
            :class:`QueueSaturatedError` instead of growing the backlog past
            this many waiting requests (decode-time work already drained by
            the worker does not count).
        name: Label used in :meth:`stats`.
    """

    def __init__(
        self,
        tag_batch: Callable[[list[Sequence[str]]], list[list[str]]],
        *,
        max_batch: int = 256,
        max_tokens: int = 16384,
        max_delay_s: float = 0.002,
        max_pending: int = 8192,
        name: str = "tag",
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ConfigurationError("max_delay_s must not be negative")
        if max_pending < 1:
            raise ConfigurationError("max_pending must be at least 1")
        self._tag_batch = tag_batch
        self.max_batch = int(max_batch)
        self.max_tokens = int(max_tokens)
        self.max_delay_s = float(max_delay_s)
        self.max_pending = int(max_pending)
        self.name = name
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._pending: list[_Entry] = []
        self._closed = False
        self._requests_total = 0
        self._flushes_total = 0
        self._flushed_requests = 0
        self._largest_flush = 0
        self._cancelled_total = 0
        self._worker = threading.Thread(
            target=self._run, name=f"microbatch-{name}", daemon=True
        )
        self._worker.start()

    # ---------------------------------------------------------------- submit

    def submit(self, tokens: Sequence[str]) -> Future:
        """Enqueue one token sequence; the future resolves to its tag list."""
        future: Future = Future()
        with self._has_work:
            self._check_accepts(1)
            self._pending.append((tuple(tokens), future, None))
            self._requests_total += 1
            self._has_work.notify()
        return future

    def tag(self, tokens: Sequence[str], *, timeout: float | None = None) -> list[str]:
        """Synchronous single-sequence tagging through the queue."""
        return self.submit(tokens).result(timeout=timeout)

    def submit_many(self, token_sequences: Sequence[Sequence[str]]) -> Future:
        """Enqueue many sequences; one future resolves to all their tag lists.

        The group lands under one lock acquisition (one wake-up), so a
        multi-line request pays no per-line lock, notify or ``Future``, and
        the worker skips the coalescing window when the group already fills
        a batch.  Cancelling the future drops the group's still-queued
        sequences instead of decoding them.
        """
        group = _Group(len(token_sequences))
        if not token_sequences:
            group.set_result([])
            return group
        with self._has_work:
            self._check_accepts(len(token_sequences))
            self._pending.extend(
                (tuple(tokens), group, slot)
                for slot, tokens in enumerate(token_sequences)
            )
            self._requests_total += len(token_sequences)
            self._has_work.notify()
        return group

    def tag_many(
        self, token_sequences: Sequence[Sequence[str]], *, timeout: float | None = None
    ) -> list[list[str]]:
        """Submit every sequence up front, then gather (requests coalesce).

        ``timeout`` is an *overall* deadline for the whole batch, not a
        per-sequence wait: a 100-sequence call cannot stretch the budget
        100-fold.  A call that times out cancels its group.
        """
        group = self.submit_many(token_sequences)
        try:
            return group.result(timeout=timeout)
        except TimeoutError:
            group.cancel()
            raise TimeoutError(
                f"tag_many exceeded its overall {timeout:g}s deadline after "
                f"{len(token_sequences) - group.missing} of "
                f"{len(token_sequences)} results"
            ) from None

    def _check_accepts(self, count: int) -> None:
        """Reject submits on a closed or saturated queue (holds the lock)."""
        if self._closed:
            raise ConfigurationError(f"microbatch queue {self.name!r} is closed")
        if len(self._pending) + count > self.max_pending:
            raise QueueSaturatedError(
                f"microbatch queue {self.name!r} is saturated "
                f"({len(self._pending)} pending, cap {self.max_pending}); retry later"
            )

    # ---------------------------------------------------------------- worker

    def _run(self) -> None:
        while True:
            with self._has_work:
                while not self._pending and not self._closed:
                    self._has_work.wait()
                if not self._pending and self._closed:
                    return
                deadline = time.monotonic() + self.max_delay_s
                while len(self._pending) < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._has_work.wait(remaining)
                batch = self._pending
                self._pending = []
            self._flush(batch)

    def _flush(self, batch: list[_Entry]) -> None:
        # Abandoned work is dropped here, not decoded: a caller that gave up
        # (an async request past its deadline cancels its future) should not
        # cost a lattice sweep.  Cancellation can still race the flush, so
        # every set_result/set_exception below tolerates a concurrently
        # cancelled future instead of crashing the worker.
        abandoned = sum(1 for _, future, _ in batch if future.cancelled())
        if abandoned:
            with self._lock:
                self._cancelled_total += abandoned
            batch = [entry for entry in batch if not entry[1].cancelled()]
        chunks = plan_flush_chunks(
            [len(tokens) for tokens, _, _ in batch],
            max_sentences=self.max_batch,
            max_tokens=self.max_tokens,
        )
        for chunk in chunks:
            requests = [batch[index] for index in chunk]
            try:
                results = self._tag_batch([tokens for tokens, _, _ in requests])
            except BaseException as error:  # noqa: BLE001 - must reach the callers
                for _, future, slot in requests:
                    self._resolve(future, slot, error=error)
                continue
            if len(results) != len(requests):
                # A short list would strand the unmatched futures forever
                # (their callers block until timeout); a long one would tag
                # requests with the wrong results.  Fail the whole chunk.
                mismatch = ReproError(
                    f"tag_batch returned {len(results)} results for "
                    f"{len(requests)} requests; every request in a flush must "
                    "receive exactly one tag sequence"
                )
                for _, future, slot in requests:
                    self._resolve(future, slot, error=mismatch)
                continue
            for (_, future, slot), tags in zip(requests, results):
                self._resolve(future, slot, result=list(tags))
            with self._lock:
                self._flushes_total += 1
                self._flushed_requests += len(requests)
                self._largest_flush = max(self._largest_flush, len(requests))

    @staticmethod
    def _resolve(future: Future, slot: int | None, *, result=None, error=None) -> None:
        """Complete one request, tolerating a concurrent cancellation.

        An async caller whose deadline expired may cancel its future at any
        moment; ``set_result`` on a cancelled future raises
        ``InvalidStateError``, which would kill the worker thread and strand
        every queue forever.  A group resolves once its last slot is filled,
        or at its first error.
        """
        if slot is not None and error is None:
            future.results[slot] = result
            future.missing -= 1
            if future.missing:
                return
            result = future.results
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass

    # ----------------------------------------------------------------- admin

    def stats(self) -> dict[str, float | str]:
        """Coalescing counters: how many kernel calls the queue saved."""
        with self._lock:
            flushes = self._flushes_total
            flushed = self._flushed_requests
            return {
                "name": self.name,
                "requests_total": self._requests_total,
                "flushes_total": flushes,
                "largest_flush": self._largest_flush,
                "mean_flush_size": (flushed / flushes) if flushes else 0.0,
                "pending": len(self._pending),
                "cancelled_total": self._cancelled_total,
            }

    def close(self, *, timeout: float | None = 5.0) -> None:
        """Stop accepting work, drain pending requests, join the worker."""
        with self._has_work:
            if self._closed:
                return
            self._closed = True
            self._has_work.notify_all()
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicrobatchQueue":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
