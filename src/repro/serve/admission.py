"""Admission control for the asyncio front door: bounded queues + deadlines.

The asyncio server passes every request through an
:class:`AdmissionController` before any work happens:

* at most ``max_inflight`` requests per endpoint execute concurrently;
* at most ``queue_depth`` more may *wait* for a slot — anything beyond that
  is shed immediately with :class:`AdmissionDeniedError`, which the HTTP
  layer maps to ``429 Too Many Requests`` + ``Retry-After`` (the same
  mapping :class:`~repro.serve.microbatch.QueueSaturatedError` gets);
* a queued request whose ``deadline_s`` expires before a slot frees is
  abandoned with :class:`DeadlineExceededError` instead of occupying the
  queue forever — its client has usually given up already.

Slots hand off directly: releasing a slot wakes the longest-waiting request
without ever letting the in-flight count overshoot.  Everything runs on the
event loop, so no locks are needed; the controller must only be used from
one loop.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "AdmissionController",
    "AdmissionDeniedError",
    "AdmissionPolicy",
    "DeadlineExceededError",
    "EndpointGate",
]


class AdmissionDeniedError(ReproError):
    """The endpoint's wait queue is full; the caller should back off."""

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ReproError):
    """The request's deadline expired before (or while) it could be served."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-endpoint limits.

    Attributes:
        max_inflight: Concurrent requests allowed past the gate.
        queue_depth: Requests allowed to wait for a slot; the next one sheds.
        deadline_s: Total request budget (queue wait + handling); ``None``
            disables deadlines.
        retry_after_s: Advisory ``Retry-After`` seconds sent with a shed.
    """

    max_inflight: int = 64
    queue_depth: int = 128
    deadline_s: float | None = 30.0
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError("max_inflight must be at least 1")
        if self.queue_depth < 0:
            raise ConfigurationError("queue_depth must not be negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive (or None)")


class EndpointGate:
    """Bounded concurrency gate for one endpoint (event-loop only)."""

    def __init__(self, name: str, policy: AdmissionPolicy) -> None:
        self.name = name
        self.policy = policy
        self._inflight = 0
        self._waiters: collections.deque[asyncio.Future] = collections.deque()
        self.admitted_total = 0
        self.shed_total = 0
        self.expired_total = 0

    async def acquire(self) -> float:
        """Wait for a slot; returns queue-wait seconds.

        Raises :class:`AdmissionDeniedError` when the wait queue is full and
        :class:`DeadlineExceededError` when ``deadline_s`` expires first.
        """
        if self._inflight < self.policy.max_inflight:
            self._inflight += 1
            self.admitted_total += 1
            return 0.0
        if len(self._waiters) >= self.policy.queue_depth:
            self.shed_total += 1
            raise AdmissionDeniedError(
                f"endpoint {self.name!r} is saturated "
                f"({self._inflight} in flight, {len(self._waiters)} queued); "
                "retry later",
                retry_after_s=self.policy.retry_after_s,
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        started = time.monotonic()
        try:
            await asyncio.wait_for(waiter, self.policy.deadline_s)
        except TimeoutError:
            with contextlib.suppress(ValueError):
                self._waiters.remove(waiter)
            if waiter.done() and not waiter.cancelled():
                # The slot was handed to us in the same tick the deadline
                # fired; pass it straight on so it is not lost.
                self.release()
            self.expired_total += 1
            raise DeadlineExceededError(
                f"request to endpoint {self.name!r} spent its "
                f"{self.policy.deadline_s:g}s deadline waiting for a slot"
            ) from None
        except asyncio.CancelledError:
            with contextlib.suppress(ValueError):
                self._waiters.remove(waiter)
            if waiter.done() and not waiter.cancelled():
                self.release()
            raise
        self.admitted_total += 1
        return time.monotonic() - started

    def release(self) -> None:
        """Free a slot, handing it to the longest-waiting request if any."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                # Direct hand-off: the in-flight count stays unchanged, the
                # waiter wakes already holding the slot.
                waiter.set_result(None)
                return
        self._inflight -= 1

    def stats(self) -> dict:
        return {
            "in_flight": self._inflight,
            "queued": len(self._waiters),
            "max_inflight": self.policy.max_inflight,
            "queue_depth": self.policy.queue_depth,
            "admitted_total": self.admitted_total,
            "shed_total": self.shed_total,
            "deadline_expired_total": self.expired_total,
        }


class AdmissionController:
    """Per-endpoint :class:`EndpointGate` collection behind one policy.

    Args:
        policy: Default policy for every endpoint.
        per_endpoint: Policy overrides keyed by endpoint label (the labels
            :func:`repro.serve.metrics.endpoint_label` produces, e.g.
            ``"tag"``, ``"search"``, ``"reload"``).
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        *,
        per_endpoint: dict[str, AdmissionPolicy] | None = None,
    ) -> None:
        self.policy = policy or AdmissionPolicy()
        self._overrides = dict(per_endpoint or {})
        self._gates: dict[str, EndpointGate] = {}

    def gate(self, endpoint: str) -> EndpointGate:
        gate = self._gates.get(endpoint)
        if gate is None:
            gate = self._gates[endpoint] = EndpointGate(
                endpoint, self._overrides.get(endpoint, self.policy)
            )
        return gate

    @contextlib.asynccontextmanager
    async def admit(self, endpoint: str):
        """``async with controller.admit("tag") as queue_wait_s: ...``"""
        gate = self.gate(endpoint)
        queue_wait_s = await gate.acquire()
        try:
            yield queue_wait_s
        finally:
            gate.release()

    def deadline_for(self, endpoint: str) -> float | None:
        """The endpoint's total request budget in seconds (``None`` = no cap)."""
        return self.gate(endpoint).policy.deadline_s

    def stats(self) -> dict[str, dict]:
        """JSON-ready per-endpoint gate counters for ``/stats``."""
        return {name: gate.stats() for name, gate in sorted(self._gates.items())}
