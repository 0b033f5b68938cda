"""Tests for the microbatching queue: coalescing, chunking, parity, errors."""

import threading

import pytest

from repro.errors import ConfigurationError, DataError, ReproError
from repro.serve import MicrobatchQueue, QueueSaturatedError


class Recorder:
    """A deterministic tag_batch stub that records every flush it receives."""

    def __init__(self):
        self.calls: list[list[tuple[str, ...]]] = []
        self.lock = threading.Lock()

    def __call__(self, token_sequences):
        with self.lock:
            self.calls.append([tuple(tokens) for tokens in token_sequences])
        return [[token.upper() for token in tokens] for tokens in token_sequences]


class TestCoalescing:
    def test_concurrent_requests_share_flushes(self):
        recorder = Recorder()
        with MicrobatchQueue(recorder, max_delay_s=0.05) as queue:
            results = queue.tag_many([["a"], ["b", "c"], ["d"]] * 10, timeout=10)
        assert results == [["A"], ["B", "C"], ["D"]] * 10
        stats = queue.stats()
        assert stats["requests_total"] == 30
        # Everything submitted inside one coalescing window lands in a
        # handful of kernel calls, not thirty.
        assert stats["flushes_total"] < stats["requests_total"] / 2
        assert stats["largest_flush"] > 1
        assert sum(len(call) for call in recorder.calls) == 30

    def test_full_batch_flushes_before_the_window_expires(self):
        recorder = Recorder()
        with MicrobatchQueue(recorder, max_batch=4, max_delay_s=30.0) as queue:
            results = queue.tag_many([["x"]] * 4, timeout=10)
        assert results == [["X"]] * 4

    def test_token_budget_splits_oversized_flushes(self):
        recorder = Recorder()
        with MicrobatchQueue(recorder, max_tokens=8, max_delay_s=0.05) as queue:
            queue.tag_many([["t"] * 5] * 6, timeout=10)  # bucket width 8 each
        assert all(len(call) == 1 for call in recorder.calls)
        assert queue.stats()["flushes_total"] == 6

    def test_results_keep_submission_order(self):
        recorder = Recorder()
        sequences = [[f"w{i}"] for i in range(50)]
        with MicrobatchQueue(recorder, max_delay_s=0.02) as queue:
            results = queue.tag_many(sequences, timeout=10)
        assert results == [[f"W{i}"] for i in range(50)]

    def test_tag_many_split_across_flushes_keeps_order(self):
        """One tag_many call whose sequences land in several kernel calls
        (mixed lengths, small batches) still returns them in order."""
        recorder = Recorder()
        sequences = [[f"w{i}"] * (1 + i % 4) for i in range(23)]
        with MicrobatchQueue(recorder, max_batch=3, max_delay_s=0.0) as queue:
            results = queue.tag_many(sequences, timeout=10)
        assert results == [[token.upper() for token in tokens] for tokens in sequences]
        assert len(recorder.calls) > 1
        assert queue.stats()["requests_total"] == 23

    def test_tag_many_of_nothing_returns_without_queueing(self):
        recorder = Recorder()
        with MicrobatchQueue(recorder, max_delay_s=0.0) as queue:
            assert queue.tag_many([], timeout=1) == []
        assert recorder.calls == []
        assert queue.stats()["requests_total"] == 0


class TestModelParity:
    def test_queue_output_is_byte_identical_to_tag_batch(self, modeler, sample_phrases):
        ner = modeler.components.ingredient_pipeline.ner
        token_sequences = [list(phrase.tokens) for phrase in sample_phrases[:80]]
        expected = ner.tag_batch(token_sequences)
        with MicrobatchQueue(ner.tag_batch, max_delay_s=0.005) as queue:
            results = queue.tag_many(token_sequences, timeout=30)
        assert results == expected


class TestFailureModes:
    def test_flush_exception_reaches_every_caller(self):
        def explode(_token_sequences):
            raise DataError("decode blew up")

        with MicrobatchQueue(explode, max_delay_s=0.01) as queue:
            futures = [queue.submit(["a"]), queue.submit(["b"])]
            for future in futures:
                with pytest.raises(DataError, match="decode blew up"):
                    future.result(timeout=10)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_lying_tag_batch_fails_every_future_instead_of_hanging(self, extra):
        """A result list that does not match the request count must not
        strand futures forever (short) or mis-assign results (long)."""

        def liar(token_sequences):
            results = [[token.upper() for token in tokens] for tokens in token_sequences]
            return results[:extra] if extra < 0 else results + [["BOGUS"]]

        with MicrobatchQueue(liar, max_delay_s=0.02) as queue:
            group = queue.submit_many([["a"], ["b"], ["c"]])
            with pytest.raises(ReproError, match="3 requests"):
                group.result(timeout=5)

    def test_flush_exception_fails_a_tag_many_call(self):
        def explode(_token_sequences):
            raise DataError("decode blew up")

        with MicrobatchQueue(explode, max_delay_s=0.0) as queue:
            with pytest.raises(DataError, match="decode blew up"):
                queue.tag_many([["a"], ["b"]], timeout=10)

    def test_saturated_tag_many_enqueues_nothing(self):
        recorder = Recorder()
        with MicrobatchQueue(recorder, max_delay_s=0.0, max_pending=2) as queue:
            with pytest.raises(QueueSaturatedError, match="saturated"):
                queue.tag_many([["a"], ["b"], ["c"]], timeout=10)
            assert queue.stats()["requests_total"] == 0
            assert queue.tag_many([["d"]], timeout=10) == [["D"]]
        assert recorder.calls == [[("d",)]]

    def test_queue_survives_a_lying_flush(self):
        state = {"lie": True}

        def flaky(token_sequences):
            results = [list(tokens) for tokens in token_sequences]
            return results[:-1] if state["lie"] else results

        with MicrobatchQueue(flaky, max_delay_s=0.01) as queue:
            with pytest.raises(ReproError, match="must receive exactly one"):
                queue.tag(["a"], timeout=5)
            state["lie"] = False
            assert queue.tag(["b"], timeout=5) == ["b"]

    def test_queue_survives_a_failing_flush(self):
        state = {"fail": True}

        def flaky(token_sequences):
            if state["fail"]:
                raise DataError("transient")
            return [list(tokens) for tokens in token_sequences]

        with MicrobatchQueue(flaky, max_delay_s=0.01) as queue:
            with pytest.raises(DataError):
                queue.tag(["a"], timeout=10)
            state["fail"] = False
            assert queue.tag(["b"], timeout=10) == ["b"]

    def test_submit_after_close_is_rejected(self):
        queue = MicrobatchQueue(Recorder(), max_delay_s=0.01)
        queue.close()
        with pytest.raises(ConfigurationError, match="closed"):
            queue.submit(["a"])

    def test_close_drains_pending_requests(self):
        recorder = Recorder()
        queue = MicrobatchQueue(recorder, max_delay_s=0.2)
        futures = [queue.submit(["a"]), queue.submit(["b"])]
        queue.close()
        assert [future.result(timeout=1) for future in futures] == [["A"], ["B"]]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            MicrobatchQueue(Recorder(), max_batch=0)
        with pytest.raises(ConfigurationError):
            MicrobatchQueue(Recorder(), max_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            MicrobatchQueue(Recorder(), max_pending=0)

    def test_saturated_queue_sheds_load_instead_of_growing(self):
        started = threading.Event()
        release = threading.Event()

        def slow(token_sequences):
            started.set()
            assert release.wait(timeout=10)
            return [[token.upper() for token in tokens] for tokens in token_sequences]

        queue = MicrobatchQueue(slow, max_delay_s=0.0, max_pending=2)
        try:
            first = queue.submit(["a"])  # drained immediately, blocks in flush
            assert started.wait(timeout=5)
            accepted = [queue.submit(["b"]), queue.submit(["c"])]  # backlog at cap
            with pytest.raises(QueueSaturatedError, match="saturated"):
                queue.submit(["d"])
            with pytest.raises(QueueSaturatedError):
                queue.submit_many([["e"]])
            release.set()
            assert first.result(timeout=5) == ["A"]
        finally:
            release.set()
            queue.close()
        assert [future.result(timeout=5) for future in accepted] == [["B"], ["C"]]


class TestDeadlinesAndCancellation:
    def test_tag_many_timeout_is_an_overall_deadline(self):
        """A blocked flush must fail a 3-sequence tag_many after ~one
        timeout, not three: the deadline covers the whole batch."""
        import time

        release = threading.Event()

        def stuck(token_sequences):
            assert release.wait(timeout=10)
            return [list(tokens) for tokens in token_sequences]

        queue = MicrobatchQueue(stuck, max_delay_s=0.0)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="overall"):
                queue.tag_many([["a"], ["b"], ["c"]], timeout=0.3)
            elapsed = time.monotonic() - started
            assert elapsed < 0.3 * 2.5  # one budget (+ slack), never 3x
        finally:
            release.set()
            queue.close()

    def test_tag_many_fails_fast_once_the_deadline_is_spent(self):
        """After the deadline passes, undone futures raise immediately
        instead of each paying another zero-second result() poll."""
        import time

        release = threading.Event()

        def stuck(token_sequences):
            assert release.wait(timeout=10)
            return [list(tokens) for tokens in token_sequences]

        queue = MicrobatchQueue(stuck, max_delay_s=0.0)
        try:
            with pytest.raises(TimeoutError) as excinfo:
                queue.tag_many([["a"], ["b"]], timeout=0.2)
            assert "0 of 2 results" in str(excinfo.value)
        finally:
            release.set()
            queue.close()

    def test_tag_many_timeout_counts_the_results_already_in(self):
        """A call whose first flush finished and second is stuck reports
        the partial progress in its timeout message."""
        release = threading.Event()

        def gated(token_sequences):
            if tuple(token_sequences[0]) == ("stuck",):
                assert release.wait(timeout=10)
            return [list(tokens) for tokens in token_sequences]

        queue = MicrobatchQueue(gated, max_batch=1, max_delay_s=0.0)
        try:
            with pytest.raises(TimeoutError) as excinfo:
                queue.tag_many([["a"], ["stuck"]], timeout=0.3)
            assert "1 of 2 results" in str(excinfo.value)
        finally:
            release.set()
            queue.close()

    def test_cancelled_futures_are_dropped_before_decoding(self):
        """Futures cancelled while queued never reach tag_batch, and the
        drop is visible in stats()."""
        recorder = Recorder()
        blocker_started = threading.Event()
        blocker_release = threading.Event()

        def gated(token_sequences):
            if tuple(token_sequences[0]) == ("block",):
                blocker_started.set()
                assert blocker_release.wait(timeout=10)
            return recorder(token_sequences)

        queue = MicrobatchQueue(gated, max_delay_s=0.0)
        try:
            blocker = queue.submit(["block"])  # occupies the worker
            assert blocker_started.wait(timeout=5)
            doomed = queue.submit(["doomed"])
            survivor = queue.submit(["kept"])
            assert doomed.cancel()  # still queued: cancellation must win
            blocker_release.set()
            assert survivor.result(timeout=5) == ["KEPT"]
            assert blocker.result(timeout=5) == ["BLOCK"]
        finally:
            blocker_release.set()
            queue.close()
        flushed = [tokens for call in recorder.calls for tokens in call]
        assert ("doomed",) not in flushed
        assert queue.stats()["cancelled_total"] == 1

    def test_cancelled_group_is_dropped_before_decoding(self):
        """Cancelling a queued submit_many future drops every sequence of
        the group (each counted in stats()) and leaves other work alone."""
        recorder = Recorder()
        blocker_started = threading.Event()
        blocker_release = threading.Event()

        def gated(token_sequences):
            if tuple(token_sequences[0]) == ("block",):
                blocker_started.set()
                assert blocker_release.wait(timeout=10)
            return recorder(token_sequences)

        queue = MicrobatchQueue(gated, max_delay_s=0.0)
        try:
            blocker = queue.submit(["block"])
            assert blocker_started.wait(timeout=5)
            doomed = queue.submit_many([["x"], ["y"], ["z"]])
            survivor = queue.submit_many([["kept"]])
            assert doomed.cancel()
            blocker_release.set()
            assert survivor.result(timeout=5) == [["KEPT"]]
            assert blocker.result(timeout=5) == ["BLOCK"]
        finally:
            blocker_release.set()
            queue.close()
        flushed = {tokens for call in recorder.calls for tokens in call}
        assert flushed.isdisjoint({("x",), ("y",), ("z",)})
        assert queue.stats()["cancelled_total"] == 3

    def test_cancellation_racing_a_flush_does_not_kill_the_worker(self):
        """A future cancelled after the flush snapshot must not crash the
        worker via set_result on a cancelled future; the queue keeps
        serving afterwards."""
        decoding = threading.Event()
        release = threading.Event()

        def slow(token_sequences):
            decoding.set()
            assert release.wait(timeout=10)
            return [[token.upper() for token in tokens] for tokens in token_sequences]

        queue = MicrobatchQueue(slow, max_delay_s=0.0)
        try:
            future = queue.submit(["a"])
            assert decoding.wait(timeout=5)
            # The flush already owns the future; concurrent.futures only
            # allows cancel() before it runs, so force the race directly.
            future.cancel()
            release.set()
            # The worker survived the InvalidStateError path: new work flows.
            assert queue.tag(["b"], timeout=5) == ["B"]
        finally:
            release.set()
            queue.close()
