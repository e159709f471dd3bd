"""Micro-batching request queue for the forecast service.

Concurrent clients each submit a single history window into **one** queue.
Consumer threads — one per predict function — pull from it: a free
consumer coalesces queued requests (up to ``max_batch``) and runs **one**
batched forward for the whole group.  Batched inference amortises the
per-call graph-convolution overhead, so throughput grows with batch size.

In-process serving has a single consumer, which waits at most
``max_wait_ms`` for stragglers after the first request of a batch.  The
serving cluster passes one predict function per worker process: a worker
takes the next batch only when it is idle, and takes at most an even share
of the queue, so no request waits behind a busy worker while another one
is free or about to be.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

PredictFn = Callable[[np.ndarray], np.ndarray]

_SHUTDOWN = object()


class Overloaded(RuntimeError):
    """Raised at submit time when the pending queue is at its watermark.

    Typed rejection is admission control: under overload the server sheds
    new work immediately instead of queueing it unboundedly and serving it
    long after its deadline.  Callers can catch this and retry later or
    surface it.
    """


class DeadlineExceeded(RuntimeError):
    """Set on a future whose request expired before its batch ran.

    The batcher sheds expired requests *before* the kernel forward, so a
    deadline miss costs a queue pop, never a wasted inference.
    """


@dataclass
class BatchStats:
    """Running counters of a batcher (O(1) memory, server-lifetime safe).

    Batches whose forward raised are counted too (in ``num_batches`` /
    ``num_requests`` as well as ``num_failed_batches``), so the counters
    reflect every batch actually formed, not just the lucky ones.

    :meth:`record` is lock-guarded: the counters are fed from the consumer
    threads but read (and, in the serving cluster, merged) from arbitrary
    threads, and the read-modify-write increments would otherwise race and
    undercount.
    """

    num_requests: int = 0
    num_batches: int = 0
    max_batch_size: int = 0
    num_failed_batches: int = 0
    num_expired: int = 0
    num_rejected: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, batch_size: int, failed: bool = False) -> None:
        with self._lock:
            self.num_requests += batch_size
            self.num_batches += 1
            if batch_size > self.max_batch_size:
                self.max_batch_size = batch_size
            if failed:
                self.num_failed_batches += 1

    def record_expired(self, count: int = 1) -> None:
        """Count requests shed at their deadline before reaching the kernel."""
        with self._lock:
            self.num_expired += count

    def record_rejected(self, count: int = 1) -> None:
        """Count requests rejected at the pending-queue watermark."""
        with self._lock:
            self.num_rejected += count

    def merge(self, other: "BatchStats") -> None:
        """Fold ``other``'s counters into this one (cluster-wide aggregation)."""
        with other._lock:
            requests, batches = other.num_requests, other.num_batches
            largest, failed = other.max_batch_size, other.num_failed_batches
            expired, rejected = other.num_expired, other.num_rejected
        with self._lock:
            self.num_requests += requests
            self.num_batches += batches
            self.max_batch_size = max(self.max_batch_size, largest)
            self.num_failed_batches += failed
            self.num_expired += expired
            self.num_rejected += rejected

    @property
    def mean_batch_size(self) -> float:
        return self.num_requests / self.num_batches if self.num_batches else 0.0


class MicroBatcher:
    """Coalesce single-window forecast requests into batched forwards.

    Parameters
    ----------
    predict_fn:
        Batched inference function mapping ``(B, h, N, C)`` histories to
        ``(B, f, N, 1)`` predictions — typically
        :meth:`repro.serve.ForecastService.predict` — or a list/tuple of
        them.  Each function gets its own consumer thread, which forms the
        next batch from the shared queue only once its previous batch has
        returned, so work goes to whichever function is free.
    max_batch:
        Largest batch one forward may serve.
    max_wait_ms:
        How long the consumer waits for additional requests after the first
        one of a batch arrives.  ``0`` disables coalescing delay (batches
        only form from already-queued requests).  Applies to a single
        consumer only: with several, each batch takes at most an even
        share (``1/len(predict_fn)``) of the queued requests and none waits
        for stragglers, because the next free consumer serves them at once.
    expected_channels:
        Total per-window channel width ``predict_fn`` expects (observation-
        mask channel *included* for mask-aware models).  When set, every
        :meth:`submit` validates the window width after any ``mask``
        concatenation — a ``(h, N, C)`` window for a mask-aware model would
        otherwise silently misread its last data channel as the mask.
        ``None`` disables the check (the width cannot be known for a bare
        ``predict_fn``).
    mask_input:
        Whether ``predict_fn`` serves a mask-aware model, i.e. whether the
        trailing channel of each window is the observation mask.  Only
        meaningful together with ``expected_channels``; gates the ``mask``
        argument of :meth:`submit`.
    max_pending:
        Admission-control watermark: the largest number of requests that
        may be queued or forming a batch at once.  :meth:`submit` raises
        :class:`Overloaded` beyond it instead of queueing unboundedly.
        ``None`` (the default) keeps the queue unbounded.

    Use as a context manager, or call :meth:`close` to drain and stop::

        with MicroBatcher(service.predict, max_batch=32, max_wait_ms=2) as mb:
            futures = [mb.submit(w) for w in windows]
            results = [f.result() for f in futures]

    :meth:`for_service` wires ``expected_channels`` / ``mask_input``
    straight from a :class:`~repro.serve.service.ForecastService`.
    """

    def __init__(
        self,
        predict_fn: PredictFn | Sequence[PredictFn],
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        expected_channels: int | None = None,
        mask_input: bool = False,
        max_pending: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if expected_channels is not None and expected_channels < 1:
            raise ValueError("expected_channels must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        fns = (list(predict_fn) if isinstance(predict_fn, (list, tuple))
               else [predict_fn])
        if not fns:
            raise ValueError("predict_fn must hold at least one function")
        self.predict_fn = predict_fn
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.expected_channels = expected_channels
        self.mask_input = bool(mask_input)
        self.max_pending = max_pending
        self.stats = BatchStats()
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        # Admitted requests not yet taken into a batch, for the watermark.
        # Guarded by its own lock (not _lifecycle) so consumers can decrement
        # without contending with close().
        self._pending = 0
        self._pending_lock = threading.Lock()
        # Serialises submit() against close(): without it a thread could pass
        # the _closed check, lose the CPU while close() drains and joins the
        # consumers, and then land its window on a dead queue — a Future that
        # never resolves.  Under the lock a submission either wins (its item
        # is enqueued *before* the shutdown sentinel, so a consumer is
        # guaranteed to serve it) or deterministically raises.
        self._lifecycle = threading.Lock()
        # One batch forms at a time, taken by whichever consumer is free.
        self._forming = threading.Lock()
        self._consumers = [
            threading.Thread(target=self._run, args=(fn,),
                             name=f"microbatcher-{i}", daemon=True)
            for i, fn in enumerate(fns)
        ]
        for consumer in self._consumers:
            consumer.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    @classmethod
    def for_service(cls, service, **kwargs) -> "MicroBatcher":
        """A batcher over ``service.predict`` with the scenario contract wired.

        Reads the expected window width (mask channel included) and the
        mask-awareness flag off the
        :class:`~repro.serve.service.ForecastService`, so mis-shaped windows
        are rejected at submit time instead of being silently misread.
        """
        return cls(
            service.predict,
            expected_channels=getattr(service, "expected_channels", None),
            mask_input=getattr(service, "mask_input", False),
            **kwargs,
        )

    def _validate(self, window: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Apply the mask contract and width check; returns the final window."""
        if window.ndim != 3:
            raise ValueError(
                f"window must be (steps, nodes, channels), got shape {window.shape}"
            )
        if mask is not None:
            if self.expected_channels is not None and not self.mask_input:
                raise ValueError(
                    "mask= was given but the served model was not trained "
                    "with mask_input; drop the mask"
                )
            mask = np.asarray(mask)
            if mask.shape != window.shape[:2]:
                raise ValueError(
                    f"mask must be (steps, nodes) = {window.shape[:2]}, "
                    f"got {mask.shape}"
                )
            window = np.concatenate(
                [window, mask[..., None].astype(window.dtype, copy=False)], axis=-1
            )
        if (self.expected_channels is not None
                and window.shape[-1] != self.expected_channels):
            hint = ""
            if self.mask_input and mask is None \
                    and window.shape[-1] == self.expected_channels - 1:
                hint = (
                    " — the served model is mask-aware: pass mask=(steps, nodes) "
                    "to submit(), or pre-concatenate the observation mask as "
                    "the trailing channel"
                )
            raise ValueError(
                f"window has {window.shape[-1]} channels, the served model "
                f"expects {self.expected_channels}{hint}"
            )
        return window

    @property
    def pending(self) -> int:
        """Requests admitted but not yet taken into a batch."""
        with self._pending_lock:
            return self._pending

    def submit(self, window: np.ndarray, mask: np.ndarray | None = None,
               deadline_s: float | None = None) -> Future:
        """Enqueue one history window ``(h, N, C)``; resolves to ``(f, N, ·)``.

        ``mask`` optionally supplies the observation mask ``(h, N)`` of a
        mask-aware model (1 = observed); it is appended as the trailing
        input channel before batching, exactly as
        :meth:`ForecastService.predict` does.  A mask-aware request may
        equally arrive with the mask already concatenated, in which case
        ``mask`` must be omitted.  When the batcher knows the served
        model's channel width (see ``expected_channels`` /
        :meth:`for_service`), mis-shaped windows raise ``ValueError`` here
        instead of being silently misread by the model.

        ``deadline_s`` bounds how long the request may queue: if its batch
        has not started ``deadline_s`` seconds from now, the future fails
        with :class:`DeadlineExceeded` *without* running the kernel.

        Raises :class:`Overloaded` when ``max_pending`` requests are
        already queued, and ``RuntimeError`` once :meth:`close` has begun —
        late submissions are rejected deterministically instead of being
        dropped.
        """
        window = self._validate(np.asarray(window), mask)
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            with self._pending_lock:
                if (self.max_pending is not None
                        and self._pending >= self.max_pending):
                    self.stats.record_rejected()
                    raise Overloaded(
                        f"{self._pending} request(s) already pending "
                        f"(watermark {self.max_pending}); shedding new work"
                    )
                self._pending += 1
            future: Future = Future()
            self._queue.put((window, future, deadline))
        return future

    def predict(self, window: np.ndarray, mask: np.ndarray | None = None,
                timeout: float | None = None,
                deadline_s: float | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(window, mask=mask,
                           deadline_s=deadline_s).result(timeout=timeout)

    def close(self) -> None:
        """Stop accepting requests, serve everything queued, join the consumers.

        Safe to call from several threads: every caller joins the
        consumers, so no close() returns while a batch is still being served.
        """
        with self._lifecycle:
            if not self._closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        for consumer in self._consumers:
            consumer.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def _run(self, predict_fn) -> None:
        while True:
            with self._forming:
                batch = self._take()
            if not batch:
                return
            self._serve(predict_fn, batch)

    def _take(self) -> list:
        """Block for the next batch; empty once the shutdown sentinel is seen.

        Every request was enqueued before the sentinel (see ``_lifecycle``),
        so the queue is drained by the time a consumer meets it.  The
        sentinel is put back for the next consumer.
        """
        first = self._queue.get()
        if first is _SHUTDOWN:
            self._queue.put(_SHUTDOWN)
            return []
        limit = self.max_batch
        consumers = len(self._consumers)
        if consumers > 1:
            # Take at most an even share of what is queued and wait for no
            # stragglers: the next free consumer serves the rest, so one
            # consumer never hoards a backlog while a peer frees up idle.
            limit = min(limit, -(-(1 + self._queue.qsize()) // consumers))
        batch = [first]
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        while len(batch) < limit:
            try:
                item = self._queue.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                self._queue.put(_SHUTDOWN)
                break
            batch.append(item)
        with self._pending_lock:
            self._pending -= len(batch)
        return batch

    def _serve(self, predict_fn, batch: list) -> None:
        """Run one formed batch through ``predict_fn`` and resolve its futures."""
        live = []
        expired = 0
        now = time.monotonic()
        for window, future, deadline in batch:
            # Claim every future before the forward: one cancelled while
            # queued must be skipped — set_result/set_exception on a
            # CANCELLED future raises InvalidStateError, which would kill
            # this consumer and hang every later submission.  A claimed
            # future is RUNNING and can no longer be cancelled.
            if not future.set_running_or_notify_cancel():
                continue
            # Shed expired requests before the forward: a deadline miss must
            # never cost a kernel inference on an answer nobody awaits.
            if deadline is not None and now > deadline:
                future.set_exception(DeadlineExceeded(
                    "request deadline expired while queued; the batch was "
                    "shed before running the kernel"
                ))
                expired += 1
            else:
                live.append((window, future))
        if expired:
            self.stats.record_expired(expired)
        if not live:
            return
        try:
            predictions = predict_fn(np.stack([window for window, _ in live]))
        except Exception as error:  # propagate to every waiting client
            self.stats.record(len(live), failed=True)
            for _, future in live:
                future.set_exception(error)
            return
        self.stats.record(len(live))
        for i, (_, future) in enumerate(live):
            future.set_result(predictions[i])
