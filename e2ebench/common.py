"""Shared plumbing of the end-to-end benchmark: host record, spans, statistics.

Nothing here imports numpy at module level: ``run.py`` must set the BLAS
thread caps in the environment before the first numpy import.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import shutil
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# Every BLAS pool is capped at one thread, for the benchmark process and (by
# inheritance and by ServingCluster's own cap) for its workers, so that two
# commits measured on the same shared 2-core box always run with identical
# threading.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent


def host_record() -> dict:
    """What the numbers were measured on; printed with every run."""
    import numpy as np

    from repro.backend import get_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "blas_caps": {name: os.environ.get(name) for name in BLAS_ENV},
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": get_backend(None).name,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def work_dir(tag: str) -> Path:
    """A per-process scratch directory inside the checkout."""
    path = CHECKOUT / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work_dir(path: Path) -> None:
    """Remove a :func:`work_dir`, and ``.bench_work`` once it is empty."""
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:  # another run's directory is still there
        pass


def stop_child_processes() -> None:
    """Stop and reap every process this run started, helpers included.

    Besides the cluster's workers (which ``ServingCluster.close`` joins),
    multiprocessing's spawn start method launches a resource-tracker
    process that would otherwise outlive the benchmark until it notices
    that its parent is gone.  Closing the tracker's pipe ends it; the call
    waits for it to exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb(worker_count: int = 0) -> float:
    """High-water RSS of this process plus ``worker_count`` reaped workers.

    ``RUSAGE_CHILDREN`` reports the largest reaped child; the cluster's
    workers are identical replicas, so each is charged that figure.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_count * children) / 1024.0  # ru_maxrss is in KiB


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def supported_percentile(count: int, cap: float) -> float:
    """``cap``, lowered to the highest percentile with ten samples beyond it."""
    if count <= 10:
        return 100.0
    return min(cap, 100.0 * (1.0 - 10.0 / count))


def tail_ms(values) -> float:
    """The end-to-end tail: p90, or lower when fewer than 100 samples exist.

    A p99 from the ~1000 samples one run affords moves by about a fifth
    between seeds from arrival randomness alone, so the regression-gated tail
    is p90; the p99s are reported among the per-layer figures.
    """
    return percentile(values, supported_percentile(len(values), 90.0))


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``(name, start, end, parent)``, where ``parent`` indexes
    the span open on the same thread when it started.  A disabled tracer
    records nothing and :meth:`patch` leaves its target untouched, so the
    untraced run executes exactly the program's own code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        if not self.enabled:
            return
        had_own = attribute in getattr(owner, "__dict__", {})
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original, had_own))
        setattr(owner, attribute, self.wrap(original, name))

    def restore(self) -> None:
        for owner, attribute, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    def durations(self, name: str, child: str | None = None) -> list[float]:
        """Durations in seconds of every closed span called ``name``.

        With ``child``, only the spans that enclose a span called ``child``.
        """
        parents = None
        if child is not None:
            parents = {parent for span_name, _, _, parent in self.spans
                       if span_name == child}
        return [end - start for index, (span_name, start, end, _) in enumerate(self.spans)
                if span_name == name and end is not None
                and (parents is None or index in parents)]

    def self_durations(self, name: str) -> list[float]:
        """Per ``name`` span: its duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (span_name, start, end, _) in enumerate(self.spans):
            if span_name != name or end is None:
                continue
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(index, [])):
                child_start = max(child_start, cursor)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result


def sequential_ms(call, repeats: int) -> float:
    """Median wall time in ms of ``repeats`` back-to-back calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


def service_probes(bundle, windows, max_batch: int, repeats: int,
                   tracer: Tracer) -> tuple[dict, float]:
    """Idle costs of the checkpoint, service and batching layers on ``bundle``.

    ``windows`` holds at least ``max_batch`` request windows.  The batcher
    figure is its single-request latency minus the bare batch-1 predict;
    that latency is returned too, for the cluster figure to subtract.
    """
    from repro.serve import ForecastService, MicroBatcher
    from repro.utils import load_bundle

    for _ in range(3):
        with tracer.span("utils.checkpoint.load_bundle"):
            load_bundle(bundle)
        with tracer.span("serve.service.from_checkpoint"):
            service = ForecastService.from_checkpoint(bundle)
    one, batch = windows[:1], windows[:max_batch]
    service.predict(one)
    service.predict(batch)
    b1 = sequential_ms(lambda: service.predict(one), repeats)
    b8 = sequential_ms(lambda: service.predict(batch), max(3, repeats // 3))
    with MicroBatcher.for_service(service, max_batch=max_batch) as batcher:
        batcher.predict(windows[0], timeout=120)
        batched = sequential_ms(lambda: batcher.predict(windows[0], timeout=120), repeats)
    return {
        "serve.service.predict_ms_b1": b1,
        "serve.service.predict_ms_b8": b8,
        "serve.batching.idle_overhead_ms": batched - b1,
        "utils.checkpoint.load_bundle_s": median(tracer.durations("utils.checkpoint.load_bundle")),
        "serve.service.from_checkpoint_s": median(tracer.durations("serve.service.from_checkpoint")),
    }, batched
