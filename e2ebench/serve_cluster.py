"""``serve-cluster``: Poisson load on a 2-worker ServingCluster.

One generator thread (the main thread) submits pre-generated windows at
seeded Poisson arrival times, at each of a few fixed absolute rates (the
rungs).  Every request is timed from when it was *due*, so a stalled
generator or a growing queue shows up in the latency of every later
request.  The top rung offers more than the cluster can serve, so its
completion rate is the cluster's capacity.  The end-to-end run sends the
top rung open loop and the ``nominal`` rung's windows closed loop, one
request outstanding at a time; the traced run offers every rung open loop.
Rung sizes follow their weights and fill ``--seconds``, and the rungs run in
rounds, each with an equal share of every rung's requests, so every rung's
figures pool samples from across the run.  Every response is compared with
an in-process ``ForecastService.predict`` of the same window.

Why the end-to-end latency is closed loop: between open-loop Poisson
arrivals the host's vCPUs go idle, and on a shared 2-vCPU host waking them
again costs anything from nothing to tens of milliseconds, depending on the
neighbours.  In noisy periods the open-loop ``nominal`` median and p90 moved
by 30-60 % between runs of the same code (1 worker, or 30-45 req/s, fared no
better); the closed-loop median, which never lets the host idle, moves by
about half as much as the open-loop one.  The open-loop rungs' latencies
remain among the per-layer metrics.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import wait
from functools import partial

import numpy as np

import common

from repro.core import SAGDFN, SAGDFNConfig
from repro.data import StandardScaler
from repro.serve import ForecastService, ServingCluster
from repro.tensor import default_dtype
from repro.utils import save_bundle

RUNG_METRICS = ("latency_p99_ms", "mean_batch_size", "batches", "worker_imbalance",
                "late_ms_p99")

# A response is correct when it is within this share of the output range of
# the in-process forecast of the same window at some batch size 1..max_batch.
# The kernel's float32 result for a window depends on the size of the batch
# it rides in but not on the other windows in it, so a correct response
# matches one of those forecasts to rounding; forecasts of two different
# windows differ by about the whole range.
TOLERANCE = 1e-5

# A worker under sustained load never idles long enough to send a heartbeat,
# and an "ok" reply does not refresh ``last_heartbeat``, so with the default
# 5 s staleness limit the supervisor declares busy, healthy workers dead after
# 5 s of load and requests fail.  The limit is raised past the longest run so
# the workload measures serving, not spurious respawns; every run says so.
HEARTBEAT_TIMEOUT_S = 600.0
HEARTBEAT_NOTE = (
    "ServingCluster runs with heartbeat_timeout_s=600: with the default (5 s) "
    "its supervisor kills healthy workers under sustained load and requests fail"
)


def make_inputs(cfg: dict, model_cfg: dict, rungs: list[dict], seed: int, seconds: float,
                work) -> dict:
    """Bundle, window pool, oracle forecasts and ``rungs``' arrival schedules."""
    rng = np.random.default_rng(seed)
    nodes, history, horizon = cfg["num_nodes"], cfg["history"], cfg["horizon"]
    with default_dtype(cfg["dtype"]):
        model = SAGDFN(SAGDFNConfig(
            num_nodes=nodes, history=history, horizon=horizon,
            convergence_iteration=0, seed=seed, **model_cfg,
        ))
        model.refresh_graph(0)
    scaler = StandardScaler().fit(rng.normal(50.0, 10.0, size=(64, nodes)))
    bundle = save_bundle(model, work / "serve_bundle", scaler=scaler)

    pool = np.empty((cfg["window_pool"], history, nodes, 2), dtype=cfg["dtype"])
    pool[..., 0] = rng.standard_normal(pool.shape[:3])
    pool[..., 1] = rng.uniform(0.0, 1.0, size=(pool.shape[0], 1, 1))
    # The oracle is the in-process service on the same window, at every batch
    # size the cluster can form: oracle[size - 1, window].
    service = ForecastService.from_checkpoint(bundle)
    pool_size = len(pool)
    oracle = None
    for size in range(1, cfg["max_batch"] + 1):
        for start in range(0, pool_size, size):
            index = (start + np.arange(size)) % pool_size
            forecast = service.predict(pool[index])
            if oracle is None:
                oracle = np.empty((cfg["max_batch"], pool_size) + forecast.shape[1:],
                                  dtype=forecast.dtype)
            oracle[size - 1, index] = forecast
    output_range = float(np.abs(oracle).max())

    # Request counts follow the rungs' weights, scaled so that the rungs take
    # about ``seconds`` at the fixed sizing capacity (a rung above it lasts as
    # long as the cluster takes to serve it).
    def serve_s(rung: dict) -> float:
        return rung["weight"] / min(rung["rate_rps"], cfg["sizing_capacity_rps"])

    scale = seconds / sum(serve_s(rung) for rung in rungs)
    schedules = []
    for rung in rungs:
        count = max(cfg.get("min_requests_per_rung", 1), round(rung["weight"] * scale))
        # A Poisson process conditioned on its count: uniform order
        # statistics over the rung's span, so the rung offers exactly
        # ``rate_rps`` on average.
        offsets = np.sort(rng.uniform(0.0, count / rung["rate_rps"], size=count))
        windows = rng.integers(0, pool_size, size=count)
        schedules.append((offsets, windows))
    return {"bundle": bundle, "pool": pool, "oracle": oracle,
            "atol": TOLERANCE * output_range,
            "batch_spread": float(np.abs(oracle[0] - oracle[-1]).max() / output_range),
            "schedules": schedules}


def correct(result, expected: np.ndarray, atol: float) -> bool:
    """Whether ``result`` matches the oracle at one of its batch sizes."""
    if result.shape != expected.shape[1:]:
        return False
    gaps = np.abs(expected - result).reshape(len(expected), -1).max(axis=1)
    return bool(gaps.min() <= atol)  # a NaN gap never passes


def start_cluster(bundle, cfg: dict, pool: np.ndarray) -> tuple[ServingCluster, float]:
    """Set-up: bundle digest check, worker spawn and freeze, then warm-up."""
    start = time.perf_counter()
    cluster = ServingCluster(bundle, workers=cfg["workers"], max_batch=cfg["max_batch"],
                             heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S)
    try:
        # Warm every batch size, largest first, so the kernels' workspace
        # caches end up holding the small sizes the nominal rung forms.
        for size in range(cfg["max_batch"], 0, -1):
            warm = [cluster.submit(pool[i % len(pool)])
                    for i in range(cfg["workers"] * size)]
            for future in warm:
                future.result(timeout=120)
    except BaseException:
        cluster.close()
        raise
    return cluster, time.perf_counter() - start


def _stamp(done_at: np.ndarray, index: int, _future) -> None:
    done_at[index] = time.perf_counter()


def _worker_counts(cluster: ServingCluster) -> list[tuple[int, int]]:
    return [(stats.num_requests, stats.num_batches) for stats in cluster.worker_stats]


def run_segment(cluster, inputs, schedule, tracer, corrupt: bool,
                closed: bool = False) -> dict:
    """Send one schedule, wait for every answer, then check them.

    Open loop, each request is sent when it is due.  ``closed`` ignores the
    arrival times: each request is sent as soon as the one before it has
    been answered, and is due when it is sent.
    """
    offsets, windows = schedule
    pool, oracle = inputs["pool"], inputs["oracle"]
    count = len(offsets)
    done_at = np.full(count, np.nan)
    futures = []
    late, submit_s = np.empty(count), np.empty(count)
    before = _worker_counts(cluster)
    t0 = time.perf_counter() + 0.05
    due = t0 + offsets
    for i in range(count):
        if closed:
            due[i] = time.perf_counter()
        else:
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        start = time.perf_counter()
        late[i] = start - due[i]
        with tracer.span("serve.cluster.submit"):
            future = cluster.submit(pool[windows[i]])
        submit_s[i] = time.perf_counter() - start
        future.add_done_callback(partial(_stamp, done_at, i))
        futures.append(future)
        if closed:
            wait([future])
    # Checking waits until every answer is in, so it takes no CPU from the
    # workers while they serve.
    wait(futures)
    # A future wakes its waiters before it runs its callbacks, so the last
    # stamps may still be on their way.
    while np.isnan(done_at).any():
        time.sleep(0.001)
    after = _worker_counts(cluster)

    ok = np.zeros(count, dtype=bool)
    for i, future in enumerate(futures):
        if future.exception() is not None:
            continue
        result = future.result()
        if corrupt and i == 0:
            result = result + 1.0
        ok[i] = correct(result, oracle[:, windows[i]], inputs["atol"])
    return {
        # A failed request counts as missing the latency limit.
        "latency_ms": np.where(ok, (done_at - due) * 1000.0, np.inf),
        "span_s": done_at.max() - t0,
        # Closed loop, arrivals keep pace with completions by construction.
        "offered_s": done_at.max() - t0 if closed else offsets[-1],
        "late_ms": late * 1000.0,
        "submit_us": submit_s * 1e6,
        "served": [r1 - r0 for (r1, _), (r0, _) in zip(after, before)],
        "batches": sum(b1 - b0 for (_, b1), (_, b0) in zip(after, before)),
    }


def summarize(segments: list[dict], cfg: dict) -> dict:
    """One rung's figures from its segments' pooled samples."""
    latency = np.concatenate([segment["latency_ms"] for segment in segments])
    late = np.concatenate([segment["late_ms"] for segment in segments])
    count = len(latency)
    span = sum(segment["span_s"] for segment in segments)
    offered = sum(segment["offered_s"] for segment in segments)
    served = np.sum([segment["served"] for segment in segments], axis=0)
    batches = sum(segment["batches"] for segment in segments)
    limit = cfg["latency_limit_ms"]
    p99 = common.percentile(latency, common.supported_percentile(count, 99.0))
    failed = int(np.sum(np.isinf(latency)))
    pace = offered / span  # completions keep pace with arrivals near 1
    return {
        "attempted": count,
        "failed": failed,
        "p50_ms": common.percentile(latency, 50.0),
        "p90_ms": common.percentile(latency, 90.0),
        "latency_p99_ms": p99,
        "passed": bool(failed == 0 and p99 <= limit and pace >= cfg["pace_min_ratio"]),
        "goodput_rps": float(np.sum(latency <= limit)) / span,
        "completed_rps": count / span,
        "mean_batch_size": served.sum() / max(batches, 1),
        "batches": batches,
        "worker_imbalance": served.max() / max(served.mean(), 1e-9),
        "late_ms_p99": common.percentile(late, common.supported_percentile(count, 99.0)),
        "submit_us": np.concatenate([segment["submit_us"] for segment in segments]),
    }


def run_ladder(cluster, inputs, cfg, tracer, corrupt: bool,
               loops: list[str]) -> list[dict]:
    """Every scheduled rung, split into ``rounds`` segments run round by round.

    Each round runs one segment of every rung in rate order, so each rung's
    figures pool samples from across the run instead of one stretch of host
    speed.  ``loops`` says per rung whether it is sent ``"open"`` or
    ``"closed"`` loop.
    """
    rounds = cfg["rounds"]
    segments = [[] for _ in inputs["schedules"]]
    parts = [np.array_split(np.arange(len(offsets)), rounds)
             for offsets, _ in inputs["schedules"]]
    for round_index in range(rounds):
        for rung, (offsets, windows) in enumerate(inputs["schedules"]):
            part = parts[rung][round_index]
            schedule = (offsets[part] - offsets[part][0], windows[part])
            segments[rung].append(run_segment(cluster, inputs, schedule, tracer, corrupt,
                                              closed=loops[rung] == "closed"))
    return [summarize(rung_segments, cfg) for rung_segments in segments]


def goodput(rungs: list[dict]) -> float:
    """In-limit completions per second at the highest rung that passed.

    When no rung passes, the nominal rung's in-limit rate is reported, so the
    figure stays a measured rate rather than zero.
    """
    passing = [rung for rung in rungs if rung["passed"]]
    return (passing[-1] if passing else rungs[0])["goodput_rps"]


def layer_probes(cluster, inputs, cfg, tracer) -> dict:
    """Idle single-request costs of each serving layer, measured from outside."""
    pool = inputs["pool"]
    probes, batched_ms = common.service_probes(inputs["bundle"], pool, cfg["max_batch"],
                                               cfg["probe_repeats"], tracer)
    clustered_ms = common.sequential_ms(lambda: cluster.predict(pool[0], timeout=120),
                                        cfg["probe_repeats"])
    probes["serve.cluster.idle_overhead_ms"] = clustered_ms - batched_ms
    return probes


def run(cfg: dict, model_cfg: dict, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    if trace:
        specs = cfg["rungs"]
        loops = ["open"] * len(specs)
    else:
        specs = [rung for rung in cfg["rungs"] if rung["end_to_end"]]
        loops = [rung["end_to_end"] for rung in specs]
    work = common.work_dir("serve-cluster")
    try:
        inputs = make_inputs(cfg, model_cfg, specs, seed, seconds, work)
        gc.collect()  # input generation's garbage is not the program's
        setups = []
        cluster = None
        for _ in range(cfg["setup_repeats"]):
            if cluster is not None:
                cluster.close()
            cluster, elapsed = start_cluster(inputs["bundle"], cfg, inputs["pool"])
            setups.append(elapsed)
        try:
            untraced = run_ladder(cluster, inputs, cfg, common.Tracer(False), corrupt, loops)
            rungs = untraced
            if trace:
                tracer = common.Tracer(True)
                traced = run_ladder(cluster, inputs, cfg, tracer, corrupt, loops)
                probes = layer_probes(cluster, inputs, cfg, tracer)
                rungs = untraced + traced
            health = cluster.health()
            stats = cluster.stats
        finally:
            cluster.close()
        rss = common.peak_rss_mb(cfg["workers"])
    finally:
        common.remove_work_dir(work)

    attempted = sum(rung["attempted"] for rung in rungs)
    failed = sum(rung["failed"] for rung in rungs)
    names = [rung["name"] for rung in specs]
    passes = [("untraced", untraced)] + ([("traced", traced)] if trace else [])
    phases = [
        {"phase": f"{label}/{name}", "loop": loop,
         "rate_rps": spec["rate_rps"] if loop == "open" else None,
         "attempted": rung["attempted"], "failed": rung["failed"],
         "passed": rung["passed"], "goodput_rps": round(rung["goodput_rps"], 2),
         "completed_rps": round(rung["completed_rps"], 2),
         "p50_ms": round(rung["p50_ms"], 2), "p90_ms": round(rung["p90_ms"], 2),
         "p99_ms": round(rung["latency_p99_ms"], 2),
         "late_ms_p99": round(rung["late_ms_p99"], 2),
         "mean_batch_size": round(rung["mean_batch_size"], 2)}
        for label, ladder in passes
        for name, spec, loop, rung in zip(names, specs, loops, ladder)
    ]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "phases": phases, "notes": [HEARTBEAT_NOTE]}
    nominal = untraced[0]
    if not trace:
        result["metrics"] = {
            # The top rung offers more than the cluster serves: its completion
            # rate is the capacity.
            "throughput_per_s": untraced[-1]["completed_rps"],
            "latency_p50_ms": nominal["p50_ms"],
            "latency_tail_ms": nominal["p90_ms"],
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
        }
        return result

    submit_us = np.concatenate([rung["submit_us"] for rung in traced])
    layer = dict(probes)
    layer["serve.cluster.submit_us_p50"] = common.percentile(submit_us, 50.0)
    layer["serve.cluster.submit_us_p99"] = common.percentile(
        submit_us, common.supported_percentile(len(submit_us), 99.0))
    for name, rung in zip(names, traced):
        for key in RUNG_METRICS:
            prefix = "loadgen" if key == "late_ms_p99" else "serve.cluster"
            layer[f"{prefix}.{key}.{name}"] = rung[key]
    layer["serve.cluster.failed"] = stats.num_failed_batches
    layer["serve.cluster.expired"] = stats.num_expired
    layer["serve.cluster.rejected"] = stats.num_rejected
    layer["serve.cluster.redispatches"] = health.redispatches
    layer["serve.cluster.restarts"] = health.total_restarts
    layer["serve.cluster.start_s"] = common.median(setups)
    layer["serve.cluster.goodput_rps"] = goodput(untraced)
    layer["serve.service.batch_spread"] = inputs["batch_spread"]
    layer["trace.overhead_frac"] = (traced[0]["p50_ms"] - nominal["p50_ms"]) / nominal["p50_ms"]
    result["metrics"] = layer
    return result
