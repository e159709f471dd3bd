"""``stream-online``: closed-loop session replay through a SessionManager.

One driver thread replays ``T`` timesteps for ``S`` long-lived sessions over
an in-process ``ForecastService`` at METR-LA scale, one row per push, with
``update_scaler=True``; each session forecasts every ``forecast_every``
rows.  A trickle of one-shot clients overflows ``max_sessions``, so LRU
eviction runs.  The drift monitor checks every ``check_every`` pooled rows
with ``overlap_threshold > 1`` and no cooldown, so every due check swaps the
kernel and the swap count is fixed by the seed.
"""

from __future__ import annotations

import time

import numpy as np

import common

from repro.core import SAGDFN, SAGDFNConfig
from repro.data import StandardScaler
from repro.data.synthetic import load_dataset
from repro.serve import DriftConfig, ForecastService, SessionManager
from repro.tensor import default_dtype
from repro.utils import save_bundle

SESSION_STRIDE = 7  # timestep offset between the long-lived sessions' streams


def make_inputs(cfg: dict, model_cfg: dict, seed: int, seconds: float, work) -> dict:
    nodes, sessions = cfg["num_nodes"], cfg["sessions"]
    # Closed loop: the replay is sized so it lasts about ``seconds`` at the
    # calibrated row rate; the work (and so every count) is fixed by the seed.
    steps = max(cfg["history"] + cfg["forecast_every"],
                int(cfg["rows_per_second"] * seconds / sessions))
    warm = 64
    series, _ = load_dataset("metr_la_like", num_nodes=nodes,
                             num_steps=warm + steps + sessions * SESSION_STRIDE, seed=seed)
    values = series.values[..., 0]
    time_of_day = series.minute_of_day() / (24.0 * 60.0)
    covariates = np.broadcast_to(time_of_day[:, None, None], values.shape + (1,))
    with default_dtype(cfg["dtype"]):
        model = SAGDFN(SAGDFNConfig(
            num_nodes=nodes, history=cfg["history"], horizon=cfg["horizon"],
            convergence_iteration=0, seed=seed, **model_cfg,
        ))
        model.refresh_graph(0)
    scaler = StandardScaler().fit(values[:warm])
    bundle = save_bundle(model, work / "stream_bundle", scaler=scaler,
                         drift=DriftConfig(**cfg["drift"]))
    streams = [
        (values[warm + s * SESSION_STRIDE:][:steps], covariates[warm + s * SESSION_STRIDE:][:steps])
        for s in range(sessions)
    ]
    # Request windows for the service probes (normalised, time-of-day channel).
    probe = np.stack([
        np.stack([scaler.transform(values[i:i + cfg["history"]]),
                  np.broadcast_to(time_of_day[i:i + cfg["history"], None],
                                  (cfg["history"], nodes))], axis=-1)
        for i in range(8)
    ]).astype(cfg["dtype"])
    return {"bundle": bundle, "streams": streams, "steps": steps, "probe": probe,
            "one_shot": (values[warm:], covariates[warm:])}


def start_manager(bundle, cfg: dict) -> tuple[SessionManager, float]:
    """Set-up: bundle load with digest check, graph freeze, kernel warm-up."""
    start = time.perf_counter()
    manager = SessionManager.from_checkpoint(
        bundle, update_scaler=True,
        max_sessions=cfg["sessions"] + cfg["spare_sessions"],
    )
    window = np.zeros((cfg["history"], cfg["num_nodes"], 2), dtype=cfg["dtype"])
    manager.target.predict_one(window)
    return manager, time.perf_counter() - start


def replay(manager: SessionManager, inputs: dict, cfg: dict, tracer, corrupt: bool) -> dict:
    sessions, history = cfg["sessions"], cfg["history"]
    shape = (cfg["horizon"], cfg["num_nodes"], 1)
    one_values, one_covariates = inputs["one_shot"]
    if tracer.enabled:
        tracer.patch(manager.scaler, "partial_fit", "data.scalers.partial_fit")
        tracer.patch(manager.monitor, "check_now", "serve.online.drift_check")
        tracer.patch(manager.target, "swap_index_set", "serve.service.swap")
        tracer.patch(manager.target, "predict_one", "serve.service.predict_one")
    attempted = failed = rows = one_shots = sessions_peak = 0
    forecast_ms, quiet_push_us = [], []
    start = time.perf_counter()
    try:
        for t in range(inputs["steps"]):
            for s, (values, covariates) in enumerate(inputs["streams"]):
                attempted += 1
                pushed = time.perf_counter()
                try:
                    with tracer.span("serve.online.push"):
                        report = manager.push_observations(
                            f"session-{s}", values[t:t + 1], covariates=covariates[t:t + 1])
                except Exception:
                    failed += 1
                    continue
                if tracer.enabled and report is None:
                    quiet_push_us.append((time.perf_counter() - pushed) * 1e6)
                rows += 1
                if rows % cfg["one_shot_every"] == 0:
                    # A one-shot client: one row, never seen again.
                    attempted += 1
                    row = one_shots % len(one_values)
                    try:
                        manager.push_observations(
                            f"one-shot-{one_shots}", one_values[row:row + 1],
                            covariates=one_covariates[row:row + 1])
                        rows += 1
                    except Exception:
                        failed += 1
                    one_shots += 1
                sessions_peak = max(sessions_peak, len(manager))
                if t + 1 >= history and (t + 1) % cfg["forecast_every"] == 0:
                    attempted += 1
                    begin = time.perf_counter()
                    try:
                        with tracer.span("serve.online.forecast"):
                            forecast = manager.forecast(f"session-{s}")
                    except Exception:
                        failed += 1
                        continue
                    forecast_ms.append((time.perf_counter() - begin) * 1000.0)
                    if corrupt and len(forecast_ms) == 1:
                        forecast = forecast.copy()
                        forecast.flat[0] = np.nan
                    if forecast.shape != shape or not np.all(np.isfinite(forecast)):
                        failed += 1
        elapsed = time.perf_counter() - start
    finally:
        tracer.restore()
    return {"attempted": attempted, "failed": failed, "rows": rows, "elapsed": elapsed,
            "forecast_ms": forecast_ms, "quiet_push_us": quiet_push_us,
            "sessions_peak": sessions_peak}


def check_swap_parity(manager: SessionManager, cfg: dict, work, corrupt: bool) -> int:
    """Mismatches between the hot-swapped service and a cold start.

    The cold start is rehydrated from a bundle carrying the same parameters,
    the final index set and the final scaler state.
    """
    hot = manager.target
    cold = ForecastService.from_checkpoint(
        save_bundle(hot.model, work / "cold_bundle", scaler=manager.scaler))
    mismatches = int(not np.array_equal(hot.frozen.index_set, cold.frozen.index_set))
    for s in range(cfg["sessions"]):
        window = manager.session(f"session-{s}").window()[None].astype(cfg["dtype"])
        expected = hot.predict(window)
        if corrupt and s == 0:
            expected = expected + 1.0
        mismatches += int(not np.array_equal(expected, cold.predict(window)))
    return mismatches


def run(cfg: dict, model_cfg: dict, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    work = common.work_dir("stream-online")
    try:
        inputs = make_inputs(cfg, model_cfg, seed, seconds, work)
        setups = []
        for _ in range(cfg["setup_repeats"]):
            manager, elapsed = start_manager(inputs["bundle"], cfg)
            setups.append(elapsed)
        untraced = replay(manager, inputs, cfg, common.Tracer(False), corrupt)
        passes = [("untraced", untraced, manager)]
        if trace:
            tracer = common.Tracer(True)
            traced_manager, _ = start_manager(inputs["bundle"], cfg)
            traced = replay(traced_manager, inputs, cfg, tracer, corrupt)
            passes.append(("traced", traced, traced_manager))
            probes, _ = common.service_probes(inputs["bundle"], inputs["probe"], 8,
                                              cfg["probe_repeats"], tracer)
        phases = []
        for label, outcome, pass_manager in passes:
            mismatches = check_swap_parity(pass_manager, cfg, work, corrupt)
            outcome["attempted"] += cfg["sessions"] + 1
            outcome["failed"] += mismatches
            monitor = pass_manager.monitor
            phases.append({
                "phase": label, "attempted": outcome["attempted"],
                "failed": outcome["failed"], "rows": outcome["rows"],
                "forecasts": len(outcome["forecast_ms"]),
                "drift_checks": monitor.num_checks, "swaps": monitor.num_swaps,
                "evicted": pass_manager.num_evicted,
                "rows_per_s": round(outcome["rows"] / outcome["elapsed"], 1),
            })
        rss = common.peak_rss_mb()
    finally:
        common.remove_work_dir(work)

    attempted = sum(outcome["attempted"] for _, outcome, _ in passes)
    failed = sum(outcome["failed"] for _, outcome, _ in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "phases": phases}
    latencies = untraced["forecast_ms"]
    if not trace:
        result["metrics"] = {
            "throughput_per_s": untraced["rows"] / untraced["elapsed"],
            "latency_p50_ms": common.median(latencies),
            "latency_tail_ms": common.tail_ms(latencies),
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
        }
        return result

    forecast_overhead = [
        overhead * 1000.0 for overhead in tracer.self_durations("serve.online.forecast")
    ]
    monitor = traced_manager.monitor
    layer = dict(probes)
    layer.update({
        "serve.online.push_us_p50": common.median(traced["quiet_push_us"]),
        "data.scalers.partial_fit_us_p50":
            common.median(tracer.durations("data.scalers.partial_fit")) * 1e6,
        "serve.online.drift_check_ms_p50":
            common.median(tracer.durations("serve.online.drift_check")) * 1000.0,
        "serve.online.drift_checks": monitor.num_checks,
        "serve.service.swap_ms_p50":
            common.median(tracer.durations("serve.service.swap")) * 1000.0,
        "serve.online.swaps": monitor.num_swaps,
        "serve.online.window_overhead_ms": common.median(forecast_overhead),
        "serve.online.forecast_p99_ms": common.percentile(
            traced["forecast_ms"], common.supported_percentile(len(traced["forecast_ms"]), 99.0)),
        "serve.online.evicted": traced_manager.num_evicted,
        "serve.online.sessions_peak": traced["sessions_peak"],
        "trace.overhead_frac": (traced["elapsed"] - untraced["elapsed"]) / untraced["elapsed"],
    })
    result["metrics"] = layer
    return result
