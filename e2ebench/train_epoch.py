"""``train-epoch``: one ``Trainer.train_epoch`` and one ``Trainer.evaluate``.

London2000-like synthetic data at N=2000, h=f=12, batch 2, for a fixed
number of steps sized from ``--seconds``.  ``convergence_iteration`` sits
halfway through the epoch, so the first half of the steps re-sample the
significant neighbours and the second half train on a frozen index set.
"""

from __future__ import annotations

import math
import time

import common

import repro.core.trainer as trainer_module
from repro.core import SAGDFN, SAGDFNConfig, Trainer
from repro.data.synthetic import load_dataset
from repro.experiments.common import prepare_data_from_series
from repro.optim import Adam
from repro.tensor import Tensor


class SteppedLoader:
    """Feeds exactly ``steps`` batches and stamps each step's boundaries.

    ``train_epoch`` asks for batch ``i + 1`` right after step ``i`` ends, so
    the request times delimit the steps (data loading included).
    """

    def __init__(self, loader, steps: int, tracer: common.Tracer):
        self.loader, self.steps, self.tracer = loader, steps, tracer
        self.marks: list[float] = []

    def _cycle(self):
        while True:
            yield from self.loader

    def __iter__(self):
        batches = self._cycle()
        for _ in range(self.steps):
            self.marks.append(time.perf_counter())
            with self.tracer.span("data.loader.batch"):
                batch = next(batches)
            yield batch
        self.marks.append(time.perf_counter())

    def step_ms(self) -> list[float]:
        return [(end - start) * 1000.0 for start, end in zip(self.marks, self.marks[1:])]


def make_inputs(cfg: dict, seed: int, seconds: float) -> dict:
    series, _ = load_dataset(cfg["dataset"], num_nodes=cfg["num_nodes"],
                             num_steps=cfg["series_steps"], seed=seed)
    data = prepare_data_from_series(series, cfg["history"], cfg["horizon"],
                                    batch_size=cfg["batch_size"], seed=seed)
    steps = 2 * max(1, round(seconds * cfg["steps_per_second"] / 2))
    return {"data": data, "steps": steps}


def build_trainer(cfg: dict, model_cfg: dict, inputs: dict, seed: int) -> tuple[Trainer, float]:
    """Set-up: model construction, optimizer and trainer."""
    start = time.perf_counter()
    model = SAGDFN(SAGDFNConfig(
        num_nodes=cfg["num_nodes"], history=cfg["history"], horizon=cfg["horizon"],
        input_dim=inputs["data"].input_dim,
        convergence_iteration=inputs["steps"] // 2, seed=seed, **model_cfg,
    ))
    trainer = Trainer(model, Adam(model.parameters(), lr=cfg["learning_rate"]),
                      scaler=inputs["data"].scaler)
    return trainer, time.perf_counter() - start


def epoch(trainer: Trainer, inputs: dict, tracer: common.Tracer, corrupt: bool) -> dict:
    data, steps = inputs["data"], inputs["steps"]
    stepped = SteppedLoader(data.train_loader, steps, tracer)
    if tracer.enabled:
        model = trainer.model
        tracer.patch(model, "refresh_graph", "core.sampling.refresh")
        tracer.patch(model.sampler, "sample", "core.sampling.sample")
        tracer.patch(model.attention, "forward", "core.attention.forward")
        tracer.patch(model.forecaster, "forward", "core.encoder_decoder.forward")
        tracer.patch(Tensor, "backward", "tensor.backward")
        tracer.patch(trainer_module, "clip_grad_norm", "optim.clip")
        tracer.patch(trainer.optimizer, "step", "optim.step")
    try:
        start = time.perf_counter()
        with tracer.span("core.trainer.train_epoch"):
            loss = trainer.train_epoch(stepped)
        train_s = time.perf_counter() - start
    finally:
        tracer.restore()
    start = time.perf_counter()
    scores = trainer.evaluate(data.val_loader)
    eval_s = time.perf_counter() - start
    if corrupt:
        loss = math.nan
    eval_batches = len(data.val_loader)
    failed = (0 if math.isfinite(loss) else steps)
    failed += 0 if all(math.isfinite(value) for value in scores.values()) else eval_batches
    return {
        "attempted": steps + eval_batches, "failed": failed, "loss": loss,
        "train_s": train_s, "eval_s": eval_s,
        "train_windows": steps * data.batch_size,
        "eval_windows": len(data.val_loader.dataset),
        "step_ms": stepped.step_ms(),
    }


def run(cfg: dict, model_cfg: dict, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    inputs = make_inputs(cfg, seed, seconds)
    setups = []
    for _ in range(cfg["setup_repeats"]):
        trainer, elapsed = build_trainer(cfg, model_cfg, inputs, seed)
        setups.append(elapsed)
    untraced = epoch(trainer, inputs, common.Tracer(False), corrupt)
    passes = [("untraced", untraced)]
    if trace:
        tracer = common.Tracer(True)
        traced_trainer, _ = build_trainer(cfg, model_cfg, inputs, seed)
        traced = epoch(traced_trainer, inputs, tracer, corrupt)
        passes.append(("traced", traced))
    rss = common.peak_rss_mb()

    attempted = sum(outcome["attempted"] for _, outcome in passes)
    failed = sum(outcome["failed"] for _, outcome in passes)
    phases = [
        {"phase": label, "attempted": outcome["attempted"], "failed": outcome["failed"],
         "steps": inputs["steps"], "loss": outcome["loss"],
         "train_windows_per_s": round(outcome["train_windows"] / outcome["train_s"], 3),
         "eval_windows_per_s": round(outcome["eval_windows"] / outcome["eval_s"], 3)}
        for label, outcome in passes
    ]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "phases": phases}
    step_ms = untraced["step_ms"]
    if not trace:
        result["metrics"] = {
            "throughput_per_s": untraced["train_windows"] / untraced["train_s"],
            "latency_p50_ms": common.median(step_ms),
            "latency_tail_ms": common.tail_ms(step_ms),
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
        }
        return result

    steps = inputs["steps"]
    # Refreshes that re-sampled: on a frozen index set refresh_graph returns
    # without calling the sampler.
    resampled = tracer.durations("core.sampling.refresh", child="core.sampling.sample")

    def median_ms(name: str) -> float:
        return common.median(tracer.durations(name)) * 1000.0

    result["metrics"] = {
        "core.sampling.refresh_ms": common.median(resampled) * 1000.0 if resampled else 0.0,
        "core.sampling.refreshes": len(resampled),
        "core.attention.forward_ms": median_ms("core.attention.forward"),
        "core.encoder_decoder.forward_ms": median_ms("core.encoder_decoder.forward"),
        "tensor.backward_ms": median_ms("tensor.backward"),
        "optim.clip_ms": median_ms("optim.clip"),
        "optim.step_ms": median_ms("optim.step"),
        "data.loader.batch_ms": median_ms("data.loader.batch"),
        "core.trainer.self_ms":
            sum(tracer.self_durations("core.trainer.train_epoch")) * 1000.0 / steps,
        "core.trainer.eval_samples_per_s": untraced["eval_windows"] / untraced["eval_s"],
        "trace.overhead_frac": (traced["train_s"] - untraced["train_s"]) / untraced["train_s"],
    }
    return result
