"""The ``train`` workload: the ``repro train`` path through public functions.

Cold serial build of the 10 Table-1 designs into an empty cache
directory (``SETUPS`` times, each into a new directory),
``TimingPredictor`` + ``OursTrainer`` with the default
compiled float64 step for ``STEPS`` steps, ``save_predictor`` ->
``load_predictor`` and test R² on the 5 test designs.  The inputs are
the same for every benchmark seed (see ``TRAIN_SEED``).
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List

from common import (FLOW_STAGES, Outcome, cache_dir, own_peak_rss_mb, pct,
                    record_path, untraced_record, write_json)
from spans import GcMonitor, Tracer, self_times, write_trace_outputs

#: Training steps: at least 100, so p90_ms has >= 10 samples beyond
#: it.
STEPS = 100
#: Cold builds per run; setup_s is their median.
SETUPS = 3
#: Model and training seed: the `repro train` default, whatever the
#: benchmark seed.  Test R² over training seeds is chaotic (measured
#: from -0.04 to 0.67 at 150 steps), which no regression bound could
#: hold; with one seed it is exactly reproducible, so any change to
#: what the model learns shows.
TRAIN_SEED = 0

#: Op kinds reported on their own; every other kernel is op.other_ms.
OP_KINDS = ("fwd.conv2d", "bwd.conv2d", "fwd.max_pool2d", "bwd.max_pool2d",
            "fwd.levelized_sweep", "bwd.levelized_sweep")


def _mean_r2(scores: Dict[str, Dict[str, float]]) -> float:
    return sum(s["r2"] for s in scores.values()) / len(scores)


def _install_flow_wrappers(tracer: Tracer) -> None:
    from repro.flow import FlowCache, PnRFlow
    tracer.wrap(FlowCache, "load", "flow.cache_load")
    tracer.wrap(PnRFlow, "run", "flow.run",
                lambda self, name, node: {"design": f"{name}@{node}"})


def _install_train_wrappers(tracer: Tracer, trainer, model) -> None:
    tracer.wrap(trainer, "step", "train.step")
    tracer.wrap(trainer, "compute_gradients", "train.grads")
    tracer.wrap(trainer.optimizer, "clip_grad_norm", "train.clip")
    tracer.wrap(trainer.optimizer, "step", "train.optim")
    tracer.wrap(model, "finalize_node_priors", "train.finalize_priors")
    if trainer.selector is not None:
        tracer.wrap(trainer.selector, "validate", "train.validate")
    # The trainer's existing op-kind rollup (CLI --profile).
    trainer.profile_ops = True


def run(args) -> Outcome:
    from repro.experiments import build_dataset
    from repro.infer import load_predictor, save_predictor
    from repro.model import TimingPredictor
    from repro.train import OursTrainer, TrainConfig, evaluate_per_design
    from repro.util import get_timings, reset_timings

    trace = bool(args.trace)
    outcome = Outcome("train", trace)
    # Training ignores the benchmark seed, so any untraced train record
    # of this checkout has the same loss stream.
    baseline = untraced_record("train", args.seed, args.seconds,
                               any_seed=True) if trace else None
    tracer = Tracer() if trace else None
    gc_monitor = GcMonitor()
    origin = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="train-", dir=cache_dir())

    def span(name: str):
        return tracer.span(name) if trace else contextlib.nullcontext()

    try:
        # ---- set-up: cold build + model + trainer --------------------
        setups = []
        for k in range(SETUPS):
            dataset = model = trainer = None
            if k == SETUPS - 1:
                # The per-layer flow numbers are those of the last build.
                if trace:
                    _install_flow_wrappers(tracer)
                reset_timings()
            t0 = time.perf_counter()
            with span("setup"):
                with span("flow.build_dataset"):
                    dataset = build_dataset(
                        cache_dir=os.path.join(workdir, f"designs{k}"))
                model = TimingPredictor(dataset.in_features,
                                        seed=TRAIN_SEED)
                trainer = OursTrainer(
                    model, dataset.train,
                    TrainConfig(steps=STEPS, seed=TRAIN_SEED))
            setups.append(time.perf_counter() - t0)
        flow_timings = get_timings()
        if trace:
            _install_train_wrappers(tracer, trainer, model)
        # ---- measured: fit + save + load + test evaluation -----------
        ckpt = os.path.join(workdir, "model.npz")
        t1 = time.perf_counter()
        with span("train.fit"), \
                gc_monitor if trace else contextlib.nullcontext():
            history = trainer.fit()
        with span("infer.save"):
            save_predictor(model, ckpt)
        with span("infer.load"):
            loaded = load_predictor(ckpt)
        with span("eval"):
            scores = evaluate_per_design(loaded.predict, dataset.test)
        t5 = time.perf_counter()
        train_timings = get_timings()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # ---- checks ------------------------------------------------------
    in_memory = evaluate_per_design(model.predict, dataset.test)
    test_r2 = _mean_r2(scores)
    outcome.check(test_r2 == _mean_r2(in_memory),
                  f"test R² from the reloaded checkpoint ({test_r2!r}) "
                  f"differs from the in-memory model's "
                  f"({_mean_r2(in_memory)!r})")
    losses = [float(r["total"]) for r in history]
    outcome.check(len(history) == STEPS,
                  f"fit ran {len(history)} of {STEPS} steps")
    # Operations: every step, the save, the load, each test design.
    outcome.attempted = len(history) + 2 + len(scores)
    outcome.failed = sum(not math.isfinite(v) for v in losses) \
        + sum(not math.isfinite(s["r2"]) for s in scores.values())
    steps_ms = [1e3 * r["step_seconds"] for r in history]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": own_peak_rss_mb(),
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
        "p50_ms": pct(steps_ms, 50),
        "p90_ms": pct(steps_ms, 90),
    }
    outcome.record.update({"workload": "train", "seed": args.seed,
                           "metrics": metrics, "losses": losses,
                           "setups_s": setups,
                           # Reported, not gated (see README).
                           "train_s": t5 - t1, "test_r2": test_r2})
    if not trace:
        outcome.metrics = metrics
        write_json(record_path("train", args.seed, args.seconds),
                   outcome.record)
        return outcome

    outcome.check(losses == baseline["losses"],
                  "traced and untraced runs of the same seed produced "
                  "different loss streams")
    outcome.metrics = _layer_metrics(tracer, flow_timings, train_timings,
                                     gc_monitor)
    step_spans = tracer.named("train.step")
    sums = {name: outcome.metrics[name] for name in (
        "train.prep_ms_p50", "train.grads_ms_p50", "train.clip_ms_p50",
        "train.optim_ms_p50")}
    traced_step_p50 = pct([1e3 * s.duration for s in step_spans], 50)
    write_trace_outputs("train", args.seed, tracer, origin, {
        "end_to_end_traced": metrics,
        "end_to_end_untraced": baseline["metrics"],
        "untraced_seed": baseline["seed"],
        "tracing_overhead": {k: metrics[k] - baseline["metrics"][k]
                             for k in metrics},
        "step_breakdown_ms": {**sums, "sum": sum(sums.values()),
                              "traced_step_ms_p50": traced_step_p50,
                              "sum_over_step": sum(sums.values())
                              / traced_step_p50},
        "per_layer": outcome.metrics,
    })
    return outcome


def _layer_metrics(tracer: Tracer, flow_timings, train_timings,
                   gc_monitor: GcMonitor) -> Dict[str, float]:
    selfs = self_times(tracer.spans)

    def spans_ms(name: str) -> List[float]:
        return [1e3 * s.duration for s in tracer.named(name)]

    def seconds(timings, name: str) -> float:
        return float(timings.get(name, {}).get("seconds", 0.0))

    loads = tracer.named("flow.cache_load")
    built = len(tracer.named("flow.run"))
    metrics = {f"flow.{stage}_s": seconds(flow_timings, f"flow.{stage}")
               for stage in FLOW_STAGES}
    replays = max(1, int(train_timings.get("train.replay",
                                           {}).get("calls", 0)))
    op_entries = {name[len("op."):]: entry
                  for name, entry in train_timings.items()
                  if name.startswith("op.")}
    named_ops = {kind: 1e3 * op_entries.get(kind, {}).get("seconds", 0.0)
                 / replays for kind in OP_KINDS}
    other = sum(entry["seconds"] for kind, entry in op_entries.items()
                if kind not in OP_KINDS)
    metrics.update({
        "flow.designs_built": built,
        "flow.cache_hits": len(loads) - built,
        "flow.cache_load_s": sum(s.duration for s in loads),
        "train.prep_ms_p50": pct([1e3 * selfs[s.sid]
                                  for s in tracer.named("train.step")], 50),
        "train.grads_ms_p50": pct(spans_ms("train.grads"), 50),
        "train.clip_ms_p50": pct(spans_ms("train.clip"), 50),
        "train.optim_ms_p50": pct(spans_ms("train.optim"), 50),
        "train.trace_s": seconds(train_timings, "train.trace"),
        "train.validate_s": 1e-3 * (sum(spans_ms("train.finalize_priors"))
                                    + sum(spans_ms("train.validate"))),
        "infer.save_ms": sum(spans_ms("infer.save")),
        "infer.load_ms": sum(spans_ms("infer.load")),
        "gc.collections": gc_monitor.collections,
        "gc.pause_ms": 1e3 * gc_monitor.pause_s,
        "op.other_ms": 1e3 * other / replays,
        "op.kernels_per_step": sum(entry["calls"] for entry
                                   in op_entries.values()) / replays,
    })
    metrics.update({f"op.{kind}_ms": value
                    for kind, value in named_ops.items()})
    return metrics
