"""Training-step and dataset-pipeline micro-benchmarks.

Measures the headline optimisations of the performance architecture
(DESIGN.md):

- fused cross-design feature extraction (one union-graph GNN sweep +
  one stacked CNN forward, ``FusedDesignBatch.path_features_from``) vs.
  a bench-local per-design loop of ``model.path_features``, forward +
  backward, at the default dataset scale;
- the graph-compiled step (trace once, replay a flat preallocated numpy
  schedule — DESIGN.md §11) vs. the eager fused step, in float64
  (bit-exact) and float32;
- warm (cache-hit) vs. cold dataset construction, with the cold
  build's per-stage ``flow.*`` seconds;
- the NLDM table lookup every STA arc evaluation makes: the scalar
  pure-Python branch vs. the ndarray branch of ``TimingTable.lookup``
  on one recorded stream of a real STA run.

Besides the usual rendered table under ``results/``, the measured
numbers are written to ``benchmarks/BENCH_train.json`` (override the
path with ``REPRO_BENCH_TRAIN_JSON``) — the committed copy is the
recorded baseline that the CI regression gate
(``benchmarks/regression_gate.py``) compares fresh runs against.

``REPRO_BENCH_SMOKE=1`` shrinks the timed-step count and relaxes the
speedup assertions to smoke thresholds (CI runs in this mode; the
recorded baselines come from full runs).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_dataset
from repro.model import TimingPredictor
from repro.netlist import make_design, map_design
from repro.nn import concatenate
from repro.place import place_design
from repro.route import PreRouteEstimator
from repro.sta import run_sta
from repro.techlib import TimingTable, make_sky130_library
from repro.train import (FusedDesignBatch, OursTrainer, ParallelTrainer,
                         TrainConfig)
from repro.train.batching import sample_endpoints
from repro.util import get_timings, reset_timings

from .conftest import bench_seed, record

BENCH_JSON = Path(
    os.environ.get("REPRO_BENCH_TRAIN_JSON")
    or Path(__file__).resolve().parent / "BENCH_train.json"
)


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def timed_steps() -> int:
    """Steps timed per variant (after untimed warm-up steps).

    The warm-up steps pay the one-off costs: union-graph construction,
    level-plan memoisation, and — for the compiled variants — the
    trace+compile of the warmup and main step programs.

    Two statistics are recorded per variant because they answer
    different questions.  The per-step MINIMUM is the pure-compute
    floor — robust against neighbour noise on shared runners, and the
    machine-stable quantity the regression gate compares.  The MEAN is
    what time-to-train actually scales with: any per-step allocation or
    GC cost lands on some steps and not others, and a min-of-N would
    discard it.  The eager graph holds no reference cycle (nodes record
    an op name, not a closure), so it frees by reference counting and
    the eager mean sits close to its minimum: ``compile_speedup`` and
    ``compile_speedup_min`` are both ~1.0x on a 2-CPU box.

    Smoke mode still times 8 steps: the regression gate compares the
    eager variants' min against the committed floor, and with fewer
    windows a run can miss a quiet step entirely.
    """
    return 8 if smoke_mode() else 10


def compile_speedup_floor() -> float:
    """Required compiled-f64 mean-step speedup over the eager fused step.

    Smoke mode only sanity-checks the ordering: tight ratios are flaky
    when CI neighbours steal the CPU mid-window.
    """
    return 1.3 if smoke_mode() else 2.0


#: (variant key, TrainConfig overrides) — timed interleaved, one step
#: of each per round, so every variant sees the same noise windows and
#: the ratios stay meaningful when a neighbour steals the CPU.
VARIANTS = (
    ("fused", {"compile": False}),
    ("compiled", {"compile": True, "dtype": "float64"}),
    ("compiled_f32", {"compile": True, "dtype": "float32"}),
)


def features_speedup_floor() -> float:
    """Required fused-vs-per-design feature speedup (per-pass minima).

    The per-design loop runs the same fused sweep kernel and the same
    batch-linear CNN, so fusion only saves per-design dispatch:
    1.1-1.2x measured on a 2-CPU box.  The full run requires the fused
    pass to be no slower; smoke runs allow short-window noise.
    """
    return 0.9 if smoke_mode() else 1.0


def lookup_speedup_floor() -> float:
    """Required scalar-vs-ndarray lookup speedup (paired per-pass median).

    About 20x on a 2-CPU box: numpy's per-call cost on 0-d values is
    most of the ndarray branch's time.
    """
    return 2.0 if smoke_mode() else 3.0


def _blas_vendor() -> str:
    """Name of the BLAS numpy was built against (from build metadata)."""
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except Exception:
        return "unknown"


def _step_measurements(dataset):
    """Per-variant step-time stats + compiled-vs-eager loss deviation."""
    trainers = {}
    for key, overrides in VARIANTS:
        model = TimingPredictor(dataset.in_features, seed=bench_seed())
        cfg = TrainConfig(seed=bench_seed(), holdout_fraction=0.0,
                          **overrides)
        trainers[key] = OursTrainer(model, dataset.train, cfg)
        trainers[key].step(warmup=True)
        trainers[key].step()
    times = {key: [] for key, _ in VARIANTS}
    losses = {key: [] for key, _ in VARIANTS}
    for _ in range(timed_steps()):
        for key, _ in VARIANTS:
            rec = trainers[key].step()
            times[key].append(rec["step_seconds"])
            losses[key].append(rec["total"])

    stats = {}
    for key, _ in VARIANTS:
        stats[f"{key}_seconds"] = min(times[key])
        stats[f"{key}_mean"] = float(np.mean(times[key]))
        stats[f"{key}_std"] = float(np.std(times[key]))
    # Mean-based: the eager graph's per-step allocation cost (the thing
    # the compiled schedule removes) lands on typical steps, not the
    # luckiest one — see timed_steps().  The min-based ratio is kept
    # alongside for the compute-floor comparison.
    stats["compile_speedup"] = (stats["fused_mean"]
                                / stats["compiled_mean"])
    stats["compile_speedup_min"] = (stats["fused_seconds"]
                                    / stats["compiled_seconds"])
    stats["compile_f32_speedup"] = (stats["fused_mean"]
                                    / stats["compiled_f32_mean"])
    # All variants share seed and step math, so they walk the same loss
    # trajectory; the compiled float64 one must match the eager fused
    # one bit for bit (the replay contract), and the float32 deviation
    # is recorded as the documented tolerance.
    stats["max_abs_loss_dev_compiled"] = float(max(
        abs(a - b) for a, b in zip(losses["compiled"], losses["fused"])))
    stats["max_rel_loss_dev_f32"] = float(max(
        abs(a - b) / max(abs(b), 1e-12)
        for a, b in zip(losses["compiled_f32"], losses["fused"])))
    stats.update(_features_measurements(dataset))
    stats["timed_steps"] = timed_steps()
    stats["statistic"] = "min"
    return stats


def _looped_path_features(model, designs, subsets):
    """Bench-local reference: ``model.path_features`` design by design."""
    parts = [model.path_features(d, s) for d, s in zip(designs, subsets)]
    return tuple(concatenate([p[i] for p in parts], axis=0)
                 for i in range(3))


def _features_measurements(dataset):
    """Fused vs per-design feature extraction, forward + backward.

    Both variants see the same endpoint subsets every round and are
    timed interleaved, one pass each, so the ratio isolates the fusion
    (one union-graph sweep and one stacked CNN pass instead of one per
    design) from machine noise.  The fused pass includes the per-step
    row/image gather the trainer does before it.
    """
    model = TimingPredictor(dataset.in_features, seed=bench_seed())
    designs = list(dataset.train)
    batch = FusedDesignBatch(designs)
    rng = np.random.default_rng(bench_seed())

    def fused(subsets):
        return batch.path_features_from(
            model, batch.merged_endpoint_rows(subsets),
            batch.stacked_path_images(subsets))

    def looped(subsets):
        return _looped_path_features(model, designs, subsets)

    variants = {"fused": fused, "looped": looped}

    def one_pass(fn, subsets):
        model.zero_grad()
        start = time.perf_counter()
        u, u_n, u_d = fn(subsets)
        ((u_n * u_n).sum() + (u_d * u_d).sum()).backward()
        return time.perf_counter() - start

    times = {key: [] for key in variants}
    for round_index in range(timed_steps() + 1):
        subsets = [sample_endpoints(d, 48, rng) for d in designs]
        for key, fn in variants.items():
            seconds = one_pass(fn, subsets)
            if round_index:   # round 0 warms the level-plan memos
                times[key].append(seconds)
    stats = {}
    for key in variants:
        stats[f"{key}_features_seconds"] = min(times[key])
        stats[f"{key}_features_mean"] = float(np.mean(times[key]))
    stats["features_speedup"] = (stats["looped_features_seconds"]
                                 / stats["fused_features_seconds"])
    return stats


def _recorded_lookup_stream():
    """``(table, slew, load)`` of every NLDM lookup of one STA run
    (pre-route, placed ``jpeg`` at 130nm: the largest Table-1 design,
    about 6k lookups)."""
    netlist = map_design(make_design("jpeg"), make_sky130_library())
    place_design(netlist, seed=bench_seed())
    stream = []
    lookup = TimingTable.lookup

    def recording(table, slew, load):
        stream.append((table, slew, load))
        return lookup(table, slew, load)

    TimingTable.lookup = recording
    try:
        run_sta(netlist, PreRouteEstimator(netlist))
    finally:
        TimingTable.lookup = lookup
    return stream


def _lookup_measurements():
    """Scalar vs ndarray ``TimingTable.lookup`` on the same call stream.

    The ndarray variant gets 0-d arrays, which is what every scalar
    call cost before the scalar branch existed.  Passes alternate, so
    each scalar pass has an ndarray partner from the same noise window;
    ``lookup_speedup`` is the median of those paired per-pass ratios.
    A scalar pass lasts only ~10 ms, so the ratio of the two per-pass
    minima swung 19-34x between runs on a 2-CPU box while the paired
    median stayed within 20-26x.  The minima are recorded alongside.
    """
    stream = _recorded_lookup_stream()
    variants = {
        "scalar": stream,
        "array": [(table, np.asarray(s, dtype=float),
                   np.asarray(l, dtype=float)) for table, s, l in stream],
    }
    times = {key: [] for key in variants}
    for _ in range(timed_steps()):
        for key, calls in variants.items():
            start = time.perf_counter()
            for table, s, l in calls:
                table.lookup(s, l)
            times[key].append(time.perf_counter() - start)
    ratios = np.array(times["array"]) / np.array(times["scalar"])
    return {
        "lookup_calls": len(stream),
        "lookup_scalar_seconds": min(times["scalar"]),
        "lookup_array_seconds": min(times["array"]),
        "lookup_speedup": float(np.median(ratios)),
    }


#: Worker counts recorded in the parallel-scaling section.
PARALLEL_WORKERS = (1, 2, 4)


def _parallel_measurements(dataset):
    """Shard-scaling stats for the data-parallel trainer.

    The paper's train split has a single 7nm design, which caps the
    usable shard count at one (every shard needs designs from both
    nodes), so the scaling section runs over the train+test union —
    4 source / 6 target designs — purely as a wall-clock workload.
    ``single`` is the compiled single-process step on the same union;
    the ``workers=1`` fleet must reproduce its loss stream bit for bit
    (the lockstep contract), and the recorded N > 1 deviations document
    the sharded objective's approximation (DESIGN.md §14).
    """
    designs = list(dataset.train) + list(dataset.test)
    n_source = sum(1 for d in designs if d.node == "130nm")
    n_target = len(designs) - n_source

    def make(cls, **kwargs):
        model = TimingPredictor(dataset.in_features, seed=bench_seed())
        cfg = TrainConfig(seed=bench_seed(), holdout_fraction=0.0,
                          compile=True, dtype="float64")
        return cls(model, designs, cfg, **kwargs)

    trainers = {"single": make(OursTrainer)}
    for w in PARALLEL_WORKERS:
        trainers[f"w{w}"] = make(ParallelTrainer, workers=w)
    times = {key: [] for key in trainers}
    losses = {key: [] for key in trainers}
    try:
        for trainer in trainers.values():
            trainer.step(warmup=True)
            trainer.step()
        for _ in range(timed_steps()):
            # Interleaved like _step_measurements, so all fleet sizes
            # see the same noise windows.
            for key, trainer in trainers.items():
                rec = trainer.step()
                times[key].append(rec["step_seconds"])
                losses[key].append(rec["total"])
    finally:
        for trainer in trainers.values():
            if isinstance(trainer, ParallelTrainer):
                trainer.shutdown()

    stats = {
        "n_source": n_source,
        "n_target": n_target,
        "timed_steps": timed_steps(),
        "single_seconds": min(times["single"]),
        "single_mean": float(np.mean(times["single"])),
        "single_std": float(np.std(times["single"])),
        "workers": {},
    }
    for w in PARALLEL_WORKERS:
        key = f"w{w}"
        mean = float(np.mean(times[key]))
        best = min(times[key])
        stats["workers"][str(w)] = {
            "requested": w,
            "effective": trainers[key].workers,
            "seconds": best,
            "mean": mean,
            "std": float(np.std(times[key])),
            "speedup_min": stats["single_seconds"] / best,
            "speedup_mean": stats["single_mean"] / mean,
            "max_abs_loss_dev": float(max(
                abs(a - b)
                for a, b in zip(losses[key], losses["single"]))),
        }
    return stats


@pytest.fixture(scope="module")
def measurements(dataset, tmp_path_factory):
    train_step = _step_measurements(dataset)
    parallel_scaling = _parallel_measurements(dataset)

    cache_dir = tmp_path_factory.mktemp("bench-cache")
    reset_timings()
    start = time.perf_counter()
    build_dataset(use_cache=True, cache_dir=cache_dir)
    cold = time.perf_counter() - start
    stages = {name: entry["seconds"]
              for name, entry in get_timings().items()
              if name.startswith("flow.")}
    start = time.perf_counter()
    build_dataset(use_cache=True, cache_dir=cache_dir)
    warm = time.perf_counter() - start

    return {
        "train_step": train_step,
        "parallel_scaling": parallel_scaling,
        "dataset_build": {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm,
            "cold_stage_seconds": stages,
            **_lookup_measurements(),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "blas": _blas_vendor(),
        },
    }


def _render(measurements) -> str:
    m = measurements["train_step"]
    d = measurements["dataset_build"]
    mach = measurements["machine"]
    lines = [
        "train step (default scale, min over "
        f"{m['timed_steps']} interleaved steps)",
    ]
    for key, _ in VARIANTS:
        lines.append(
            f"  {key:13s} {m[key + '_seconds']:.3f} s/step "
            f"(mean {m[key + '_mean']:.3f} +- {m[key + '_std']:.3f})")
    lines += [
        "  features fwd+bwd       "
        f"fused {m['fused_features_seconds']:.3f} s, "
        f"per-design loop {m['looped_features_seconds']:.3f} s",
        f"  fused vs per-design    {m['features_speedup']:.2f}x (min)",
        f"  compiled vs fused      {m['compile_speedup']:.2f}x (mean), "
        f"{m['compile_speedup_min']:.2f}x (min)",
        f"  compiled-f32 vs fused  {m['compile_f32_speedup']:.2f}x (mean)",
        "  compiled loss dev      "
        f"{m['max_abs_loss_dev_compiled']:.1e} abs (f64), "
        f"{m['max_rel_loss_dev_f32']:.1e} rel (f32)",
    ]
    p = measurements["parallel_scaling"]
    lines.append(
        f"parallel scaling ({p['n_source']} source + {p['n_target']} "
        f"target designs, vs compiled single-process)")
    lines.append(
        f"  single        {p['single_seconds']:.3f} s/step "
        f"(mean {p['single_mean']:.3f} +- {p['single_std']:.3f})")
    for w, entry in sorted(p["workers"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"  workers={w:<4s} {entry['seconds']:.3f} s/step "
            f"(mean {entry['mean']:.3f})  "
            f"{entry['speedup_mean']:.2f}x mean  "
            f"loss dev {entry['max_abs_loss_dev']:.1e}")
    lines += [
        "dataset build",
        f"  cold    {d['cold_seconds']:.2f} s",
        f"  warm    {d['warm_seconds']:.3f} s",
        f"  speedup {d['speedup']:.1f}x",
        "  cold stages "
        + ", ".join(f"{name.split('.', 1)[1]} {seconds:.2f} s"
                    for name, seconds in d["cold_stage_seconds"].items()),
        f"  NLDM lookup ({d['lookup_calls']} calls of one STA run) "
        f"scalar {d['lookup_scalar_seconds'] * 1e3:.1f} ms, "
        f"ndarray {d['lookup_array_seconds'] * 1e3:.1f} ms (min), "
        f"{d['lookup_speedup']:.1f}x (paired median)",
        "machine",
        f"  cpus {mach['cpu_count']}, numpy {mach['numpy']}, "
        f"blas {mach['blas']}",
    ]
    return "\n".join(lines)


def test_fused_features_beat_per_design_loop(measurements, results_dir):
    record(results_dir, "bench_train", _render(measurements))
    BENCH_JSON.write_text(json.dumps(measurements, indent=2) + "\n")
    assert (measurements["train_step"]["features_speedup"]
            >= features_speedup_floor())


def test_compiled_step_beats_fused(measurements):
    assert (measurements["train_step"]["compile_speedup"]
            >= compile_speedup_floor())


def test_compiled_step_is_bit_exact(measurements):
    """The compiled float64 loss stream must equal eager's exactly."""
    assert measurements["train_step"]["max_abs_loss_dev_compiled"] <= 1e-12


def test_warm_dataset_build_beats_cold(measurements):
    assert measurements["dataset_build"]["speedup"] >= 5.0


def test_scalar_lookup_beats_array_branch(measurements):
    assert (measurements["dataset_build"]["lookup_speedup"]
            >= lookup_speedup_floor())


def test_parallel_one_worker_is_bit_exact(measurements):
    """A one-worker fleet must reproduce the single-process loss stream
    exactly — the lockstep contract the parallel trainer is built on."""
    scaling = measurements["parallel_scaling"]
    assert scaling["workers"]["1"]["max_abs_loss_dev"] == 0.0


def test_parallel_deviation_is_bounded(measurements):
    """N > 1 shards approximate the coupled terms; the deviation must
    be finite and stay in the same ballpark as the loss itself."""
    scaling = measurements["parallel_scaling"]
    for entry in scaling["workers"].values():
        assert np.isfinite(entry["max_abs_loss_dev"])


def test_parallel_scaling_on_capable_machines(measurements):
    """Speedup floors apply only where the cores exist to deliver them:
    on a 1-CPU box the shards serialize and the honest numbers show it
    (the regression gate conditions on cpu_count the same way)."""
    cores = os.cpu_count() or 1
    scaling = measurements["parallel_scaling"]["workers"]
    if cores >= 4:
        floor = 1.2 if smoke_mode() else 1.7
        assert scaling["4"]["speedup_mean"] >= floor
    elif cores >= 2:
        floor = 1.05 if smoke_mode() else 1.3
        assert scaling["2"]["speedup_mean"] >= floor
    else:
        pytest.skip("single CPU: shard workers serialize, no speedup "
                    "to assert")


def test_fused_training_preserves_accuracy(dataset):
    """Guard: the fast paths must not change what the model learns.

    A short fused training run reaches a sane positive R^2 on the 7nm
    test designs (the Table-2 shape; full-length runs are the table
    benches' job).
    """
    from repro.train import r2_score

    model = TimingPredictor(dataset.in_features, seed=bench_seed())
    cfg = TrainConfig(steps=60, seed=bench_seed())
    OursTrainer(model, dataset.train, cfg).fit()
    scores = [r2_score(d.labels, model.predict(d)) for d in dataset.test]
    assert np.mean(scores) > 0.0
