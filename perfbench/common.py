"""Shared result type, metric units and statistics helpers."""

from __future__ import annotations

import glob
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def out_dir() -> str:
    """Where run records, traces and layer tables go (inside the checkout)."""
    path = os.path.join(ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def cache_dir() -> str:
    """Scratch and cache space for the workloads (inside the checkout)."""
    path = os.path.join(ROOT, ".bench_cache")
    os.makedirs(path, exist_ok=True)
    return path


#: Flow stages the program times (``repro.util`` registry names).
FLOW_STAGES = ("synthesize", "place", "snapshot", "optimize", "route",
               "signoff")

#: End-to-end metrics (printed with ``--trace 0``) and their units.
#: Every workload reports every one; what "operation" means is the
#: workload's own (a training step, or a ``/predict`` request at
#: 50 req/s), see perfbench/README.md.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

#: Workloads ``run.py`` accepts.  ``serve-reload`` is not in
#: BENCHMARK.json (see perfbench/README.md, "Known failure").
WORKLOADS = ("train", "serve-hot", "serve-reload")

#: Per-layer metrics (printed with ``--trace 1``) and their units.
PER_LAYER_UNITS: Dict[str, str] = {
    "flow.synthesize_s": "s",
    "flow.place_s": "s",
    "flow.snapshot_s": "s",
    "flow.optimize_s": "s",
    "flow.route_s": "s",
    "flow.signoff_s": "s",
    "flow.designs_built": "count",
    "flow.cache_hits": "count",
    "flow.cache_load_s": "s",
    "train.prep_ms_p50": "ms",
    "train.grads_ms_p50": "ms",
    "train.clip_ms_p50": "ms",
    "train.optim_ms_p50": "ms",
    "train.trace_s": "s",
    "train.validate_s": "s",
    "infer.save_ms": "ms",
    "infer.load_ms": "ms",
    "gc.collections": "count",
    "gc.pause_ms": "ms",
    "op.fwd.conv2d_ms": "ms",
    "op.bwd.conv2d_ms": "ms",
    "op.fwd.max_pool2d_ms": "ms",
    "op.bwd.max_pool2d_ms": "ms",
    "op.fwd.levelized_sweep_ms": "ms",
    "op.bwd.levelized_sweep_ms": "ms",
    "op.other_ms": "ms",
    "op.kernels_per_step": "count",
    "infer.digest_ms": "ms",
    "infer.prior_ms": "ms",
    "infer.readout_ms": "ms",
    "infer.features_ms": "ms",
    "infer.features_calls": "count",
    "infer.hit_ratio": "share",
    "serve.handler_ms_p50": "ms",
    "serve.transport_ms_p50": "ms",
    "coalescer.batch_size_mean": "count",
    "coalescer.wait_ms_p50": "ms",
    "serve.reload_ms": "ms",
    "serve.rss_growth_mb": "MB",
    "generator.late_ms_p99": "ms",
}


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) \
        if len(values) else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field_name: str) -> float:
    """``VmHWM``/``VmRSS`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field_name)


@dataclass
class Outcome:
    """What one run measured and whether its checks passed."""

    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Extra numbers kept in the run record (not printed as metrics).
    record: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def result(self) -> Dict[str, object]:
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        if not self.trace:
            for name in units:
                self.check(name in self.metrics,
                           f"end-to-end metric {name} was not measured")
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(self.metrics.get(name, 0.0)),
                               "unit": units[name]}
                        for name in units},
        }


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def record_path(workload: str, seed: int, seconds: float) -> str:
    return os.path.join(out_dir(),
                        f"record-{workload}-seed{seed}-{seconds:g}s.json")


def untraced_record(workload: str, seed: int, seconds: float,
                    any_seed: bool = False,
                    timeout: float = 150.0) -> Dict[str, object]:
    """The untraced run's record to compare a traced run against.

    Uses the record an untraced run of this checkout wrote for the same
    seed or, with ``any_seed``, for any seed (the newest); otherwise
    runs the untraced workload in a fresh process first.
    """
    path = record_path(workload, seed, seconds)
    if not os.path.isfile(path) and any_seed:
        pattern = os.path.join(out_dir(),
                               f"record-{workload}-seed*-{seconds:g}s.json")
        found = sorted(glob.glob(pattern), key=os.path.getmtime)
        path = found[-1] if found else path
    if not os.path.isfile(path):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout,
            check=True)
    with open(path) as handle:
        return json.load(handle)
