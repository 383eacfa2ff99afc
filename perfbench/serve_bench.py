"""The ``serve-hot`` and ``serve-reload`` workloads.

``python -m repro.serve --model M`` runs as a subprocess over all 10
Table-1 designs with a warm design cache.  Load comes from this process
over 2 persistent connections (see ``loadgen``).  Every served answer
is checked against an in-process ``InferenceEngine`` holding the
weights of the generation the response reports.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import itertools
import json
import os
import queue
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (FLOW_STAGES, HERE, SRC, Outcome, cache_dir, pct,
                    proc_status_mb, record_path, untraced_record, write_json)
from loadgen import OpenLoopGenerator, Op, OpResult, Phase, build_schedule
from spans import Span, Tracer, chrome_events, write_trace_outputs

#: Latency limit of the SLO metrics.
SLO_MS = 50.0
#: Server launches per run; setup_s is their median.
LAUNCHES = 7
#: Unmeasured traffic before the measured phases.
WARMUP_S = 1.0
#: serve-hot alternates its two rates this many times.
CYCLES = 4
#: Served answers must match the in-process engine this closely.
TOLERANCE = 1e-10
LAUNCH_TIMEOUT_S = 60.0


def phases_for(workload: str, seconds: float) -> List[Phase]:
    """Traffic phases of a run.

    ``serve-hot`` alternates 50 and 150 req/s in ``CYCLES`` cycles,
    3/4 of the time at 50 and 1/4 at 150, so both rates get the same
    number of requests and a slow spell of the shared box lands on
    both rates instead of on one.  ``serve-reload`` spends the whole run
    at 50 req/s.  Both start with ``WARMUP_S`` of unmeasured traffic.
    """
    phases = [Phase("warm", 50, WARMUP_S, measured=False)]
    if workload == "serve-hot":
        for cycle in range(CYCLES):
            phases += [Phase("r50", 50, 0.75 * seconds / CYCLES,
                             cycle=cycle),
                       Phase("r150", 150, 0.25 * seconds / CYCLES,
                             cycle=cycle)]
    else:
        phases.append(Phase("r50", 50, seconds, reload_every=1.0))
    return phases


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess (optionally under the launcher)."""

    def __init__(self, model_path: str, designs_dir: str,
                 spans_path: Optional[str] = None) -> None:
        serve_args = ["--model", model_path, "--port", "0",
                      "--cache-dir", designs_dir]
        if spans_path:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   spans_path, "--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro.serve", *serve_args]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self._lines: "queue.Queue[str]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_for_port()
            self.ready = self._wait_for_health()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                continue
            if not line:
                break
            self.output.append(line)
            match = re.search(r"on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not start:\n" + "".join(self.output))

    def _wait_for_health(self) -> float:
        from repro.serve import ServingClient, ServingError
        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        with ServingClient(port=self.port, timeout=5.0) as client:
            while time.perf_counter() < deadline:
                try:
                    self.health = client.healthz()
                    return time.perf_counter()
                except (OSError, ServingError):
                    time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never answered /healthz")

    @property
    def setup_s(self) -> float:
        return self.ready - self.launched

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)


class HttpError(RuntimeError):
    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(f"HTTP {status}: {body[:200]!r}")
        self.status = status


class RawClient:
    """One persistent HTTP/1.1 connection to the server.

    Response bodies are kept as bytes and decoded after the run, so the
    load generator spends as little CPU as possible beside the server
    while it measures.  It is independent of ``repro.serve``'s own
    client on purpose: the load must not change when the program does.
    """

    def __init__(self, port: int, timeout: float = 10.0) -> None:
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None

    def _post(self, path: str, payload: Dict[str, object]) -> bytes:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
        try:
            self.conn.request("POST", path, body=json.dumps(payload),
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except BaseException:
            self.close()
            raise
        if response.status >= 400:
            raise HttpError(response.status, data)
        return data

    def predict(self, payload: Dict[str, object]) -> bytes:
        return self._post("/predict", payload)

    def reload(self) -> bytes:
        return self._post("/reload", {})

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def classify(exc: BaseException) -> str:
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    return "failed"


# ----------------------------------------------------------------------
# Inputs: warm design cache and two checkpoints
# ----------------------------------------------------------------------
def prepare(seed: int, workdir: str):
    """Warm the shared design cache; write checkpoints A and B."""
    from repro.experiments import build_dataset
    from repro.infer import save_predictor
    from repro.model import TimingPredictor

    designs_dir = os.path.join(cache_dir(), "designs")
    dataset = build_dataset(cache_dir=designs_dir)
    paths = []
    for k in range(2):
        model = TimingPredictor(dataset.in_features, seed=2 * seed + k)
        model.finalize_node_priors(dataset.train, seed=seed)
        paths.append(save_predictor(
            model, os.path.join(workdir, f"ckpt{k}.npz")))
    served = os.path.join(workdir, "model.npz")
    shutil.copyfile(paths[0], served)
    return dataset, designs_dir, [str(p) for p in paths], served


class Reference:
    """In-process answers for every model a response may come from."""

    def __init__(self, ckpt_paths: Sequence[str], dataset) -> None:
        from repro.infer import InferenceEngine, load_predictor, weight_digest
        self.engines = {}
        for path in ckpt_paths:
            model = load_predictor(path)
            self.engines[weight_digest(model)] = InferenceEngine(model)
        self.designs = {d.name: d for d in dataset.train + dataset.test}
        self._memo: Dict[Tuple, Tuple[np.ndarray, Optional[np.ndarray]]] = {}

    def answer(self, digest: str, design: str, mc_samples: int,
               uncertainty: bool, seed: int):
        key = (digest, design, mc_samples, uncertainty, seed)
        if key not in self._memo:
            pred = self.engines[digest].predict_many(
                [self.designs[design]], mc_samples=mc_samples,
                with_uncertainty=uncertainty, seed=seed)[design]
            self._memo[key] = (pred.mean, pred.std)
        return self._memo[key]


def check_answers(outcome: Outcome, results: Sequence[OpResult],
                  reference: Reference, health: Dict[str, object],
                  generator: OpenLoopGenerator) -> None:
    """Every served mean/std must equal the reference engine's answer
    for the weights of the generation the response reports."""
    digests = {int(health["generation"]): str(health["digest"])}
    for r in results:
        if r.op.kind == "reload" and r.status == "ok":
            outcome.check(bool(r.body.get("reloaded")),
                          f"reload {r.op.index} did not reload: {r.body}")
            digests[int(r.body["generation"])] = str(r.body["digest"])
    def matches(r: OpResult, digest: str) -> bool:
        mean, std = reference.answer(
            digest, r.op.design, int(generator.payload(r.op)["mc_samples"]),
            r.op.uncertainty, generator.request_seed)
        served_mean = np.asarray(r.body["mean"], dtype=float)
        ok = r.body.get("design") == r.op.design \
            and served_mean.shape == mean.shape \
            and float(np.max(np.abs(served_mean - mean))) <= TOLERANCE
        if r.op.uncertainty:
            served_std = np.asarray(r.body["std"] or [], dtype=float)
            ok = ok and served_std.shape == std.shape \
                and float(np.max(np.abs(served_std - std))) <= TOLERANCE
        return ok

    mismatches = 0
    for r in results:
        if r.op.kind != "predict" or r.status != "ok":
            continue
        generation = int(r.body.get("generation", -1))
        digest = digests.get(generation)
        if digest not in reference.engines:
            outcome.check(False, f"request {r.op.index}: generation "
                                 f"{generation} has no known weights")
            continue
        if not matches(r, digest):
            mismatches += 1
            if mismatches <= 5:
                previous = digests.get(generation - 1)
                hint = " (it matches the previous generation's weights)" \
                    if previous in reference.engines \
                    and matches(r, previous) else ""
                outcome.check(False, f"request {r.op.index} "
                                     f"({r.op.design}, generation "
                                     f"{generation}) differs from the "
                                     f"in-process engine{hint}")
    outcome.check(mismatches == 0,
                  f"{mismatches} served answers differ from the "
                  f"in-process engine")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(results: Sequence[OpResult], setups: Sequence[float],
               peak_rss_mb: float
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The gated metrics and, beside them, the per-rate numbers a run
    records but does not gate (see README)."""
    measured = [r for r in results if r.op.measured]
    ok = sum(r.status == "ok" for r in measured)
    extra: Dict[str, float] = {}
    for phase in ("r50", "r150"):
        phased = [r for r in measured
                  if r.op.phase == phase and r.op.kind == "predict"]
        if not phased:
            continue
        lat = [1e3 * r.latency for r in phased if r.status == "ok"]
        extra[f"p50_ms.{phase}"] = pct(lat, 50)
        extra[f"p99_ms.{phase}"] = pct(lat, 99)
        # The tail of each cycle, then the median over cycles: a slow
        # spell of the shared box moves one cycle, not the result.
        cycles = sorted({r.op.cycle for r in phased})
        extra[f"p90_ms.{phase}"] = statistics.median(
            pct([1e3 * r.latency for r in phased
                 if r.status == "ok" and r.op.cycle == c], 90)
            for c in cycles)
        extra[f"slo_share.{phase}"] = sum(v <= SLO_MS for v in lat) \
            / len(phased)
    reloads = [1e3 * r.latency for r in measured
               if r.op.kind == "reload" and r.status == "ok"]
    if reloads:
        extra["reload_ms_p50"] = pct(reloads, 50)
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb,
               "ok_share": ok / max(1, len(measured)),
               "p50_ms": extra["p50_ms.r50"],
               "p90_ms": extra["p90_ms.r50"]}
    return metrics, extra


def reload_probe(port: int, first_index: int, names: Sequence[str],
                 swap: Callable[[Op], None], request_seed: int
                 ) -> List[OpResult]:
    """After ``serve-hot``'s traffic: swap the checkpoint, reload, then
    query every design once, one operation at a time.

    It gives the reload and feature-extraction layers numbers on a
    workload whose traffic never reloads.  Nothing runs beside it, so
    its answers are checked like every other.
    """
    ops = [Op(first_index, 0.0, "reload", "probe", False)]
    ops += [Op(first_index + 1 + i, 0.0, "predict", "probe", False,
               design=name) for i, name in enumerate(names)]
    generator = OpenLoopGenerator(
        ops, lambda: RawClient(port), request_seed=request_seed,
        before_reload=swap, classify=classify, connections=1)
    return generator.run()


def _stats_delta(before, after) -> Dict[str, float]:
    def timing(name: str, key: str) -> float:
        return after["timings"].get(name, {}).get(key, 0) \
            - before["timings"].get(name, {}).get(key, 0)

    sweeps = max(1, timing("infer.predict_many", "calls"))
    feats = after["engine"]["features"]
    feats0 = before["engine"]["features"]
    hits = feats["hits"] - feats0["hits"]
    lookups = hits + feats["misses"] - feats0["misses"]
    coal, coal0 = after["coalescer"], before["coalescer"]
    batches = coal["batches"] - coal0["batches"]
    digest = timing("infer.digest", "seconds")
    prior = timing("infer.prior", "seconds")
    features = timing("infer.features", "seconds")
    calls = timing("infer.features", "calls")
    return {
        "infer.digest_ms": 1e3 * digest / sweeps,
        "infer.prior_ms": 1e3 * prior / sweeps,
        "infer.readout_ms": 1e3 * (timing("infer.predict_many", "seconds")
                                   - digest - prior - features) / sweeps,
        "infer.features_ms": 1e3 * features / calls if calls else 0.0,
        "infer.features_calls": calls,
        "infer.hit_ratio": hits / lookups if lookups else 0.0,
        "coalescer.batch_size_mean":
            (coal["requests"] - coal0["requests"]) / batches
            if batches else 0.0,
    }


def _load_spans(payload) -> List[Span]:
    spans = []
    for raw in payload["spans"]:
        span = Span(raw["sid"], raw["name"], raw["start"], raw["parent"],
                    raw["tid"], raw["args"])
        span.end = raw["end"]
        spans.append(span)
    return spans


def layer_metrics(results: Sequence[OpResult], spans: Sequence[Span],
                  server_trace, stats_before, stats_after,
                  rss_growth_mb: float
                  ) -> Tuple[Dict[str, float], Dict[str, object]]:
    timings = server_trace["timings"]
    by_rid = {}
    submits = {}
    for span in spans:
        if span.name == "serve.handler" and span.args.get("rid") is not None:
            by_rid[int(span.args["rid"])] = span
        elif span.name == "coalescer.submit":
            submits[span.parent] = span
    sweeps = sorted((s for s in spans if s.name == "infer.predict_many"),
                    key=lambda s: s.start)
    sweep_starts = [s.start for s in sweeps]

    def serving_sweep(handler: Span) -> Optional[Span]:
        submit = submits.get(handler.sid)
        if submit is None:
            return None
        options = submit.args["options"]
        i = bisect.bisect_left(sweep_starts, submit.end)
        for sweep in sweeps[i:]:
            if sweep.start > handler.end:
                break
            if sweep.args["options"] == options \
                    and submit.args["design"] in sweep.args["designs"]:
                return sweep
        return None

    handler_ms, transport_ms, wait_ms = [], [], []
    measured = [r for r in results if r.op.measured and r.status == "ok"
                and r.op.kind == "predict"]
    for r in measured:
        handler = by_rid.get(r.op.index)
        if handler is None:
            continue
        sweep = serving_sweep(handler)
        if sweep is not None:
            wait_ms.append(1e3 * (handler.duration - sweep.duration))
        if r.op.phase == "r50":
            handler_ms.append(1e3 * handler.duration)
            transport_ms.append(1e3 * r.latency - 1e3 * handler.duration)
    loads = [s for s in spans if s.name == "flow.cache_load"]
    built = int(timings.get("flow.run", {}).get("calls", 0))
    # Layers this process does not run (training, the compiled step)
    # are left out and print as 0.
    metrics = {f"flow.{stage}_s": float(
        timings.get(f"flow.{stage}", {}).get("seconds", 0.0))
        for stage in FLOW_STAGES}
    metrics.update(_stats_delta(stats_before, stats_after))
    metrics.update({
        "flow.designs_built": built,
        "flow.cache_hits": len(loads) - built,
        "flow.cache_load_s": sum(s.duration for s in loads),
        "infer.load_ms": 1e3 * sum(s.duration for s in spans
                                   if s.name == "infer.load"),
        "gc.collections": server_trace["gc"]["collections"],
        "gc.pause_ms": 1e3 * server_trace["gc"]["pause_s"],
        "serve.handler_ms_p50": pct(handler_ms, 50),
        "serve.transport_ms_p50": pct(transport_ms, 50),
        "coalescer.wait_ms_p50": pct(wait_ms, 50),
        "serve.reload_ms": pct([1e3 * s.duration for s in spans
                                if s.name == "serve.reload"], 50),
        "serve.rss_growth_mb": rss_growth_mb,
        "generator.late_ms_p99": pct([1e3 * r.late for r in results
                                      if r.op.measured], 99),
    })
    coverage = {"handler_spans_matched": len(handler_ms),
                "sweeps_matched": len(wait_ms),
                "measured_ok": len(measured)}
    return metrics, coverage


# ----------------------------------------------------------------------
def run(args) -> Outcome:
    from repro.serve import ServingClient

    workload = args.workload
    trace = bool(args.trace)
    outcome = Outcome(workload, trace)
    baseline = untraced_record(workload, args.seed, args.seconds,
                               any_seed=True) if trace else None
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=cache_dir())
    server: Optional[Server] = None
    try:
        dataset, designs_dir, ckpts, served = prepare(args.seed, workdir)
        reference = Reference(ckpts, dataset)
        spans_path = os.path.join(workdir, "server-spans.json") \
            if trace else None
        setups = []
        for launch in range(LAUNCHES):
            last = launch == LAUNCHES - 1
            server = Server(served, designs_dir,
                            spans_path if last else None)
            setups.append(server.setup_s)
            if not last:
                server.stop()
        rss_ready = proc_status_mb(server.proc.pid, "VmRSS")
        names = sorted(d.name for d in dataset.train + dataset.test)
        ops = build_schedule(args.seed, names,
                             phases_for(workload, args.seconds))
        swaps = itertools.cycle([ckpts[1], ckpts[0]])

        def swap_checkpoint(op) -> None:
            # Atomically replace the served file with the other
            # checkpoint; the reload op then picks it up.
            staged = f"{served}.staged"
            shutil.copyfile(next(swaps), staged)
            os.replace(staged, served)

        with ServingClient(port=server.port) as client:
            stats_before = client.stats()
        generator = OpenLoopGenerator(
            ops, lambda: RawClient(server.port), request_seed=args.seed,
            before_reload=swap_checkpoint, classify=classify)
        # The generator's own collections would add pauses to the
        # latencies it measures.
        gc.disable()
        try:
            results = generator.run()
        finally:
            gc.enable()
        probe: List[OpResult] = []
        if workload == "serve-hot":
            probe = reload_probe(server.port, len(ops), names,
                                 swap_checkpoint, args.seed)
        for r in results + probe:
            if r.status == "ok":
                r.body = json.loads(r.body)
        with ServingClient(port=server.port) as client:
            stats_after = client.stats()
        peak_rss = proc_status_mb(server.proc.pid, "VmHWM")
        rss_growth = proc_status_mb(server.proc.pid, "VmRSS") - rss_ready
        server.stop()
        server_trace = None
        if trace:
            with open(spans_path) as handle:
                server_trace = json.load(handle)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [r for r in results if r.op.measured]
    outcome.attempted = len(measured) + len(probe)
    outcome.failed = sum(r.status != "ok" for r in measured + probe)
    outcome.check(len(results) == len(ops),
                  f"{len(ops) - len(results)} operations never completed")
    outcome.check(workload != "serve-hot" or len(probe) == len(names) + 1,
                  "the reload probe did not complete")
    check_answers(outcome, results + probe, reference, server.health,
                  generator)
    metrics, extra = end_to_end(results, setups, peak_rss)
    counts = {status: sum(r.status == status for r in measured + probe)
              for status in ("ok", "failed", "refused", "timeout")}
    outcome.record.update({
        "workload": workload, "seed": args.seed, "metrics": metrics,
        "not_gated": extra, "counts": counts, "setups_s": setups,
        "ops": [[r.op.phase, r.op.cycle, r.op.kind, r.status, r.op.due,
                 1e3 * r.late, 1e3 * r.latency] for r in results]})
    if not trace:
        outcome.metrics = metrics
        write_json(record_path(workload, args.seed, args.seconds),
                   outcome.record)
        return outcome

    server_spans = _load_spans(server_trace)
    layers, coverage = layer_metrics(results, server_spans, server_trace,
                                     stats_before, stats_after, rss_growth)
    outcome.metrics = layers
    client = Tracer()
    for r in results + probe:
        client.add(f"client.{r.op.kind}", r.send, r.recv, rid=r.op.index,
                   phase=r.op.phase, status=r.status,
                   late_ms=1e3 * r.late)
    origin = min(s.start for s in client.spans + server_spans)
    server_events = chrome_events(server_spans, server_trace["pid"], origin)
    handler_sum = layers["serve.handler_ms_p50"] \
        + layers["serve.transport_ms_p50"]
    write_trace_outputs(workload, args.seed, client, origin, {
        "end_to_end_traced": metrics,
        "end_to_end_untraced": baseline["metrics"],
        "untraced_seed": baseline["seed"],
        "tracing_overhead": {k: metrics[k] - baseline["metrics"][k]
                             for k in metrics if k in baseline["metrics"]},
        "latency_breakdown_ms": {
            "serve.handler_ms_p50": layers["serve.handler_ms_p50"],
            "serve.transport_ms_p50": layers["serve.transport_ms_p50"],
            "sum": handler_sum,
            "p50_ms.r50": metrics["p50_ms"],
            "sum_over_p50": handler_sum / metrics["p50_ms"]},
        "span_coverage": coverage,
        "counts": counts,
        "per_layer": layers,
    }, extra_events=server_events, extra_spans=server_spans)
    return outcome
