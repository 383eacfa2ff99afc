"""Open-loop load generation for the serving workloads.

The schedule is fixed before the first request is sent: Poisson
arrivals at each phase's rate, Zipf-skewed design popularity, an even
split of point and uncertainty queries, and (for ``serve-reload``) one
reload per second.  Two threads, each owning one persistent
connection, take operations in schedule order and send each at its due
time, or as soon as a connection frees up when both are busy.
Latency is timed from the due time, so a stall also charges the wait
it imposes on later operations; how late each send was is recorded as
well.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Zipf exponent of design popularity.
ZIPF_S = 1.1
#: Monte-Carlo samples of an uncertainty query.
MC_SAMPLES = 256
#: Connections (= sending threads); the box has 2 CPUs.
CONNECTIONS = 2
#: An operation this late is dropped unsent and counted as timed out,
#: which bounds a run against a stalled server.
GIVE_UP_LATE_S = 20.0


@dataclass
class Op:
    index: int
    due: float                 # seconds after the generator starts
    kind: str                  # "predict" or "reload"
    phase: str                 # e.g. "r50"
    measured: bool
    design: str = ""
    uncertainty: bool = False
    cycle: int = 0


@dataclass
class Phase:
    name: str
    rate: float                # requests per second
    seconds: float
    measured: bool = True
    reload_every: float = 0.0  # seconds; 0 = no reloads
    cycle: int = 0             # repetition index of the phase


@dataclass
class OpResult:
    op: Op
    status: str = "ok"         # ok | failed | refused | timeout
    send: float = 0.0          # absolute perf_counter times
    recv: float = 0.0
    due: float = 0.0
    body: object = None        # response (bytes until decoded)
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due time to response."""
        return self.recv - self.due

    @property
    def late(self) -> float:
        return self.send - self.due


def popularity(designs: Sequence[str],
               rng: np.random.Generator) -> Dict[str, float]:
    """Zipf weights over a seed-dependent ranking of the designs."""
    ranked = [designs[i] for i in rng.permutation(len(designs))]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    weights /= weights.sum()
    return dict(zip(ranked, weights))


def build_schedule(seed: int, designs: Sequence[str],
                   phases: Sequence[Phase]) -> List[Op]:
    """Every operation of a run, in due-time order (deterministic)."""
    rng = np.random.default_rng([seed, 0x5E7E])
    names = sorted(designs)
    weights = popularity(names, rng)
    probs = np.array([weights[n] for n in names])
    ops: List[Op] = []
    start = 0.0
    for phase in phases:
        end = start + phase.seconds
        t = start + rng.exponential(1.0 / phase.rate)
        while t < end:
            ops.append(Op(0, t, "predict", phase.name, phase.measured,
                          design=names[rng.choice(len(names), p=probs)],
                          uncertainty=bool(rng.random() < 0.5),
                          cycle=phase.cycle))
            t += rng.exponential(1.0 / phase.rate)
        if phase.reload_every > 0:
            k = 1
            while start + k * phase.reload_every < end:
                ops.append(Op(0, start + k * phase.reload_every, "reload",
                              phase.name, phase.measured, cycle=phase.cycle))
                k += 1
        start = end
    ops.sort(key=lambda op: op.due)
    for i, op in enumerate(ops):
        op.index = i
    return ops


class OpenLoopGenerator:
    """Sends a schedule over ``CONNECTIONS`` persistent connections.

    ``connect()`` returns a fresh client object with ``predict(payload)``
    and ``reload()`` methods; ``before_reload(op)`` runs on the sending
    thread right before each reload request (it swaps the checkpoint
    file).  With ``connections=1`` the operations are sent one at a
    time, in order.
    """

    def __init__(self, ops: Sequence[Op], connect: Callable[[], object],
                 request_seed: int,
                 before_reload: Optional[Callable[[Op], None]] = None,
                 classify: Optional[Callable[[BaseException], str]] = None,
                 connections: int = CONNECTIONS) -> None:
        self.ops = list(ops)
        self.connections = connections
        self.connect = connect
        self.request_seed = request_seed
        self.before_reload = before_reload
        self.classify = classify or (lambda exc: "failed")
        self.results: Dict[int, OpResult] = {}
        self._next = 0
        self._lock = threading.Lock()
        self.origin = 0.0

    def payload(self, op: Op) -> Dict[str, object]:
        return {"design": op.design,
                "mc_samples": MC_SAMPLES if op.uncertainty else 0,
                "seed": self.request_seed, "uncertainty": op.uncertainty,
                "rid": op.index}

    def _take(self) -> Optional[Op]:
        with self._lock:
            if self._next >= len(self.ops):
                return None
            op = self.ops[self._next]
            self._next += 1
            return op

    def _worker(self) -> None:
        client = self.connect()
        try:
            while True:
                op = self._take()
                if op is None:
                    return
                due = self.origin + op.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                result = OpResult(op, due=due)
                if -delay > GIVE_UP_LATE_S:
                    result.status = "timeout"
                    result.error = "dropped: generator too far behind"
                    result.send = result.recv = time.perf_counter()
                    self.results[op.index] = result
                    continue
                try:
                    if op.kind == "reload" and self.before_reload:
                        self.before_reload(op)
                    result.send = time.perf_counter()
                    result.body = client.reload() if op.kind == "reload" \
                        else client.predict(self.payload(op))
                # Any error is an outcome to count, not a crash: the
                # classifier maps it to failed/refused/timeout.
                except Exception as exc:  # noqa: BLE001
                    result.status = self.classify(exc)
                    result.error = repr(exc)
                result.recv = time.perf_counter()
                self.results[op.index] = result
        finally:
            client.close()

    def run(self) -> List[OpResult]:
        threads = [threading.Thread(target=self._worker, daemon=True)
                   for _ in range(self.connections)]
        self.origin = time.perf_counter() + 0.05
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [self.results[op.index] for op in self.ops
                if op.index in self.results]
