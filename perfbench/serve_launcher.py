"""Traced launcher for the prediction server.

Installs the benchmark's span wrappers around the layers' public
functions, then calls the normal ``repro.serve`` entry point, so the
process layout is that of ``python -m repro.serve``.  On exit it
writes the spans, the program's timing registry and GC counts as JSON::

    python3 perfbench/serve_launcher.py SPANS.json -- <repro serve args>
"""

from __future__ import annotations

import json
import os
import sys

from spans import GcMonitor, Tracer


def _options(mc_samples=0, with_uncertainty=False, seed=0):
    return [int(mc_samples), bool(with_uncertainty), int(seed)]


def install(tracer: Tracer) -> None:
    import repro.infer
    import repro.serve.server as server_module
    from repro.flow import FlowCache
    from repro.infer import InferenceEngine
    from repro.serve import (ModelContainer, PredictionService,
                             RequestCoalescer)

    tracer.wrap(FlowCache, "load", "flow.cache_load")
    tracer.wrap(PredictionService, "predict", "serve.handler",
                lambda self, payload: {
                    "rid": payload.get("rid")
                    if isinstance(payload, dict) else None})
    tracer.wrap(RequestCoalescer, "submit", "coalescer.submit",
                lambda self, design, *args, **kwargs: {
                    "design": design.name,
                    "options": _options(*args, **kwargs)})
    tracer.wrap(InferenceEngine, "predict_many", "infer.predict_many",
                lambda self, designs, mc_samples=0, with_uncertainty=False,
                rng=None, seed=0: {
                    "designs": [d.name for d in designs],
                    "options": _options(mc_samples, with_uncertainty,
                                        seed)})
    tracer.wrap(ModelContainer, "reload", "serve.reload")
    # The CLI imports load_predictor from repro.infer at call time; the
    # container holds its own module-level reference.
    tracer.wrap(repro.infer, "load_predictor", "infer.load")
    tracer.wrap(server_module, "load_predictor", "infer.load")


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit(__doc__)
    spans_path, serve_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.serve.__main__ import main as serve_main
    from repro.util import get_timings

    monitor = GcMonitor()
    try:
        with monitor:
            return serve_main(serve_argv)
    finally:
        payload = {
            "pid": os.getpid(),
            "spans": [{"sid": s.sid, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent, "tid": s.tid,
                       "args": s.args} for s in list(tracer.spans)],
            "timings": get_timings(),
            "gc": {"collections": monitor.collections,
                   "pause_s": monitor.pause_s},
        }
        tmp = f"{spans_path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
