"""Repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``train``: cold Table-1 dataset build, 100 compiled float64 training
  steps, save/load of the serving checkpoint, test R².
- ``serve-hot``: ``python -m repro.serve`` under open-loop Poisson
  load at 50 and 150 req/s over 2 persistent connections.
- ``serve-reload`` (not in BENCHMARK.json): the same server at 50 req/s
  while the checkpoint file is swapped and ``POST /reload`` is sent
  once per second.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer
metrics of a traced run, and a Chrome trace, a per-layer self-time
table and the tracing overhead (traced minus untraced end-to-end
numbers) are written to ``.bench_out/`` in the repository root.

A failed correctness check prints ``"correct": false`` (and the failures
on stderr).  When the program cannot be imported the command exits
non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from common import SRC, WORKLOADS


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: "
                         f"{exc}")
    location = os.path.realpath(os.path.dirname(repro.__file__))
    if not location.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: repro resolved to {location}, "
                         f"not to this checkout's {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of a serving run (train "
                             "runs a fixed 100-step schedule)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the workloads' ``finally``
    # blocks stop the server and remove scratch data.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_repro()
    if args.workload == "train":
        from train_bench import run
    else:
        from serve_bench import run
    outcome = run(args)
    result = outcome.result()
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
