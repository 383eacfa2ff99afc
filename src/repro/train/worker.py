"""Shard worker loop for data-parallel training.

:func:`shard_worker_main` is the ``Process`` target
:class:`~repro.train.parallel.ParallelTrainer` forks once per shard.
A worker is a *pure function* of what the parent ships each step —
current weights, per-design endpoint subsets, pre-drawn MC noise —
plus the shard designs it inherited at fork time.  It owns no RNG
stream, no optimiser and no checkpoint state; it builds a local
:class:`~repro.train.trainer.OursTrainer` over its designs purely to
reuse the fused-batch construction, the compile/retrace machinery and
:meth:`~repro.train.trainer.OursTrainer.compute_gradients`, then packs
the resulting gradients into its shard's shared-memory vector
(:mod:`repro.nn.flat` layout).

Protocol (see :class:`~repro.train.parallel.ShardChannel`): the
command pipe carries ``("step", warmup, sizes, profile)`` /
``("stop",)`` tuples; the reply is ``("ok", loss_values, grad_mask,
seconds, timings)`` with the gradients already in shared memory, or
``("err", traceback)``.  EOF on the command pipe — the signature of a
dead parent — ends the loop, and SIGINT/SIGTERM are ignored so the
parent alone coordinates graceful stops.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import replace
from typing import Dict, Sequence

import numpy as np

from ..flow import DesignData
from ..model import TimingPredictor
from ..nn.flat import read_params, write_grads
from ..util import get_timings, reset_timings
from .trainer import OursTrainer, TrainConfig

__all__ = ["shard_worker_main", "worker_train_config"]


def worker_train_config(config: TrainConfig) -> TrainConfig:
    """The parent's config with parent-only concerns switched off.

    Holdout selection, SWA and checkpointing belong to the parent (the
    worker never calls ``fit``); every field that shapes the step math
    — loss weights, batch size, compile/dtype — is kept
    verbatim so the shard computes exactly the parent's loss graph.
    """
    return replace(config, holdout_fraction=0.0, swa_fraction=1.0,
                   checkpoint_every=0)


def shard_worker_main(model: TimingPredictor,
                      designs: Sequence[DesignData],
                      config: TrainConfig,
                      node_obs_var: Dict[str, float],
                      channel) -> None:
    """Serve gradient requests for one design shard until stopped.

    ``model`` and ``designs`` arrive through the fork (copy-on-write
    references to the parent's objects), ``channel`` is this shard's
    :class:`~repro.train.parallel.ShardChannel`.  ``node_obs_var`` is
    the parent's *global* per-node label variance — the shard trainer
    would otherwise condition the likelihood on shard-local statistics
    and change the math.
    """
    # The parent coordinates every stop (a "stop" command, or pipe EOF
    # when it is gone); a terminal-wide Ctrl-C must not tear workers
    # out from under an in-flight step.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    channel.as_worker()
    trainer = OursTrainer(model, designs, worker_train_config(config))
    trainer.node_obs_var = dict(node_obs_var)
    params = model.parameters()
    while True:
        try:
            command = channel.cmd_recv.recv()
        except (EOFError, OSError):
            break
        if command[0] == "stop":
            break
        _, warmup, sizes, profile = command
        start = time.perf_counter()
        try:
            trainer.profile_ops = bool(profile)
            if profile:
                # Fresh window per step so the snapshot shipped back is
                # exactly this step's cost, merged parent-side under
                # this shard's worker tag.
                reset_timings()
            read_params(params, channel.weights)
            subsets = channel.read_subsets(sizes)
            inputs = trainer._batch_inputs(subsets)
            for i, (design, subset) in enumerate(zip(designs, subsets)):
                labels = np.asarray(design.labels[subset], dtype=float)
                inputs[f"y{i}"] = labels.reshape(1, -1, 1)
                eps_q, eps_p = channel.read_noise(i, len(subset))
                inputs[f"eps_q{i}"] = eps_q
                if eps_p is not None:
                    inputs[f"eps_p{i}"] = eps_p
            values = trainer.compute_gradients(bool(warmup), subsets,
                                               inputs)
            mask = write_grads(params, channel.grads)
            timings = get_timings() if profile else None
            channel.res_send.send(
                ("ok", values, tuple(mask),
                 time.perf_counter() - start, timings))
        # repro-check: disable=bare-except -- any failure must reach the parent as an ("err", traceback) reply, not kill the worker silently
        except Exception:
            try:
                channel.res_send.send(("err", traceback.format_exc()))
            except (OSError, BrokenPipeError):
                pass
            break
