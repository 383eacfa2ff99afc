"""The eager autograd graph is freed by reference counting alone.

A graph node records its op name and attrs, never a closure over
itself, so a training step's graph holds no reference cycle and
nothing is left for the cyclic garbage collector.
"""

import gc

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.nn import Tensor
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import OursTrainer, TrainConfig


@pytest.fixture(scope="module")
def designs():
    libraries = {"130nm": make_sky130_library(),
                 "7nm": make_asap7_library()}
    vocab = GateVocabulary(list(libraries.values()))
    out = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in out])
    return out


def test_eager_step_leaves_no_cyclic_garbage(designs):
    config = TrainConfig(steps=4, lr=3e-3, batch_endpoints=24, seed=0,
                         gamma1=1.0, gamma2=30.0, holdout_fraction=0.0,
                         compile=False)
    model = TimingPredictor(designs[0].graph.features.shape[1],
                            seed=config.seed)
    trainer = OursTrainer(model, designs, config)
    trainer.step(warmup=True)
    trainer.step()

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        trainer.step()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    tensors = [o for o in garbage if isinstance(o, Tensor)]
    arrays = [o for o in garbage if isinstance(o, np.ndarray)]
    assert not tensors, f"{len(tensors)} Tensors left to the cyclic GC"
    assert not arrays, f"{len(arrays)} arrays left to the cyclic GC"
