"""Shared fixtures for the inference-engine tests.

Two small designs on different nodes (the cross-node serving case) and
a predictor with finalised node priors — the module scope keeps the
flow runs to one per test session."""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.techlib import make_asap7_library, make_sky130_library


@pytest.fixture(scope="module")
def flow_inputs():
    """``(libraries, vocab)`` the fixture designs were built with."""
    libraries = {"130nm": make_sky130_library(),
                 "7nm": make_asap7_library()}
    return libraries, GateVocabulary(list(libraries.values()))


@pytest.fixture(scope="module")
def designs(flow_inputs):
    libraries, vocab = flow_inputs
    out = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in out])
    return out


@pytest.fixture(scope="module")
def model(designs):
    m = TimingPredictor(designs[0].graph.features.shape[1], seed=0)
    m.finalize_node_priors(designs)
    return m


@pytest.fixture()
def fresh_model(designs):
    """Function-scoped predictor for tests that mutate weights."""
    m = TimingPredictor(designs[0].graph.features.shape[1], seed=0)
    m.finalize_node_priors(designs)
    return m


@pytest.fixture()
def reference(model, designs):
    """Seed-path predictions for every design (autograd ``predict``)."""
    return {d.name: model.predict(d) for d in designs}
