"""Fused cross-design features vs. per-design ``model.path_features``.

The training step extracts every design's path features in one fused
pass (one union-graph GNN sweep + one stacked CNN forward).  It must be
numerically equivalent to featurising design by design: same values,
same parameter gradients, and the same optimiser trajectory when either
drives the updates.
"""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.nn import Adam, Tensor, concatenate
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import (
    FusedDesignBatch,
    OursTrainer,
    TrainConfig,
    merge_pin_graphs,
    slice_ranges,
)
from repro.train.batching import sample_endpoints


@pytest.fixture(scope="module")
def designs():
    libraries = {"130nm": make_sky130_library(), "7nm": make_asap7_library()}
    vocab = GateVocabulary(list(libraries.values()))
    out = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in out])
    return out


@pytest.fixture(scope="module")
def in_features(designs):
    return designs[0].graph.features.shape[1]


def _looped_features(model, designs, subsets):
    """Reference: ``model.path_features`` design by design, stacked."""
    parts = [model.path_features(d, s) for d, s in zip(designs, subsets)]
    return tuple(concatenate([p[i] for p in parts], axis=0)
                 for i in range(3))


def _subsets(designs, seed):
    rng = np.random.default_rng(seed)
    return [sample_endpoints(d, 16, rng) for d in designs]


def _loss(features, weights):
    """A scalar touching every feature block with distinct weights."""
    total = None
    for tensor, w in zip(features, weights):
        term = (tensor * tensor * Tensor(w)).sum()
        total = term if total is None else total + term
    return total


def _weights(model, rows, seed):
    rng = np.random.default_rng(seed)
    m = model.extractor.feature_size
    return [rng.standard_normal((rows, m)),
            rng.standard_normal((rows, m // 2)),
            rng.standard_normal((rows, m // 2))]


def _feature_params(model):
    """The parameters path features depend on (extractor, disentangler)."""
    return [*model.extractor.parameters(), *model.disentangler.parameters()]


def _grads(model, designs, subsets, fused, weights):
    model.zero_grad()
    if fused:
        features = FusedDesignBatch(designs).path_features(model, subsets)
    else:
        features = _looped_features(model, designs, subsets)
    loss = _loss(features, weights)
    loss.backward()
    grads = [p.grad.copy() for p in _feature_params(model)]
    return features, loss, grads


class TestMergedGraph:
    def test_union_shapes_and_levels(self, designs):
        graphs = [d.graph for d in designs]
        merged = merge_pin_graphs(graphs)
        assert merged.num_nodes == sum(g.num_nodes for g in graphs)
        assert len(merged.levels) == max(len(g.levels) for g in graphs)
        # Every node appears in exactly one level.
        all_levels = np.concatenate(merged.levels)
        assert len(np.unique(all_levels)) == merged.num_nodes
        assert merged.endpoint_rows.shape[0] == \
            sum(g.endpoint_rows.shape[0] for g in graphs)

    def test_slice_ranges(self):
        assert slice_ranges([3, 0, 2]) == [(0, 3), (3, 3), (3, 5)]

    def test_batch_rows_match_per_design_rows(self, designs):
        batch = FusedDesignBatch(designs)
        subsets = [np.array([0, 2]), np.array([1])]
        rows = batch.merged_endpoint_rows(subsets)
        offset = designs[0].graph.num_nodes
        expected = np.concatenate([
            designs[0].graph.endpoint_rows[[0, 2]],
            designs[1].graph.endpoint_rows[[1]] + offset,
        ])
        assert np.array_equal(rows, expected)


class TestStepEquivalence:
    def test_one_step_losses_and_params_match(self, designs, in_features):
        """Same features, loss and gradients, so the same Adam step."""
        subsets = _subsets(designs, seed=1)
        results = {}
        for fused in (True, False):
            model = TimingPredictor(in_features, seed=0)
            weights = _weights(model, sum(len(s) for s in subsets), seed=2)
            features, loss, grads = _grads(model, designs, subsets, fused,
                                           weights)
            Adam(_feature_params(model), lr=2e-3).step()
            results[fused] = (features, loss.item(), grads,
                              [p.data.copy() for p in model.parameters()])
        f_fused, l_fused, g_fused, p_fused = results[True]
        f_loop, l_loop, g_loop, p_loop = results[False]
        for fused, looped in zip(f_fused, f_loop):
            np.testing.assert_allclose(fused.data, looped.data, atol=1e-8)
        assert l_fused == pytest.approx(l_loop, abs=1e-8)
        for g_f, g_l in zip(g_fused, g_loop):
            np.testing.assert_allclose(g_f, g_l, atol=1e-8)
        for p_f, p_l in zip(p_fused, p_loop):
            np.testing.assert_allclose(p_f, p_l, atol=1e-8)

    def test_ten_steps_stay_on_the_same_trajectory(self, designs,
                                                   in_features):
        params = {}
        losses = {}
        for fused in (True, False):
            model = TimingPredictor(in_features, seed=0)
            optimizer = Adam(_feature_params(model), lr=2e-3)
            for t in range(10):
                subsets = _subsets(designs, seed=10 + t)
                weights = _weights(model, sum(len(s) for s in subsets),
                                   seed=100 + t)
                _, loss, _ = _grads(model, designs, subsets, fused,
                                    weights)
                optimizer.step()
            losses[fused] = loss.item()
            params[fused] = [p.data.copy() for p in model.parameters()]
        # Loose tolerance: float noise may compound over ten Adam steps.
        assert losses[True] == pytest.approx(losses[False], rel=1e-4)
        for p_f, p_l in zip(params[True], params[False]):
            np.testing.assert_allclose(p_f, p_l, atol=1e-4)

    def test_history_records_step_seconds(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=1, seed=0, holdout_fraction=0.0)
        record = OursTrainer(model, designs, cfg).step(warmup=True)
        assert record["step_seconds"] > 0.0
