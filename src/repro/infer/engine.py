"""Forward-only inference engine for the timing predictor.

Serving a trained :class:`~repro.model.TimingPredictor` through its
training-oriented ``predict()`` pays for machinery inference never
uses: the autograd graph (parent links and op records built and
immediately discarded), one full GNN sweep + CNN forward per call even
when the model has not changed, and a separate prior-MLP forward per
design.
:class:`InferenceEngine` removes all three, on one extraction path:

- every forward runs inside :func:`repro.nn.no_grad`, so no graph is
  recorded (bit-identical values, no bookkeeping);
- extractor outputs are memoised per design in a
  :class:`~repro.infer.cache.FeatureCache` keyed by the model's weight
  digest, so repeated queries — the serving pattern — skip the GNN and
  CNN entirely and reduce to two small matmuls;
- every cache miss, whether it came from ``predict_many`` or a
  single-design ``predict``, is extracted by one fused forward: the
  missing designs merge into one disjoint-union graph (reusing
  :func:`repro.train.fused.merge_pin_graphs`) for a single levelised
  sweep + one stacked CNN forward, and the transductive
  population-prior update (Equation 7, with the queried design's own
  paths folded into the node population) runs as one batched
  prior-MLP forward;
- the CNN is the training model's own ``LayoutCNN.forward`` under
  ``no_grad`` (one CNN forward for training and serving), and the
  *weight-independent* batch structure of a cold extraction — union
  graph, stacked path images and the first conv layer's im2col columns
  (handed to the CNN through ``cols=``) — is memoised per design set,
  keyed by the designs' content digests, so it survives weight updates
  that invalidate the feature cache.

Numerics are the training path's: ``predict`` is bitwise equal to
``TimingPredictor.predict`` (asserted by ``tests/infer/test_engine.py``;
``benchmarks/bench_inference.py`` checks every variant to 1e-10).

The engine is **thread-safe and resident-process-safe** (the contract
``repro.serve`` builds on, DESIGN.md §13):

- every public entry point enters :func:`repro.nn.no_grad` itself —
  the flag is thread-local, so a server worker thread calling in from
  a fresh thread must not depend on the constructing thread's scope;
- the batch-structure cache is a bounded LRU (``max_struct_entries``),
  so an open-ended stream of distinct request mixes cannot grow memory
  without limit;
- predictions take a shared read lock and :meth:`swap_model` takes the
  write side, so a hot-reload can never interleave with an in-flight
  forward (requests see the old weights or the new, never a mix);
  ``generation`` counts swaps under the same write lock, and every
  :class:`Prediction` records the generation read under the read lock
  its forward ran under;
- the digest a cold extraction was computed under is re-checked before
  the feature-cache store, so a weight edit that bypasses
  ``swap_model`` can still never publish stale features.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow import DesignData
from ..model import TimingPredictor
from ..nn import Tensor, no_grad
from ..nn.functional import _im2col
from ..train.fused import FusedDesignBatch, slice_ranges
from ..util import RWLock, timed
from .cache import BoundedLRU, FeatureCache, FeatureTriple, weight_digest

__all__ = ["InferenceEngine", "Prediction"]


class Prediction:
    """One design's serving result (arrays, not tensors).

    ``generation`` is the engine generation whose weights computed it.
    """

    __slots__ = ("name", "node", "mean", "std", "num_endpoints",
                 "generation")

    def __init__(self, name: str, node: str, mean: np.ndarray,
                 std: Optional[np.ndarray], generation: int) -> None:
        self.name = name
        self.node = node
        self.mean = mean
        self.std = std
        self.num_endpoints = int(mean.shape[0])
        self.generation = generation

    def __repr__(self) -> str:
        flag = ", std" if self.std is not None else ""
        return (f"Prediction({self.name}@{self.node}, "
                f"endpoints={self.num_endpoints}{flag})")


class InferenceEngine:
    """Batched, cached, no-grad serving front-end for one model.

    Parameters
    ----------
    model:
        A trained predictor whose node priors have been finalised
        (``OursTrainer.fit`` does this; so does
        :func:`repro.infer.load_predictor`).
    use_cache:
        Memoise per-design extractor outputs keyed by the weight
        digest.  Disable for strictly stateless serving.
    max_struct_entries:
        LRU bound on the weight-independent batch structures (union
        graph, stacked path images, first-layer im2col columns) kept
        per design set.  Unlike the feature cache these survive model
        updates — the inputs they derive from are immutable flow
        outputs — but a resident process serving many distinct design
        *sets* would otherwise keep one full union-graph batch per
        distinct request mix forever; evictions are counted in
        :meth:`stats`.
    """

    def __init__(self, model: TimingPredictor, use_cache: bool = True,
                 max_struct_entries: Optional[int] = 8) -> None:
        self.model = model
        self.cache: Optional[FeatureCache] = \
            FeatureCache() if use_cache else None
        #: Number of models served so far: 1 for the constructor's,
        #: bumped by :meth:`swap_model` under the write lock.
        self.generation = 1
        #: content digests of a design set -> (FusedDesignBatch,
        #: subsets, images, cols); all weight-independent.
        self._structs: BoundedLRU = BoundedLRU(max_struct_entries)
        #: Shared by predictions (read) and swap_model (write): a
        #: hot-reload is mutually exclusive with in-flight forwards.
        self._rw = RWLock()

    # ------------------------------------------------------------------
    # Feature extraction (the cached, expensive half)
    # ------------------------------------------------------------------
    def _digest(self) -> str:
        with timed("infer.digest"):
            return weight_digest(self.model)

    def _batch_struct(self, missed: Sequence[DesignData]) -> tuple:
        """Weight-independent batch structure for a set of designs:
        union graph, full endpoint subsets, stacked images, columns.

        Keyed by content digest, not ``(name, node)``: the same
        benchmark rebuilt with other flow settings is another design.
        """
        key = tuple(d.content_digest() for d in missed)
        struct = self._structs.get(key)
        if struct is None:
            batch = FusedDesignBatch(list(missed))
            subsets = [np.arange(d.num_endpoints) for d in missed]
            images = batch.stacked_path_images(subsets)
            # Only the kernel *shape* enters the columns, so they stay
            # valid across any weight update of a same-geometry model.
            conv1 = self.model.extractor.cnn.conv1
            cols = _im2col(images, conv1.weight.data.shape[2:],
                           conv1.stride, conv1.padding)
            struct = (batch, subsets, images, cols)
            self._structs.put(key, struct)
        return struct

    def _features_many(self, designs: Sequence[DesignData]
                       ) -> List[FeatureTriple]:
        """Per-design ``(u, u_n, u_d)`` over each full endpoint set,
        extracting every cache miss in ONE fused forward (union graph
        sweep + stacked CNN)."""
        digest = self._digest() if self.cache is not None else ""
        triples: List[Optional[FeatureTriple]] = [None] * len(designs)
        misses: List[int] = []
        for i, design in enumerate(designs):
            hit = self.cache.lookup(design, digest) \
                if self.cache is not None else None
            if hit is not None:
                triples[i] = hit
            else:
                misses.append(i)
        if misses:
            missed = [designs[i] for i in misses]
            model = self.model
            with timed("infer.features"):
                batch, subsets, images, cols = self._batch_struct(missed)
                rows = batch.merged_endpoint_rows(subsets)
                u_graph = model.extractor.gnn(batch.graph, rows).data
                u_layout = model.extractor.cnn(Tensor(images),
                                               cols=cols).data
                u = np.concatenate([u_graph, u_layout], axis=1)
                u_n, u_d = model.disentangler(Tensor(u))
                u_n, u_d = u_n.data, u_d.data
            # One digest recompute per coalesced batch: store the whole
            # batch's triples only if the weights did not change under
            # us while the fused forward ran.
            storable = self.cache is not None and self._digest() == digest
            for (lo, hi), i in zip(
                    slice_ranges([len(s) for s in subsets]), misses):
                triple = (u[lo:hi], u_n[lo:hi], u_d[lo:hi])
                triples[i] = triple
                if storable:
                    self.cache.store(designs[i], digest, triple)
        return triples  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Priors (the cheap, per-query half)
    # ------------------------------------------------------------------
    def _batched_priors(self, designs: Sequence[DesignData],
                        triples: Sequence[FeatureTriple]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """``(D, m)`` prior mu / log_var rows, one MLP forward for all.

        The transductive update (folding each design's own paths into
        its node population) happens in plain numpy per design — only
        the amortisation MLPs, the part worth batching, run once over
        the stacked ``u_tilde`` rows.
        """
        model = self.model
        rows = []
        for design, (_, u_n, u_d) in zip(designs, triples):
            model._prior_weights(design.node)  # raises if not finalised
            rows.append(model._prior_feature(design.node, extra_un=u_n,
                                             extra_ud=u_d))
        with timed("infer.prior"), no_grad():
            mu, log_var = model.readout.weight_distribution(
                Tensor(np.concatenate(rows, axis=0)))
        return mu.data, log_var.data

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _readout(self, u: np.ndarray, mu: np.ndarray,
                 log_var: np.ndarray, mc_samples: int,
                 rng: Optional[np.random.Generator], seed: int,
                 with_std: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply the prior readout to features (vectorised MC draws)."""
        model = self.model
        if mc_samples > 0:
            draw = rng if rng is not None else np.random.default_rng(seed)
            preds = model._sample_prior_predictions(
                u, mu, log_var, mc_samples, draw)
            std = preds.std(axis=0) if with_std else None
            return preds.mean(axis=0), std
        mean = u @ mu[0] + float(model.readout.bias.data[0])
        return mean, None

    def _predict_one(self, design: DesignData,
                     endpoint_subset: Optional[np.ndarray],
                     mc_samples: int, rng: Optional[np.random.Generator],
                     seed: int, with_std: bool
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One design through the fused path, optionally restricted to
        an endpoint subset (which then also forms the transductive
        population update, as in ``TimingPredictor.predict``)."""
        with self._rw.read(), no_grad(), timed("infer.predict"):
            triple = self._features_many([design])[0]
            if endpoint_subset is not None:
                idx = np.asarray(endpoint_subset)
                triple = tuple(a[idx] for a in triple)
            mu, log_var = self._batched_priors([design], [triple])
            return self._readout(triple[0], mu, log_var, mc_samples, rng,
                                 seed, with_std)

    def predict(self, design: DesignData,
                endpoint_subset: Optional[np.ndarray] = None,
                mc_samples: int = 0,
                rng: Optional[np.random.Generator] = None,
                seed: int = 0) -> np.ndarray:
        """Arrival-time predictions, bitwise equal to
        ``TimingPredictor.predict`` — minus the autograd machinery, and
        with warm calls skipping the GNN/CNN via the feature cache."""
        return self._predict_one(design, endpoint_subset, mc_samples,
                                 rng, seed, with_std=False)[0]

    def predict_with_uncertainty(self, design: DesignData,
                                 endpoint_subset: Optional[np.ndarray] = None,
                                 mc_samples: int = 16,
                                 rng: Optional[np.random.Generator] = None,
                                 seed: int = 0
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and std per endpoint (cached features)."""
        if mc_samples <= 0:
            raise ValueError("uncertainty needs mc_samples > 0")
        return self._predict_one(design, endpoint_subset, mc_samples,
                                 rng, seed, with_std=True)

    def predict_many(self, designs: Sequence[DesignData],
                     mc_samples: int = 0,
                     with_uncertainty: bool = False,
                     rng: Optional[np.random.Generator] = None,
                     seed: int = 0) -> Dict[str, Prediction]:
        """Fused multi-design prediction: one graph sweep and one CNN
        forward for every cache-missing design, one batched prior-MLP
        forward for all, then per-design readouts.

        When ``rng`` is None each design draws from a fresh
        ``default_rng(seed)``, so results match per-design
        ``predict(..., seed=seed)`` calls exactly; pass an explicit
        generator to consume one stream across designs instead.
        """
        if with_uncertainty and mc_samples <= 0:
            raise ValueError("uncertainty needs mc_samples > 0")
        with self._rw.read(), no_grad(), timed("infer.predict_many"):
            triples = self._features_many(designs)
            mu_all, lv_all = self._batched_priors(designs, triples)
            out: Dict[str, Prediction] = {}
            for i, (design, (u, _, _)) in enumerate(zip(designs, triples)):
                mean, std = self._readout(
                    u, mu_all[i:i + 1], lv_all[i:i + 1], mc_samples,
                    rng, seed, with_std=with_uncertainty)
                out[design.name] = Prediction(design.name, design.node,
                                              mean, std, self.generation)
        return out

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def swap_model(self, model: TimingPredictor) -> None:
        """Atomically replace the served predictor.

        Takes the write side of the engine lock, so the swap waits for
        in-flight predictions and no prediction can start mid-swap: a
        request sees the old weights or the new, never a mixture, and
        ``generation`` advances with the weights.  The
        feature cache needs no flush — its entries are digest-keyed, so
        the new weights simply miss.  The batch-structure cache
        survives unless the new model's first conv layer has a
        different geometry (then the cached im2col columns are shaped
        for the wrong kernel and are dropped).
        """
        old = self.model.extractor.cnn.conv1
        new = model.extractor.cnn.conv1
        compatible = (old.weight.data.shape == new.weight.data.shape
                      and old.stride == new.stride
                      and old.padding == new.padding)
        with self._rw.write():
            self.model = model
            self.generation += 1
            if not compatible:
                self._structs.clear()

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters (zeros when the cache is disabled)."""
        if self.cache is None:
            return {"hits": 0, "misses": 0, "entries": 0}
        return self.cache.stats()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Counters for both cache tiers (for /stats)."""
        return {
            "features": self.cache_stats(),
            "structs": self._structs.stats(),
        }
