"""The timing path feature extractor F(G') = [GNN(H), CNN(X)].

Equation (1) of the paper: a path's feature vector is the concatenation
of its GNN embedding (graph modality) and its CNN embedding (layout
modality).  One extractor instance is shared by every training strategy;
the strategies differ only in what sits on top of ``u``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..flow import DesignData
from ..nn import Module, Tensor, concatenate
from .cnn import LayoutCNN
from .gnn import TimingGNN


class PathFeatureExtractor(Module):
    """Produces ``u in R^m`` for each timing path of a design.

    Parameters
    ----------
    in_features:
        Pin-graph node feature width.
    gnn_hidden / gnn_out:
        GNN sweep width and projected output width.
    cnn_channels / cnn_out:
        CNN stack width and projected output width.
    rng:
        Generator for weight init.
    seed:
        Seed for the fallback Generator used when ``rng`` is not given;
        construction is deterministic either way.

    Notes
    -----
    ``m = gnn_out + cnn_out`` must be even, since the disentangler splits
    the feature into two equal halves (Equation 2).
    """

    def __init__(self, in_features: int, gnn_hidden: int = 32,
                 gnn_out: int = 24, cnn_channels: int = 6,
                 cnn_out: int = 8,
                 rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(seed)
        if (gnn_out + cnn_out) % 2:
            raise ValueError("feature size m must be even for Equation (2)")
        self.gnn = TimingGNN(in_features, gnn_hidden, gnn_out, rng)
        self.cnn = LayoutCNN(3, cnn_channels, cnn_out, rng)
        self.feature_size = gnn_out + cnn_out

    def forward(self, design: DesignData,
                endpoint_subset: Optional[np.ndarray] = None) -> Tensor:
        """Path features for ``design``.

        Parameters
        ----------
        design:
            One design's snapshot data.
        endpoint_subset:
            Indices *into the design's endpoint list* to featurise (for
            minibatching); all endpoints when None.

        Returns
        -------
        Tensor
            ``(K, m)`` path features.
        """
        if endpoint_subset is None:
            endpoint_subset = np.arange(design.num_endpoints)
        rows = design.graph.endpoint_rows[endpoint_subset]
        u_graph = self.gnn(design.graph, rows)
        path_images = design.path_image_stack()[endpoint_subset]
        u_layout = self.cnn(Tensor(path_images))
        return concatenate([u_graph, u_layout], axis=1)
