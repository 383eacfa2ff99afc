"""Timing-engine-inspired GNN over the heterogeneous pin graph.

Following the paper (Section 3.1, after Guo et al. [3]), the GNN
propagates along the timing graph from primary inputs to endpoints in
levelised sweeps — exactly the order a PERT STA traversal visits pins.
Net edges and cell edges have separate message transforms (the graph is
heterogeneous), and a node's embedding is

``h_v = ReLU(W_self x_v + W_net mean(h_net-fanin) + W_cell mean(h_cell-fanin))``

computed level by level, so each embedding summarises the whole fanin
cone below it — making the endpoint rows genuine *timing path* features.

The sweep runs as one autograd node whose forward is the whole
levelised propagation in tight numpy (in-place level updates, BLAS
message matmuls) and whose backward replays the levels in reverse.
Its arithmetic lives once, in ``repro.nn.functional``
(``_sweep_forward_raw`` / ``_sweep_backward_raw``); the backward runs
only as the ``levelized_sweep`` VJP of ``repro.nn.compile``, for eager
and compiled steps alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..features import PinGraph
from ..nn import Linear, Module, Tensor, gather_rows
from ..nn.functional import _sweep_forward_raw
from ..nn.tensor import _finish
from ..util import timed


class _LevelPlan:
    """Precomputed per-level edge groupings for one graph (cached).

    Construction is fully vectorised: destination rows are mapped to
    level-local slots with ``np.searchsorted`` over the (unique) level
    rows, and fanin counts come from one ``np.bincount`` — no per-edge
    Python loop.
    """

    def __init__(self, graph: PinGraph) -> None:
        node_level = np.zeros(graph.num_nodes, dtype=np.int64)
        for k, rows in enumerate(graph.levels):
            node_level[rows] = k
        self.steps: List[Dict[str, np.ndarray]] = []
        for k, rows in enumerate(graph.levels):
            if k == 0:
                continue
            rows = np.asarray(rows, dtype=np.int64)
            # Rows are unique; a stable argsort makes searchsorted valid
            # even if a caller hands us an unsorted level.
            sorter = np.argsort(rows, kind="stable")
            sorted_rows = rows[sorter]
            step = {"dst": rows}
            for kind, edges in (("net", graph.net_edges),
                                ("cell", graph.cell_edges)):
                if edges.shape[1]:
                    mask = node_level[edges[1]] == k
                    src = edges[0][mask]
                    dst = edges[1][mask]
                else:
                    src = dst = np.zeros(0, dtype=np.int64)
                if dst.size:
                    dst_local = sorter[np.searchsorted(sorted_rows, dst)]
                    counts = np.bincount(dst_local, minlength=len(rows))
                    counts = np.maximum(counts, 1).astype(float)
                else:
                    dst_local = np.zeros(0, dtype=np.int64)
                    counts = np.ones(len(rows))
                step[f"{kind}_src"] = src
                step[f"{kind}_dst_local"] = dst_local
                step[f"{kind}_inv_count"] = (1.0 / counts)[:, None]
            self.steps.append(step)


def _plan_for(graph: PinGraph) -> _LevelPlan:
    """The graph's level plan, memoised on the graph object itself.

    PinGraphs are immutable after encoding, so the plan never needs
    invalidation, and tying its lifetime to the graph avoids both
    unbounded module caches and stale-id lookups.
    """
    plan = getattr(graph, "_gnn_plan", None)
    if plan is None:
        plan = _LevelPlan(graph)
        graph._gnn_plan = plan
    return plan


def levelized_sweep(s: Tensor, w_net: Tensor, w_cell: Tensor,
                    plan: _LevelPlan, level0: np.ndarray,
                    num_nodes: int) -> Tensor:
    """The whole levelised propagation as ONE autograd node.

    Forward runs the level-ordered sweep in plain numpy with in-place
    buffers (each node's row of ``h`` is written once, at its own
    level).  Backward (the ``levelized_sweep`` VJP in
    ``repro.nn.compile``) replays the levels in reverse topological
    order, accumulating into per-array gradient buffers.
    """
    s_data = s.data
    h = _sweep_forward_raw(
        s_data, w_net.data, w_cell.data, plan.steps, level0,
        np.empty((num_nodes, s_data.shape[1]), dtype=s_data.dtype))
    return _finish(h, (s, w_net, w_cell), op="levelized_sweep",
                   attrs={"plan": plan, "level0": level0,
                          "num_nodes": num_nodes})


class TimingGNN(Module):
    """Levelised heterogeneous message passing over a :class:`PinGraph`.

    Parameters
    ----------
    in_features:
        Node feature width (3 numeric + merged gate vocabulary).
    hidden:
        Embedding width carried through the sweep.
    out_features:
        Width of the projected per-pin output embedding.
    rng:
        Generator for weight init.
    """

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        self.lin_self = Linear(in_features, hidden, rng)
        self.lin_net = Linear(hidden, hidden, rng, bias=False)
        self.lin_cell = Linear(hidden, hidden, rng, bias=False)
        self.lin_out = Linear(hidden, out_features, rng)

    def node_embeddings(self, graph: PinGraph) -> Tensor:
        """Embeddings for every pin, ``(N, hidden)``."""
        with timed("gnn.sweep"):
            s = self.lin_self(Tensor(graph.features))
            if not graph.levels:
                return s.relu()
            return levelized_sweep(
                s, self.lin_net.weight, self.lin_cell.weight,
                _plan_for(graph), graph.levels[0], graph.num_nodes,
            )

    def forward(self, graph: PinGraph,
                endpoint_rows: Optional[np.ndarray] = None) -> Tensor:
        """Timing-path embeddings at (a subset of) the endpoints.

        Parameters
        ----------
        graph:
            Encoded design.
        endpoint_rows:
            Rows to read out; defaults to all of the graph's endpoints.

        Returns
        -------
        Tensor
            ``(K, out_features)`` path embeddings.
        """
        rows = endpoint_rows if endpoint_rows is not None \
            else graph.endpoint_rows
        h = self.node_embeddings(graph)
        return self.lin_out(gather_rows(h, rows))
