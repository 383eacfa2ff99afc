"""Gradcheck coverage for the fused kernels, via repro.check.

Three kernels are hand-fused for speed: the union-graph levelised
sweep, the BLAS-backed ``conv2d``, and the non-overlapping
``max_pool2d`` backward.  Each is audited here with the
:mod:`repro.check.gradcheck` harness — finite differences against the
analytic gradients — and against a test-local reference of the
legacy (seed) form it replaced: an einsum convolution, an
``np.add.at`` pool scatter, and the per-level gather/scatter autograd
composition.
"""

import numpy as np
import pytest

from repro.check.gradcheck import OpCase, check_case, make_sweep_fixture
from repro.model.gnn import levelized_sweep
from repro.nn import Tensor, gather_rows, scatter_add_rows
from repro.nn import functional as F


def _col2im_reference(cols, x_shape, kernel, stride, padding, oh, ow):
    """Test-local fold of im2col columns back into NCHW (its adjoint)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += patches[:, :, i, j]
    return out[:, :, padding:hp - padding, padding:wp - padding]


def assert_case_clean(op, label, build, atol=1e-5):
    problems = check_case(OpCase(op, label, build, atol=atol))
    assert problems == [], "\n".join(problems)


class TestFusedConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_blas_conv2d_gradcheck(self, stride, padding):
        rng = np.random.default_rng(31)
        inputs = {"x": rng.standard_normal((2, 3, 6, 6)),
                  "weight": rng.standard_normal((4, 3, 3, 3)) * 0.3,
                  "bias": rng.standard_normal(4)}
        assert_case_clean(
            "conv2d", f"blas-s{stride}-p{padding}",
            lambda: (lambda x, weight, bias: F.conv2d(
                x, weight, bias, stride=stride, padding=padding), inputs))

    def test_blas_matches_legacy_einsum_gradients(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        tx = Tensor(x.copy(), requires_grad=True)
        tw = Tensor(w.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        out = F.conv2d(tx, tw, tb, stride=1, padding=1)
        (out * out).sum().backward()

        # Reference: the einsum contraction over im2col columns.
        cols, oh, ow = F._im2col(x, (3, 3), 1, 1)
        w_mat = w.reshape(3, -1)
        ref_out = np.einsum("ok,nkl->nol", w_mat, cols) + b[None, :, None]
        grad = 2.0 * ref_out
        np.testing.assert_allclose(out.data.reshape(ref_out.shape),
                                   ref_out, atol=1e-12)
        np.testing.assert_allclose(
            tw.grad, np.einsum("nol,nkl->ok", grad, cols).reshape(w.shape),
            atol=1e-10)
        np.testing.assert_allclose(tb.grad, grad.sum(axis=(0, 2)),
                                   atol=1e-10)
        g_cols = np.einsum("ok,nol->nkl", w_mat, grad)
        np.testing.assert_allclose(
            tx.grad,
            _col2im_reference(g_cols, x.shape, (3, 3), 1, 1, oh, ow),
            atol=1e-10)

    def test_precomputed_cols_match_unfold(self):
        """``cols=`` is the same convolution, values and gradients."""
        rng = np.random.default_rng(30)
        x = rng.standard_normal((3, 2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        results = []
        for cols in (None, F._im2col(x, (3, 3), 1, 1)):
            tx = Tensor(x.copy(), requires_grad=True)
            tw = Tensor(w.copy(), requires_grad=True)
            tb = Tensor(b.copy(), requires_grad=True)
            out = F.conv2d(tx, tw, tb, stride=1, padding=1, cols=cols)
            (out * out).sum().backward()
            results.append((out.data, tx.grad, tw.grad, tb.grad))
        for plain, cached in zip(*results):
            np.testing.assert_array_equal(plain, cached)


class TestFusedMaxPool:
    @staticmethod
    def tie_free_input(shape, seed):
        rng = np.random.default_rng(seed)
        flat = np.arange(int(np.prod(shape)), dtype=np.float64)
        rng.shuffle(flat)
        return (flat * 1e-2).reshape(shape)

    def test_non_overlapping_backward_gradcheck(self):
        x = self.tie_free_input((2, 3, 6, 6), seed=33)
        assert_case_clean(
            "max_pool2d", "fused-non-overlapping",
            lambda: (lambda x: F.max_pool2d(x, kernel=2, stride=2),
                     {"x": x}))

    def test_non_overlapping_matches_legacy_scatter(self):
        x = self.tie_free_input((2, 2, 8, 8), seed=34)
        t = Tensor(x.copy(), requires_grad=True)
        out = F.max_pool2d(t, kernel=2, stride=2)
        (out * out).sum().backward()

        # Reference: np.add.at scatter of each window's gradient to
        # its argmax cell.
        windows = x.reshape(2, 2, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5)
        arg = windows.reshape(2, 2, 4, 4, 4).argmax(axis=-1)
        ki, kj = np.divmod(arg, 2)
        n_i, c_i, oh_i, ow_i = np.indices(arg.shape)
        ref = np.zeros_like(x)
        np.add.at(ref, (n_i, c_i, oh_i * 2 + ki, ow_i * 2 + kj),
                  2.0 * out.data)
        np.testing.assert_allclose(t.grad, ref, atol=1e-12)


def _reference_sweep(graph, s, lin_net, lin_cell):
    """The per-level autograd composition the fused sweep replaced."""
    from repro.model.gnn import _plan_for

    n = graph.num_nodes
    level0 = graph.levels[0]
    h = scatter_add_rows(gather_rows(s, level0).relu(), level0, n)
    for step in _plan_for(graph).steps:
        dst = step["dst"]
        total = gather_rows(s, dst)
        for kind, lin in (("net", lin_net), ("cell", lin_cell)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            msgs = lin(gather_rows(h, src))
            agg = scatter_add_rows(msgs, step[f"{kind}_dst_local"],
                                   len(dst))
            total = total + agg * Tensor(step[f"{kind}_inv_count"])
        h = h + scatter_add_rows(total.relu(), dst, n)
    return h


class TestFusedLevelizedSweep:
    def test_sweep_gradcheck(self):
        graph, plan, inputs = make_sweep_fixture(seed=35)
        assert_case_clean(
            "levelized_sweep", "fixture-seed-35",
            lambda: (lambda s, w_net, w_cell: levelized_sweep(
                s, w_net, w_cell, plan, graph.levels[0],
                graph.features.shape[0]), inputs),
            atol=1e-4)

    def test_union_graph_sweep_gradcheck(self):
        """The sweep stays gradcheck-clean on a merged (union) graph."""
        from repro.features import PinGraph
        from repro.model.gnn import _plan_for
        from repro.train.fused import merge_pin_graphs

        graph_a, _, _ = make_sweep_fixture(seed=36)
        graph_b = PinGraph(
            features=np.zeros((5, 1)),
            net_edges=np.array([[0, 1], [2, 3]], dtype=np.int64),
            cell_edges=np.array([[1, 3], [2, 4]], dtype=np.int64),
            levels=[np.array([0, 1]), np.array([2, 3]), np.array([4])],
            row_of_pin={},
            endpoint_rows=np.array([4]),
            endpoint_names=["ep"],
        )
        union = merge_pin_graphs([graph_a, graph_b])
        plan = _plan_for(union)
        rng = np.random.default_rng(37)
        inputs = {
            "s": rng.standard_normal((union.num_nodes, 3)) + 0.4,
            "w_net": rng.standard_normal((3, 3)) * 0.5,
            "w_cell": rng.standard_normal((3, 3)) * 0.5,
        }
        assert_case_clean(
            "levelized_sweep", "union-graph",
            lambda: (lambda s, w_net, w_cell: levelized_sweep(
                s, w_net, w_cell, plan, union.levels[0],
                union.num_nodes), inputs),
            atol=1e-4)

    def test_fused_matches_reference_composition(self):
        """Same gradients as the per-level autograd composition."""
        from repro.model.gnn import TimingGNN

        graph, _, _ = make_sweep_fixture(seed=38)
        results = {}
        for mode in ("fused", "reference"):
            gnn = TimingGNN(1, hidden=3, out_features=2,
                            rng=np.random.default_rng(40))
            graph.features = np.asarray(
                np.random.default_rng(41).standard_normal((8, 1)))
            if mode == "reference":
                s = gnn.lin_self(Tensor(graph.features))
                h = _reference_sweep(graph, s, gnn.lin_net, gnn.lin_cell)
                out = gnn.lin_out(gather_rows(h, graph.endpoint_rows))
            else:
                out = gnn(graph)
            (out * out).sum().backward()
            results[mode] = {name: p.grad.copy() for name, p
                             in gnn.named_parameters() if p.grad is not None}
        assert results["fused"].keys() == results["reference"].keys()
        for name in results["fused"]:
            np.testing.assert_allclose(
                results["fused"][name], results["reference"][name],
                atol=1e-9, err_msg=name)
