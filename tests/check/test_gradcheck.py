"""Tests for the autograd contract auditor."""

import numpy as np

from repro.check.gradcheck import (
    CASES,
    OpCase,
    audit_coverage,
    check_case,
    check_no_grad,
    functional_ops,
    run_gradcheck,
)
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.compile import KERNELS
from repro.nn.tensor import _finish


class TestDiscovery:
    def test_functional_surface_discovered(self):
        ops = functional_ops()
        assert {"conv2d", "max_pool2d", "avg_pool2d", "softmax",
                "log_softmax", "mse_loss", "gaussian_nll",
                "dropout"} <= set(ops)
        # Private helpers and re-exports stay out of the audit surface.
        assert "Tensor" not in ops
        assert "as_tensor" not in ops

    def test_every_functional_op_has_a_case(self):
        assert audit_coverage() == []

    def test_fused_sweep_is_enrolled(self):
        assert any(c.op == "levelized_sweep" for c in CASES)

    def test_new_op_without_case_fails_audit(self, monkeypatch):
        def frobnicate(x):
            return x

        frobnicate.__module__ = F.__name__
        monkeypatch.setattr(F, "frobnicate", frobnicate, raising=False)
        findings = audit_coverage()
        assert [f for f in findings if "frobnicate" in f.path]


def _unary_op(monkeypatch, name, forward, vjp):
    """A test-local unary op whose derivative is its ``KERNELS`` entry.

    ``forward(x)`` maps the input array to the output array and
    ``vjp(grad, x)`` gives the gradient sent to the input (``None``
    sends nothing).  The entry is removed again after the test.
    """
    def fwd(k):
        x, out = k.ins[0], k.out

        def run():
            out[...] = forward(x)
        return run

    def bwd(k):
        x, acc = k.ins[0], k.accs[0]

        def run(grad):
            g = vjp(grad, x)
            if g is not None and acc is not None:
                acc(g)
        return run

    monkeypatch.setitem(KERNELS, name, {"fwd": fwd, "bwd": bwd})
    return lambda x: _finish(forward(x.data), (x,), op=name)


class TestHarness:
    def test_all_registered_cases_pass(self):
        assert run_gradcheck() == []

    def test_wrong_backward_is_caught(self, monkeypatch):
        bad_scale = _unary_op(monkeypatch, "bad_scale",
                              lambda x: x * 2.0,
                              lambda g, x: g * 3.0)  # truth is 2.0
        case = OpCase("bad_scale", "unit",
                      lambda: (bad_scale,
                               {"x": np.linspace(-1.0, 1.0, 5)}))
        problems = check_case(case)
        assert any("gradient mismatch" in p for p in problems)

    def test_nan_forward_is_caught(self, monkeypatch):
        nan_op = _unary_op(monkeypatch, "nan_op",
                           lambda x: np.full_like(x, np.nan),
                           lambda g, x: g)
        case = OpCase("nan_op", "unit",
                      lambda: (nan_op, {"x": np.ones(3)}))
        assert any("NaN" in p for p in check_case(case))

    def test_nan_gradient_is_caught(self, monkeypatch):
        nan_grad = _unary_op(monkeypatch, "nan_grad",
                             lambda x: x.copy(),
                             lambda g, x: np.full_like(g, np.inf))
        case = OpCase("nan_grad", "unit",
                      lambda: (nan_grad, {"x": np.ones(3)}))
        assert any("NaN/inf" in p for p in check_case(case))

    def test_dtype_drift_is_caught(self, monkeypatch):
        double = _unary_op(monkeypatch, "downcast",
                           lambda x: x * 2.0, lambda g, x: g * 2.0)

        def downcast(x):
            # The Tensor constructor coerces to float64, so a drifting op
            # is one that swaps the buffer after graph construction —
            # exactly the silent failure mode the auditor screens for.
            out = double(x)
            out.data = out.data.astype(np.float32)
            return out

        case = OpCase("downcast", "unit",
                      lambda: (downcast, {"x": np.ones(3)}))
        assert any("dtype" in p for p in check_case(case))

    def test_missing_gradient_is_caught(self, monkeypatch):
        swallow = _unary_op(monkeypatch, "swallow",
                            lambda x: x * 2.0, lambda g, x: None)
        case = OpCase("swallow", "unit",
                      lambda: (swallow, {"x": np.ones(3)}))
        assert any("no gradient reached" in p for p in check_case(case))

    def test_non_tensor_return_is_caught(self):
        case = OpCase("raw", "unit",
                      lambda: (lambda x: x.data, {"x": np.ones(3)}))
        assert any("expected Tensor" in p for p in check_case(case))

    def test_correct_custom_op_passes(self, monkeypatch):
        double = _unary_op(monkeypatch, "double",
                           lambda x: x * 2.0, lambda g, x: g * 2.0)
        case = OpCase("double", "unit",
                      lambda: (double, {"x": np.linspace(-1.0, 1.0, 7)}))
        assert check_case(case) == []

    def test_no_grad_contract_holds_for_registry(self):
        for op_case in CASES:
            assert check_no_grad(op_case) == [], op_case.op

    def test_no_grad_graph_leak_is_caught(self, monkeypatch):
        _unary_op(monkeypatch, "leaky", lambda x: x * 2.0,
                  lambda g, x: g * 2.0)

        def leaky(x):
            # Hand-wires a graph node, bypassing the Tensor._make gate
            # that normally drops wiring under no_grad().
            out = Tensor(x.data * 2.0, requires_grad=True)
            out._parents = (x,)
            out._op = "leaky"
            return out

        case = OpCase("leaky", "unit",
                      lambda: (leaky, {"x": np.ones(3)}))
        problems = check_no_grad(case)
        assert any("parent" in p for p in problems)
        assert any("records an op" in p for p in problems)
        assert any("requires_grad" in p for p in problems)

    def test_no_grad_value_drift_is_caught(self, monkeypatch):
        from repro.nn import is_grad_enabled

        # An inference "fast path" that is not bit-identical.
        drifty = _unary_op(
            monkeypatch, "drifty",
            lambda x: x * (2.0 if is_grad_enabled() else 2.0 + 1e-12),
            lambda g, x: g * 2.0)
        case = OpCase("drifty", "unit",
                      lambda: (drifty, {"x": np.ones(3)}))
        assert any("bit-identical" in p for p in check_no_grad(case))

    def test_no_grad_correct_op_passes(self, monkeypatch):
        double = _unary_op(monkeypatch, "double",
                           lambda x: x * 2.0, lambda g, x: g * 2.0)
        case = OpCase("double", "unit",
                      lambda: (double, {"x": np.linspace(-1.0, 1.0, 7)}))
        assert check_no_grad(case) == []

    def test_case_inputs_are_not_shared_between_runs(self, monkeypatch):
        """check_case must not mutate the builder's arrays in place."""
        base = np.linspace(0.0, 1.0, 4)
        holder = {"x": base}
        identity = _unary_op(monkeypatch, "identity",
                             lambda x: x.copy(), lambda g, x: g)
        case = OpCase("identity", "unit", lambda: (identity, holder))
        check_case(case)
        np.testing.assert_array_equal(base, np.linspace(0.0, 1.0, 4))
