"""A small reverse-mode automatic differentiation engine on numpy arrays.

This module is the substrate that replaces PyTorch in the reproduction.  It
implements a :class:`Tensor` type that records the operations applied to it
and can compute gradients of a scalar loss with respect to every tensor that
participated in the computation, via :meth:`Tensor.backward`.

The engine is deliberately small but complete enough for the paper's model:
broadcasting elementwise arithmetic, matrix multiplication, reductions,
shape manipulation, indexing/gather, concatenation, and the nonlinearities
used by the timing predictor (ReLU, tanh, sigmoid, exp, log, softplus).

The graph holds data, not code: each node records the name of the op
that built it and that op's attrs, and :meth:`Tensor.backward` looks up
the op's VJP in the compile layer's registry
(``repro.nn.compile.KERNELS[op]["bwd"]``), the one derivative the
compiled step replays too.  With no closure pointing back at its node,
a graph holds no reference cycle and frees by reference counting as
soon as the loss is dropped.

Example
-------
>>> import numpy as np
>>> from repro.nn import Tensor
>>> w = Tensor(np.ones((3, 2)), requires_grad=True)
>>> x = Tensor(np.arange(6.0).reshape(2, 3))
>>> loss = (x @ w).sum()
>>> loss.backward()
>>> w.grad.shape
(3, 2)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _tracing
from .grad_mode import is_grad_enabled

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting implicitly expands operands; the corresponding
    gradient operation is a sum over the broadcast axes.  This helper undoes
    broadcasting by summing over the leading added axes and over any axis
    that was expanded from size 1.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor's value.
        Stored as ``float64``.
    requires_grad:
        If True, gradients flowing through this tensor are accumulated in
        :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_attrs",
                 "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        #: The op that built this node (None for a leaf) and its attrs
        #: plus any forward state its VJP reads; ``backward`` hands both
        #: to ``repro.nn.compile.KERNELS[_op]["bwd"]``.
        self._op: Optional[str] = None
        self._attrs: Optional[dict] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        Inside a :func:`repro.nn.no_grad` scope the result is detached:
        no parents are recorded (and ``_finish`` records no op), so the
        forward graph is never materialised.  Every op funnels through
        here (via ``_finish``), which is what makes the no-grad fast
        path engine-wide rather than per-op.
        """
        requires = is_grad_enabled() and \
            any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        Each interior node's gradient is handed to its op's VJP,
        ``KERNELS[op]["bwd"]`` of :mod:`repro.nn.compile` — the same
        builder the compiled step schedules — with the node's parents'
        values, its own value, and one gradient sink per parent.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (the usual choice for a scalar loss).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(backward_order(self)):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._op is None:
                node._accumulate(node_grad)
                continue
            parents = node._parents
            ctx = _OpCtx(node._op, node.data, [p.data for p in parents],
                         [_sender(p, grads) if p.requires_grad else None
                          for p in parents],
                         node._attrs, node.data.dtype)
            KERNELS[node._op]["bwd"](ctx)(node_grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data
        return _finish(out_data, (self, other_t), op="add")

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data
        return _finish(out_data, (self, other_t), op="mul")

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return _finish(-self.data, (self,), op="neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data
        return _finish(out_data, (self, other_t), op="truediv")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent
        return _finish(out_data, (self,), op="pow",
                       attrs={"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data
        return _finish(out_data, (self, other_t), op="matmul")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        return _finish(out_data, (self,), op="sum",
                       attrs={"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Biased variance along ``axis`` (differentiable)."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        return _finish(out_data, (self,), op="max",
                       attrs={"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        return _finish(out_data, (self,), op="reshape",
                       attrs={"shape": tuple(shape)})

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        out_data = self.data.transpose(axes_t)
        return _finish(out_data, (self,), op="transpose",
                       attrs={"axes": axes_t})

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        return _finish(np.asarray(out_data), (self,), op="getitem",
                       attrs={"index": index})

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        return _finish(out_data, (self,), op="relu")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return _finish(out_data, (self,), op="tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return _finish(out_data, (self,), op="sigmoid")

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))
        return _finish(out_data, (self,), op="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        return _finish(out_data, (self,), op="log")

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        x = self.data
        out_data = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
        return _finish(out_data, (self,), op="softplus")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        return _finish(out_data, (self,), op="abs")

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        return _finish(out_data, (self,), op="clip",
                       attrs={"low": low, "high": high})

    def sqrt(self) -> "Tensor":
        return self ** 0.5


def backward_order(root: Tensor) -> List[Tensor]:
    """Post-order DFS of the grad-requiring graph below ``root``.

    Reversed, this is the order backward visits nodes: every consumer
    of a node runs its VJP before the node's own gradient is used.
    Eager :meth:`Tensor.backward` and ``repro.nn.compile.CompiledStep``
    both schedule from it, so their gradient sums happen in the same
    order and agree bit for bit.
    """
    order: List[Tensor] = []
    seen: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _sender(parent: Tensor,
            grads: Dict[int, np.ndarray]) -> Callable[[np.ndarray], None]:
    """The gradient sink a VJP calls for ``parent`` during backward.

    A leaf accumulates into ``.grad`` at once.  An interior node's first
    contribution is stored as is and later ones are added (``a + b``);
    the compiled step's accumulators mirror exactly this.
    """
    if parent._op is None:
        return parent._accumulate
    key = id(parent)

    def send(grad: np.ndarray) -> None:
        previous = grads.get(key)
        grads[key] = grad if previous is None else previous + grad
    return send


def _finish(data: np.ndarray, parents: Tuple[Tensor, ...],
            op: Optional[str], attrs: Optional[dict] = None,
            saved: Optional[dict] = None) -> Tensor:
    """Build the graph node of one ``op`` applied to ``parents``.

    A node that requires grad records ``op`` and ``attrs``, plus the
    forward state in ``saved`` that the op's VJP reads (conv2d's
    unfolded columns, max_pool2d's argmax).  An op with no VJP in
    ``repro.nn.compile.KERNELS`` is refused here, when it is built,
    rather than in the middle of a later ``backward()``.  Under
    :func:`no_grad` nothing is recorded.

    While a trace is active every op is appended to the tape with its
    ``attrs`` (never ``saved``), including ones producing
    ``requires_grad=False`` results — their *values* still feed the
    forward replay.  An op without a name poisons compilation (the
    tape records it and the compiler refuses), never silently
    miscomputes.
    """
    out = Tensor._make(np.asarray(data), parents)
    if out.requires_grad:
        if op not in KERNELS:
            raise NotImplementedError(
                f"op {op!r} has no VJP: register it in "
                "repro.nn.compile.KERNELS before differentiating it")
        out._op = op
        out._attrs = {**(attrs or {}), **(saved or {})}
    if _tracing.ACTIVE:
        _tracing.emit(op, out, parents, attrs)
    return out


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    return _finish(out_data, tuple(tensors), op="concatenate",
                   attrs={"axis": axis, "sizes": tuple(sizes)})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    return _finish(out_data, tuple(tensors), op="stack",
                   attrs={"axis": axis})


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select (condition is not differentiated)."""
    a_t, b_t = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a_t.data, b_t.data)
    return _finish(out_data, (a_t, b_t), op="where",
                   attrs={"cond": cond})


def gather_rows(source: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``source[index]`` differentiably (index is integer array)."""
    idx = np.asarray(index, dtype=np.int64)
    out_data = source.data[idx]
    return _finish(out_data, (source,), op="gather_rows",
                   attrs={"index": idx})


def scatter_add_rows(values: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Sum ``values`` rows into ``num_rows`` buckets given by ``index``.

    The inverse of :func:`gather_rows`: ``out[i] = sum_j values[j]`` over all
    ``j`` with ``index[j] == i``.  Used for message aggregation in the GNN.
    """
    idx = np.asarray(index, dtype=np.int64)
    out_shape = (num_rows,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=values.data.dtype)
    np.add.at(out_data, idx, values.data)
    return _finish(out_data, (values,), op="scatter_add_rows",
                   attrs={"index": idx, "num_rows": num_rows})


def no_grad_copy(tensor: Tensor) -> np.ndarray:
    """Return a detached copy of the tensor's data."""
    return tensor.data.copy()


# The VJP registry lives in the compile layer, which imports this module;
# binding it last lets either module be imported first.
from .compile import KERNELS, _OpCtx
