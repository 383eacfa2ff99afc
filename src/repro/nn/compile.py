"""Trace-once / replay-many compilation of the training step.

The autograd engine rebuilds an identical graph every training step:
Tensor wrappers, parent tuples and op attrs are allocated and freed
over a topology that never changes.  This module removes that
steady-state overhead:

1. **Trace** — run one eager step inside :func:`trace`.  Every op the
   engine constructs is appended to a :class:`~repro.nn._tracing.Tape`
   (op name, output tensor, parents, attrs) in construction order,
   which is a valid topological order of the forward graph.
2. **Compile** — :class:`CompiledStep` filters the tape to the
   ancestors of the requested outputs, adopts the traced tensors'
   ``.data`` arrays as its preallocated forward buffers, allocates a
   gradient buffer per node, and builds two flat schedules of no-arg
   numpy closures: the forward ops (``out=`` kernels writing in place)
   and the backward ops in **exactly the order the eager engine's DFS
   would process them**.
3. **Replay** — copy the per-step inputs into their fixed buffers, run
   the forward list, seed the root gradient, run the backward list,
   and hand the accumulated leaf gradients to the optimizer.  No
   Tensor graph, no closures built per step, no steady-state
   allocation on the schedule itself.

**One VJP per op.**  :data:`KERNELS` maps each primitive to a forward
kernel builder and a ``bwd`` builder, and that ``bwd`` builder is the
op's only derivative: eager :meth:`Tensor.backward` builds it per node
from the node's recorded op and attrs and calls it once, while the
compiled step builds it once over preallocated buffers and replays it.

Bit-for-bit equivalence with eager execution is a hard contract (it is
what keeps eager and compiled checkpoints interchangeable): every
forward kernel performs the same numpy arithmetic in the same order as
the eager op; the backward is one VJP, shared; gradient accumulation
mirrors the engine's first-contribution-assigns /
later-contributions-add semantics; and both engines order the backward
by the same :func:`~repro.nn.tensor.backward_order`.  ``repro check``
enforces the contract per op (see
``repro.check.gradcheck.check_compiled``).

**Buffer ownership.**  Forward buffers are the traced tensors' own
``.data`` arrays, so view relationships recorded during the trace
(reshape/transpose/basic slicing) stay live: writing a parent buffer
in place updates every aliased child for free, and such alias ops cost
nothing at replay.  Per-step inputs are *copied into* their fixed
buffers (never rebound), which is what keeps those views valid.
Parameters are read through their live ``Tensor.data`` arrays; a
replay verifies the arrays were not rebound and raises
:class:`ReplayMismatch` (a retrace trigger) otherwise.

**float32 mode.**  ``dtype="float32"`` re-allocates every buffer in
single precision, casts constants once at compile time and parameters
on every replay, and casts leaf gradients back to float64 for the
optimizer.  Alias ops degrade to copies (the float32 buffers no longer
share memory).  Loss values typically agree with float64 eager to
~1e-5 relative; see DESIGN.md §11 for measured tolerances.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _tracing
from . import functional as F
from ._tracing import Tape, TapeEntry
from .tensor import Tensor, _unbroadcast, backward_order

__all__ = [
    "CompileError", "ReplayMismatch", "CompiledStep", "trace",
    "step_input", "step_index", "KERNELS", "PRIMITIVE_OPS",
    "COMPOSITE_OPS", "UNTRACEABLE_OPS", "TraceOp", "tape_metadata",
]


class CompileError(RuntimeError):
    """The traced tape cannot be compiled (unknown/stochastic op...)."""


class ReplayMismatch(CompileError):
    """Replay-time state no longer matches the compiled program.

    Raised when a parameter array was rebound or an input's shape
    changed; callers should fall back to eager and retrace.
    """


# ----------------------------------------------------------------------
# Tracing front end
# ----------------------------------------------------------------------
@contextmanager
def trace():
    """Record every op built inside the block onto a fresh tape."""
    tape = Tape()
    _tracing.push_tape(tape)
    try:
        yield tape
    finally:
        _tracing.pop_tape()


def step_input(name: str, array: np.ndarray) -> Tensor:
    """Wrap a per-step input array as a leaf tensor, named for replay.

    During a trace the tensor is registered on the tape under ``name``;
    replays copy the step's fresh value into the (fixed) buffer.
    Outside a trace this is just ``Tensor(array)``.
    """
    tensor = Tensor(np.asarray(array, dtype=np.float64))
    tape = _tracing.current_tape()
    if tape is not None:
        if name in tape.inputs:
            raise CompileError(f"duplicate step input {name!r}")
        tape.inputs[name] = tensor
    return tensor


def step_index(name: str, index: np.ndarray) -> np.ndarray:
    """Register a per-step integer index array (op attr, not a tensor).

    Ops that consume the *returned* array as an attr (``gather_rows``)
    get a dynamic index buffer in the compiled program, refreshed from
    the replay inputs under ``name``.
    """
    idx = np.asarray(index, dtype=np.int64)
    tape = _tracing.current_tape()
    if tape is not None:
        if name in tape.input_arrays or name in tape.inputs:
            raise CompileError(f"duplicate step input {name!r}")
        tape.index_names[id(idx)] = name
        tape.input_arrays[name] = idx
    return idx


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
class _OpCtx:
    """Everything a kernel builder needs about one op application.

    The compiled step builds one per tape entry over its own buffers;
    eager backward builds one per graph node over the node's arrays.
    """

    __slots__ = ("op", "out", "ins", "accs", "attrs", "dtype", "f64")

    def __init__(self, op: str, out: np.ndarray, ins: List[np.ndarray],
                 accs: List[Optional[Callable]], attrs: Dict[str, Any],
                 dtype: np.dtype) -> None:
        self.op = op
        self.out = out
        self.ins = ins
        self.accs = accs
        self.attrs = attrs
        self.dtype = dtype
        self.f64 = dtype == np.float64


#: op name -> {"fwd": builder, "bwd": builder}.  Builders take an
#: :class:`_OpCtx` and return a no-arg forward callable (or ``None``
#: for a free alias) / a one-arg ``fn(grad)`` backward callable.  The
#: ``bwd`` builders are the engine's only derivatives: eager backward
#: calls them too, with one-shot contexts (see ``Tensor.backward``),
#: so a ``bwd`` builder must not mutate ``attrs`` or the gradient.
KERNELS: Dict[str, Dict[str, Callable[[_OpCtx], Optional[Callable]]]] = {}


def _kernel(op: str):
    def register(builder_pair):
        fwd, bwd = builder_pair()
        KERNELS[op] = {"fwd": fwd, "bwd": bwd}
        return builder_pair
    return register


def _maybe_alias(k: _OpCtx) -> bool:
    """True when the traced out buffer is already a live view of in[0]."""
    return k.f64 and np.shares_memory(k.out, k.ins[0])


@_kernel("add")
def _op_add():
    def fwd(k):
        a, b, out = k.ins[0], k.ins[1], k.out
        return lambda: np.add(a, b, out=out)

    def bwd(k):
        (a, b), (acc_a, acc_b) = k.ins, k.accs
        a_shape, b_shape = a.shape, b.shape

        def fn(g):
            if acc_a is not None:
                acc_a(_unbroadcast(g, a_shape))
            if acc_b is not None:
                acc_b(_unbroadcast(g, b_shape))
        return fn
    return fwd, bwd


@_kernel("mul")
def _op_mul():
    def fwd(k):
        a, b, out = k.ins[0], k.ins[1], k.out
        return lambda: np.multiply(a, b, out=out)

    def bwd(k):
        (a, b), (acc_a, acc_b) = k.ins, k.accs
        a_shape, b_shape = a.shape, b.shape

        def fn(g):
            if acc_a is not None:
                acc_a(_unbroadcast(g * b, a_shape))
            if acc_b is not None:
                acc_b(_unbroadcast(g * a, b_shape))
        return fn
    return fwd, bwd


@_kernel("neg")
def _op_neg():
    def fwd(k):
        a, out = k.ins[0], k.out
        return lambda: np.negative(a, out=out)

    def bwd(k):
        acc = k.accs[0]
        return lambda g: acc(-g)
    return fwd, bwd


@_kernel("truediv")
def _op_truediv():
    def fwd(k):
        a, b, out = k.ins[0], k.ins[1], k.out
        return lambda: np.divide(a, b, out=out)

    def bwd(k):
        (a, b), (acc_a, acc_b) = k.ins, k.accs
        a_shape, b_shape = a.shape, b.shape

        def fn(g):
            if acc_a is not None:
                acc_a(_unbroadcast(g / b, a_shape))
            if acc_b is not None:
                acc_b(_unbroadcast(-g * a / (b ** 2), b_shape))
        return fn
    return fwd, bwd


@_kernel("pow")
def _op_pow():
    def fwd(k):
        a, out = k.ins[0], k.out
        exponent = k.attrs["exponent"]

        # ``a ** e`` (not np.power(a, e, out=...)): ndarray.__pow__ has
        # fast paths (e == 2, 0.5, ...) the ufunc call skips, and bit
        # parity with the eager op matters more than the temporary.
        def f():
            out[...] = a ** exponent
        return f

    def bwd(k):
        a, acc = k.ins[0], k.accs[0]
        exponent = k.attrs["exponent"]
        return lambda g: acc(g * exponent * a ** (exponent - 1))
    return fwd, bwd


@_kernel("matmul")
def _op_matmul():
    def fwd(k):
        a, b, out = k.ins[0], k.ins[1], k.out
        if a.ndim >= 2 and b.ndim >= 2:
            return lambda: np.matmul(a, b, out=out)

        def f():
            out[...] = a @ b
        return f

    def bwd(k):
        (a, b), (acc_a, acc_b) = k.ins, k.accs
        a_shape, b_shape = a.shape, b.shape

        def fn(g):
            if acc_a is not None:
                if b.ndim == 1:
                    g_a = np.outer(g, b) if g.ndim == 1 \
                        else g[..., None] * b
                else:
                    g_a = g @ np.swapaxes(b, -1, -2)
                acc_a(_unbroadcast(np.asarray(g_a), a_shape))
            if acc_b is not None:
                if a.ndim == 1:
                    g_b = np.outer(a, g) if g.ndim == 1 \
                        else a[..., None] @ g[..., None, :]
                else:
                    g_b = np.swapaxes(a, -1, -2) @ g
                acc_b(_unbroadcast(np.asarray(g_b), b_shape))
        return fn
    return fwd, bwd


@_kernel("sum")
def _op_sum():
    def fwd(k):
        a, out = k.ins[0], k.out
        axis, keepdims = k.attrs["axis"], k.attrs["keepdims"]
        return lambda: a.sum(axis=axis, keepdims=keepdims, out=out)

    def bwd(k):
        a, acc = k.ins[0], k.accs[0]
        axis, keepdims = k.attrs["axis"], k.attrs["keepdims"]
        a_shape = a.shape

        def fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            acc(np.broadcast_to(g, a_shape))
        return fn
    return fwd, bwd


@_kernel("max")
def _op_max():
    def fwd(k):
        a, out = k.ins[0], k.out
        axis, keepdims = k.attrs["axis"], k.attrs["keepdims"]
        return lambda: a.max(axis=axis, keepdims=keepdims, out=out)

    def bwd(k):
        a, out, acc = k.ins[0], k.out, k.accs[0]
        axis, keepdims = k.attrs["axis"], k.attrs["keepdims"]

        def fn(g):
            expanded = out
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out, axis=axis)
            mask = (a == expanded).astype(a.dtype)
            denom = mask.sum(axis=axis, keepdims=True) \
                if axis is not None else mask.sum()
            acc(mask * g / denom)
        return fn
    return fwd, bwd


@_kernel("reshape")
def _op_reshape():
    def fwd(k):
        if _maybe_alias(k):
            return None
        a, out = k.ins[0], k.out

        def f():
            out[...] = a.reshape(out.shape)
        return f

    def bwd(k):
        acc = k.accs[0]
        a_shape = k.ins[0].shape
        return lambda g: acc(g.reshape(a_shape))
    return fwd, bwd


@_kernel("transpose")
def _op_transpose():
    def fwd(k):
        if _maybe_alias(k):
            return None
        a, out = k.ins[0], k.out
        axes = k.attrs["axes"]

        def f():
            out[...] = a.transpose(axes)
        return f

    def bwd(k):
        acc = k.accs[0]
        axes = k.attrs["axes"]
        inverse = None if axes is None else tuple(np.argsort(axes))

        def fn(g):
            if inverse is None:
                acc(g.transpose())
            else:
                acc(g.transpose(inverse))
        return fn
    return fwd, bwd


@_kernel("getitem")
def _op_getitem():
    def fwd(k):
        if _maybe_alias(k):
            return None
        a, out = k.ins[0], k.out
        index = k.attrs["index"]

        def f():
            out[...] = a[index]
        return f

    def bwd(k):
        a, acc = k.ins[0], k.accs[0]
        index = k.attrs["index"]
        full = np.zeros(a.shape, dtype=a.dtype)

        def fn(g):
            full.fill(0.0)
            np.add.at(full, index, g)
            acc(full)
        return fn
    return fwd, bwd


def _make_unary(forward_inplace, backward_expr):
    def fwd(k):
        a, out = k.ins[0], k.out
        return lambda: forward_inplace(a, out)

    def bwd(k):
        a, out, acc = k.ins[0], k.out, k.accs[0]
        return lambda g: acc(backward_expr(g, a, out))
    return fwd, bwd


@_kernel("relu")
def _op_relu():
    return _make_unary(
        lambda a, out: np.maximum(a, 0.0, out=out),
        lambda g, a, out: g * (a > 0),
    )


@_kernel("tanh")
def _op_tanh():
    return _make_unary(
        lambda a, out: np.tanh(a, out=out),
        lambda g, a, out: g * (1.0 - out ** 2),
    )


@_kernel("sigmoid")
def _op_sigmoid():
    def _sigmoid_out(a, out):
        # Mirrors 1 / (1 + exp(-clip(a))) step for step.
        np.clip(a, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
    return _make_unary(
        _sigmoid_out,
        lambda g, a, out: g * out * (1.0 - out),
    )


@_kernel("exp")
def _op_exp():
    def _exp_out(a, out):
        np.clip(a, -700.0, 700.0, out=out)
        np.exp(out, out=out)
    return _make_unary(_exp_out, lambda g, a, out: g * out)


@_kernel("log")
def _op_log():
    return _make_unary(
        lambda a, out: np.log(a, out=out),
        lambda g, a, out: g / a,
    )


@_kernel("softplus")
def _op_softplus():
    def _softplus_out(a, out):
        out[...] = np.where(a > 30.0,
                            a, np.log1p(np.exp(np.minimum(a, 30.0))))

    def _grad(g, a, out):
        sig = 1.0 / (1.0 + np.exp(-np.clip(a, -60.0, 60.0)))
        return g * sig
    return _make_unary(_softplus_out, _grad)


@_kernel("abs")
def _op_abs():
    return _make_unary(
        lambda a, out: np.abs(a, out=out),
        lambda g, a, out: g * np.sign(a),
    )


@_kernel("clip")
def _op_clip():
    def fwd(k):
        a, out = k.ins[0], k.out
        low, high = k.attrs["low"], k.attrs["high"]
        return lambda: np.clip(a, low, high, out=out)

    def bwd(k):
        a, acc = k.ins[0], k.accs[0]
        low, high = k.attrs["low"], k.attrs["high"]
        return lambda g: acc(g * ((a >= low) & (a <= high)))
    return fwd, bwd


@_kernel("log_softmax")
def _op_log_softmax():
    def fwd(k):
        a, out = k.ins[0], k.out
        axis = k.attrs["axis"]
        return lambda: F._log_softmax_raw(a, axis, out=out)

    def bwd(k):
        out, acc = k.out, k.accs[0]
        axis = k.attrs["axis"]

        def fn(g):
            softm = np.exp(out)
            acc(g - softm * g.sum(axis=axis, keepdims=True))
        return fn
    return fwd, bwd


@_kernel("concatenate")
def _op_concatenate():
    def _part_slices(k):
        axis = k.attrs["axis"]
        offsets = np.cumsum([0] + list(k.attrs["sizes"]))
        ndim = k.out.ndim
        slices = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = [slice(None)] * ndim
            index[axis] = slice(int(start), int(stop))
            slices.append(tuple(index))
        return slices

    def fwd(k):
        parts, out = list(k.ins), k.out
        slices = _part_slices(k)

        def f():
            for part, sl in zip(parts, slices):
                out[sl] = part
        return f

    def bwd(k):
        accs = list(k.accs)
        slices = _part_slices(k)

        def fn(g):
            for acc, sl in zip(accs, slices):
                if acc is not None:
                    acc(g[sl])
        return fn
    return fwd, bwd


@_kernel("stack")
def _op_stack():
    def fwd(k):
        parts, out = list(k.ins), k.out
        axis = k.attrs["axis"]
        prefix = (slice(None),) * axis
        slots = [prefix + (i,) for i in range(len(parts))]

        def f():
            for part, sl in zip(parts, slots):
                out[sl] = part
        return f

    def bwd(k):
        accs = list(k.accs)
        axis = k.attrs["axis"]
        count = len(k.ins)

        def fn(g):
            pieces = np.split(g, count, axis=axis)
            for acc, piece in zip(accs, pieces):
                if acc is not None:
                    acc(np.squeeze(piece, axis=axis))
        return fn
    return fwd, bwd


@_kernel("where")
def _op_where():
    def fwd(k):
        a, b, out = k.ins[0], k.ins[1], k.out
        cond = k.attrs["cond"]

        def f():
            out[...] = np.where(cond, a, b)
        return f

    def bwd(k):
        (a, b), (acc_a, acc_b) = k.ins, k.accs
        cond = k.attrs["cond"]
        a_shape, b_shape = a.shape, b.shape

        def fn(g):
            if acc_a is not None:
                acc_a(_unbroadcast(g * cond, a_shape))
            if acc_b is not None:
                acc_b(_unbroadcast(g * (~cond), b_shape))
        return fn
    return fwd, bwd


@_kernel("gather_rows")
def _op_gather_rows():
    def fwd(k):
        a, out = k.ins[0], k.out
        idx = k.attrs["index"]

        def f():
            out[...] = a[idx]
        return f

    def bwd(k):
        a, acc = k.ins[0], k.accs[0]
        idx = k.attrs["index"]
        full = np.zeros(a.shape, dtype=a.dtype)

        def fn(g):
            full.fill(0.0)
            np.add.at(full, idx, g)
            acc(full)
        return fn
    return fwd, bwd


@_kernel("scatter_add_rows")
def _op_scatter_add_rows():
    def fwd(k):
        a, out = k.ins[0], k.out
        idx = k.attrs["index"]

        def f():
            out.fill(0.0)
            np.add.at(out, idx, a)
        return f

    def bwd(k):
        acc = k.accs[0]
        idx = k.attrs["index"]
        return lambda g: acc(g[idx])
    return fwd, bwd


@_kernel("conv2d")
def _op_conv2d():
    def _geometry(k):
        x, w = k.ins[0], k.ins[1]
        stride, padding = k.attrs["stride"], k.attrs["padding"]
        n, c, h, wdt = x.shape
        c_out, c_in, kh, kw = w.shape
        hp, wp = h + 2 * padding, wdt + 2 * padding
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        return n, c, h, wdt, c_out, kh, kw, hp, wp, oh, ow

    def fwd(k):
        x, w = k.ins[0], k.ins[1]
        bias = k.ins[2] if k.attrs["has_bias"] else None
        stride, padding = k.attrs["stride"], k.attrs["padding"]
        n, c, _, _, c_out, kh, kw, hp, wp, oh, ow = _geometry(k)
        # Padded staging buffer: borders zeroed once, interior is
        # rewritten per replay (matches np.pad's zero fill).
        xpad = np.zeros((n, c, hp, wp), dtype=k.dtype) if padding else x
        cols6 = np.empty((n, c, kh, kw, oh, ow), dtype=k.dtype)
        k.attrs["_cols6"] = cols6   # shared with the backward kernel
        out3 = k.out.reshape(n, c_out, oh * ow)
        wmat = w.reshape(c_out, c * kh * kw)

        def f():
            cols = F._im2col_out(x, (kh, kw), stride, padding, xpad, cols6)
            np.matmul(wmat, cols, out=out3)
            if bias is not None:
                np.add(out3, bias[None, :, None], out=out3)
        return f

    def bwd(k):
        x, w = k.ins[0], k.ins[1]
        acc_x, acc_w = k.accs[0], k.accs[1]
        acc_b = k.accs[2] if k.attrs["has_bias"] else None
        stride, padding = k.attrs["stride"], k.attrs["padding"]
        n, c, h, wdt, c_out, kh, kw, hp, wp, oh, ow = _geometry(k)
        ckk = c * kh * kw
        cols6 = k.attrs["_cols6"]
        cols = cols6.reshape(n, ckk, oh * ow)
        wmat = w.reshape(c_out, ckk)
        w_shape = w.shape
        gcols = np.empty((n, ckk, oh * ow), dtype=k.dtype) \
            if acc_x is not None else None
        if acc_x is not None:
            gx = np.empty((n, c, h, wdt), dtype=k.dtype)
            gpad = np.empty((n, c, hp, wp), dtype=k.dtype) if padding else gx
        else:
            gx = gpad = None

        def fn(g):
            g3 = g.reshape(n, c_out, oh * ow)
            if acc_w is not None:
                g_w = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
                acc_w(g_w.reshape(w_shape))
            if acc_b is not None:
                acc_b(g3.sum(axis=(0, 2)))
            if acc_x is not None:
                np.matmul(wmat.T, g3, out=gcols)
                acc_x(F._col2im_out(gcols, (kh, kw), stride, padding,
                                    oh, ow, gpad, gx))
        return fn
    return fwd, bwd


@_kernel("max_pool2d")
def _op_max_pool2d():
    def fwd(k):
        x, out = k.ins[0], k.out
        kernel, stride = k.attrs["kernel"], k.attrs["stride"]
        n, c, oh, ow = out.shape
        win = np.empty((n, c, oh, ow, kernel, kernel), dtype=k.dtype)
        arg = np.empty((n, c, oh, ow), dtype=np.intp)
        k.attrs["_arg"] = arg   # shared with the backward kernel

        def f():
            flat = F._pool_windows_out(x, kernel, stride, win)
            np.argmax(flat, axis=-1, out=arg)
            out[...] = np.take_along_axis(flat, arg[..., None],
                                          axis=-1)[..., 0]
        return f

    def bwd(k):
        x, acc = k.ins[0], k.accs[0]
        kernel, stride = k.attrs["kernel"], k.attrs["stride"]
        arg = k.attrs["_arg"]
        gx = np.empty(x.shape, dtype=k.dtype)

        def fn(g):
            gx.fill(0.0)
            acc(F._max_pool_scatter(g, arg, kernel, stride, gx))
        return fn
    return fwd, bwd


@_kernel("avg_pool2d")
def _op_avg_pool2d():
    def fwd(k):
        x, out = k.ins[0], k.out
        kernel, stride = k.attrs["kernel"], k.attrs["stride"]
        n, c, oh, ow = out.shape
        # The eager op reduces over an as_strided window view; reducing
        # over a contiguous copy changes numpy's pairwise-summation
        # blocking and costs ~1e-16 relative drift.  Input buffers are
        # fixed for the program's lifetime, so the identical view can
        # be built once here and reused every replay — bit-exact and
        # copy-free.
        strides = x.strides
        shape = (n, c, oh, ow, kernel, kernel)
        view_strides = (strides[0], strides[1], strides[2] * stride,
                        strides[3] * stride, strides[2], strides[3])
        windows = np.lib.stride_tricks.as_strided(x, shape=shape,
                                                  strides=view_strides)
        return lambda: np.mean(windows, axis=(-1, -2), out=out)

    def bwd(k):
        x, out, acc = k.ins[0], k.out, k.accs[0]
        kernel, stride = k.attrs["kernel"], k.attrs["stride"]
        n, c, h, w = x.shape
        _, _, oh, ow = out.shape
        scale = 1.0 / (kernel * kernel)
        gx = np.empty((n, c, h, w), dtype=k.dtype)

        def fn(g):
            gx.fill(0.0)
            gg = g * scale
            for i in range(kernel):
                for j in range(kernel):
                    gx[:, :, i:i + stride * oh:stride,
                       j:j + stride * ow:stride] += gg
            acc(gx)
        return fn
    return fwd, bwd


@_kernel("levelized_sweep")
def _op_levelized_sweep():
    def _steps(k):
        steps = k.attrs["plan"].steps
        if k.f64:
            return steps
        cast = []
        for step in steps:
            cast.append({
                key: (value.astype(k.dtype)
                      if key.endswith("_inv_count") else value)
                for key, value in step.items()
            })
        return cast

    def fwd(k):
        s, wn, wc = k.ins[0], k.ins[1], k.ins[2]
        h = k.out
        level0 = k.attrs["level0"]
        steps = _steps(k)
        return lambda: F._sweep_forward_raw(s, wn, wc, steps, level0, h)

    def bwd(k):
        s, wn, wc = k.ins[0], k.ins[1], k.ins[2]
        h = k.out
        acc_s, acc_wn, acc_wc = k.accs
        level0 = k.attrs["level0"]
        steps = _steps(k)
        grad_h = np.empty_like(h)
        grad_s = np.empty_like(s) if acc_s is not None else None
        grad_wn = np.empty_like(wn) if acc_wn is not None else None
        grad_wc = np.empty_like(wc) if acc_wc is not None else None

        def fn(g):
            F._sweep_backward_raw(g, wn, wc, steps, level0, h, grad_h,
                                  grad_s, grad_wn, grad_wc)
            for acc, buf in ((acc_s, grad_s), (acc_wn, grad_wn),
                             (acc_wc, grad_wc)):
                if acc is not None:
                    acc(buf)
        return fn
    return fwd, bwd


#: Ops with a compiled kernel (the tape compiles them directly).
PRIMITIVE_OPS = frozenset(KERNELS)
#: Public ``repro.nn.functional`` ops that trace *through* primitives.
COMPOSITE_OPS = frozenset({
    "softmax", "mse_loss", "mae_loss", "gaussian_nll", "huber_loss",
    "global_avg_pool2d",
    # K-node alignment losses (repro.model.losses): pure compositions
    # of primitives, traced through like any other expression.
    "node_contrastive_loss_multi", "cmd_loss_multi",
})
#: Ops that legitimately poison a trace (stochastic per call).
UNTRACEABLE_OPS = frozenset({"dropout"})


# ----------------------------------------------------------------------
# Trace metadata (consumed by the static tensor-contract checker)
# ----------------------------------------------------------------------
class TraceOp:
    """Shape/dtype metadata of one recorded op, detached from buffers.

    The static contract checker (:mod:`repro.check.contracts`)
    abstractly interprets a tape through these records — no replay, no
    gradient step — so the record carries everything a shape/dtype
    contract can talk about and nothing that keeps tensors alive.
    ``aliases[i]`` is True when the recorded output buffer shares
    memory with input ``i`` (views are expected to alias; anything
    else doing so is a hazard the checker flags).
    """

    __slots__ = ("op", "out_shape", "out_dtype", "in_shapes", "in_dtypes",
                 "attrs", "aliases", "index")

    def __init__(self, op: str, out_shape, out_dtype, in_shapes,
                 in_dtypes, attrs, aliases, index: int) -> None:
        self.op = op
        self.out_shape = tuple(out_shape)
        self.out_dtype = np.dtype(out_dtype)
        self.in_shapes = tuple(tuple(s) for s in in_shapes)
        self.in_dtypes = tuple(np.dtype(d) for d in in_dtypes)
        self.attrs = attrs
        self.aliases = tuple(aliases)
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceOp({self.op!r}, out={self.out_shape}"
                f":{self.out_dtype}, ins={len(self.in_shapes)})")


#: Raised by np.shares_memory when the exact overlap problem exceeds
#: max_work; spelled np.TooHardError on older numpy.
_TooHardError = getattr(getattr(np, "exceptions", np), "TooHardError",
                        ValueError)


def _shares(out: np.ndarray, parent: np.ndarray) -> bool:
    try:
        return bool(np.shares_memory(out, parent, max_work=10_000))
    except _TooHardError:  # pragma: no cover - exact check too expensive
        return bool(np.may_share_memory(out, parent))


def tape_metadata(tape: Tape) -> List["TraceOp"]:
    """Per-op shape/dtype records for a recorded tape.

    This is the read-only export surface the whole-program checker
    consumes: each entry's output/input shapes, dtypes, op attrs, and
    whether the output buffer aliases an input buffer.
    """
    records: List[TraceOp] = []
    for index, entry in enumerate(tape.entries):
        if entry.op is None:
            continue
        out = entry.out.data
        parents = [p.data for p in entry.parents]
        records.append(TraceOp(
            op=entry.op,
            out_shape=out.shape,
            out_dtype=out.dtype,
            in_shapes=[p.shape for p in parents],
            in_dtypes=[p.dtype for p in parents],
            attrs=dict(entry.attrs),
            aliases=[_shares(out, p) for p in parents],
            index=index,
        ))
    return records


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
class _GradSlot:
    __slots__ = ("buf", "gen")

    def __init__(self, buf: np.ndarray) -> None:
        self.buf = buf
        self.gen = -1


class CompiledStep:
    """A traced step compiled to flat forward/backward numpy schedules.

    Parameters
    ----------
    tape:
        The tape recorded by :func:`trace` around one eager step.
    root:
        The scalar loss tensor whose backward the program replays.
    outputs:
        ``name -> Tensor`` values to read back after each replay.
    dtype:
        ``"float64"`` (bit-exact vs eager) or ``"float32"``.
    """

    def __init__(self, tape: Tape, root: Tensor,
                 outputs: Optional[Dict[str, Tensor]] = None,
                 dtype: str = "float64") -> None:
        if tape.poison_reason is not None:
            raise CompileError(
                f"tape cannot be compiled: {tape.poison_reason}")
        if root.data.size != 1:
            raise CompileError("root of a compiled step must be a scalar")
        if not root.requires_grad:
            raise CompileError("root of a compiled step requires no grad")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise CompileError(f"unsupported compile dtype {dtype!r}")
        f64 = self.dtype == np.dtype(np.float64)
        outputs = dict(outputs or {})

        entry_of: Dict[int, TapeEntry] = {id(e.out): e for e in tape.entries}
        if id(root) not in entry_of:
            raise CompileError("root tensor was not produced by the trace")

        # -- ancestor filter -------------------------------------------
        needed: set = set()
        leaves: Dict[int, Tensor] = {}
        pending: List[Tensor] = [root] + list(outputs.values())
        while pending:
            t = pending.pop()
            key = id(t)
            if key in needed or key in leaves:
                continue
            entry = entry_of.get(key)
            if entry is None:
                leaves[key] = t
            else:
                needed.add(key)
                pending.extend(entry.parents)
        schedule = [e for e in tape.entries if id(e.out) in needed]
        for entry in schedule:
            if entry.op not in KERNELS:
                raise CompileError(
                    f"op {entry.op!r} has no compiled kernel; register "
                    "one in repro.nn.compile.KERNELS or classify it")

        # -- forward buffers -------------------------------------------
        self._buf: Dict[int, np.ndarray] = {}
        for key, t in leaves.items():
            self._buf[key] = t.data if f64 else t.data.astype(self.dtype)
        for entry in schedule:
            data = entry.out.data
            self._buf[id(entry.out)] = data if f64 \
                else np.empty(data.shape, dtype=self.dtype)

        # -- per-step input bindings -----------------------------------
        self._bindings: List[Tuple[str, np.ndarray]] = []
        bound = set()
        for name, t in tape.inputs.items():
            buf = self._buf.get(id(t))
            if buf is not None:
                self._bindings.append((name, buf))
                bound.add(id(t))
        # Dynamic integer index attrs get fixed buffers of their own.
        self._index_buffers: Dict[str, np.ndarray] = {}
        for name, arr in tape.input_arrays.items():
            self._index_buffers[name] = arr.copy()
        self.input_names = ({name for name, _ in self._bindings}
                            | set(self._index_buffers))

        # -- leaf bookkeeping ------------------------------------------
        #: float64: parameter arrays must still be the compiled buffers.
        self._leaf_guards: List[Tuple[Tensor, np.ndarray]] = []
        #: float32: leaves re-cast from the live tensors every replay.
        self._leaf_syncs: List[Tuple[Tensor, np.ndarray]] = []
        for key, t in leaves.items():
            if key in bound:
                continue
            if f64:
                if t.requires_grad:
                    self._leaf_guards.append((t, self._buf[key]))
            else:
                self._leaf_syncs.append((t, self._buf[key]))

        # -- backward order: the one Tensor.backward uses ---------------
        order = backward_order(root)
        self._gen = [0]
        self._grad: Dict[int, _GradSlot] = {}
        for node in order:
            buf = self._buf[id(node)]
            gbuf = np.empty(buf.shape, dtype=self.dtype)
            self._grad[id(node)] = _GradSlot(gbuf)
        self._root_slot = self._grad[id(root)]

        self._param_grads: List[Tuple[Tensor, _GradSlot]] = [
            (leaves[id(node)], self._grad[id(node)])
            for node in order
            if id(node) in leaves and node.requires_grad
        ]

        # -- build kernel closures -------------------------------------
        acc_cache: Dict[int, Callable] = {}

        def acc_of(tensor: Tensor) -> Optional[Callable]:
            slot = self._grad.get(id(tensor))
            if slot is None or not tensor.requires_grad:
                return None
            acc = acc_cache.get(id(tensor))
            if acc is None:
                acc = self._make_acc(slot)
                acc_cache[id(tensor)] = acc
            return acc

        def resolve_attrs(entry: TapeEntry) -> Dict[str, Any]:
            attrs = dict(entry.attrs)
            for key, value in attrs.items():
                if isinstance(value, np.ndarray):
                    name = tape.index_names.get(id(value))
                    if name is not None:
                        attrs[key] = self._index_buffers[name]
            return attrs

        ctx_of: Dict[int, _OpCtx] = {}
        self._fwd: List[Tuple[str, Callable]] = []
        for entry in schedule:
            k = _OpCtx(
                op=entry.op,
                out=self._buf[id(entry.out)],
                ins=[self._buf[id(p)] for p in entry.parents],
                accs=[acc_of(p) for p in entry.parents],
                attrs=resolve_attrs(entry),
                dtype=self.dtype,
            )
            ctx_of[id(entry.out)] = k
            fn = KERNELS[entry.op]["fwd"](k)
            if fn is not None:
                self._fwd.append((entry.op, fn))

        self._bwd: List[Tuple[str, Callable]] = []
        for node in reversed(order):
            entry = entry_of.get(id(node))
            if entry is None:
                continue   # leaf: accumulation happened at send time
            slot = self._grad[id(node)]
            fn = KERNELS[entry.op]["bwd"](ctx_of[id(node)])
            self._bwd.append((entry.op, self._guarded(slot, fn)))

        self._outputs: Dict[str, np.ndarray] = {
            name: self._buf[id(t)] for name, t in outputs.items()
        }
        #: op name -> {"calls", "seconds"}; filled by profiled replays.
        self.op_profile: Dict[str, Dict[str, float]] = {}
        self.num_ops = len(self._fwd) + len(self._bwd)
        self.replays = 0

    # ------------------------------------------------------------------
    def _make_acc(self, slot: _GradSlot) -> Callable[[np.ndarray], None]:
        """First contribution assigns, later contributions add.

        This mirrors the engine's ``grads[key] = grad`` / ``grads[key]
        = grads[key] + grad`` dict semantics (and, for leaves, the
        zero-init-then-add of ``Tensor._accumulate``) bit for bit.
        """
        gen = self._gen

        def acc(g: np.ndarray) -> None:
            if slot.gen != gen[0]:
                slot.gen = gen[0]
                np.copyto(slot.buf, g)
            else:
                slot.buf += g
        return acc

    def _guarded(self, slot: _GradSlot, fn: Callable) -> Callable:
        """Skip a backward op whose output never received a gradient."""
        gen = self._gen

        def run() -> None:
            if slot.gen == gen[0]:
                fn(slot.buf)
        return run

    # ------------------------------------------------------------------
    def bind_check(self, inputs: Dict[str, np.ndarray]) -> None:
        missing = sorted(self.input_names - set(inputs))
        if missing:
            raise ReplayMismatch(
                f"replay inputs missing {missing} "
                f"(expected {sorted(self.input_names)})")

    def replay(self, inputs: Optional[Dict[str, np.ndarray]] = None,
               profile: bool = False) -> Dict[str, np.ndarray]:
        """Run one compiled step; returns copies of the output buffers.

        After ``replay`` each traced parameter's ``.grad`` is set to
        the program's accumulated gradient buffer (cast to float64 in
        float32 mode), ready for ``clip_grad_norm`` / optimizer use.
        """
        inputs = inputs or {}
        self.bind_check(inputs)
        for tensor, buf in self._leaf_guards:
            if tensor.data is not buf:
                raise ReplayMismatch(
                    "a traced parameter's array was rebound; retrace")
        for tensor, buf in self._leaf_syncs:
            np.copyto(buf, tensor.data, casting="same_kind")
        for name, buf in self._bindings:
            value = np.asarray(inputs[name])
            if value.shape != buf.shape:
                raise ReplayMismatch(
                    f"input {name!r} has shape {value.shape}, compiled "
                    f"for {buf.shape}; retrace")
            np.copyto(buf, value, casting="same_kind")
        for name, buf in self._index_buffers.items():
            value = np.asarray(inputs[name])
            if value.shape != buf.shape:
                raise ReplayMismatch(
                    f"index input {name!r} has shape {value.shape}, "
                    f"compiled for {buf.shape}; retrace")
            np.copyto(buf, value, casting="same_kind")

        if profile:
            self._run_profiled(self._fwd, "fwd")
        else:
            for _, fn in self._fwd:
                fn()

        self._gen[0] += 1
        self._root_slot.gen = self._gen[0]
        self._root_slot.buf.fill(1.0)
        if profile:
            self._run_profiled(self._bwd, "bwd")
        else:
            for _, fn in self._bwd:
                fn()

        for tensor, slot in self._param_grads:
            if slot.gen != self._gen[0]:
                continue
            tensor.grad = slot.buf if self.dtype == np.float64 \
                else slot.buf.astype(np.float64)
        self.replays += 1
        return {name: np.array(buf, copy=True)
                for name, buf in self._outputs.items()}

    def _run_profiled(self, schedule: Sequence[Tuple[str, Callable]],
                      phase: str) -> None:
        from ..util import timing
        for op, fn in schedule:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            name = f"{phase}.{op}"
            entry = self.op_profile.get(name)
            if entry is None:
                entry = self.op_profile[name] = \
                    {"calls": 0, "seconds": 0.0}
            entry["calls"] += 1
            entry["seconds"] += elapsed
            timing.record(f"op.{name}", elapsed)
