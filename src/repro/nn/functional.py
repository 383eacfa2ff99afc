"""Functional neural-network operations built on the autograd engine.

Includes the convolution/pooling primitives used by the layout CNN, the
softmax family used by the contrastive loss, and the regression losses used
by the timing predictor (MSE and the Gaussian negative log-likelihood that
appears inside the ELBO).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import _tracing
from .grad_mode import is_grad_enabled
from .tensor import Tensor, _finish, as_tensor

LOG_2PI = float(np.log(2.0 * np.pi))


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def _log_softmax_raw(x: np.ndarray, axis: int,
                     out: np.ndarray = None) -> np.ndarray:
    """Numerically stable log-softmax on a raw array (``out=`` capable).

    The exact arithmetic sequence of the historical Tensor composition
    (``x - max``, clipped exp, sum, log, subtract), shared by the eager
    op and the compiled kernel so both produce bit-identical values.
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    denom = np.log(np.exp(np.clip(shifted, -700.0, 700.0))
                   .sum(axis=axis, keepdims=True))
    if out is None:
        return shifted - denom
    np.subtract(shifted, denom, out=out)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    A single primitive op (not a composition): the max-shift is a
    *data-dependent constant*, which a trace would otherwise bake in as
    a frozen value — replays with different inputs would silently lose
    the numerical stabilisation.  The closed-form backward is the
    standard ``g - softmax * sum(g)``.
    """
    out_data = _log_softmax_raw(x.data, axis)
    return _finish(out_data, (x,), op="log_softmax", attrs={"axis": axis})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    target = as_tensor(target)
    return (prediction - target.detach()).abs().mean()


def gaussian_nll(prediction: Tensor, target: Tensor,
                 log_var: Tensor) -> Tensor:
    """Mean Gaussian negative log-likelihood.

    ``-log p(y | mu, sigma^2)`` with ``mu = prediction`` and
    ``sigma^2 = exp(log_var)``, averaged over elements.  This is the
    likelihood term of the ELBO in Equation (8)/(11) of the paper.
    """
    target = as_tensor(target)
    diff = prediction - target.detach()
    inv_var = (-log_var).exp()
    return (0.5 * (log_var + diff * diff * inv_var + LOG_2PI)).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Mean Huber (smooth-L1) loss; robust alternative used in ablations."""
    target = as_tensor(target)
    diff = (prediction - target.detach()).abs()
    clipped = diff.clip(0.0, delta)
    return (0.5 * clipped * clipped + delta * (diff - clipped)).mean()


# ----------------------------------------------------------------------
# Convolution via im2col
# ----------------------------------------------------------------------
#: ``(cols, oh, ow)`` as returned by :func:`_im2col`.
Columns = Tuple[np.ndarray, int, int]


def _im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int,
            padding: int) -> Columns:
    """Unfold NCHW ``x`` into columns of shape (N, C*kh*kw, oh*ow)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    strides = x.strides
    shape = (n, c, kh, kw, oh, ow)
    view_strides = (strides[0], strides[1], strides[2], strides[3],
                    strides[2] * stride, strides[3] * stride)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape,
                                              strides=view_strides)
    cols = patches.reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None, stride: int = 1,
           padding: int = 0, cols: Columns = None) -> Tensor:
    """2D convolution on NCHW input.

    Parameters
    ----------
    x:
        Input of shape (N, C_in, H, W).
    weight:
        Kernels of shape (C_out, C_in, kH, kW).
    bias:
        Optional per-output-channel bias of shape (C_out,).
    cols:
        Optional precomputed ``_im2col(x.data, ...)`` triple for this
        kernel geometry.  The columns depend on the input alone, never
        on the weights, so a caller convolving the same input again
        (the inference engine's first layer) can skip the unfold.
    """
    c_out, c_in, kh, kw = weight.shape
    if cols is None:
        cols = _im2col(x.data, (kh, kw), stride, padding)
    cols, oh, ow = cols
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    # Batched GEMM (BLAS): (o,k) @ (n,k,l) -> (n,o,l).
    out_data = np.matmul(w_mat, cols)
    if bias is not None:
        # In place: out_data is a fresh array, and the extra
        # (N, C_out, oh*ow) temporary is measurable on big path batches.
        out_data += bias.data[None, :, None]
    out_data = out_data.reshape(x.shape[0], c_out, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _finish(out_data, parents, op="conv2d",
                   attrs={"stride": stride, "padding": padding,
                          "has_bias": bias is not None},
                   saved={"_cols6": cols.reshape(x.shape[0], c_in, kh, kw,
                                                 oh, ow)})


def _max_pool_scatter(grad: np.ndarray, arg: np.ndarray, kernel: int,
                      stride: int, gx: np.ndarray) -> np.ndarray:
    """Route window-max gradients to their argmax cells (``out=`` style).

    ``arg`` holds each window's flat argmax and ``gx`` must be zeroed by
    the caller.  The body of the ``max_pool2d`` VJP in
    :mod:`repro.nn.compile`.
    """
    n, c, oh, ow = arg.shape
    h, w = gx.shape[2], gx.shape[3]
    ki, kj = np.divmod(arg, kernel)
    if stride < kernel:
        # Overlapping windows can share an argmax cell: accumulate.
        n_i, c_i, oh_i, ow_i = np.indices((n, c, oh, ow))
        rows = oh_i * stride + ki
        cols_ = ow_i * stride + kj
        np.add.at(gx, (n_i, c_i, rows, cols_), grad)
    else:
        # Non-overlapping windows: each input cell is the argmax of at
        # most one window, so the scatter targets are unique and a flat
        # fancy assignment replaces the slow np.add.at.
        rows = np.arange(oh)[None, None, :, None] * stride + ki
        cols_ = np.arange(ow)[None, None, None, :] * stride + kj
        chan = (np.arange(n)[:, None, None, None] * c
                + np.arange(c)[None, :, None, None])
        gx.ravel()[(chan * h + rows) * w + cols_] = grad
    return gx


def max_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Max pooling on NCHW input with square window."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    if not is_grad_enabled():
        # Forward-only fast path: the argmax / take_along_axis pass (and
        # the window-flattening copy feeding it) exists solely to route
        # gradients; a running elementwise maximum over the kernel-offset
        # slices yields the same window maxima bit for bit at a fraction
        # of the memory traffic.
        out_data = None
        for i in range(kernel):
            for j in range(kernel):
                part = x.data[:, :, i:i + stride * oh:stride,
                              j:j + stride * ow:stride]
                if out_data is None:
                    out_data = part.copy()
                else:
                    np.maximum(out_data, part, out=out_data)
        return _finish(out_data, (x,), op=None)
    strides = x.data.strides
    shape = (n, c, oh, ow, kernel, kernel)
    view_strides = (strides[0], strides[1], strides[2] * stride,
                    strides[3] * stride, strides[2], strides[3])
    windows = np.lib.stride_tricks.as_strided(x.data, shape=shape,
                                              strides=view_strides)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return _finish(out_data, (x,), op="max_pool2d",
                   attrs={"kernel": kernel, "stride": stride},
                   saved={"_arg": arg})


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Average pooling on NCHW input with square window."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    strides = x.data.strides
    shape = (n, c, oh, ow, kernel, kernel)
    view_strides = (strides[0], strides[1], strides[2] * stride,
                    strides[3] * stride, strides[2], strides[3])
    windows = np.lib.stride_tricks.as_strided(x.data, shape=shape,
                                              strides=view_strides)
    out_data = windows.mean(axis=(-1, -2))
    return _finish(out_data, (x,), op="avg_pool2d",
                   attrs={"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0.

    Untraceable: the mask is redrawn per call, so a compiled replay
    would freeze one mask forever.  An active trace is poisoned and the
    trainer falls back to eager execution.
    """
    if not training or rate <= 0.0:
        return x
    if _tracing.ACTIVE:
        _tracing.poison("dropout draws a fresh random mask per call")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# out=-capable kernel variants (the compiled step's building blocks)
# ----------------------------------------------------------------------
def _im2col_out(x: np.ndarray, kernel: Tuple[int, int], stride: int,
                padding: int, xpad: np.ndarray,
                cols6: np.ndarray) -> np.ndarray:
    """:func:`_im2col` into preallocated buffers (no strided reshape).

    ``xpad`` is the (possibly padded) input staging buffer — pass ``x``
    itself when ``padding == 0`` — and ``cols6`` a C-contiguous
    ``(n, c, kh, kw, oh, ow)`` buffer.  The per-(i, j) block copies
    land in contiguous destination planes, avoiding the pathological
    element-order copy ``as_strided(...).reshape`` performs; the
    returned ``(n, c*kh*kw, oh*ow)`` matrix is a free view of
    ``cols6`` with values bit-identical to :func:`_im2col`.
    """
    n, c, kh, kw, oh, ow = cols6.shape
    if padding:
        xpad[:, :, padding:padding + x.shape[2],
             padding:padding + x.shape[3]] = x
    else:
        xpad = x
    for i in range(kh):
        for j in range(kw):
            cols6[:, :, i, j] = xpad[:, :, i:i + stride * oh:stride,
                                     j:j + stride * ow:stride]
    return cols6.reshape(n, c * kh * kw, oh * ow)


def _col2im_out(cols: np.ndarray, kernel: Tuple[int, int], stride: int,
                padding: int, oh: int, ow: int, gpad: np.ndarray,
                gx: np.ndarray) -> np.ndarray:
    """Fold columns back into NCHW (the adjoint of :func:`_im2col`).

    ``gpad`` is the padded accumulation buffer (pass ``gx`` itself when
    ``padding == 0``); both are zeroed here.  Returns ``gx`` holding
    the unpadded fold.
    """
    n, c, hp, wp = gpad.shape
    kh, kw = kernel
    gpad.fill(0.0)
    patches = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            gpad[:, :, i:i + stride * oh:stride,
                 j:j + stride * ow:stride] += patches[:, :, i, j]
    if padding:
        gx[...] = gpad[:, :, padding:hp - padding, padding:wp - padding]
        return gx
    return gpad


def _pool_windows_out(x: np.ndarray, kernel: int, stride: int,
                      win: np.ndarray) -> np.ndarray:
    """Flattened pooling windows into a preallocated buffer.

    ``win`` is C-contiguous ``(n, c, oh, ow, kernel, kernel)``; the
    returned ``(n, c, oh, ow, kernel*kernel)`` array is a free view
    with the same logical content as the ``as_strided`` window view
    (and therefore the same reduction results, bit for bit).
    """
    n, c, oh, ow, kh, kw = win.shape
    for i in range(kh):
        for j in range(kw):
            win[:, :, :, :, i, j] = x[:, :, i:i + stride * oh:stride,
                                      j:j + stride * ow:stride]
    return win.reshape(n, c, oh, ow, kh * kw)


# ----------------------------------------------------------------------
# Levelised GNN sweep (shared by the eager op and the compiled kernel)
# ----------------------------------------------------------------------
_EDGE_KINDS = ("net", "cell")


def _sweep_forward_raw(s: np.ndarray, w_net: np.ndarray,
                       w_cell: np.ndarray, steps, level0: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    """The levelised propagation into the ``(N, hidden)`` buffer ``h``.

    ``steps`` are the per-level edge groupings of
    ``repro.model.gnn._LevelPlan`` (level 0 excluded).  Each node's row
    of ``h`` is written once, at its own level, so a level reads only
    rows finished by earlier levels.  ``h`` is fully overwritten.
    """
    hidden = s.shape[1]
    h.fill(0.0)
    if level0.size:
        h[level0] = np.maximum(s[level0], 0.0)
    for step in steps:
        dst = step["dst"]
        total = s[dst].copy()
        for kind, w in zip(_EDGE_KINDS, (w_net, w_cell)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            msgs = h[src] @ w
            agg = np.zeros((len(dst), hidden), dtype=s.dtype)
            np.add.at(agg, step[f"{kind}_dst_local"], msgs)
            total += agg * step[f"{kind}_inv_count"]
        h[dst] = np.maximum(total, 0.0)
    return h


def _sweep_backward_raw(grad: np.ndarray, w_net: np.ndarray,
                        w_cell: np.ndarray, steps, level0: np.ndarray,
                        h: np.ndarray, grad_h: np.ndarray,
                        grad_s: np.ndarray = None,
                        grad_wn: np.ndarray = None,
                        grad_wc: np.ndarray = None) -> None:
    """Adjoint of :func:`_sweep_forward_raw`, replaying levels in reverse.

    ``grad_h`` is scratch of ``h``'s shape; the ``grad_*`` outputs are
    overwritten, and a ``None`` output is skipped.
    """
    np.copyto(grad_h, grad)
    for buf in (grad_s, grad_wn, grad_wc):
        if buf is not None:
            buf.fill(0.0)
    for step in reversed(steps):
        dst = step["dst"]
        grad_total = grad_h[dst] * (h[dst] > 0.0)
        if grad_s is not None:
            grad_s[dst] += grad_total
        for kind, w, grad_w in zip(_EDGE_KINDS, (w_net, w_cell),
                                   (grad_wn, grad_wc)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            grad_agg = grad_total * step[f"{kind}_inv_count"]
            grad_msgs = grad_agg[step[f"{kind}_dst_local"]]
            if grad_w is not None:
                grad_w += h[src].T @ grad_msgs
            np.add.at(grad_h, src, grad_msgs @ w.T)
    if grad_s is not None and level0.size:
        grad_s[level0] += grad_h[level0] * (h[level0] > 0.0)
