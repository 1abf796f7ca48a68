"""Differentiable operations over :class:`Tensor`.

Each op computes with numpy, validates shapes up front, and registers a
single backward closure, so the tape stays short even for composite layers
like attention. All ops run un-taped when no input requires a gradient.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from ..errors import ShapeError
from .tensor import Tensor, make_node

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return make_node(data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return make_node(data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return make_node(data, "mul", (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    data = x.data * c

    def bwd(g):
        return (g * c,)

    return make_node(data, "scale", (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)
    src = x.data.shape

    def bwd(g):
        return (g.reshape(src),)

    return make_node(data, "reshape", (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g):
        return (g.transpose(inv),)

    return make_node(data, "transpose", (x,), bwd)


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    xs = tuple(xs)
    if not xs:
        raise ShapeError("concat requires at least one input")
    first = xs[0].data.shape
    nd = len(first)
    ax = axis + nd if axis < 0 else axis
    if not 0 <= ax < nd:
        raise ShapeError(f"concat axis {axis} out of range for rank {nd}")
    head, tail = first[:ax], first[ax + 1:]
    for t in xs[1:]:
        s = t.data.shape
        if len(s) != nd or s[:ax] != head or s[ax + 1:] != tail:
            raise ShapeError(f"concat extents differ off axis {axis}: "
                             f"{first} vs {s}")
    data = np.concatenate([t.data for t in xs], axis=ax)

    def bwd(g):
        lead = (slice(None),) * ax
        parts, lo = [], 0
        for t in xs:
            hi = lo + t.data.shape[ax]
            parts.append(g[lead + (slice(lo, hi),)])
            lo = hi
        return tuple(parts)

    return make_node(data, "concat", xs, bwd)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return make_node(data, "sum", (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.sum() / n)
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return make_node(data, "mean", (x,), bwd)


def mean_abs(x: Tensor) -> Tensor:
    """Mean absolute value; subgradient at 0 is 0 (sign convention)."""
    n = x.data.size
    data = np.asarray(np.abs(x.data).sum() / n)

    def bwd(g):
        return (g * np.sign(x.data) / n,)

    return make_node(data, "mean_abs", (x,), bwd)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """y = x @ w.T + b with w of shape (Dout, Din) and x of shape (..., Din)."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear: input width {x.data.shape[-1]} != Din {w.data.shape[1]}")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ShapeError(f"linear: bias shape {b.data.shape} != ({w.data.shape[0]},)")
    data = x.data @ w.data.T
    if b is not None:
        np.add(data, b.data, out=data)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        gx = g @ w.data
        g2 = g.reshape(-1, g.shape[-1])
        gw = g2.T @ x.data.reshape(-1, x.data.shape[-1])
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    return make_node(data, "linear", parents, bwd)


@functools.lru_cache(maxsize=64)
def _conv_index(cin: int, h: int, w: int, kh: int, kw: int,
                stride: int, pad: int) -> tuple:
    """Gather indices that lower one image's conv to a GEMM and lift it back.

    `cols` (ho*wo, cin*kh*kw) maps each column-matrix entry, a (c, i, j) tap
    of an output pixel, to the flat input position it reads; padding reads
    the zero slot cin*h*w. `taps` (kh*kw, cin*h*w) maps each (i, j) tap and
    flat input position to the column-matrix entry that reads it, or to the
    zero slot ho*wo*cin*kh*kw when none does. `taps` keeps at least two
    columns (the extra one reads the zero slot): numpy reduces a unit-extent
    row pairwise, and the tap sum must stay sequential.
    """
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    chw, ntap = cin * h * w, kh * kw
    c = np.arange(cin)[:, None, None]
    i = np.arange(kh)[:, None]
    j = np.arange(kw)
    ys = (np.arange(ho) * stride)[:, None, None, None, None] + i - pad
    xs = (np.arange(wo) * stride)[:, None, None, None] + j - pad
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    cols = np.where(inside, c * (h * w) + ys * w + xs, chw)
    cols = cols.reshape(ho * wo, cin * ntap)

    oy, ry = np.divmod(np.arange(h) + pad - np.arange(kh)[:, None], stride)
    ox, rx = np.divmod(np.arange(w) + pad - np.arange(kw)[:, None], stride)
    oky = (ry == 0) & (oy >= 0) & (oy < ho)            # (kh, h)
    okx = (rx == 0) & (ox >= 0) & (ox < wo)            # (kw, w)
    tap = np.arange(ntap).reshape(kh, kw)[:, :, None, None, None]
    entry = ((oy[:, None, None, :, None] * wo + ox[None, :, None, None, :]) * cin
             + c[None, None]) * ntap + tap
    hit = oky[:, None, None, :, None] & okx[None, :, None, None, :]
    taps = np.where(hit, entry, ho * wo * cin * ntap).reshape(ntap, chw)
    if chw == 1:
        taps = np.concatenate([taps, np.full((ntap, 1), ho * wo * cin * ntap)], axis=1)
    for a in (cols, taps):
        a.setflags(write=False)
    return cols, taps


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation over (N, C, H, W) with zero padding.

    The windows are gathered into one column matrix for a single matrix
    product; 1x1 kernels skip the gather entirely. The input gradient is
    only formed when `x` requires one.
    """
    xd = x.data
    if xd.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: rank {xd.ndim} input / rank {w.data.ndim} kernel")
    n, cin, h, wd_ = xd.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {cin_w}")
    if b is not None and b.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.data.shape} != ({cout},)")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd_ + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input "
                         f"{h + 2 * pad}x{wd_ + 2 * pad}")

    if kh == 1 and kw == 1 and stride == 1 and pad == 0:
        y = (w.data.reshape(cout, cin) @ xd.reshape(n, cin, h * wd_)).reshape(
            n, cout, h, wd_)
        if b is not None:
            y += b.data[:, None, None]
        mat = None
    else:
        cols, taps = _conv_index(cin, h, wd_, kh, kw, stride, pad)
        chw = cin * h * wd_
        xz = np.empty((n, chw + 1), dtype=xd.dtype)
        xz[:, :chw] = xd.reshape(n, chw)
        xz[:, chw] = 0
        mat = xz.take(cols, axis=1).reshape(n * ho * wo, cin * kh * kw)
        y = mat @ w.data.reshape(cout, -1).T
        if b is not None:
            np.add(y, b.data, out=y)
        y = np.ascontiguousarray(y.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2))
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        gx = None
        if mat is None:
            gflat = g.reshape(n, cout, ho * wo)
            gw = np.tensordot(g, xd, axes=([0, 2, 3], [0, 2, 3])).reshape(w.data.shape)
            if x.requires_grad:
                gx = (w.data.reshape(cout, cin).T @ gflat).reshape(n, cin, h, wd_)
        else:
            gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(
                n * ho * wo, cout)
            gw = (gmat.T @ mat).reshape(w.data.shape)
            if x.requires_grad:
                # each input pixel sums its column-matrix entries tap by tap,
                # in (i, j) order from +0.0, as a scatter-add over taps would
                size = ho * wo * cin * kh * kw
                gz = np.empty((n, size + 1), dtype=gmat.dtype)
                wmat = w.data.reshape(cout, -1)
                # one output channel: each entry is one rounded product, so a
                # broadcast multiply matches the K=1 GEMM up to the sign of a
                # zero, which the sum from +0.0 below absorbs
                gz[:, :size] = (gmat * wmat if cout == 1 else gmat @ wmat).reshape(n, size)
                gz[:, size] = 0
                gx = np.add.reduce(gz.take(taps, axis=1), axis=1, initial=0.0)
                gx = gx[:, :chw].reshape(n, cin, h, wd_)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return make_node(y, "conv2d", parents, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, istd, out=xc)
    data = gamma.data * xhat
    np.add(data, beta.data, out=data)

    def bwd(g):
        gh = g * gamma.data
        gmean = gh.mean(axis=-1, keepdims=True)
        gxmean = (gh * xhat).mean(axis=-1, keepdims=True)
        gx = istd * (gh - gmean - xhat * gxmean)
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return make_node(data, "layer_norm", (x, gamma, beta), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return make_node(y, "sigmoid", (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    phi_cdf = erf(x.data * _INV_SQRT2)
    np.multiply(phi_cdf, 0.5, out=phi_cdf)
    np.add(phi_cdf, 0.5, out=phi_cdf)
    y = x.data * phi_cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi_cdf + x.data * pdf),)

    return make_node(y, "gelu", (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return make_node(y, "softmax", (x,), bwd)


@functools.lru_cache(maxsize=None)
def _head_axes(lead: int) -> tuple:
    """Swap the token and head axes behind `lead` leading axes (self-inverse)."""
    return tuple(range(lead)) + (lead + 1, lead, lead + 2)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1) -> Tensor:
    """Multi-head softmax(Q Kt / sqrt(dh)) V over token matrices.

    q: (..., T, D), k: (..., S, D), v: (..., S, Dv); the leading (batch) axes
    broadcast against each other. D and Dv must divide by heads; the head
    outputs are concatenated back to (..., T, Dv).
    """
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2:
        raise ShapeError("attention: q, k and v must be token matrices")
    t, d = q.data.shape[-2:]
    s, dk = k.data.shape[-2:]
    sv, dv = v.data.shape[-2:]
    if dk != d:
        raise ShapeError(f"attention: query width {d} != key width {dk}")
    if sv != s:
        raise ShapeError(f"attention: {s} keys vs {sv} values")
    if d % heads or dv % heads:
        raise ShapeError(f"attention: widths {d}/{dv} not divisible by {heads} heads")
    lead = q.data.shape[:-2]
    if k.data.shape[:-2] != lead or v.data.shape[:-2] != lead:
        try:
            lead = np.broadcast_shapes(lead, k.data.shape[:-2], v.data.shape[:-2])
        except ValueError:
            raise ShapeError(f"attention: batch axes of {q.data.shape}, {k.data.shape} "
                             f"and {v.data.shape} do not broadcast") from None
    dh, dvh = d // heads, dv // heads
    sc = 1.0 / math.sqrt(dh)
    # (..., heads, tokens, width) layout; the scale folds into the smaller
    # operand and the softmax chain reuses the logits buffer
    qd, kd, vd = q.data, k.data, v.data
    qh = qd.reshape(qd.shape[:-2] + (t, heads, dh)).transpose(_head_axes(qd.ndim - 2)) * sc
    kh = kd.reshape(kd.shape[:-2] + (s, heads, dh)).transpose(_head_axes(kd.ndim - 2))
    vh = vd.reshape(vd.shape[:-2] + (s, heads, dvh)).transpose(_head_axes(vd.ndim - 2))
    a = qh @ kh.swapaxes(-1, -2)
    # fmax gives the same row max for finite logits and reduces faster;
    # non-finite logits still give a non-finite output
    np.subtract(a, np.fmax.reduce(a, axis=-1, keepdims=True), out=a)
    np.exp(a, out=a)
    np.divide(a, a.sum(axis=-1, keepdims=True), out=a)
    hx = _head_axes(len(lead))
    out = (a @ vh).transpose(hx).reshape(lead + (t, dv))

    def bwd(g):
        gh = g.reshape(lead + (t, heads, dvh)).transpose(hx)
        gv = a.swapaxes(-1, -2) @ gh
        ga = gh @ vh.swapaxes(-1, -2)
        gl = a * (ga - (ga * a).sum(axis=-1, keepdims=True))
        gq = (gl @ kh) * sc
        gk = gl.swapaxes(-1, -2) @ qh
        return (_unbroadcast(gq.transpose(hx).reshape(lead + (t, d)), q.data.shape),
                _unbroadcast(gk.transpose(hx).reshape(lead + (s, d)), k.data.shape),
                _unbroadcast(gv.transpose(hx).reshape(lead + (s, dv)), v.data.shape))

    return make_node(out, "scaled_dot_attention", (q, k, v), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes of (N, C, H, W) maps, or over the token
    axis of (..., T, D) tokens."""
    nd = x.data.ndim
    if nd < 2:
        raise ShapeError(f"global_avg_pool: unsupported rank {nd}")
    axes = (2, 3) if nd == 4 else (nd - 2,)
    cnt = 1
    for ax in axes:
        cnt *= x.data.shape[ax]
    data = x.data.mean(axis=axes)
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axes) / cnt, shape).copy(),)

    return make_node(data, "global_avg_pool", (x,), bwd)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Channel-to-space rearrangement: (N, C*r*r, H, W) -> (N, C, H*r, W*r)."""
    if x.data.ndim != 4:
        raise ShapeError(f"pixel_shuffle: rank {x.data.ndim} input, expected (N, C, H, W)")
    n, c2, h, w = x.data.shape
    if c2 % (r * r):
        raise ShapeError(f"pixel_shuffle: {c2} channels not divisible by r^2 = {r * r}")
    c = c2 // (r * r)
    y = x.data.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * r, w * r)

    def bwd(g):
        return (g.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c2, h, w),)

    return make_node(y, "pixel_shuffle", (x,), bwd)
