"""Separable cubic-convolution resampling (a = -0.5).

Output pixel centers map back through src = (dst + 0.5) * in/out - 0.5 (no
corner alignment); the four tap indices are clamped at the edges. The kernel
reproduces constants exactly and is the identity at unit scale.
"""

from __future__ import annotations

import functools

import numpy as np

_A = -0.5
# output rows per column-pass block: keeps its float64 gather (3 channels x
# 32 rows x 128 columns x 4 taps = 393 KB at x16) small beside the caller's
# working set
_ROW_BLOCK = 32


def _kernel(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    near = (_A + 2.0) * ax3 - (_A + 3.0) * ax2 + 1.0
    far = _A * ax3 - 5.0 * _A * ax2 + 8.0 * _A * ax - 4.0 * _A
    return np.where(ax <= 1.0, near, np.where(ax < 2.0, far, 0.0))


@functools.lru_cache(maxsize=64)
def _axis_taps(n_in: int, n_out: int):
    """Read-only (n_out, 4) tap indices and weights of one axis."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    base = np.floor(src).astype(np.int64)
    frac = src - base
    offsets = np.arange(-1, 3)
    idx = np.clip(base[:, None] + offsets[None, :], 0, n_in - 1)
    wts = _kernel(frac[:, None] - offsets[None, :])
    idx.flags.writeable = wts.flags.writeable = False
    return idx, wts


def bicubic_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a (C, H, W) image; dtype is preserved, math runs in float64."""
    if img.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {img.shape}")
    c, h, w = img.shape
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output extents must be positive, got {(out_h, out_w)}")
    data = img.astype(np.float64, copy=False)
    ridx, rwts = _axis_taps(h, out_h)
    tmp = np.einsum("ckjw,kj->ckw", data[:, ridx, :], rwts)
    cidx, cwts = _axis_taps(w, out_w)
    # einsum sums the four taps in order from zero whenever a block holds
    # more than one (channel, row) pair, as over a whole image; a one-row
    # block of a one-channel image would sum them in another order, so a
    # lone last row joins the block before
    starts = list(range(0, out_h, _ROW_BLOCK))
    if len(starts) > 1 and out_h - starts[-1] == 1:
        starts.pop()
    out = np.empty((c, out_h, out_w), dtype=img.dtype)
    for r0, r1 in zip(starts, starts[1:] + [out_h]):
        out[:, r0:r1] = np.einsum("chkj,kj->chk", tmp[:, r0:r1][:, :, cidx], cwts)
    return out
