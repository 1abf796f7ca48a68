"""Reference computations the benchmark checks lvfsr against.

Written apart from lvfsr, in a different formulation: resampling is two
dense per-axis weight matrices instead of gathered taps, and SSIM filters
with banded Gaussian matrices instead of sliding windows. Everything runs in
float64 on (3, H, W) images with values in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

CUBIC_A = -0.5
BT601 = (0.299, 0.587, 0.114)


def cubic_weight(x: np.ndarray) -> np.ndarray:
    """Keys' cubic-convolution kernel with a = -0.5 (support |x| < 2)."""
    a = CUBIC_A
    t = np.abs(x)
    inner = ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0
    outer = ((a * t - 5.0 * a) * t + 8.0 * a) * t - 4.0 * a
    return np.where(t <= 1.0, inner, np.where(t < 2.0, outer, 0.0))


def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) matrix of one resampling axis.

    Output pixel i samples the input at (i + 0.5) * n_in / n_out - 0.5 with
    the four nearest taps; taps that fall off the edge land on the edge
    pixel, so their weight adds to it.
    """
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * n_in / n_out - 0.5
        base = math.floor(src)
        for tap in range(base - 1, base + 3):
            m[i, min(max(tap, 0), n_in - 1)] += float(cubic_weight(np.float64(src - tap)))
    return m


def resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Cubic-convolution resize of a (C, H, W) image, in float64."""
    _, h, w = img.shape
    rows = resize_matrix(h, out_h)
    cols = resize_matrix(w, out_w)
    return rows @ np.asarray(img, dtype=np.float64) @ cols.T


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB: 10 log10(peak^2 / MSE)."""
    err = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return 10.0 * math.log10(peak * peak / float(np.mean(err * err)))


def _gauss_band(n: int, size: int, sigma: float) -> np.ndarray:
    """(n - size + 1, n) matrix applying a normalised Gaussian at valid offsets."""
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-x * x / (2.0 * sigma * sigma))
    g /= g.sum()
    band = np.zeros((n - size + 1, n))
    for i in range(n - size + 1):
        band[i, i:i + size] = g
    return band


def ssim(a: np.ndarray, b: np.ndarray, size: int = 11, sigma: float = 1.5) -> float:
    """Mean SSIM of BT.601 luma over valid 11x11 Gaussian windows."""
    luma = np.asarray(BT601)
    x = np.tensordot(luma, np.asarray(a, dtype=np.float64), axes=1)
    y = np.tensordot(luma, np.asarray(b, dtype=np.float64), axes=1)
    rows = _gauss_band(x.shape[0], size, sigma)
    cols = _gauss_band(x.shape[1], size, sigma)

    def blur(img):
        return rows @ img @ cols.T

    mx, my = blur(x), blur(y)
    vx = blur(x * x) - mx * mx
    vy = blur(y * y) - my * my
    cxy = blur(x * y) - mx * my
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    num = (2.0 * mx * my + c1) * (2.0 * cxy + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


def l1(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference."""
    return float(np.mean(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


def read_ppm(path) -> np.ndarray:
    """A binary P6 file with maxval 255 and no header comments, as (3, H, W) floats."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, width, height, rest = buf.split(maxsplit=3)
    if magic != b"P6" or rest[:3] != b"255" or not rest[3:4].isspace():
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    pixels = rest[4:]
    w, h = int(width), int(height)
    if len(pixels) != 3 * w * h:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes, expected {3 * w * h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1) / 255.0


def global_ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """SSIM of two signals over one window spanning all of them.

    The constants scale with the reference's largest magnitude, which plays
    the part of the pixel range.
    """
    ref = np.asarray(ref, dtype=np.float64).reshape(-1)
    est = np.asarray(est, dtype=np.float64).reshape(-1)
    peak = float(np.max(np.abs(ref)))
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    mr, me = ref.mean(), est.mean()
    cov = float(np.mean((ref - mr) * (est - me)))
    num = (2.0 * mr * me + c1) * (2.0 * cov + c2)
    den = (mr * mr + me * me + c1) * (ref.var() + est.var() + c2)
    return float(num / den)
