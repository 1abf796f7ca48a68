"""Cubic-convolution resampling against a per-pixel oracle."""

import numpy as np
import pytest

from lvfsr.numeric import Rng
from lvfsr.resample import _axis_taps, bicubic_resize


def cubic_kernel(x, a=-0.5):
    ax = abs(float(x))
    if ax <= 1.0:
        return (a + 2.0) * ax ** 3 - (a + 3.0) * ax ** 2 + 1.0
    if ax < 2.0:
        return a * ax ** 3 - 5.0 * a * ax ** 2 + 8.0 * a * ax - 4.0 * a
    return 0.0


def resize_oracle(img, out_h, out_w):
    """Direct evaluation: 4x4 taps per output pixel, indices clamped."""
    c, h, w = img.shape
    out = np.zeros((c, out_h, out_w))
    for oy in range(out_h):
        sy = (oy + 0.5) * (h / out_h) - 0.5
        by = int(np.floor(sy))
        for ox in range(out_w):
            sx = (ox + 0.5) * (w / out_w) - 0.5
            bx = int(np.floor(sx))
            for ch in range(c):
                acc = 0.0
                for dy in range(-1, 3):
                    ky = cubic_kernel(sy - (by + dy))
                    iy = min(max(by + dy, 0), h - 1)
                    for dx in range(-1, 3):
                        kx = cubic_kernel(sx - (bx + dx))
                        ix = min(max(bx + dx, 0), w - 1)
                        acc += ky * kx * img[ch, iy, ix]
                out[ch, oy, ox] = acc
    return out


@pytest.mark.parametrize("seed,shape,out", [
    (0, (3, 8, 8), (4, 4)),
    (1, (3, 4, 6), (8, 12)),
    (2, (1, 5, 5), (7, 3)),
    (3, (3, 8, 8), (64, 64)),
])
def test_matches_per_pixel_oracle(seed, shape, out):
    img = Rng(seed).uniform(shape)
    got = bicubic_resize(img, *out)
    want = resize_oracle(img, *out)
    assert np.abs(got - want).max() < 1e-12


def test_unit_scale_is_identity():
    img = Rng(4).uniform((3, 9, 7))
    assert np.abs(bicubic_resize(img, 9, 7) - img).max() < 1e-12


def test_constant_image_reproduced_exactly():
    img = np.full((3, 6, 6), 0.37)
    for hw in ((3, 3), (12, 12), (5, 9)):
        out = bicubic_resize(img, *hw)
        assert np.abs(out - 0.37).max() < 1e-12  # kernel partitions unity


def test_downscale_then_upscale_loses_high_freq():
    img = Rng(5).uniform((3, 32, 32))
    small = bicubic_resize(img, 4, 4)
    back = bicubic_resize(small, 32, 32)
    assert np.abs(back - img).max() > 0.05  # information genuinely destroyed


def test_dtype_preserved():
    img = Rng(6).uniform((3, 8, 8)).astype(np.float32)
    assert bicubic_resize(img, 4, 4).dtype == np.float32
    img64 = img.astype(np.float64)
    assert bicubic_resize(img64, 4, 4).dtype == np.float64


def test_rejects_bad_shapes():
    with pytest.raises(ValueError, match="C, H, W"):
        bicubic_resize(np.zeros((4, 4)), 2, 2)
    with pytest.raises(ValueError, match="positive"):
        bicubic_resize(np.zeros((3, 4, 4)), 0, 2)


def test_overshoot_is_bounded():
    # cubic kernels overshoot at edges, but never wildly
    img = np.zeros((1, 8, 8))
    img[:, 4:, :] = 1.0
    out = bicubic_resize(img, 32, 32)
    assert out.min() > -0.2 and out.max() < 1.2


def einsum_resize(img, out_h, out_w):
    """The two-einsum formulation bicubic_resize had before its cached tap
    plans and row blocks; those promise the same bytes, so results are
    compared exactly."""
    def taps(n_in, n_out):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        base = np.floor(src).astype(np.int64)
        offsets = np.arange(-1, 3)
        idx = np.clip(base[:, None] + offsets[None, :], 0, n_in - 1)
        a, ax = -0.5, np.abs((src - base)[:, None] - offsets[None, :])
        ax2 = ax * ax
        ax3 = ax2 * ax
        near = (a + 2.0) * ax3 - (a + 3.0) * ax2 + 1.0
        far = a * ax3 - 5.0 * a * ax2 + 8.0 * a * ax - 4.0 * a
        return idx, np.where(ax <= 1.0, near, np.where(ax < 2.0, far, 0.0))

    data = img.astype(np.float64)
    ridx, rwts = taps(img.shape[1], out_h)
    tmp = np.einsum("ckjw,kj->ckw", data[:, ridx, :], rwts)
    cidx, cwts = taps(img.shape[2], out_w)
    out = np.einsum("chkj,kj->chk", tmp[:, :, cidx], cwts)
    return out.astype(img.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,out", [
    ((3, 8, 8), (128, 128)),    # x16 residual
    ((3, 8, 8), (256, 256)),
    ((3, 5, 5), (17, 17)),
    ((3, 64, 64), (8, 8)),      # x8 degrade
    ((3, 128, 128), (16, 16)),
    ((3, 9, 7), (9, 7)),        # unit scale
    ((1, 1, 1), (4, 4)),        # 1-pixel extents
    ((2, 4, 4), (1, 1)),
    ((1, 1, 6), (33, 1)),
])
def test_bit_identical_to_einsum_formulation(dtype, shape, out):
    rng = np.random.default_rng(sum(shape) + sum(out))
    for trial in range(3):
        img = rng.uniform(-0.5, 1.5, shape).astype(dtype)
        img[..., ::3] = 0.0
        got, want = bicubic_resize(img, *out), einsum_resize(img, *out)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), trial


def test_tap_plans_are_cached_and_read_only():
    idx, wts = _axis_taps(8, 128)
    assert _axis_taps(8, 128)[0] is idx
    assert not idx.flags.writeable and not wts.flags.writeable
    with pytest.raises(ValueError):
        wts[0, 0] = 1.0
