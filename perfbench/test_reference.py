"""Property tests for the benchmark's reference computations.

Run with `python3 -m pytest perfbench/test_reference.py`.
"""

import math

import numpy as np
import pytest

import reference as ref

SIZES = [(8, 64), (64, 8), (128, 8), (8, 128), (5, 7), (9, 4), (16, 16)]


@pytest.mark.parametrize("n_in,n_out", SIZES)
def test_resize_reproduces_constants(n_in, n_out):
    img = np.empty((3, n_in, n_in))
    img[:] = np.array([0.2, 0.55, 0.9])[:, None, None]
    out = ref.resize(img, n_out, n_out)
    assert out.shape == (3, n_out, n_out)
    np.testing.assert_allclose(out, np.broadcast_to(img[:, :1, :1], out.shape), atol=1e-12)


@pytest.mark.parametrize("n_in,n_out", SIZES)
def test_resize_rows_sum_to_one(n_in, n_out):
    np.testing.assert_allclose(ref.resize_matrix(n_in, n_out).sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("h,w", [(1, 1), (4, 9), (13, 6)])
def test_resize_unit_scale_is_identity(h, w):
    img = np.random.default_rng(h * w).random((3, h, w))
    np.testing.assert_allclose(ref.resize(img, h, w), img, atol=1e-12)


def test_cubic_weight_interpolates():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 2.5])
    np.testing.assert_array_equal(ref.cubic_weight(x), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("mse", [1e-4, 2.5e-3, 0.04])
def test_psnr_matches_known_mse(mse):
    a = np.full((3, 16, 16), 0.5)
    b = a.copy()
    b[:, ::2] += math.sqrt(mse)
    b[:, 1::2] -= math.sqrt(mse)
    assert ref.psnr(a, b) == pytest.approx(-10.0 * math.log10(mse), abs=1e-9)


def test_ssim_of_image_with_itself_is_one():
    img = np.random.default_rng(1).random((3, 32, 40))
    assert ref.ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_drops_under_noise():
    rng = np.random.default_rng(2)
    img = rng.random((3, 32, 32))
    noisy = np.clip(img + 0.2 * rng.standard_normal(img.shape), 0.0, 1.0)
    assert ref.ssim(img, noisy) < 0.9


def test_global_ssim_of_identical_signals_is_one():
    sig = np.random.default_rng(3).standard_normal(50)
    assert ref.global_ssim(sig, sig) == pytest.approx(1.0, abs=1e-12)
    assert ref.global_ssim(sig, sig + 0.5 * np.abs(sig).max()) < 0.9


def test_read_ppm_round_trip(tmp_path):
    pixels = np.arange(9, 9 + 2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n3 2\n255\n" + pixels.tobytes())
    np.testing.assert_array_equal(ref.read_ppm(path) * 255.0, pixels.transpose(2, 0, 1))
