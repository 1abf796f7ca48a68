"""Forward-path oracles for the tensor ops."""

import math

import numpy as np
import pytest
from scipy.special import expit

from lvfsr.errors import NonFiniteError, ShapeError
from lvfsr.numeric import (Tensor, add, concat, conv2d, gelu, global_avg_pool,
                           layer_norm, linear, mean_abs, mean_all, mul,
                           pixel_shuffle, reshape, scale, scaled_dot_attention,
                           sigmoid, softmax, sub, sum_all, transpose)


def conv_oracle(x, w, b, stride, pad):
    """Nested-loop cross-correlation, deliberately naive."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    y[ni, co, i, j] = (patch * w[co]).sum() + b[co]
    return y


@pytest.mark.parametrize("seed", range(6))
def test_conv2d_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    kh = int(rng.integers(1, 4))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h = int(rng.integers(kh + 2, 9))
    x = rng.standard_normal((2, cin, h, h))
    w = rng.standard_normal((cout, cin, kh, kh))
    b = rng.standard_normal(cout)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
    assert np.allclose(got, conv_oracle(x, w, b, stride, pad), atol=1e-10)


def test_conv2d_unbatched_chw():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6, 6))
    w = rng.standard_normal((2, 3, 3, 3))
    b = rng.standard_normal(2)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1)
    ref = conv_oracle(x[None], w, b, 1, 1)[0]
    assert got.shape == (2, 6, 6)
    assert np.allclose(got.data, ref, atol=1e-10)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((2, 4, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((2, 3, 7, 7))))  # kernel exceeds input


def test_linear_matches_einsum():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5, 6))
    w = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    got = linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.allclose(got, np.einsum("abi,oi->abo", x, w) + b, atol=1e-12)
    with pytest.raises(ShapeError):
        linear(Tensor(x), Tensor(np.zeros((3, 7))))


def test_softmax_rows_normalized_and_stable():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 7)) * 50  # large logits stress stability
    y = softmax(Tensor(x), axis=-1).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.isfinite(y).all()
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(y, e / e.sum(axis=-1, keepdims=True), atol=1e-12)


def attention_oracle(q, k, v, heads):
    t, d = q.shape
    dv = v.shape[1]
    dh, dvh = d // heads, dv // heads
    out = np.zeros((t, dv))
    for h in range(heads):
        qh = q[:, h * dh:(h + 1) * dh]
        kh = k[:, h * dh:(h + 1) * dh]
        vh = v[:, h * dvh:(h + 1) * dvh]
        lo = qh @ kh.T / math.sqrt(dh)
        lo -= lo.max(axis=-1, keepdims=True)
        e = np.exp(lo)
        out[:, h * dvh:(h + 1) * dvh] = (e / e.sum(axis=-1, keepdims=True)) @ vh
    return out


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_per_head_oracle(heads):
    rng = np.random.default_rng(heads)
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((7, 8))
    v = rng.standard_normal((7, 12))
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads=heads).data
    assert np.allclose(got, attention_oracle(q, k, v, heads), atol=1e-12)


def test_attention_shape_errors():
    q, k, v = (Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 6))),
               Tensor(np.zeros((5, 8))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(q, k, v)
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 8))),
                             Tensor(np.zeros((5, 8))), heads=3)
    with pytest.raises(ShapeError):  # batch axes that do not broadcast
        scaled_dot_attention(Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((3, 5, 8))),
                             Tensor(np.zeros((3, 5, 8))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.zeros(8)), Tensor(np.zeros((5, 8))),
                             Tensor(np.zeros((5, 8))))


def test_attention_batch_axes_match_per_sample():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((3, 5, 8))
    k = rng.standard_normal((3, 7, 8))
    v = rng.standard_normal((3, 7, 12))
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    shared = scaled_dot_attention(Tensor(q[0]), Tensor(k), Tensor(v), heads=2).data
    assert got.shape == shared.shape == (3, 5, 12)
    for i in range(3):
        one = scaled_dot_attention(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]), heads=2).data
        np.testing.assert_allclose(got[i], one, rtol=0, atol=1e-14)
        np.testing.assert_allclose(shared[i], attention_oracle(q[0], k[i], v[i], 2),
                                   rtol=0, atol=1e-12)


def test_layer_norm_formula():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 9))
    g = rng.standard_normal(9)
    b = rng.standard_normal(9)
    got = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    assert np.allclose(got, g * (x - mu) / np.sqrt(var + 1e-5) + b, atol=1e-12)


def test_sigmoid_and_gelu_pointwise():
    x = np.linspace(-4, 4, 33)
    assert np.allclose(sigmoid(Tensor(x)).data, expit(x), atol=1e-15)
    from scipy.special import erf
    ref = x * 0.5 * (1.0 + erf(x / math.sqrt(2)))
    assert np.allclose(gelu(Tensor(x)).data, ref, atol=1e-15)


def test_pixel_shuffle_enumeration():
    # output (c, y, x) must read input channel c*r*r + (y%r)*r + (x%r)
    r, c, h, w = 2, 1, 2, 3
    x = np.arange(c * r * r * h * w, dtype=np.float64).reshape(1, c * r * r, h, w)
    y = pixel_shuffle(Tensor(x), r).data
    assert y.shape == (1, c, h * r, w * r)
    for yy in range(h * r):
        for xx in range(w * r):
            src_c = (yy % r) * r + (xx % r)
            assert y[0, 0, yy, xx] == x[0, src_c, yy // r, xx // r]
    with pytest.raises(ShapeError):
        pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))), 2)


def test_global_avg_pool_ranks():
    rng = np.random.default_rng(4)
    x4 = rng.standard_normal((2, 3, 4, 5))
    assert np.allclose(global_avg_pool(Tensor(x4)).data, x4.mean(axis=(2, 3)))
    x3 = rng.standard_normal((3, 4, 5))
    assert np.allclose(global_avg_pool(Tensor(x3)).data, x3.mean(axis=(1, 2)))
    toks = rng.standard_normal((6, 5))
    assert np.allclose(global_avg_pool(Tensor(toks)).data, toks.mean(axis=0))
    with pytest.raises(ShapeError):
        global_avg_pool(Tensor(np.zeros(3)))


def test_elementwise_and_movement():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((1, 4))
    assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)
    assert np.array_equal(sub(Tensor(a), Tensor(b)).data, a - b)
    assert np.array_equal(mul(Tensor(a), Tensor(b)).data, a * b)
    assert np.array_equal(scale(Tensor(a), -2.5).data, a * -2.5)
    assert np.array_equal(reshape(Tensor(a), (4, 3)).data, a.reshape(4, 3))
    assert np.array_equal(transpose(Tensor(a), (1, 0)).data, a.T)
    cat = concat([Tensor(a), Tensor(a)], axis=0)
    assert np.array_equal(cat.data, np.concatenate([a, a], axis=0))
    with pytest.raises(ShapeError):
        concat([Tensor(a), Tensor(rng.standard_normal((3, 5)))], axis=0)


def test_reductions():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 5))
    assert sum_all(Tensor(x)).item() == pytest.approx(x.sum(), abs=1e-12)
    assert mean_all(Tensor(x)).item() == pytest.approx(x.mean(), abs=1e-12)
    assert mean_abs(Tensor(x)).item() == pytest.approx(np.abs(x).mean(), abs=1e-12)


def test_non_finite_forward_raises():
    bad = Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        add(bad, Tensor(np.ones(2)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        mul(Tensor(np.array([1e308, 1e308])), Tensor(np.array([10.0, 10.0])))
