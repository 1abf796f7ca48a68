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


def test_conv2d_and_pixel_shuffle_reject_rank3():
    # one layout: a single image is a batch of one, never (C, H, W)
    x = Tensor(np.zeros((4, 6, 6)))
    with pytest.raises(ShapeError, match="rank 3 input"):
        conv2d(x, Tensor(np.zeros((2, 4, 3, 3))), stride=1, pad=1)
    with pytest.raises(ShapeError, match="rank 3 input"):
        pixel_shuffle(x, 2)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((2, 4, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((2, 3, 7, 7))))  # kernel exceeds input


def strided_conv_reference(x, w, b, stride, pad, g):
    """conv2d forward and gradients as an as_strided window and a tap loop.

    This is the formulation conv2d used before its gather lowering; the
    lowering promises the same bytes, so results are compared exactly.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if kh == kw == 1 and stride == 1 and pad == 0:
        y = (w.reshape(cout, cin) @ x.reshape(n, cin, h * wd)).reshape(n, cout, h, wd)
        y += b[:, None, None]
        gw = np.tensordot(g, x, axes=([0, 2, 3], [0, 2, 3])).reshape(w.shape)
        gx = (w.reshape(cout, cin).T @ g.reshape(n, cout, ho * wo)).reshape(n, cin, h, wd)
    else:
        xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + wd] = x
        s0, s1, s2, s3 = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp, (n, cin, ho, wo, kh, kw), (s0, s1, s2 * stride, s3 * stride, s2, s3))
        mat = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, cin * kh * kw)
        y = mat @ w.reshape(cout, -1).T
        np.add(y, b, out=y)
        y = np.ascontiguousarray(y.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2))
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
        gw = (gmat.T @ mat).reshape(w.shape)
        gcols = (gmat @ w.reshape(cout, -1)).reshape(n, ho, wo, cin, kh, kw)
        gcols = gcols.transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride,
                    j:j + stride * wo:stride] += gcols[:, :, :, :, i, j]
        gx = gxp[:, :, pad:pad + h, pad:pad + wd]
    gb = g.sum(axis=(0, 2, 3))
    return y, gx, gw, gb


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_bit_identical_to_strided_reference(dtype, batched, stride, pad, k):
    rng = np.random.default_rng(100 * stride + 10 * pad + k)
    cin, cout, h, wd = 3, 4, 5, 6
    lead = (2,) if batched else (1,)
    x = rng.standard_normal(lead + (cin, h, wd)).astype(dtype)
    x[..., ::4] = 0.0
    w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    g = rng.standard_normal(lead + (cout, ho, wo)).astype(dtype)
    g[..., 0] = -0.0  # a scatter-add from +0.0 never yields -0.0
    ref = strided_conv_reference(x, w, b, stride, pad, g)
    out = conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                 Tensor(b, requires_grad=True), stride=stride, pad=pad)
    got = (out.data,) + tuple(out._backward(g))
    for name, r, v in zip(("y", "gx", "gw", "gb"), ref, got):
        assert same_bytes(np.asarray(v), r), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 1)])
def test_conv2d_one_output_channel_bit_identical(dtype, batched, stride, k, pad):
    # a one-channel kernel forms its input gradient without a GEMM; zeros of
    # either sign in the gradient and a zero weight tap must not change bytes.
    # (A padded 1x1 kernel is left out: on a batch of one the reference's
    # window matrix is a strided view, and its weight gradient rounds apart.)
    rng = np.random.default_rng(1000 + 100 * stride + 10 * pad + k)
    cin, h, wd = 3, 5, 6
    lead = (2,) if batched else (1,)
    x = rng.standard_normal(lead + (cin, h, wd)).astype(dtype)
    w = rng.standard_normal((1, cin, k, k)).astype(dtype)
    w[0, 0, 0, 0] = 0.0
    b = rng.standard_normal(1).astype(dtype)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    g = rng.standard_normal(lead + (1, ho, wo)).astype(dtype)
    g[..., 0] = -0.0
    g[..., 1] = 0.0
    ref = strided_conv_reference(x, w, b, stride, pad, g)
    out = conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                 Tensor(b, requires_grad=True), stride=stride, pad=pad)
    got = (out.data,) + tuple(out._backward(g))
    for name, r, v in zip(("y", "gx", "gw", "gb"), ref, got):
        assert same_bytes(np.asarray(v), r), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_bit_identical_on_single_pixel(dtype):
    # all nine taps of every output read the one pixel, so its gradient is a
    # nine-term sum that must keep the reference's sequential order
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 1, 1, 1)).astype(dtype)
    w = (rng.standard_normal((2, 1, 3, 3)) * 10.0 ** rng.integers(-6, 6, (2, 1, 3, 3))).astype(dtype)
    b = rng.standard_normal(2).astype(dtype)
    g = rng.standard_normal((1, 2, 3, 3)).astype(dtype)
    ref = strided_conv_reference(x, w, b, 1, 2, g)
    out = conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                 Tensor(b, requires_grad=True), stride=1, pad=2)
    got = (out.data,) + tuple(out._backward(g))
    for name, r, v in zip(("y", "gx", "gw", "gb"), ref, got):
        assert same_bytes(np.asarray(v), r), name


@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_constant_input_gets_no_gradient(k):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 3, 5, 5))
    w = Tensor(rng.standard_normal((2, 3, k, k)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    g = rng.standard_normal((1, 2, 5, 5))
    pad = k // 2
    gx, gw, gb = conv2d(Tensor(x), w, b, stride=1, pad=pad)._backward(g)
    assert gx is None
    _, gw_ref, gb_ref = conv2d(Tensor(x, requires_grad=True), w, b,
                               stride=1, pad=pad)._backward(g)
    assert same_bytes(gw, gw_ref) and same_bytes(gb, gb_ref)


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
def test_concat_backward_matches_split(axis):
    rng = np.random.default_rng(8)
    shapes = [[2, 3, 4], [2, 3, 4], [2, 3, 4]]
    for s, extent in zip(shapes, (1, 3, 2)):
        s[axis] = extent
    parts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = concat(parts, axis=axis)
    g = rng.standard_normal(out.shape)
    ref = np.split(g, np.cumsum([s[axis] for s in shapes])[:-1], axis=axis)
    got = out._backward(g)
    assert len(got) == 3
    for r, v in zip(ref, got):
        assert same_bytes(v, r)


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


def attention_reference(q, k, v, heads, g):
    """scaled_dot_attention forward and gradients with the row max taken by
    `max`, as the op computed it before its `fmax` reduction; the max is
    exact, so results are compared byte for byte."""
    def unbroadcast(x, shape):
        if x.shape == shape:
            return x
        extra = x.ndim - len(shape)
        if extra:
            x = x.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, d in enumerate(shape) if d == 1 and x.shape[i] != 1)
        return x.sum(axis=axes, keepdims=True) if axes else x

    def head_axes(n):
        return tuple(range(n)) + (n + 1, n, n + 2)

    t, d = q.shape[-2:]
    s, dv = k.shape[-2], v.shape[-1]
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    dh, dvh = d // heads, dv // heads
    sc = 1.0 / math.sqrt(dh)
    qh = q.reshape(q.shape[:-2] + (t, heads, dh)).transpose(head_axes(q.ndim - 2)) * sc
    kh = k.reshape(k.shape[:-2] + (s, heads, dh)).transpose(head_axes(k.ndim - 2))
    vh = v.reshape(v.shape[:-2] + (s, heads, dvh)).transpose(head_axes(v.ndim - 2))
    a = qh @ kh.swapaxes(-1, -2)
    np.subtract(a, a.max(axis=-1, keepdims=True), out=a)
    np.exp(a, out=a)
    np.divide(a, a.sum(axis=-1, keepdims=True), out=a)
    hx = head_axes(len(lead))
    out = (a @ vh).transpose(hx).reshape(lead + (t, dv))
    gh = g.reshape(lead + (t, heads, dvh)).transpose(hx)
    gv = a.swapaxes(-1, -2) @ gh
    ga = gh @ vh.swapaxes(-1, -2)
    gl = a * (ga - (ga * a).sum(axis=-1, keepdims=True))
    gq = (gl @ kh) * sc
    gk = gl.swapaxes(-1, -2) @ qh
    return (out,
            unbroadcast(gq.transpose(hx).reshape(lead + (t, d)), q.shape),
            unbroadcast(gk.transpose(hx).reshape(lead + (s, d)), k.shape),
            unbroadcast(gv.transpose(hx).reshape(lead + (s, dv)), v.shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shapes", [
    ((5, 8), (7, 8), (7, 12)),                   # one token matrix each
    ((4, 5, 8), (4, 7, 8), (4, 7, 12)),          # batched
    ((2, 3, 5, 8), (3, 7, 8), (1, 7, 12)),       # broadcast leading axes
    ((64, 32), (64, 32), (64, 32)),              # one block's self-attention
], ids=["unbatched", "batched", "broadcast", "block"])
def test_attention_bit_identical_to_max_reference(dtype, shapes):
    rng = np.random.default_rng(len(shapes[0]))
    q, k, v = (rng.standard_normal(sh).astype(dtype) * 3 for sh in shapes)
    out = scaled_dot_attention(Tensor(q, requires_grad=True), Tensor(k, requires_grad=True),
                               Tensor(v, requires_grad=True), heads=4)
    g = rng.standard_normal(out.shape).astype(dtype)
    ref = attention_reference(q, k, v, 4, g)
    got = (out.data,) + tuple(out._backward(g))
    for name, r, x in zip(("out", "gq", "gk", "gv"), ref, got):
        assert same_bytes(np.asarray(x), r), name


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
    x3 = rng.standard_normal((3, 4, 5))  # (N, T, D) tokens
    assert np.allclose(global_avg_pool(Tensor(x3)).data, x3.mean(axis=1))
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
