"""Prior fusion block: branch semantics, identity at init, ablation variant."""

import numpy as np
import pytest

from lvfsr.errors import ShapeError
from lvfsr.fusion import (BRANCH_ORDER, build_concat_fusion,
                          build_fusion_params, cap_attention,
                          concat_fusion_forward, dep_attention, des_attention,
                          fusion_forward, seg_attention)
from lvfsr.numeric import Rng, constant
from lvfsr.params import ParamStore

C, H, W, T, D_C, D_D, HEADS = 6, 5, 4, 3, 10, 12, 2


def feature(seed, shape=(1, C, H, W)):
    return constant(Rng(seed).uniform(shape, -1.0, 1.0))


def branch_inputs(seed):
    r = Rng(seed)
    return {
        "seg": constant(r.stream("seg").uniform((1, C, H, W), -1.0, 1.0)),
        "dep": constant(r.stream("dep").uniform((1, C, H, W), -1.0, 1.0)),
        "cap": constant(r.stream("cap").uniform((1, D_C), -1.0, 1.0)),
        "des": constant(r.stream("des").uniform((1, T, D_D), -1.0, 1.0)),
    }


def fresh_params(seed=0, branches=BRANCH_ORDER):
    store = ParamStore(seed)
    p = build_fusion_params(store, "f", C, D_C, D_D, HEADS, branches)
    return store, p


def test_fusion_forward_batch_axis_matches_per_image():
    # both fusion kinds, with the caption and tokens shared by the batch
    # (a batch axis of 1) and with one caption and token set per image
    _, p = fresh_params(seed=21)
    cat = build_concat_fusion(ParamStore(21), "cf", C, D_C, D_D)
    for t in (p.fuse_w, p.fuse_b, cat.fuse_w, cat.fuse_b):  # open the zero-init projections
        t.data = Rng(22).stream(str(t.shape)).uniform(t.shape, -0.3, 0.3)
    feats = [feature(23 + i) for i in range(3)]
    priors = [branch_inputs(26 + i) for i in range(3)]
    batch = constant(np.concatenate([f.data for f in feats]))
    joined = {name: constant(np.concatenate([pr[name].data for pr in priors]))
              for name in BRANCH_ORDER}
    shared = {"cap": priors[0]["cap"], "des": priors[0]["des"]}
    for forward, params in ((fusion_forward, p), (concat_fusion_forward, cat)):
        for embed in (shared, {}):
            got = forward(batch, dict(joined, **embed), params).data
            assert got.shape == (3, C, H, W)
            for i, (f, pr) in enumerate(zip(feats, priors)):
                one = forward(f, dict(pr, **embed), params).data
                np.testing.assert_allclose(got[i:i + 1], one, rtol=0, atol=1e-14)


def test_branch_order_is_fixed():
    # serialized checkpoints depend on this exact order
    assert BRANCH_ORDER == ("seg", "dep", "cap", "des")


def test_identity_at_init_bitwise():
    feat = feature(1)
    _, p = fresh_params()
    out = fusion_forward(feat, branch_inputs(2), p)
    assert out.data is not feat.data
    assert np.array_equal(out.data, feat.data)


@pytest.mark.parametrize("branches", [("seg",), ("cap",), ("des",),
                                      ("seg", "dep"), ("dep", "cap", "des")])
def test_identity_at_init_any_subset(branches):
    feat = feature(3)
    _, p = fresh_params(seed=4, branches=branches)
    assert p.enabled() == tuple(b for b in BRANCH_ORDER if b in branches)
    out = fusion_forward(feat, branch_inputs(5), p)
    assert np.array_equal(out.data, feat.data)


def test_fuse_width_tracks_branch_count():
    _, p = fresh_params(branches=("seg", "cap"))
    assert p.fuse_w.shape == (C, 3 * C, 1, 1)
    _, full = fresh_params()
    assert full.fuse_w.shape == (C, 5 * C, 1, 1)


def test_spatial_gate_zero_conv_halves_feature():
    feat = feature(6)
    store, p = fresh_params(seed=7)
    p.seg.w2.data[:] = 0.0
    p.seg.b2.data[:] = 0.0
    out = seg_attention(feat, branch_inputs(8)["seg"], p.seg)
    assert np.allclose(out.data, 0.5 * feat.data)


def test_spatial_gate_output_bounded_by_feature():
    # sigmoid gate in (0,1): |out| <= |feat| elementwise
    feat = feature(9)
    _, p = fresh_params(seed=10)
    out = dep_attention(feat, branch_inputs(11)["dep"], p.dep)
    assert np.all(np.abs(out.data) <= np.abs(feat.data) + 1e-12)


def test_spatial_gate_shape_mismatch():
    _, p = fresh_params()
    with pytest.raises(ShapeError, match="gate branch"):
        seg_attention(feature(0), feature(1, (1, C, H, W + 1)), p.seg)


def test_cap_gate_zero_weights_halve_feature():
    feat = feature(12)
    _, p = fresh_params(seed=13)
    p.cap.w.data[:] = 0.0
    out = cap_attention(feat, branch_inputs(14)["cap"], p.cap)
    assert np.allclose(out.data, 0.5 * feat.data)


def test_cap_gate_is_per_channel():
    feat = constant(np.ones((1, C, H, W)))
    _, p = fresh_params(seed=15)
    out = cap_attention(feat, branch_inputs(16)["cap"], p.cap)
    for ch in range(C):
        plane = out.data[0, ch]
        assert plane.min() == plane.max()  # constant within a channel


def _softmax(rows):
    e = np.exp(rows - rows.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _mha_oracle(q, k, v, heads):
    tq, d = q.shape
    dh = d // heads
    out = np.empty((tq, d))
    for hh in range(heads):
        qs = q[:, hh * dh:(hh + 1) * dh]
        ks = k[:, hh * dh:(hh + 1) * dh]
        vs = v[:, hh * dh:(hh + 1) * dh]
        att = _softmax(qs @ ks.T / np.sqrt(dh))
        out[:, hh * dh:(hh + 1) * dh] = att @ vs
    return out


def test_des_attention_matches_numpy_oracle():
    """Two-stage cross attention re-derived with plain numpy."""
    feat = feature(17)
    toks = branch_inputs(18)["des"]
    _, p = fresh_params(seed=19)
    got = des_attention(feat, toks, p.des).data

    def lin(x, wt, bt):
        return x @ wt.data.T.astype(np.float64) + bt.data.astype(np.float64)

    px = feat.data.reshape(C, H * W).T.astype(np.float64)
    s1, s2 = p.des.stage1, p.des.stage2
    u = _mha_oracle(lin(toks.data[0].astype(np.float64), s1.qw, s1.qb),
                    lin(px, s1.kw, s1.kb), lin(px, s1.vw, s1.vb), HEADS)
    u = lin(u, s1.ow, s1.ob)
    o = _mha_oracle(lin(px, s2.qw, s2.qb), lin(u, s2.kw, s2.kb),
                    lin(u, s2.vw, s2.vb), HEADS)
    o = lin(o, s2.ow, s2.ob)
    want = o.T.reshape(1, C, H, W)
    assert np.abs(got - want).max() < 1e-12


def test_des_attention_single_token_ok():
    feat = feature(20)
    _, p = fresh_params(seed=21)
    one = constant(Rng(22).uniform((1, 1, D_D), -1.0, 1.0))
    assert des_attention(feat, one, p.des).shape == (1, C, H, W)


def test_branches_share_no_parameters():
    store, _ = fresh_params(seed=23)
    groups = {}
    for name in store.params:
        assert name.startswith("f.")
        groups.setdefault(name.split(".")[1], set()).add(name)
    tags = sorted(groups)
    assert tags == ["cap", "dep", "des", "fuse", "seg"]
    for a in tags:
        for b in tags:
            if a != b:
                assert not (groups[a] & groups[b])


def test_fusion_forward_gradient_reaches_all_branches():
    from lvfsr.numeric import backward, mean_abs
    store, p = fresh_params(seed=24)
    # open the fuse projection, otherwise branch grads are zero by design
    p.fuse_w.data[:] = Rng(25).uniform(p.fuse_w.shape, -0.1, 0.1)
    out = fusion_forward(feature(26), branch_inputs(27), p)
    grads = backward(mean_abs(out))
    for name, t in store.params.items():
        if name.endswith(".bias") and ".fuse" not in name:
            continue  # second-conv biases sit behind saturating sigmoids
        assert name in grads, name


def test_concat_fusion_identity_at_init():
    feat = feature(28)
    store = ParamStore(29)
    p = build_concat_fusion(store, "cf", C, D_C, D_D)
    out = concat_fusion_forward(feat, branch_inputs(30), p)
    assert np.array_equal(out.data, feat.data)


def test_concat_fusion_param_count_below_full():
    sa = ParamStore(0)
    build_concat_fusion(sa, "x", C, D_C, D_D)
    sb = ParamStore(0)
    build_fusion_params(sb, "x", C, D_C, D_D, HEADS)
    assert sa.count() < sb.count()
