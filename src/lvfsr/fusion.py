"""Prior fusion block: four parallel branches gate or cross-attend the image
feature with the semantic, depth, caption, and description priors, then a
zero-initialized 1x1 projection folds them back onto a skip connection.

Zero init makes every block the identity map at construction, so a fresh
network ignores the priors entirely until training opens the gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ShapeError
import numpy as np

from .numeric import (Tensor, add, concat, constant, conv2d, gelu,
                      global_avg_pool, linear, mul, reshape,
                      scaled_dot_attention, sigmoid, transpose)
from .params import ParamStore

# concat order is part of the checkpoint contract; changing it invalidates
# every saved model
BRANCH_ORDER = ("seg", "dep", "cap", "des")


@dataclass
class ConvGate:
    """conv3x3 -> gelu -> conv3x3 -> sigmoid, yielding a 1-channel spatial map."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ChannelGate:
    w: Tensor
    b: Tensor


@dataclass
class AttnProj:
    qw: Tensor
    qb: Tensor
    kw: Tensor
    kb: Tensor
    vw: Tensor
    vb: Tensor
    ow: Tensor
    ob: Tensor


@dataclass
class CrossAttention:
    stage1: AttnProj
    stage2: AttnProj
    heads: int


@dataclass
class FusionParams:
    seg: Optional[ConvGate]
    dep: Optional[ConvGate]
    cap: Optional[ChannelGate]
    des: Optional[CrossAttention]
    fuse_w: Tensor
    fuse_b: Tensor

    def enabled(self) -> Tuple[str, ...]:
        return tuple(n for n in BRANCH_ORDER if getattr(self, n) is not None)


def build_fusion_params(store: ParamStore, prefix: str, c: int, d_c: int,
                        d_d: int, heads: int,
                        branches: Sequence[str] = BRANCH_ORDER) -> FusionParams:
    seg = dep = cap = des = None
    if "seg" in branches:
        seg = ConvGate(*store.conv(f"{prefix}.seg.conv1", c, 2 * c, 3),
                       *store.conv(f"{prefix}.seg.conv2", 1, c, 3))
    if "dep" in branches:
        dep = ConvGate(*store.conv(f"{prefix}.dep.conv1", c, 2 * c, 3),
                       *store.conv(f"{prefix}.dep.conv2", 1, c, 3))
    if "cap" in branches:
        cap = ChannelGate(*store.linear(f"{prefix}.cap.gate", c, d_c))
    if "des" in branches:
        s1 = AttnProj(*store.linear(f"{prefix}.des.s1.q", c, d_d),
                      *store.linear(f"{prefix}.des.s1.k", c, c),
                      *store.linear(f"{prefix}.des.s1.v", c, c),
                      *store.linear(f"{prefix}.des.s1.o", c, c))
        s2 = AttnProj(*store.linear(f"{prefix}.des.s2.q", c, c),
                      *store.linear(f"{prefix}.des.s2.k", c, c),
                      *store.linear(f"{prefix}.des.s2.v", c, c),
                      *store.linear(f"{prefix}.des.s2.o", c, c))
        des = CrossAttention(s1, s2, heads)
    n_in = (len([b for b in BRANCH_ORDER if b in branches]) + 1) * c
    fuse_w, fuse_b = store.conv(f"{prefix}.fuse", c, n_in, 1, zero=True)
    return FusionParams(seg, dep, cap, des, fuse_w, fuse_b)


def _spatial_gate(feat: Tensor, prior: Tensor, g: ConvGate) -> Tensor:
    if feat.shape != prior.shape:
        raise ShapeError(f"gate branch: feature {feat.shape} vs prior {prior.shape}")
    a = conv2d(concat([feat, prior], axis=1), g.w1, g.b1, stride=1, pad=1)
    a = sigmoid(conv2d(gelu(a), g.w2, g.b2, stride=1, pad=1))
    return mul(feat, a)  # a is (N, 1, H, W), broadcast over channels


def seg_attention(feat: Tensor, seg_feat: Tensor, g: ConvGate) -> Tensor:
    return _spatial_gate(feat, seg_feat, g)


def dep_attention(feat: Tensor, dep_feat: Tensor, g: ConvGate) -> Tensor:
    return _spatial_gate(feat, dep_feat, g)


def cap_attention(feat: Tensor, cap_vec: Tensor, g: ChannelGate) -> Tensor:
    """Global channel gate from the caption embedding: an (N, d_c) caption
    gates each image, a (1, d_c) one every image of the batch."""
    gate = sigmoid(linear(cap_vec, g.w, g.b))
    return mul(feat, reshape(gate, gate.shape + (1, 1)))


def _pixels(feat: Tensor) -> Tensor:
    """(N, C, H, W) feature map to (N, H*W, C) pixel tokens."""
    n, c, h, w = feat.shape
    return transpose(reshape(feat, (n, c, h * w)), (0, 2, 1))


def _unpixels(toks: Tensor, h: int, w: int) -> Tensor:
    """(N, H*W, C) pixel tokens back to an (N, C, H, W) feature map."""
    n, _, c = toks.shape
    return reshape(transpose(toks, (0, 2, 1)), (n, c, h, w))


def des_attention(feat: Tensor, tokens: Tensor, ca: CrossAttention) -> Tensor:
    """Two-stage cross attention.

    Stage 1 follows the stated query/key/value assignment: description tokens
    (N, T, d_d) query the pixel features, producing image-grounded token
    features U. Stage 2 flips direction so each pixel queries U, which
    re-spatializes the token content to an (N, C, H, W) map.
    """
    if tokens.shape[-2] < 1:
        raise ShapeError("description branch requires at least one token")
    h, w = feat.shape[-2:]
    px = _pixels(feat)
    s1, s2 = ca.stage1, ca.stage2
    q1 = linear(tokens, s1.qw, s1.qb)
    u = scaled_dot_attention(q1, linear(px, s1.kw, s1.kb),
                             linear(px, s1.vw, s1.vb), ca.heads)
    u = linear(u, s1.ow, s1.ob)
    q2 = linear(px, s2.qw, s2.qb)
    o = scaled_dot_attention(q2, linear(u, s2.kw, s2.kb),
                             linear(u, s2.vw, s2.vb), ca.heads)
    o = linear(o, s2.ow, s2.ob)
    return _unpixels(o, h, w)


def fusion_branch(name: str, feat: Tensor, inputs: Dict[str, Tensor],
                  p: FusionParams) -> Tensor:
    """The output of one branch, reading only its own prior and parameters."""
    # resolved through the module globals at call time, so a caller that
    # rebinds a branch function (a per-layer timer) still sees every call
    if name == "seg":
        return seg_attention(feat, inputs["seg"], p.seg)
    elif name == "dep":
        return dep_attention(feat, inputs["dep"], p.dep)
    elif name == "cap":
        return cap_attention(feat, inputs["cap"], p.cap)
    elif name == "des":
        return des_attention(feat, inputs["des"], p.des)
    raise ValueError(f"unknown fusion branch '{name}'")


def fusion_merge(feat: Tensor, outs: List[Tensor], p: FusionParams) -> Tensor:
    """feat + conv1x1(concat[outs..., feat]), outs in BRANCH_ORDER."""
    fused = conv2d(concat(outs + [feat], axis=1), p.fuse_w, p.fuse_b, stride=1, pad=0)
    return add(feat, fused)


def fusion_forward(feat: Tensor, inputs: Dict[str, Tensor],
                   p: FusionParams) -> Tensor:
    """feat + conv1x1(concat[branch outputs..., feat]) over enabled branches.

    feat is (N, C, H, W), and so are the spatial priors. The caption (N, d_c)
    and the tokens (N, T, d_d) may also have N = 1, which serves every image.
    """
    return fusion_merge(feat, [fusion_branch(n, feat, inputs, p) for n in p.enabled()], p)


@dataclass
class ConcatFusion:
    """Ablation baseline: project priors to channel maps, concat, 1x1 conv."""
    cap_w: Tensor
    cap_b: Tensor
    des_w: Tensor
    des_b: Tensor
    fuse_w: Tensor
    fuse_b: Tensor


def build_concat_fusion(store: ParamStore, prefix: str, c: int, d_c: int,
                        d_d: int) -> ConcatFusion:
    return ConcatFusion(*store.linear(f"{prefix}.capmap", c, d_c),
                        *store.linear(f"{prefix}.desmap", c, d_d),
                        *store.conv(f"{prefix}.fuse", c, 5 * c, 1, zero=True))


def concat_fusion_forward(feat: Tensor, inputs: Dict[str, Tensor],
                          p: ConcatFusion) -> Tensor:
    """Broadcast the embedding priors spatially, concat all five, project."""
    ones = constant(np.ones(feat.shape, dtype=feat.data.dtype))
    cap = linear(inputs["cap"], p.cap_w, p.cap_b)
    capmap = mul(ones, reshape(cap, cap.shape + (1, 1)))
    des = linear(global_avg_pool(inputs["des"]), p.des_w, p.des_b)
    desmap = mul(ones, reshape(des, des.shape + (1, 1)))
    stacked = concat([inputs["seg"], inputs["dep"], capmap, desmap, feat], axis=1)
    fused = conv2d(stacked, p.fuse_w, p.fuse_b, stride=1, pad=0)
    return add(feat, fused)
