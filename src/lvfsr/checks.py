"""Gradient-check targets: individual ops, the fusion block, the full network.

Builders follow the grad_check protocol: given a seed they return named
float64 parameters plus a forward closure. Losses are probe-weighted sums
(linear in the op output), which keeps the objective smooth so central
differences measure the op's own backward rule; kinked reductions get inputs
bounded away from their kinks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .fusion import (BRANCH_ORDER, FusionParams, build_fusion_params,
                     fusion_branch, fusion_forward, fusion_merge)
from .network import Model, NetworkConfig
from .numeric import (Rng, Tensor, add, concat, constant, conv2d, gelu,
                      global_avg_pool, grad_check, layer_norm, linear,
                      mean_abs, mean_all, mul, pixel_shuffle, reshape, scale,
                      scaled_dot_attention, sigmoid, softmax, sub, sum_all,
                      transpose)
from .numeric.tensor import parameter
from .params import ParamStore
from .priors import synth_priors
from .training import degrade

TOLERANCE = 1e-4

DESK_FUSION = dict(c=8, h=4, w=4, t=2, d_c=16, d_d=16, heads=2)
DESK_NETWORK = NetworkConfig(l=2, c=8, heads=4, r=8, d_c=16, d_d=16, k=4, h=8, w=8)
NETWORK_BATCH = 16   # finite-difference points stacked per batched evaluation
CHECK_WORKERS = 2    # processes sharing the finite differences of network


def _join(ts: List[Tensor]) -> Tensor:
    return constant(np.concatenate([t.data for t in ts]))


def _probe(rng: Rng) -> Callable[[Tensor], Tensor]:
    """Probe-weighted mean loss; weights draw once per shape and are reused."""
    cache: Dict[tuple, Tensor] = {}

    def loss(out: Tensor) -> Tensor:
        w = cache.get(out.shape)
        if w is None:
            w = constant(rng.stream("fwd").stream("probe").uniform(
                out.shape, -1.0, 1.0))
            cache[out.shape] = w
        return mean_all(mul(out, w))

    return loss


def _simple(spec: Dict[str, Tuple[tuple, float, float]], fn) -> Callable:
    """Builder factory: draw each named input, probe the op output."""

    def builder(seed: int):
        rr = Rng(seed)
        params = {name: parameter(rr.stream(name).uniform(shape, lo, hi), name)
                  for name, (shape, lo, hi) in spec.items()}
        probe = _probe(Rng(seed))

        def forward():
            return probe(fn(params))

        return params, forward

    return builder


def op_builders() -> List[Tuple[str, Callable]]:
    """One small builder per differentiable operation."""
    u = (-1.0, 1.0)
    pos = (0.5, 1.5)  # bounded away from |x| = 0 kinks
    return [
        ("add", _simple({"a": ((3, 4), *u), "b": ((3, 4), *u)},
                        lambda p: add(p["a"], p["b"]))),
        ("sub", _simple({"a": ((3, 4), *u), "b": ((1, 4), *u)},
                        lambda p: sub(p["a"], p["b"]))),
        ("mul", _simple({"a": ((3, 4), *u), "b": ((3, 1), *u)},
                        lambda p: mul(p["a"], p["b"]))),
        ("scale", _simple({"a": ((4, 3), *u)}, lambda p: scale(p["a"], -1.7))),
        ("linear", _simple({"x": ((5, 6), *u), "w": ((4, 6), *u), "b": ((4,), *u)},
                           lambda p: linear(p["x"], p["w"], p["b"]))),
        ("conv2d", _simple({"x": ((1, 3, 5, 5), *u), "w": ((2, 3, 3, 3), *u),
                            "b": ((2,), *u)},
                           lambda p: conv2d(p["x"], p["w"], p["b"], stride=1, pad=1))),
        ("conv2d_strided", _simple({"x": ((2, 2, 6, 6), *u), "w": ((3, 2, 2, 2), *u),
                                    "b": ((3,), *u)},
                                   lambda p: conv2d(p["x"], p["w"], p["b"],
                                                    stride=2, pad=0))),
        ("layer_norm", _simple({"x": ((3, 6), *u), "g": ((6,), 0.5, 1.5),
                                "be": ((6,), *u)},
                               lambda p: layer_norm(p["x"], p["g"], p["be"]))),
        ("sigmoid", _simple({"x": ((4, 5), -3.0, 3.0)}, lambda p: sigmoid(p["x"]))),
        ("gelu", _simple({"x": ((4, 5), -3.0, 3.0)}, lambda p: gelu(p["x"]))),
        ("softmax", _simple({"x": ((3, 5), -2.0, 2.0)},
                            lambda p: softmax(p["x"], axis=-1))),
        ("attention", _simple({"q": ((3, 8), *u), "k": ((4, 8), *u), "v": ((4, 8), *u)},
                              lambda p: scaled_dot_attention(p["q"], p["k"],
                                                             p["v"], heads=2))),
        ("global_avg_pool", _simple({"x": ((2, 3, 4, 4), *u)},
                                    lambda p: global_avg_pool(p["x"]))),
        ("global_avg_pool_tokens", _simple({"x": ((5, 6), *u)},
                                           lambda p: global_avg_pool(p["x"]))),
        ("pixel_shuffle", _simple({"x": ((1, 8, 3, 3), *u)},
                                  lambda p: pixel_shuffle(p["x"], 2))),
        ("concat", _simple({"a": ((2, 3, 4), *u), "b": ((2, 2, 4), *u)},
                           lambda p: concat([p["a"], p["b"]], axis=1))),
        ("reshape_transpose", _simple({"x": ((3, 4), *u)},
                                      lambda p: transpose(reshape(p["x"], (2, 6)),
                                                          (1, 0)))),
        ("sum", _simple({"x": ((3, 4), *u)}, lambda p: sum_all(p["x"]))),
        ("mean", _simple({"x": ((3, 4), *u)}, lambda p: mean_all(p["x"]))),
        ("mean_abs", _simple({"x": ((3, 4), *pos)}, lambda p: mean_abs(p["x"]))),
    ]


def fusion_builder(seed: int):
    """Full fusion block at desk shapes, every branch live.

    The forward takes grad_check's `changed` hint. A base call (no hint)
    caches the four branch outputs; a call naming a branch parameter or its
    prior input re-runs that branch alone, the fuse projection reuses all
    four, and the feature input re-runs everything. Each staged loss equals
    the plain fusion_forward loss bit for bit, which the builder checks once.
    """
    d = DESK_FUSION
    c, h, w, t = d["c"], d["h"], d["w"], d["t"]
    store = ParamStore(seed)
    fp = build_fusion_params(store, "fusion", c, d["d_c"], d["d_d"], d["heads"])
    rr = Rng(seed)
    # the production block zero-inits the fuse projection; open it here so
    # gradients actually flow through every branch under test
    fp.fuse_w.data = rr.stream("fuse_w").uniform(fp.fuse_w.data.shape, -0.2, 0.2)
    fp.fuse_b.data = rr.stream("fuse_b").uniform(fp.fuse_b.data.shape, -0.2, 0.2)
    params = dict(store.params)
    for name, shape in [("input.feat", (1, c, h, w)), ("input.seg", (1, c, h, w)),
                        ("input.dep", (1, c, h, w)), ("input.cap", (1, d["d_c"])),
                        ("input.des", (1, t, d["d_d"]))]:
        params[name] = parameter(rr.stream(name).uniform(shape, -1.0, 1.0), name)
    probe = _probe(Rng(seed))
    feat = params["input.feat"]
    inputs = {b: params[f"input.{b}"] for b in BRANCH_ORDER}
    base: List[Tensor] = []  # branch outputs at the base point, in BRANCH_ORDER

    def forward(changed=None):
        # "fusion.seg.conv1.weight" and "input.seg" -> "seg"; "fusion.fuse.*"
        # -> "fuse"; "input.feat" -> "feat"
        part = None if changed is None else changed.split(".")[1]
        if part is None or part == "feat":
            outs = [fusion_branch(b, feat, inputs, fp) for b in BRANCH_ORDER]
            if part is None:
                base[:] = outs
        else:
            outs = [fusion_branch(b, feat, inputs, fp) if b == part else o
                    for b, o in zip(BRANCH_ORDER, base)]
        return probe(fusion_merge(feat, outs, fp))

    def plain():
        return probe(fusion_forward(feat, inputs, fp)).data

    if not np.array_equal(forward().data, plain()):
        raise RuntimeError("staged fusion forward diverged from fusion_forward")
    kinds = {}  # one parameter per stage
    for name in params:
        kinds.setdefault(name.split(".")[1], name)
    for name in kinds.values():
        flat = params[name].data.reshape(-1)
        orig = flat[0]
        flat[0] = orig + 1e-3
        got, want = forward(changed=name).data, plain()
        flat[0] = orig
        if not np.array_equal(got, want):
            raise RuntimeError(f"staged evaluation of '{name}' diverged "
                               f"from fusion_forward: {got!r} vs {want!r}")
    return params, forward


def network_builder(seed: int):
    """End-to-end desk network: degrade -> forward -> probe loss.

    The forward runs `Model.stages()`. A base call (no points) records each
    stage's input and the context. Given grad_check's `points` for one named
    parameter, each point re-runs only the stage that owns it, found by its
    name prefix; in a fusion stage only the parameter's own branch re-runs,
    merged with the other branches' base outputs. The stage outputs of up to
    NETWORK_BATCH points are joined on the batch axis, and the rest of the
    list runs once for the whole stack. One-time comparisons against
    Model.forward pin the base evaluation exactly, and the batched
    evaluation of every stage part and prior encoder to float rounding.
    """
    cfg = DESK_NETWORK
    model = Model(cfg, "full", seed)
    model.cast(np.float64)
    rr = Rng(seed)
    for name, p in model.params.items():
        if name.endswith(".fuse.weight"):
            p.data = rr.stream(name).uniform(p.data.shape, -0.2, 0.2)
    hr = rr.stream("hr").uniform((3, cfg.h * cfg.r, cfg.w * cfg.r), 0.0, 1.0)
    lr_img = degrade(hr.astype(np.float32), cfg.r)
    bundle = synth_priors(hr, lr_img, seed, informative=True, image_id="check",
                          d_c=cfg.d_c, d_d=cfg.d_d, tokens=2, k=cfg.k)
    probe = _probe(Rng(seed))
    stages = model.stages()
    # base point: each stage's input, the context once every stage has run,
    # and each fusion stage's branch outputs by stage index
    xs: List[Tensor] = []
    base_ctx: Dict = {}
    branches: Dict[int, List[Tensor]] = {}

    def owner(name: str) -> Tuple[int, str]:
        """The owning stage's index and the name's first part below it."""
        k = next((k for k, st in enumerate(stages)
                  if name.startswith(st.name + ".")), 0)
        below = name[len(stages[k].name) + 1:] if k else name
        return k, below.split(".")[0]

    def evaluate(name, points):
        k, part = owner(name)
        st, x0 = stages[k], xs[k]
        flat = model.params[name].data.reshape(-1)
        losses = []
        for lo in range(0, len(points), NETWORK_BATCH):
            outs, ctxs = [], []
            for idx, value in points[lo:lo + NETWORK_BATCH]:
                orig = flat[idx]
                flat[idx] = value
                ctx = dict(base_ctx)  # the entry stage rewrites the priors
                if k in branches:
                    outs.append(fusion_merge(x0, [
                        fusion_branch(b, x0, ctx, st.params) if b == part else o
                        for b, o in zip(st.params.enabled(), branches[k])], st.params))
                else:
                    outs.append(st.run(x0, ctx))
                ctxs.append(ctx)
                flat[idx] = orig
            x = _join(outs)
            if k + 1 < len(stages):  # the rest of the list, once for the stack
                # per-pixel priors (the feature's extents) follow the batch axis
                stacked = {key: _join([c[key] for c in ctxs])
                           if isinstance(v, Tensor) and v.shape == xs[1].shape else v
                           for key, v in base_ctx.items()}
                for later in stages[k + 1:]:
                    x = later.run(x, stacked)
            losses += [float(probe(constant(y)).data) for y in x.data]
        return losses

    def forward(changed=None, points=None):
        if points is not None:
            return evaluate(changed, points)
        x, ctx = model.start(lr_img, bundle)
        xs.clear()
        branches.clear()
        for k, st in enumerate(stages):
            xs.append(x)
            if isinstance(st.params, FusionParams):
                branches[k] = [fusion_branch(b, x, ctx, st.params)
                               for b in st.params.enabled()]
            x = st.run(x, ctx)
        base_ctx.clear()
        base_ctx.update(ctx)
        return probe(reshape(x, x.shape[1:]))

    ref = probe(model.forward(lr_img, bundle))
    if not np.array_equal(ref.data, forward().data):
        raise RuntimeError("staged forward diverged from Model.forward")
    kinds = {}  # one parameter per stage part, and per prior encoder
    for name in model.params:
        kinds.setdefault(owner(name), name)
    for name in kinds.values():
        flat = model.params[name].data.reshape(-1)
        base = flat[0]
        points = [(0, base + 1e-3), (0, base - 1e-3)]
        for (_, value), got in zip(points, evaluate(name, points)):
            flat[0] = value
            want = float(probe(model.forward(lr_img, bundle)).data)
            flat[0] = base
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise RuntimeError(f"batched evaluation of '{name}' diverged "
                                   f"from Model.forward: {got!r} vs {want!r}")
    return model.params, forward


def run_target(target: str, seed: int = 0) -> List[Tuple[str, float]]:
    if target == "op":
        return [(name, grad_check(b, seed=seed)) for name, b in op_builders()]
    if target == "lvpfb":
        return [("lvpfb", grad_check(fusion_builder, seed=seed))]
    if target == "network":
        return [("network", grad_check(network_builder, seed=seed, workers=CHECK_WORKERS))]
    raise ValueError(f"unknown gradcheck target '{target}'")
