"""The benchmark's tracer (`perfbench/tracing.py`) wraps lvfsr by name.

It is read here by path and only used, never edited. A rename or an op-layer
refactor that breaks what it wraps, or the per-image call counts the traced
benchmark checks, fails here instead of in a `--trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lvfsr.network import Model, NetworkConfig
from lvfsr.numeric import Rng, ops
from lvfsr.priors import synth_priors
from lvfsr.training import degrade

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the infer-x16 network: l=3 blocks of c=32 channels, 8x8 LR, x16
INFER_X16 = NetworkConfig(l=3, c=32, heads=4, r=16, d_c=64, d_d=64, k=8, h=8, w=8)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists():
    tracing = load_tracing()
    for kind in tracing.OP_KINDS:
        assert callable(getattr(ops, kind, None)), f"lvfsr.numeric.ops.{kind}"
    for _, module, name in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name}"
    for _, module, cls_name, name in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(vars(cls).get(name)), f"{module}.{cls_name}.{name}"


def test_traced_forward_counts_per_image_calls():
    tracing = load_tracing()
    for _, module, _ in tracing.FUNCTIONS:
        importlib.import_module(module)  # install() expects lvfsr fully imported
    model = Model(INFER_X16, "full", 1)
    hr = Rng(2).uniform((3, 128, 128)).astype(np.float32)
    lr = degrade(hr, INFER_X16.r)
    bundle = synth_priors(hr, lr, 2, True, "trace", d_c=64, d_d=64, k=8)
    original = (ops.conv2d, Model.forward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model.forward(lr, bundle)
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    assert (ops.conv2d, Model.forward) == original
    # feature conv, two prior encoders, 3 blocks x (seg 2 + dep 2 + fuse), recon
    assert calls["ops.conv2d.fwd"] == 19
    # 3 blocks x (description 2 + transformer pair 2)
    assert calls["ops.scaled_dot_attention.fwd"] == 12
    assert calls["network.forward"] == 1
    # the per-layer timers see every stage of the forward, once per block
    assert calls["fusion.forward"] == 3
    assert calls["network.basic_block"] == 3
    for branch in ("seg", "dep", "cap", "des"):
        assert calls[f"fusion.{branch}"] == 3, branch
    assert calls["network.prior_inputs"] == 1
