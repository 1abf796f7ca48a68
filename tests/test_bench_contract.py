"""The benchmark (`perfbench/`) calls and wraps lvfsr by name.

Its tracer and workloads are read here by path and only used, never edited.
A rename or refactor that breaks what the tracer wraps, the names and call
signatures the workloads use, or the per-image call counts the traced
benchmark checks, fails here instead of in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from lvfsr.network import Model, NetworkConfig
from lvfsr.numeric import Rng, ops
from lvfsr.priors import synth_priors
from lvfsr.training import degrade

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"

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
        y = model.forward(lr, bundle)
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    assert (ops.conv2d, Model.forward) == original
    # infer-x16 marks its outputs incorrect unless each is one (3, HR, HR) image
    assert y.shape == (3, 128, 128)
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


def workload_uses():
    """The workloads' lvfsr modules by local name, the keys of each
    module-level `NAME = dict(...)` they spread into calls, and each
    `<module>.<name>` they read with its call, if any: (module, name, call,
    line)."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    modules, spreads = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lvfsr"):
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"{node.module}.{alias.name}")
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"):
            spreads[node.targets[0].id] = [kw.arg for kw in node.value.keywords]
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses = [(modules[n.value.id], n.attr, calls.get(id(n)), n.lineno)
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id in modules]
    return modules, spreads, uses


def test_workloads_use_existing_names_and_signatures():
    """Every `<module>.<name>` the workloads read exists, and every call of
    one binds its positional count and keyword names (a `**NET` spread by
    NET's keys), the config dataclasses' fields among them."""
    modules, spreads, uses = workload_uses()
    assert set(modules) == {"checks", "datagen", "evaluate", "network", "priors",
                            "training", "gradcheck"}
    bound = set()
    for module, name, call, line in uses:
        where = f"workloads.py:{line}: {module.__name__}.{name}"
        assert hasattr(module, name), where
        if call is None:
            continue
        keywords = {}
        for kw in call.keywords:
            if kw.arg is not None:
                keywords[kw.arg] = None
            else:
                keywords.update(dict.fromkeys(spreads[kw.value.id]))
        args = [] if any(isinstance(a, ast.Starred) for a in call.args) else call.args
        try:
            inspect.signature(getattr(module, name)).bind_partial(*args, **keywords)
        except TypeError as e:
            raise AssertionError(f"{where}: {e}") from None
        bound.add(name)
    assert {"TrainConfig", "NetworkFields", "NetworkConfig", "run_training",
            "generate_dataset"} <= bound
