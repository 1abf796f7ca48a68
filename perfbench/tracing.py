"""Per-layer timers wrapped around lvfsr's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every lvfsr module namespace that binds it, so a call through any import
path is counted. Backward time per op kind comes from wrapping the closure
each op hands to `make_node`. Counters accumulate in the tracer object;
`reset()` clears them at the start of the timed phase.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# op kinds reported per kind; their functions share their make_node names
OP_KINDS = ("conv2d", "linear", "scaled_dot_attention", "layer_norm", "gelu",
            "sigmoid", "softmax", "concat", "mul", "add", "reshape",
            "transpose", "pixel_shuffle", "mean_abs")

# (timer key, module, function name); several names may share one key
FUNCTIONS = (
    ("adam.step", "lvfsr.numeric.adam", "adam_step"),
    ("fusion.forward", "lvfsr.fusion", "fusion_forward"),
    ("fusion.seg", "lvfsr.fusion", "seg_attention"),
    ("fusion.dep", "lvfsr.fusion", "dep_attention"),
    ("fusion.cap", "lvfsr.fusion", "cap_attention"),
    ("fusion.des", "lvfsr.fusion", "des_attention"),
    ("network.basic_block", "lvfsr.network", "basic_block"),
    ("network.checkpoint_save", "lvfsr.network", "save_checkpoint"),
    ("network.checkpoint_load", "lvfsr.network", "load_checkpoint"),
    ("training.train_step", "lvfsr.training", "train_step"),
    ("training.degrade", "lvfsr.training", "degrade"),
    ("resample.bicubic_resize", "lvfsr.resample", "bicubic_resize"),
    ("priors.load_prior_bundle", "lvfsr.priors", "load_prior_bundle"),
    ("priors.read_ppm", "lvfsr.priors", "read_ppm"),
    ("priors.write_ppm", "lvfsr.priors", "write_ppm"),
    ("priors.encode", "lvfsr.priors", "encode_mask"),
    ("priors.encode", "lvfsr.priors", "encode_depth"),
    ("evaluate.psnr", "lvfsr.evaluate", "psnr"),
    ("evaluate.ssim", "lvfsr.evaluate", "ssim"),
    ("evaluate.eval_dir", "lvfsr.evaluate", "eval_dir"),
    ("datagen.generate_dataset", "lvfsr.datagen", "generate_dataset"),
)

METHODS = (
    ("network.forward", "lvfsr.network", "Model", "forward"),
    ("network.prior_inputs", "lvfsr.network", "Model", "prior_inputs"),
)

# reported once for the whole set-up rather than per operation
SETUP_KEYS = ("datagen.generate_dataset",)

# timer keys reported as `<key>_ms` per workload operation
PER_OP_KEYS = tuple(dict.fromkeys(
    key for key, *_ in FUNCTIONS + METHODS if key not in SETUP_KEYS))


def _lvfsr_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lvfsr" or name.startswith("lvfsr."))]


class Tracer:
    """Inclusive wall time and call counts per traced lvfsr function."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._undo = []

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def _timed(self, key, fn):
        seconds, calls = self.seconds, self.calls

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - t0
                calls[key] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _make_node(self, make_node):
        seconds, calls = self.seconds, self.calls

        def timed_make_node(data, op, parents, backward):
            t0 = perf_counter()
            key = f"ops.{op}.bwd"

            def timed_backward(grad):
                t1 = perf_counter()
                try:
                    return backward(grad)
                finally:
                    dt = perf_counter() - t1
                    seconds[key] += dt
                    seconds["ops.all.bwd"] += dt
                    calls[key] += 1

            try:
                return make_node(data, op, parents, timed_backward)
            finally:
                seconds["tensor.make_node"] += perf_counter() - t0
                calls["tensor.make_node"] += 1

        timed_make_node.__wrapped__ = make_node
        return timed_make_node

    def _backward(self, backward):
        seconds = self.seconds

        def timed_backward(loss):
            t0 = perf_counter()
            in_ops = seconds["ops.all.bwd"]
            try:
                return backward(loss)
            finally:
                total = perf_counter() - t0
                seconds["tensor.backward.self"] += total - (seconds["ops.all.bwd"] - in_ops)

        timed_backward.__wrapped__ = backward
        return timed_backward

    def _rebind(self, original, replacement) -> None:
        """Point every lvfsr module attribute bound to `original` at `replacement`."""
        for mod in _lvfsr_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced function; lvfsr must be fully imported first."""
        mods = sys.modules
        ops = mods["lvfsr.numeric.ops"]
        tensor = mods["lvfsr.numeric.tensor"]
        for kind in OP_KINDS:
            fn = getattr(ops, kind)
            self._rebind(fn, self._timed(f"ops.{kind}.fwd", fn))
        self._rebind(tensor.make_node, self._make_node(tensor.make_node))
        self._rebind(tensor.backward, self._backward(tensor.backward))
        for key, module, name in FUNCTIONS:
            fn = getattr(mods[module], name)
            self._rebind(fn, self._timed(key, fn))
        for key, module, cls_name, name in METHODS:
            cls = getattr(mods[module], cls_name)
            fn = vars(cls)[name]
            setattr(cls, name, self._timed(key, fn))
            self._undo.append((cls, name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, ops: int, setup_seconds: dict) -> dict:
        """Per-layer metrics; times and counts per workload operation."""
        s, c = self.seconds, self.calls
        out = {}
        for kind in OP_KINDS:
            out[f"ops.{kind}.fwd_ms"] = (1e3 * s[f"ops.{kind}.fwd"] / ops, "ms")
            out[f"ops.{kind}.bwd_ms"] = (1e3 * s[f"ops.{kind}.bwd"] / ops, "ms")
            out[f"ops.{kind}.calls"] = (c[f"ops.{kind}.fwd"] / ops, "count")
        nodes = c["tensor.make_node"]
        out["tensor.make_node.calls"] = (nodes / ops, "count")
        out["tensor.make_node.us_per_call"] = (1e6 * s["tensor.make_node"] / max(nodes, 1), "us")
        out["tensor.backward.self_ms"] = (1e3 * s["tensor.backward.self"] / ops, "ms")
        for key in PER_OP_KEYS:
            out[f"{key}_ms"] = (1e3 * s[key] / ops, "ms")
        out["resample.bicubic_resize.calls"] = (c["resample.bicubic_resize"] / ops, "count")
        for key in SETUP_KEYS:
            out[f"{key}_ms"] = (1e3 * setup_seconds.get(key, 0.0), "ms")
        return out
