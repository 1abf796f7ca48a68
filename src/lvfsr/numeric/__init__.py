"""Minimal tensor engine: reverse-mode autodiff, RNG, Adam, serialization."""

from .adam import AdamHyper, AdamState, adam_step
from .gradcheck import grad_check
from .ops import (add, concat, conv2d, gelu, global_avg_pool, layer_norm,
                  linear, mean_abs, mean_all, mul, pixel_shuffle, reshape,
                  scale, scaled_dot_attention, sigmoid, softmax, sub, sum_all,
                  transpose)
from .rng import Rng
from .tenio import atomic_write, read_ten, tensor_bytes, tensor_from_bytes, write_ten
from .tensor import Tensor, backward, constant, make_node, parameter, zero_grads

__all__ = [
    "AdamHyper", "AdamState", "adam_step", "grad_check",
    "add", "concat", "conv2d", "gelu", "global_avg_pool",
    "layer_norm", "linear", "mean_abs", "mean_all", "mul", "pixel_shuffle",
    "reshape", "scale", "scaled_dot_attention", "sigmoid", "softmax", "sub",
    "sum_all", "transpose",
    "Rng", "atomic_write", "read_ten", "tensor_bytes", "tensor_from_bytes",
    "write_ten", "Tensor", "backward", "constant", "make_node", "parameter",
    "zero_grads",
]
