"""Adam with bias correction.

Defaults follow the training recipe: lr 2e-4, betas (0.9, 0.99), eps 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from ..errors import NonFiniteError
from .tensor import Tensor


@dataclass
class AdamHyper:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates keyed by parameter name."""
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, Tensor],
              state: AdamState, hyper: AdamHyper, t: int) -> None:
    """One in-place update; `t` is the 1-based step counter for bias correction.

    Parameters absent from `grads` are treated as zero-gradient (their moments
    decay). Non-finite gradients abort before any parameter is touched.
    """
    if t < 1:
        raise ValueError(f"adam_step: step counter must be >= 1, got {t}")
    for name, g in grads.items():
        if not np.isfinite(g.data).all():
            raise NonFiniteError("adam_step", f"gradient for parameter '{name}'")
    c1 = 1.0 - hyper.beta1 ** t
    c2 = 1.0 - hyper.beta2 ** t
    for name, p in params.items():
        gt = grads.get(name)
        g = 0.0 if gt is None else gt.data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * (g * g)
        p.data -= hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
