"""Central-difference gradient verification.

A builder constructs named float64 parameters and a forward closure; the
closure is re-evaluated around each parameter entry. Comparison is the
symmetric relative error |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

The forward closure may accept ``changed`` and ``points`` keywords. It is
then called once per parameter, with ``changed`` naming it and ``points``
listing (flat index, value) pairs, and returns one loss per point: the loss
with that single entry set to that value and every other entry at its base.
Deep builders use this to evaluate a batch of points per pass and to resume
from cached activations of unaffected layers; each value must equal the
one-point-at-a-time evaluation up to float rounding.

A forward that accepts ``changed`` but not ``points`` is evaluated one point
at a time like a plain one, with ``changed`` naming the perturbed parameter
on every finite-difference call and left out of every base call. It may
cache on base calls and recompute only what the named parameter reaches.

With ``workers`` > 1 the entries are dealt round-robin to that many
processes. Each extra worker is a fresh (spawned) process that rebuilds the
target from ``builder(seed)``, so the builder must be picklable, and gets
the analytic gradients from this one; the result is the maximum over all.
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Tuple

import numpy as np

from .tensor import Tensor, backward, set_finite_checks

Builder = Callable[[int], Tuple[Dict[str, Tensor], Callable[..., Tensor]]]


def grad_check(builder: Builder, seed: int = 0, eps: float = 1e-4,
               workers: int = 1) -> float:
    if workers < 1:
        raise ValueError(f"grad_check needs at least one worker, got {workers}")
    params, forward = _build(builder, seed)
    loss = forward()
    analytic = ({name: g.data for name, g in backward(loss).items()}
                if loss.requires_grad else {})
    if workers == 1:
        return _worst(params, forward, analytic, eps, 0, 1)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers - 1, mp_context=ctx) as pool:
        others = [pool.submit(_rebuilt_worst, builder, seed, analytic, eps, rank, workers)
                  for rank in range(1, workers)]
        worst = _worst(params, forward, analytic, eps, 0, workers)
        return max([worst] + [f.result() for f in others])


def _build(builder: Builder, seed: int):
    params, forward = builder(seed)
    for p in params.values():
        if p.data.dtype != np.float64:
            p.data = p.data.astype(np.float64)
    return params, forward


def _rebuilt_worst(builder, seed, analytic, eps, rank, workers) -> float:
    params, forward = _build(builder, seed)
    return _worst(params, forward, analytic, eps, rank, workers)


def _worst(params, forward, analytic, eps, rank, workers) -> float:
    """Worst error over entries rank, rank + workers, ... of each parameter."""
    keywords = inspect.signature(forward).parameters
    takes_points = "points" in keywords
    # finite differences run un-taped on the same parameter arrays; a fresh
    # base evaluation refreshes any builder-held caches with untracked tensors
    for p in params.values():
        p.requires_grad = False
    set_finite_checks(False)
    try:
        forward()
        max_err = 0.0
        for name, p in params.items():
            ga = analytic[name].reshape(-1) if name in analytic else None
            flat = p.data.reshape(-1)
            entries = range(rank, flat.size, workers)
            hint = {"changed": name} if "changed" in keywords else {}
            if takes_points:
                points = [(idx, flat[idx] + sign * eps)
                          for idx in entries for sign in (1.0, -1.0)]
                values = forward(changed=name, points=points) if points else []
            for j, idx in enumerate(entries):
                if takes_points:
                    f_hi, f_lo = values[2 * j], values[2 * j + 1]
                else:
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    f_hi = float(forward(**hint).data)
                    flat[idx] = orig - eps
                    f_lo = float(forward(**hint).data)
                    flat[idx] = orig
                numeric = (f_hi - f_lo) / (2.0 * eps)
                exact = 0.0 if ga is None else float(ga[idx])
                err = abs(exact - numeric) / max(1e-8, abs(exact) + abs(numeric))
                if err > max_err:
                    max_err = err
        return max_err
    finally:
        set_finite_checks(True)
        for p in params.values():
            p.requires_grad = True
