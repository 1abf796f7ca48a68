"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array plus an optional backward closure recorded at
construction time.  Training runs in float32; gradient checking constructs
float64 graphs.  Every operation validates that its output is finite and
raises :class:`NonFiniteError` naming itself otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import GraphError, NonFiniteError


class Tensor:
    """An immutable-by-convention dense array node in a recorded graph.

    ``requires_grad`` leaves accumulate into ``grad`` during :func:`backward`.
    ``name`` identifies parameters for optimizer state and checkpoints.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float32)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._backward: Optional[Callable] = None
        self._parents: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def parameter(data: np.ndarray, name: str) -> Tensor:
    """A named leaf that participates in differentiation."""
    return Tensor(data, requires_grad=True, name=name)


def constant(data) -> Tensor:
    """A leaf excluded from differentiation."""
    return Tensor(np.asarray(data))


_skip_finite_checks = False


def set_finite_checks(enabled: bool) -> None:
    """Toggle per-op finiteness validation.

    Only the finite-difference loop of grad_check disables it: each twin
    evaluation perturbs a validated graph by eps, and a non-finite loss still
    surfaces as a failed comparison there.
    """
    global _skip_finite_checks
    _skip_finite_checks = not enabled


def make_node(data: np.ndarray, op: str, parents: Sequence[Tensor],
              backward: Callable) -> Tensor:
    """Build an operation result, checking finiteness and recording the tape.

    ``backward(grad_out)`` must return one gradient array (or None) per parent.
    The closure is only attached when some parent requires a gradient, so
    no-grad evaluation pays no tape cost.
    """
    if not _skip_finite_checks:
        # cheap screen: a non-finite entry always poisons the sum; a non-finite
        # sum of finite values (overflow) is ruled out by the full check
        s = float(data.sum())
        if s - s != 0.0 and not np.isfinite(data).all():
            raise NonFiniteError(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.name = None
    out._backward = None
    out._parents = ()
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


def _consumed(_grad):
    raise GraphError("backward already called on this graph; re-record the forward pass")


def _toposort(root: Tensor) -> list:
    """Iterative post-order over the recorded graph (dependencies first)."""
    order: list = []
    seen = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict:
    """Reverse-mode differentiation from a scalar loss.

    Returns a map from parameter name to gradient Tensor for every named leaf
    with ``requires_grad``; every such leaf also gets its ``grad`` field set.
    The recorded graph is consumed: a second call without re-recording raises.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any tracked parameter")
    if loss._backward is _consumed:
        raise GraphError("backward already called on this graph; re-record the forward pass")
    if loss._backward is None:
        raise GraphError("loss is a leaf, not the result of recorded operations")

    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    named: dict = {}
    for node in reversed(order):
        fn = node._backward
        if fn is None:
            if node.name is not None and node.grad is not None:
                named[node.name] = Tensor(node.grad)
            continue
        grads = fn(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = g if g.flags.owndata else g.copy()
            else:
                p.grad = p.grad + g
        # consume the tape and free intermediate gradients
        node._backward = _consumed
        node._parents = ()
        node.grad = None
    return named


def zero_grads(params) -> None:
    """Clear accumulated gradients on a mapping of tensors."""
    for p in params.values():
        p.grad = None
