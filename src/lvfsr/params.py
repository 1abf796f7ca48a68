"""Named-parameter construction with per-name RNG substreams.

Every parameter draws from a stream keyed by its own name, so inserting or
removing a layer never perturbs the initialization of the others.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, FormatError
from .numeric import Rng, Tensor, parameter


class ParamStore:
    """Ordered registry of named leaf tensors (float32).

    Given `saved` (a checkpoint's ordered (name, array) pairs), each
    registration takes the next saved array, after checking its name and
    shape, instead of drawing an initial value; such parameters are plain
    inference leaves that record no tape.
    """

    def __init__(self, seed: int,
                 saved: Optional[Sequence[Tuple[str, np.ndarray]]] = None):
        self.rng = Rng(seed)
        self.params: Dict[str, Tensor] = {}
        self._saved = None if saved is None else iter(saved)

    def _register(self, name: str, shape: Tuple[int, ...],
                  init: Callable[[], np.ndarray]) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name '{name}'")
        if self._saved is None:
            t = parameter(np.ascontiguousarray(init(), dtype=np.float32), name)
        else:
            t = Tensor(self._restore(name, shape), name=name)
        self.params[name] = t
        return t

    def _restore(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        saved_name, arr = next(self._saved, (None, None))
        if saved_name != name:
            raise FormatError("checkpoint parameter names do not match the architecture")
        if arr.shape != shape:
            raise FormatError(f"parameter '{name}' shape {arr.shape} != {shape}")
        return arr.astype(np.float32)

    def _uniform(self, name: str, shape: Tuple[int, ...], limit: float) -> Tensor:
        return self._register(
            name, shape, lambda: self.rng.stream(name).uniform(shape, -limit, limit))

    def _fill(self, name: str, shape: Tuple[int, ...], value: float) -> Tensor:
        return self._register(name, shape, lambda: np.full(shape, value))

    def conv(self, name: str, cout: int, cin: int, k: int,
             zero: bool = False) -> Tuple[Tensor, Tensor]:
        """3x3/1x1/... conv weight+bias; fan-in scaled uniform unless zeroed."""
        wname, bname = name + ".weight", name + ".bias"
        shape = (cout, cin, k, k)
        if zero:
            w = self._fill(wname, shape, 0.0)
        else:
            w = self._uniform(wname, shape, 1.0 / math.sqrt(cin * k * k))
        b = self._fill(bname, (cout,), 0.0)
        return w, b

    def linear(self, name: str, dout: int, din: int) -> Tuple[Tensor, Tensor]:
        w = self._uniform(name + ".weight", (dout, din), 1.0 / math.sqrt(din))
        b = self._fill(name + ".bias", (dout,), 0.0)
        return w, b

    def norm(self, name: str, d: int) -> Tuple[Tensor, Tensor]:
        gamma = self._fill(name + ".gamma", (d,), 1.0)
        beta = self._fill(name + ".beta", (d,), 0.0)
        return gamma, beta

    def count(self) -> int:
        return sum(p.data.size for p in self.params.values())
