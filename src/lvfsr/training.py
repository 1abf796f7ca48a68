"""Training loop: L1 objective, Adam, over samples prepared at load.

`load_dataset` degrades each HR image to its LR input once, when the dataset
is read; the model makes the bicubic base it predicts a residual over once
per forward.

Shuffling is a pure function of (seed, epoch), so a resumed run replays the
exact batch order of an uninterrupted one. The loss log carries only
(step, loss) and is byte-reproducible; wall-clock timings go to a separate
sidecar file that makes no determinism promise.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .network import (VARIANT_PRIORS, VARIANTS, Checkpoint, Model, NetworkConfig,
                      NetworkFields, check_fields, check_keys, checkpoint_of,
                      load_checkpoint, model_from_checkpoint, save_checkpoint)
from .numeric import (AdamHyper, AdamState, Rng, Tensor, adam_step, add,
                      backward, constant, mean_abs, scale, sub, zero_grads)
from .priors import PriorBundle, load_prior_bundle, read_ppm
from .resample import bicubic_resize


@dataclass
class TrainConfig(AdamHyper):
    epochs: int = 30
    batch: int = 4
    scale: int = 8
    seed: int = 0
    checkpoint_interval: int = 100
    data_root: str = "data"
    variant: str = "full"
    network: NetworkFields = field(default_factory=NetworkFields)

    def validate(self) -> "TrainConfig":
        check_fields(self, "config")
        for name in ("lr", "beta1", "beta2", "eps", "epochs", "batch",
                     "checkpoint_interval"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"config field '{name}' must be positive")
        if not 0 <= self.seed < 2 ** 64:  # a checkpoint stores it as a u64
            raise ConfigError(f"config field 'seed' must be in [0, 2^64), got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}', expected one of {VARIANTS}")
        network_config_for(self, 1, 1)  # scale and network fields, by NetworkConfig's rules
        return self


def load_train_config(path) -> TrainConfig:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or too deep
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return train_config_from_dict(raw, context=str(path))


def train_config_from_dict(raw: dict, context: str = "config") -> TrainConfig:
    check_keys(TrainConfig, raw, context)
    d = dict(raw)
    net_raw = d.pop("network", {})
    check_keys(NetworkFields, net_raw, f"{context}.network")
    return TrainConfig(network=NetworkFields(**net_raw), **d).validate()


def network_config_for(cfg: TrainConfig, lr_h: int, lr_w: int) -> NetworkConfig:
    return NetworkConfig(**asdict(cfg.network), r=cfg.scale, h=lr_h, w=lr_w).validate()


# --- data -------------------------------------------------------------------

class Sample(NamedTuple):
    """One training image: the LR input, the HR target and its priors."""
    lr: np.ndarray
    hr: np.ndarray
    bundle: Optional[PriorBundle]


def read_manifest(data_root, split: str) -> List[str]:
    path = os.path.join(os.fspath(data_root), f"{split}.txt")
    if not os.path.exists(path):
        raise DataError(f"missing split manifest: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            ids = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError:
        raise DataError(f"{path}: split manifest is not UTF-8 text") from None
    if not ids:
        raise DataError(f"empty split manifest: {path}")
    return ids


def degrade(hr: np.ndarray, r: int) -> np.ndarray:
    c, h, w = hr.shape
    if h % r or w % r:
        raise DataError(f"scale {r} does not divide HR extents {(h, w)}")
    return bicubic_resize(hr, h // r, w // r)


def load_dataset(data_root, split: str, scale: int, k: int = 8,
                 with_priors: bool = True) -> List[Sample]:
    """One sample per manifest id, in manifest order. Each HR image is
    degraded by `scale` here, so a scale that does not divide it fails at
    load."""
    root = os.fspath(data_root)
    samples: List[Sample] = []
    shape = None
    for image_id in read_manifest(root, split):
        hr = read_ppm(os.path.join(root, "hr", split, f"{image_id}.ppm"))
        if shape is None:
            shape = hr.shape
        elif hr.shape != shape:
            raise DataError(f"HR image '{image_id}' has extents {hr.shape}, "
                            f"dataset uses {shape}")
        bundle = (load_prior_bundle(os.path.join(root, "priors", split), image_id, k=k)
                  if with_priors else None)
        samples.append(Sample(degrade(hr, scale), hr, bundle))
    return samples


# --- loss and step ----------------------------------------------------------

def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss extents differ: {pred.shape} vs {target.shape}")
    return mean_abs(sub(pred, target))


def train_step(model: Model, batch: Sequence[Sample], state: AdamState,
               hyper: AdamHyper, step: int) -> float:
    """Forward, average per-image L1, backprop, Adam. 1-based step."""
    dt = model.params[next(iter(model.params))].data.dtype
    losses = [l1_loss(model.forward(lr, bundle), constant(hr.astype(dt)))
              for lr, hr, bundle in batch]
    total = losses[0]
    for li in losses[1:]:
        total = add(total, li)
    loss = scale(total, 1.0 / len(losses))
    zero_grads(model.params)
    grads = backward(loss)
    adam_step(model.params, grads, state, hyper, step)
    return float(loss.data)


# --- loop ---------------------------------------------------------------

def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Shuffle for one epoch; depends on nothing but (seed, epoch, n)."""
    return Rng(seed).stream(f"epoch{epoch}").permutation(n)


def run_training(cfg: TrainConfig, out_dir, resume: Optional[str] = None,
                 data_root: Optional[str] = None,
                 max_steps: Optional[int] = None) -> Checkpoint:
    """Train per config; returns the final checkpoint (also written to disk).

    Files under `out_dir`: loss.log (step<TAB>loss, append-only,
    byte-reproducible), timing.log (wall seconds, not reproducible),
    ckpt_<step>.lvck at every checkpoint interval, ckpt_final.lvck at the end.
    """
    cfg.validate()
    root = data_root or cfg.data_root
    out = os.fspath(out_dir)
    os.makedirs(out, exist_ok=True)

    data = load_dataset(root, "train", cfg.scale, k=cfg.network.k,
                        with_priors=bool(VARIANT_PRIORS[cfg.variant]))
    n = len(data)
    if n < cfg.batch:
        raise DataError(f"dataset has {n} images, batch needs {cfg.batch}")
    spe = n // cfg.batch  # drop-last
    total_steps = cfg.epochs * spe
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)

    net_cfg = network_config_for(cfg, *data[0].lr.shape[1:])

    state = AdamState()
    if resume is not None:
        ckpt = load_checkpoint(resume)
        if ckpt.config.to_dict() != net_cfg.to_dict():
            raise ConfigError(f"resume refused: checkpoint config {ckpt.config.to_dict()} "
                              f"!= run config {net_cfg.to_dict()}")
        if ckpt.variant != cfg.variant:
            raise ConfigError(f"resume refused: checkpoint variant '{ckpt.variant}' "
                              f"!= run variant '{cfg.variant}'")
        model = model_from_checkpoint(ckpt)
        for p in model.params.values():
            p.requires_grad = True  # restored parameters come back without grad
        state.m = dict(ckpt.opt_m)  # each read of a loaded moment is a fresh copy
        state.v = dict(ckpt.opt_v)
        start_step = ckpt.step
    else:
        model = Model(net_cfg, cfg.variant, cfg.seed)
        start_step = 0

    loss_log = open(os.path.join(out, "loss.log"), "a")
    time_log = open(os.path.join(out, "timing.log"), "a")
    final = None
    try:
        step = start_step
        first_epoch = start_step // spe
        last_epoch = (total_steps + spe - 1) // spe
        for epoch in range(first_epoch, last_epoch):
            order = epoch_order(cfg.seed, epoch, n)
            start_batch = (step - epoch * spe) if epoch == first_epoch else 0
            for b in range(start_batch, spe):
                if step >= total_steps:
                    break
                batch = [data[i] for i in order[b * cfg.batch:(b + 1) * cfg.batch]]
                t0 = time.monotonic()
                step += 1
                loss = train_step(model, batch, state, cfg, step)
                loss_log.write(f"{step}\t{loss!r}\n")
                time_log.write(f"{step}\t{time.monotonic() - t0:.6f}\n")
                if step % cfg.checkpoint_interval == 0 and step < total_steps:
                    save_checkpoint(os.path.join(out, f"ckpt_{step:06d}.lvck"),
                                    checkpoint_of(model, step, state.m, state.v))
        loss_log.flush()
        final = checkpoint_of(model, step, state.m, state.v)
        save_checkpoint(os.path.join(out, "ckpt_final.lvck"), final)
    finally:
        loss_log.close()
        time_log.close()
    return final
