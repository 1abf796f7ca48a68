"""PSNR/SSIM metrics, evaluation reports, and the ablation harness.

PSNR is computed on RGB in [0, 1] and capped at 100 dB for near-zero MSE.
SSIM runs on BT.601 luminance with an 11-tap Gaussian window over valid
positions only. Report files are line-delimited `id<TAB>psnr<TAB>ssim` with a
`#mean` footer; floats are written with shortest-roundtrip repr so a reread
report reproduces the in-memory values exactly.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .network import VARIANTS, NetworkFields
from .numeric import atomic_write
from .priors import luminance, read_ppm

PSNR_CAP_DB = 100.0
_MSE_FLOOR = 1e-10


def psnr(a: np.ndarray, b: np.ndarray, max_val: float = 1.0) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"psnr extents differ: {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse < _MSE_FLOOR:
        return PSNR_CAP_DB
    return 10.0 * math.log10(max_val * max_val / mse)


def _gauss_taps(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


# output rows (then columns) that one band product forms
_BLOCK = 24


@functools.lru_cache(maxsize=8)
def _band_block(window: int, sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """The (_BLOCK, _BLOCK + window - 1) block whose row i holds the Gaussian
    taps at columns i..i+window-1, and its contiguous transpose, read-only.

    The banded (valid, extent) matrix of a windowed mean is this block
    repeated down its diagonal, so every block of output rows needs only
    the _BLOCK + window - 1 input rows it touches.
    """
    taps = _gauss_taps(window, sigma)
    band = np.zeros((_BLOCK, _BLOCK + window - 1))
    i = np.arange(_BLOCK)
    for j, t in enumerate(taps):
        band[i, i + j] = t
    band_t = np.ascontiguousarray(band.T)
    band.flags.writeable = band_t.flags.writeable = False
    return band, band_t


def _windowed_means(maps: np.ndarray, window: int, sigma: float) -> np.ndarray:
    """Gaussian-windowed means of each (H, W) plane of `maps` over valid
    positions: a row pass, then a column pass, of block-banded products."""
    band, band_t = _band_block(window, sigma)
    p, h, w = maps.shape
    vh, vw = h - window + 1, w - window + 1
    rows = np.empty((p, vh, w))
    for r0 in range(0, vh, _BLOCK):
        b = min(_BLOCK, vh - r0)
        np.matmul(band[:b, :b + window - 1], maps[:, r0:r0 + b + window - 1],
                  out=rows[:, r0:r0 + b])
    rows = rows.reshape(p * vh, w)
    out = np.empty((p * vh, vw))
    for c0 in range(0, vw, _BLOCK):
        b = min(_BLOCK, vw - c0)
        np.matmul(rows[:, c0:c0 + b + window - 1], band_t[:b + window - 1, :b],
                  out=out[:, c0:c0 + b])
    return out.reshape(p, vh, vw)


def ssim(a: np.ndarray, b: np.ndarray, window: int = 11, sigma: float = 1.5,
         k1: float = 0.01, k2: float = 0.03, max_val: float = 1.0) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"ssim extents differ: {a.shape} vs {b.shape}")
    x = luminance(np.asarray(a, dtype=np.float64))
    y = luminance(np.asarray(b, dtype=np.float64))
    if x.shape[0] < window or x.shape[1] < window:
        raise ShapeError(f"image {x.shape} smaller than the {window}x{window} window")
    # the Gaussian window is separable, so all five means take two passes
    maps = np.empty((5,) + x.shape)
    maps[0], maps[1] = x, y
    np.multiply(x, x, out=maps[2])
    np.multiply(y, y, out=maps[3])
    np.multiply(x, y, out=maps[4])
    mx, my, wxx, wyy, wxy = _windowed_means(maps, window, sigma)
    sxx = wxx - mx * mx
    syy = wyy - my * my
    sxy = wxy - mx * my
    c1 = (k1 * max_val) ** 2
    c2 = (k2 * max_val) ** 2
    num = (2.0 * mx * my + c1) * (2.0 * sxy + c2)
    den = (mx * mx + my * my + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


# --- reports ------------------------------------------------------------

@dataclass
class MetricReport:
    records: List[Tuple[str, float, float]]  # (id, psnr, ssim), sorted by id
    mean_psnr: float
    mean_ssim: float
    meta: Dict[str, str] = field(default_factory=dict)


def make_report(records: Sequence[Tuple[str, float, float]],
                meta: Optional[Dict[str, str]] = None) -> MetricReport:
    recs = sorted(records)
    if not recs:
        raise DataError("report requires at least one record")
    return MetricReport(recs,
                        float(np.mean([r[1] for r in recs])),
                        float(np.mean([r[2] for r in recs])),
                        dict(meta or {}))


def report_text(rep: MetricReport) -> str:
    lines = [f"#meta\t{k}\t{rep.meta[k]}" for k in sorted(rep.meta)]
    lines += [f"{i}\t{p!r}\t{s!r}" for i, p, s in rep.records]
    lines.append(f"#mean\t{rep.mean_psnr!r}\t{rep.mean_ssim!r}")
    return "\n".join(lines) + "\n"


def write_report(path, rep: MetricReport) -> None:
    atomic_write(path, report_text(rep).encode())


def read_report(path) -> MetricReport:
    records, meta, footer = [], {}, None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise DataError(f"{path}: report is not UTF-8 text") from None
    for lineno, line in enumerate(lines, 1):
        parts = line.rstrip("\n").split("\t")
        try:
            if parts[0] == "#meta":
                meta[parts[1]] = parts[2]
            elif parts[0] == "#mean":
                footer = (float(parts[1]), float(parts[2]))
            else:
                records.append((parts[0], float(parts[1]), float(parts[2])))
        except (IndexError, ValueError):
            raise DataError(f"{path}:{lineno}: malformed report line "
                            f"{line.rstrip()!r}") from None
    if footer is None:
        raise DataError(f"{path}: missing #mean footer")
    return MetricReport(records, footer[0], footer[1], meta)


def _ppm_ids(dirpath) -> Dict[str, str]:
    out = {}
    for name in os.listdir(dirpath):
        if name.endswith(".ppm"):
            out[name[:-4]] = os.path.join(dirpath, name)
    return out


def eval_dir(pred_dir, gt_dir, out_report=None,
             meta: Optional[Dict[str, str]] = None) -> MetricReport:
    preds, gts = _ppm_ids(pred_dir), _ppm_ids(gt_dir)
    missing = sorted(set(preds) ^ set(gts))
    if missing:
        raise DataError(f"unpaired image ids: {missing}")
    if not preds:
        raise DataError(f"no .ppm images under {pred_dir}")
    records = []
    for image_id in sorted(preds):
        p = read_ppm(preds[image_id])
        g = read_ppm(gts[image_id])
        records.append((image_id, psnr(p, g), ssim(p, g)))
    rep = make_report(records, meta)
    if out_report is not None:
        write_report(out_report, rep)
    return rep


# --- ablation -----------------------------------------------------------

def final_phase_loss(losses: Sequence[float]) -> float:
    """Mean loss over the final 10% of steps (at least one step)."""
    n = max(1, len(losses) // 10)
    return float(np.mean(losses[-n:]))


@dataclass
class AblationRow:
    variant: str
    seed: int
    loss: float
    params: int


def ablation_report_text(rows: Sequence[AblationRow]) -> str:
    lines = ["variant\tseed\tfinal_loss\tparam_count"]
    for r in rows:
        lines.append(f"{r.variant}\t{r.seed}\t{r.loss!r}\t{r.params}")
    for variant, med in ablation_medians(rows).items():
        lines.append(f"#median\t{variant}\t{med!r}")
    return "\n".join(lines) + "\n"


def ablation_medians(rows: Sequence[AblationRow]) -> Dict[str, float]:
    by_variant: Dict[str, List[float]] = {}
    for r in rows:
        by_variant.setdefault(r.variant, []).append(r.loss)
    return {v: float(np.median(ls)) for v, ls in sorted(by_variant.items())}


@dataclass
class AblationSpec:
    """Harness defaults: small informative dataset, short runs.

    The point of the harness is to separate the variants quickly, so the
    defaults starve the trunk on purpose: at hr_size 16 and scale 8 the
    input is a 2x2 image and per-image spatial structure only reaches the
    network through the priors.  Four 192-wide tokens hold the four 8x8
    quadrants of the target, which keeps the second attention stage a
    four-way routing problem that is learnable within the step budget.
    """
    steps: int = 300
    seeds: Tuple[int, ...] = (0, 1, 2)
    count: int = 8
    hr_size: int = 16
    scale: int = 8
    network: NetworkFields = field(default_factory=lambda: NetworkFields(
        l=2, c=24, heads=4, d_c=64, d_d=192, k=8))
    tokens: int = 4
    batch: int = 4
    lr: float = 2e-3


def parse_loss_log(path) -> List[float]:
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split("\t")
            if len(parts) == 2:
                out.append(float(parts[1]))
    return out


def run_ablation(variants: Sequence[str], spec: AblationSpec, work_dir,
                 report_path=None) -> List[AblationRow]:
    """Train every (variant, seed) pair on informative synthetic data.

    Each seed gets its own generated dataset and model initialization; the
    per-run scalar is the mean loss over the final 10% of steps.
    """
    from .datagen import generate_dataset
    from .training import TrainConfig, run_training

    for tag in variants:
        if tag not in VARIANTS:
            raise DataError(f"unknown ablation tag '{tag}', expected one of {VARIANTS}")
    if spec.steps < 1:
        raise ConfigError(f"ablation steps must be at least 1, got {spec.steps}")
    if not spec.seeds:
        raise ConfigError("ablation needs at least one seed")
    work = os.fspath(work_dir)
    spe = spec.count // spec.batch
    if spe < 1:
        raise DataError(f"count {spec.count} smaller than batch {spec.batch}")
    epochs = -(-spec.steps // spe)
    rows: List[AblationRow] = []
    for seed in spec.seeds:
        data_dir = os.path.join(work, f"data_s{seed}")
        generate_dataset(data_dir, spec.count, spec.hr_size, spec.scale, seed,
                         informative=True, d_c=spec.network.d_c,
                         d_d=spec.network.d_d, tokens=spec.tokens,
                         k=spec.network.k, splits=("train",))
        for tag in variants:
            run_dir = os.path.join(work, f"{tag}_s{seed}")
            cfg = TrainConfig(lr=spec.lr, epochs=epochs, batch=spec.batch,
                              scale=spec.scale, seed=seed,
                              checkpoint_interval=spec.steps,
                              data_root=data_dir, variant=tag,
                              network=spec.network)
            ckpt = run_training(cfg, run_dir, max_steps=spec.steps)
            losses = parse_loss_log(os.path.join(run_dir, "loss.log"))
            rows.append(AblationRow(tag, seed, final_phase_loss(losses),
                                    sum(arr.size for _, arr in ckpt.params)))
    if report_path is not None:
        atomic_write(report_path, ablation_report_text(rows).encode())
    return rows
