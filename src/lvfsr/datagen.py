"""Procedural face-like test images.

Each image is a seeded composition of smooth elliptical regions (head, eyes,
mouth) over a gradient background, plus high-frequency textured patches that
bicubic downsampling destroys; recovering them is what makes the synthetic
super-resolution task non-trivial. Values always land in [0, 1].
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError
from .numeric import Rng, atomic_write
from .priors import save_prior_bundle, synth_priors, write_ppm
from .resample import bicubic_resize


def _soft_ellipse(yy, xx, cy, cx, ry, rx, softness=0.08):
    d2 = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
    return np.clip((1.0 - d2) / softness, 0.0, 1.0)


def _blend(img, mask, color):
    for ch in range(3):
        img[ch] = img[ch] * (1.0 - mask) + color[ch] * mask


def face_image(size: int, rng: Rng) -> np.ndarray:
    """One (3, size, size) float32 face-like image in [0, 1]."""
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, size),
                         np.linspace(0.0, 1.0, size), indexing="ij")
    img = np.empty((3, size, size), dtype=np.float64)

    top = rng.stream("bg.top").uniform((3,), 0.15, 0.55)
    bot = rng.stream("bg.bot").uniform((3,), 0.35, 0.8)
    for ch in range(3):
        img[ch] = top[ch] + (bot[ch] - top[ch]) * yy

    jit = rng.stream("face")
    cy = 0.5 + float(jit.uniform((), -0.05, 0.05))
    cx = 0.5 + float(jit.uniform((), -0.04, 0.04))
    ry = float(jit.uniform((), 0.28, 0.38))
    rx = float(jit.uniform((), 0.2, 0.28))
    skin = rng.stream("skin").uniform((3,), 0.0, 1.0) * [0.25, 0.2, 0.15] + [0.6, 0.45, 0.35]
    _blend(img, _soft_ellipse(yy, xx, cy, cx, ry, rx), skin)

    hair = rng.stream("hair").uniform((3,), 0.05, 0.35)
    _blend(img, _soft_ellipse(yy, xx, cy - 0.72 * ry, cx, 0.55 * ry, 1.12 * rx, 0.2), hair)

    eye_c = rng.stream("eyes").uniform((3,), 0.02, 0.2)
    for sgn in (-1.0, 1.0):
        ex = cx + sgn * 0.42 * rx
        _blend(img, _soft_ellipse(yy, xx, cy - 0.18 * ry, ex, 0.09 * ry, 0.16 * rx, 0.2), eye_c)

    mouth = rng.stream("mouth").uniform((3,), 0.0, 1.0) * [0.3, 0.1, 0.1] + [0.4, 0.1, 0.12]
    _blend(img, _soft_ellipse(yy, xx, cy + 0.45 * ry, cx, 0.08 * ry, 0.4 * rx, 0.25), mouth)

    # textured patches: oriented gratings above the x8 LR Nyquist rate, so
    # bicubic downsampling erases them while they stay low-dimensional
    tex = rng.stream("texture")
    n_patches = 5 + int(tex.integers(1, 4)[0])
    for t in range(n_patches):
        pr = tex.stream(f"p{t}")
        side = max(2, int(pr.integers(1, max(3, size // 4))[0]) + size // 8)
        y0 = int(pr.integers(1, max(1, size - side))[0])
        x0 = int(pr.integers(1, max(1, size - side))[0])
        amp = float(pr.uniform((), 0.15, 0.4))
        theta = float(pr.uniform((), 0.0, np.pi))
        freq = float(pr.uniform((), 0.09, 0.25))  # cycles per HR pixel
        phase = float(pr.uniform((), 0.0, 2.0 * np.pi))
        py, px = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        wave = np.sin(2.0 * np.pi * freq * (py * np.sin(theta) + px * np.cos(theta))
                      + phase)
        chan = pr.uniform((3,), 0.6, 1.0)
        img[:, y0:y0 + side, x0:x0 + side] += amp * chan[:, None, None] * wave

    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_dataset(out_root, count: int, hr_size: int, scale: int, seed: int,
                     informative: bool, d_c: int = 64, d_d: int = 64,
                     tokens: int = 16, k: int = 8,
                     splits=("train", "test")) -> None:
    """Write HR images, prior bundles, and split manifests under `out_root`.

    Stored pixels are 8-bit; priors are derived from the quantized image so
    everything downstream sees a single consistent source.
    """
    if count < 1:
        raise ConfigError(f"image count must be at least 1, got {count}")
    if scale < 1 or hr_size < scale or hr_size % scale:
        raise ConfigError(f"scale {scale} must divide the HR size {hr_size}")
    root = os.fspath(out_root)
    base = Rng(seed)
    for split in splits:
        hr_dir = os.path.join(root, "hr", split)
        pr_dir = os.path.join(root, "priors", split)
        ids = [f"{split[:2]}{i:04d}" for i in range(count)]
        for image_id in ids:
            img = face_image(hr_size, base.stream(f"{split}/{image_id}"))
            hr_q = (np.rint(img * 255.0) / 255.0).astype(np.float32)
            lr = bicubic_resize(hr_q, hr_size // scale, hr_size // scale)
            # every prior failure (a token count or width the image cannot
            # give) depends on the arguments alone, so it stops the first
            # image, before anything is written
            bundle = synth_priors(hr_q, lr, seed, informative, image_id,
                                  d_c=d_c, d_d=d_d, tokens=tokens, k=k)
            os.makedirs(hr_dir, exist_ok=True)
            os.makedirs(pr_dir, exist_ok=True)
            write_ppm(os.path.join(hr_dir, f"{image_id}.ppm"), hr_q)
            save_prior_bundle(pr_dir, bundle)
        manifest = "".join(i + "\n" for i in ids)
        atomic_write(os.path.join(root, f"{split}.txt"), manifest.encode())
