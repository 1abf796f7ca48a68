"""The four conditioning priors: semantic mask, depth map, caption and
description embeddings.

Disk layout per image id: ``<id>.mask.ten`` (integer labels as floats),
``<id>.depth.ten``, ``<id>.cap.ten``, ``<id>.desc.ten``. HR images travel as
binary PPM (P6, maxval 255). The synthetic generator stands in for external
segmentation/depth/captioning models while exercising the same contracts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DataError, FormatError
from .numeric import Rng, Tensor, atomic_write, conv2d, constant, read_ten, write_ten

_LUMA = np.array([0.299, 0.587, 0.114])  # BT.601

MAX_DESC_TOKENS = 77


@dataclass
class SemanticMask:
    labels: np.ndarray  # (H, W) integer grid
    k: int = 8

    def validate(self) -> "SemanticMask":
        if self.labels.ndim != 2:
            raise DataError(f"mask labels must be rank 2, got rank {self.labels.ndim}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise DataError(f"mask labels outside [0, {self.k}): "
                            f"range [{self.labels.min()}, {self.labels.max()}]")
        return self


@dataclass
class DepthMap:
    depth: np.ndarray  # (H, W) in [0, 1]

    def validate(self) -> "DepthMap":
        if self.depth.ndim != 2:
            raise DataError(f"depth must be rank 2, got rank {self.depth.ndim}")
        if self.depth.size and (self.depth.min() < 0.0 or self.depth.max() > 1.0):
            raise DataError(f"depth values outside [0, 1]: "
                            f"range [{self.depth.min():.6g}, {self.depth.max():.6g}]")
        return self


@dataclass
class CaptionEmbedding:
    vector: np.ndarray  # (d_c,)

    def validate(self) -> "CaptionEmbedding":
        if self.vector.ndim != 1:
            raise DataError(f"caption embedding must be rank 1, got rank {self.vector.ndim}")
        if not np.isfinite(self.vector).all():
            raise DataError("caption embedding contains non-finite values")
        return self


@dataclass
class DescriptionEmbedding:
    tokens: np.ndarray  # (T, d_d)

    def validate(self) -> "DescriptionEmbedding":
        if self.tokens.ndim != 2:
            raise DataError(f"description tokens must be rank 2, got rank {self.tokens.ndim}")
        t = self.tokens.shape[0]
        if not 1 <= t <= MAX_DESC_TOKENS:
            raise DataError(f"token count {t} outside [1, {MAX_DESC_TOKENS}]")
        if not np.isfinite(self.tokens).all():
            raise DataError("description tokens contain non-finite values")
        return self


@dataclass
class PriorBundle:
    image_id: str
    mask: SemanticMask
    depth: DepthMap
    caption: CaptionEmbedding
    description: DescriptionEmbedding

    def validate(self) -> "PriorBundle":
        for _, check in self.checks():
            check()
        return self

    def checks(self) -> Tuple[Tuple[str, Callable[[], object]], ...]:
        """Every check `validate` makes, each with the part (as named on
        disk) whose values it reads."""
        return (("mask", self.mask.validate), ("depth", self.depth.validate),
                ("cap", self.caption.validate), ("desc", self.description.validate),
                ("depth", self._check_depth_extents))

    def _check_depth_extents(self) -> None:
        if self.mask.labels.shape != self.depth.depth.shape:
            raise DataError(f"bundle '{self.image_id}': mask extents {self.mask.labels.shape} "
                            f"!= depth extents {self.depth.depth.shape}")

    def check_lr_extents(self, h: int, w: int) -> None:
        if self.mask.labels.shape != (h, w):
            raise DataError(f"bundle '{self.image_id}': prior extents "
                            f"{self.mask.labels.shape} != LR extents {(h, w)}")


def _bundle_paths(dirpath, image_id: str) -> dict:
    return {part: os.path.join(os.fspath(dirpath), f"{image_id}.{part}.ten")
            for part in ("mask", "depth", "cap", "desc")}


def save_prior_bundle(dirpath, bundle: PriorBundle) -> None:
    bundle.validate()
    paths = _bundle_paths(dirpath, bundle.image_id)
    write_ten(paths["mask"], bundle.mask.labels.astype(np.float32))
    write_ten(paths["depth"], bundle.depth.depth)
    write_ten(paths["cap"], bundle.caption.vector)
    write_ten(paths["desc"], bundle.description.tokens)


def load_prior_bundle(dirpath, image_id: str, k: int = 8) -> PriorBundle:
    """Read and validate a bundle; an error names the file it read."""
    paths = _bundle_paths(dirpath, image_id)
    for p in paths.values():
        if not os.path.exists(p):
            raise DataError(f"missing prior file: {p}")
    lab_f = read_ten(paths["mask"])
    lab = np.rint(lab_f).astype(np.int64)
    if np.abs(lab_f - lab).max(initial=0.0) > 1e-6:
        raise DataError(f"{paths['mask']}: labels are not integral")
    bundle = PriorBundle(image_id, SemanticMask(lab, k), DepthMap(read_ten(paths["depth"])),
                         CaptionEmbedding(read_ten(paths["cap"])),
                         DescriptionEmbedding(read_ten(paths["desc"])))
    for part, check in bundle.checks():
        try:
            check()
        except DataError as e:
            raise DataError(f"{paths[part]}: {e}") from None
    return bundle


def luminance(img: np.ndarray) -> np.ndarray:
    """BT.601 luma of a (3, H, W) image."""
    return np.tensordot(_LUMA, img, axes=([0], [0]))


def description_projection(d_d: int, patch_dim: int, seed: int) -> np.ndarray:
    """The fixed (d_d, patch_dim) projection used for informative tokens.

    Columns are orthonormal (QR of a seeded draw), so its pseudo-inverse is
    exactly the transpose and token -> patch reconstruction is lossless up to
    float32 storage.
    """
    if patch_dim > d_d:
        raise DataError(f"patch dimension {patch_dim} exceeds token width {d_d}")
    m = Rng(seed).stream("desc-proj").uniform((d_d, patch_dim), -1.0, 1.0)
    q, _ = np.linalg.qr(m)
    return q


def _patch_side(d_d: int) -> int:
    side = 1
    for p in (2, 4, 8, 16):
        if 3 * p * p <= d_d:
            side = p
    return side


def synth_priors(hr: np.ndarray, lr: np.ndarray, seed: int, informative: bool,
                 image_id: str = "", d_c: int = 64, d_d: int = 64,
                 tokens: int = 16, k: int = 8) -> PriorBundle:
    """Deterministic stand-in priors derived from the image pair.

    mask: fixed-threshold K-way quantization of LR luma. depth: radial
    distance from the LR brightness centroid, max-normalized. caption: seeded
    unit vector. description: if informative, orthonormal projections of the
    first `tokens` non-overlapping HR patches (they carry detail the LR has
    lost); otherwise seeded noise.
    """
    hr = np.asarray(hr, dtype=np.float64)
    lr = np.asarray(lr, dtype=np.float64)
    h, w = lr.shape[1], lr.shape[2]
    luma = luminance(lr)

    labels = np.minimum((luma * k).astype(np.int64), k - 1)
    labels = np.maximum(labels, 0)

    weight = luma.sum()
    ii, jj = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    if weight > 0:
        cy = float((ii * luma).sum() / weight)
        cx = float((jj * luma).sum() / weight)
    else:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dist = np.sqrt((ii - cy) ** 2 + (jj - cx) ** 2)
    peak = dist.max()
    depth = (dist / peak if peak > 0 else dist).astype(np.float32)

    rng = Rng(seed)
    cap = rng.stream(f"cap:{image_id}").uniform((d_c,), -1.0, 1.0)
    cap = (cap / np.linalg.norm(cap)).astype(np.float32)

    if informative:
        side = _patch_side(d_d)
        pd = 3 * side * side
        rows, cols = hr.shape[1] // side, hr.shape[2] // side
        if tokens > rows * cols:
            raise DataError(f"{tokens} tokens need {tokens} non-overlapping "
                            f"{side}x{side} patches, image offers {rows * cols}")
        proj = description_projection(d_d, pd, seed)
        toks = np.empty((tokens, d_d))
        for t in range(tokens):
            r, c = divmod(t, cols)
            patch = hr[:, r * side:(r + 1) * side, c * side:(c + 1) * side]
            toks[t] = proj @ patch.reshape(-1)
        desc = toks.astype(np.float32)
    else:
        desc = rng.stream(f"desc:{image_id}").uniform(
            (tokens, d_d), -1.0, 1.0).astype(np.float32)

    return PriorBundle(image_id, SemanticMask(labels, k),
                       DepthMap(depth), CaptionEmbedding(cap),
                       DescriptionEmbedding(desc)).validate()


def one_hot(mask: SemanticMask) -> np.ndarray:
    """(K, H, W) float32 indicator planes; exactly one 1 per pixel."""
    return np.identity(mask.k, dtype=np.float32)[mask.labels].transpose(2, 0, 1)


def encode_mask(mask: SemanticMask, w: Tensor, b: Tensor) -> Tensor:
    """One-hot expansion followed by one shape-preserving 3x3 conv."""
    return conv2d(constant(_as_dtype(one_hot(mask), w)), w, b, stride=1, pad=1)


def encode_depth(depth: DepthMap, w: Tensor, b: Tensor) -> Tensor:
    return conv2d(constant(_as_dtype(depth.depth[None], w)), w, b, stride=1, pad=1)


def _as_dtype(arr: np.ndarray, ref: Tensor) -> np.ndarray:
    return np.asarray(arr, dtype=ref.data.dtype)


def read_ppm(path) -> np.ndarray:
    """Binary P6 (maxval 255) to a (3, H, W) float32 image in [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        fields.append(buf[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise FormatError(f"{path}: not a binary PPM (magic {fields[0]!r})")
    try:
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise FormatError(f"{path}: malformed header fields {fields[1:]}") from None
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    need = width * height * 3
    raw = buf[pos:pos + need]
    if len(raw) != need:
        raise FormatError(f"{path}: payload {len(raw)} bytes, expected {need}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return (img.transpose(2, 0, 1).astype(np.float32)) / 255.0


def write_ppm(path, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[0] != 3:
        raise FormatError(f"PPM image must be (3, H, W), got {img.shape}")
    h, w = img.shape[1], img.shape[2]
    u8 = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    # interleave plane by plane: half the time of a strided transpose copy
    hwc = np.empty((h, w, 3), dtype=np.uint8)
    for ch in range(3):
        hwc[:, :, ch] = u8[ch]
    payload = b"P6\n%d %d\n255\n" % (w, h) + hwc.tobytes()
    atomic_write(path, payload)
