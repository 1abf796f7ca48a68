"""End-to-end model: feature extraction, L x (prior fusion -> transformer
pair), reconstruction with sub-pixel upsampling over a bicubic residual.

Variant tags cover the ablation grid: `full`, `model1_no_prior` (no priors,
fusion is the identity), `model2_concat` (concat + 1x1 conv fusion), and
`drop_FS` / `drop_FD` / `drop_EC` / `drop_ED` (one branch removed).
`VARIANT_PRIORS` lists the priors each one reads.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import (Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .fusion import (AttnProj, BRANCH_ORDER, FusionParams, _pixels, _unpixels,
                     build_concat_fusion, build_fusion_params,
                     concat_fusion_forward, fusion_forward)
from .numeric import (Tensor, add, constant, conv2d, gelu, layer_norm, linear,
                      pixel_shuffle, scaled_dot_attention, tensor_bytes)
from .numeric.tenio import (atomic_write, tensor_extents, tensor_from_bytes,
                            tensor_view)
from .params import ParamStore
from .priors import PriorBundle, encode_depth, encode_mask
from .resample import bicubic_resize

# in BRANCH_ORDER, which the fusion's concat follows
VARIANT_PRIORS: Dict[str, Tuple[str, ...]] = {
    "full": BRANCH_ORDER,
    "model1_no_prior": (),
    "model2_concat": BRANCH_ORDER,
    "drop_FS": ("dep", "cap", "des"),
    "drop_FD": ("seg", "cap", "des"),
    "drop_EC": ("seg", "dep", "des"),
    "drop_ED": ("seg", "dep", "cap"),
}
VARIANTS = tuple(VARIANT_PRIORS)

CKPT_MAGIC = b"LVCK"
CKPT_VERSION = 1


@dataclass
class NetworkFields:
    """The network shape a training config sets."""
    l: int = 3          # fusion/transformer block pairs
    c: int = 32         # feature channels
    heads: int = 4
    d_c: int = 64       # caption embedding width
    d_d: int = 64       # description token width
    k: int = 8          # mask classes


@dataclass
class NetworkConfig(NetworkFields):
    """A built network's shape: training fills in the scale and LR extents."""
    r: int = 8          # upscale factor
    h: int = 8          # LR extents
    w: int = 8

    def validate(self) -> "NetworkConfig":
        check_fields(self, "network config")
        if self.r not in (8, 16):
            raise ConfigError(f"scale must be 8 or 16, got {self.r}")
        for name, value in asdict(self).items():
            if value < 1:
                raise ConfigError(f"config field '{name}' must be positive")
        if self.c % self.heads:
            raise ConfigError(f"channels {self.c} not divisible by {self.heads} heads")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        check_keys(cls, d, "network config", complete=True)
        return cls(**d).validate()


# keyed by field annotation, a string under `from __future__ import annotations`
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
          "str": (str, "a string"), "NetworkFields": (NetworkFields, "an object")}


def _finite(v: numbers.Real) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def check_fields(obj, context: str) -> None:
    """Raise ConfigError unless each field of the dataclass `obj` holds the
    kind its annotation names: bool is not an integer, and a float field
    holds a finite number."""
    for f in fields(obj):
        kind, want = _KINDS[f.type]
        v = getattr(obj, f.name)
        if (not isinstance(v, kind) or isinstance(v, bool)
                or (kind is numbers.Real and not _finite(v))):
            raise ConfigError(f"{context} field '{f.name}' must be {want}, got {v!r}")


def check_keys(cls, d, context: str, complete: bool = False) -> None:
    """Raise ConfigError unless `d` is an object whose keys are fields of the
    dataclass `cls`, and, if `complete`, every one of them."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: top level must be an object, got {type(d).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = known - set(d)
    if complete and missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")


@dataclass
class TransformerSub:
    ln1g: Tensor
    ln1b: Tensor
    attn: AttnProj
    ln2g: Tensor
    ln2b: Tensor
    f1w: Tensor
    f1b: Tensor
    f2w: Tensor
    f2b: Tensor


@dataclass
class BlockParams:
    fusion: Optional[object]  # FusionParams | ConcatFusion | None
    subs: Tuple[TransformerSub, TransformerSub]


def _build_sub(store: ParamStore, prefix: str, c: int) -> TransformerSub:
    attn = AttnProj(*store.linear(f"{prefix}.attn.q", c, c),
                    *store.linear(f"{prefix}.attn.k", c, c),
                    *store.linear(f"{prefix}.attn.v", c, c),
                    *store.linear(f"{prefix}.attn.o", c, c))
    return TransformerSub(*store.norm(f"{prefix}.ln1", c), attn,
                          *store.norm(f"{prefix}.ln2", c),
                          *store.linear(f"{prefix}.mlp.fc1", 2 * c, c),
                          *store.linear(f"{prefix}.mlp.fc2", c, 2 * c))


def _sub_forward(x: Tensor, sub: TransformerSub, heads: int) -> Tensor:
    h = layer_norm(x, sub.ln1g, sub.ln1b)
    a = scaled_dot_attention(linear(h, sub.attn.qw, sub.attn.qb),
                             linear(h, sub.attn.kw, sub.attn.kb),
                             linear(h, sub.attn.vw, sub.attn.vb), heads)
    x = add(x, linear(a, sub.attn.ow, sub.attn.ob))
    h2 = layer_norm(x, sub.ln2g, sub.ln2b)
    m = linear(gelu(linear(h2, sub.f1w, sub.f1b)), sub.f2w, sub.f2b)
    return add(x, m)


def basic_block(feat: Tensor, bp: BlockParams, heads: int) -> Tensor:
    """Two cascaded pre-norm transformer sub-blocks over HW tokens."""
    toks = _pixels(feat)
    for sub in bp.subs:
        toks = _sub_forward(toks, sub, heads)
    return _unpixels(toks, *feat.shape[-2:])


class Stage(NamedTuple):
    """One step of the forward: `run(x, context)` returns the next x. `name`
    prefixes every parameter the stage owns (the entry stage owns the rest);
    `params` is the parameter group it reads, if any."""
    name: str
    run: Callable[[Tensor, Dict], Tensor]
    params: object = None


class Model:
    """A built network: config, variant, and every named parameter.

    Parameters are drawn from `seed`, or taken from `saved` (a checkpoint's
    (name, array) pairs, in registration order) without requiring grad.
    """

    def __init__(self, config: NetworkConfig, variant: str, seed: int,
                 saved: Optional[List[Tuple[str, np.ndarray]]] = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{variant}', expected one of {VARIANTS}")
        config.validate()
        self.config = config
        self.variant = variant
        self.branches = VARIANT_PRIORS[variant]  # the priors it reads
        self.seed = seed
        store = ParamStore(seed, saved)
        c = config.c

        self.feat_w, self.feat_b = store.conv("feat.conv", c, 3, 3)

        self.mask_w = self.mask_b = self.depth_w = self.depth_b = None
        if "seg" in self.branches:
            self.mask_w, self.mask_b = store.conv("mask_enc.conv", c, config.k, 3)
        if "dep" in self.branches:
            self.depth_w, self.depth_b = store.conv("depth_enc.conv", c, 1, 3)

        self.blocks: List[BlockParams] = []
        for i in range(config.l):
            prefix = f"block{i}"
            if not self.branches:
                fusion = None
            elif variant == "model2_concat":
                fusion = build_concat_fusion(store, f"{prefix}.fusion", c,
                                             config.d_c, config.d_d)
            else:
                fusion = build_fusion_params(store, f"{prefix}.fusion", c,
                                             config.d_c, config.d_d,
                                             config.heads, self.branches)
            subs = (_build_sub(store, f"{prefix}.body.t0", c),
                    _build_sub(store, f"{prefix}.body.t1", c))
            self.blocks.append(BlockParams(fusion, subs))

        self.recon_w, self.recon_b = store.conv("recon.conv", 3 * config.r ** 2, c, 3)
        self.store = store

    @property
    def params(self) -> Dict[str, Tensor]:
        return self.store.params

    def param_count(self) -> int:
        return self.store.count()

    def cast(self, dtype) -> None:
        """Switch every parameter to `dtype` in place (float64 for checking)."""
        for p in self.params.values():
            p.data = p.data.astype(dtype)

    def prior_inputs(self, bundle: PriorBundle) -> Dict[str, Tensor]:
        cfg, dt = self.config, self.feat_w.data.dtype
        inputs: Dict[str, Tensor] = {}
        if "seg" in self.branches:
            if bundle.mask.k != cfg.k:
                raise DataError(f"bundle mask has {bundle.mask.k} classes, config has {cfg.k}")
            inputs["seg"] = encode_mask(bundle.mask, self.mask_w, self.mask_b)
        if "dep" in self.branches:
            inputs["dep"] = encode_depth(bundle.depth, self.depth_w, self.depth_b)
        if "cap" in self.branches:
            if bundle.caption.vector.shape != (cfg.d_c,):
                raise DataError(f"caption width {bundle.caption.vector.shape} != ({cfg.d_c},)")
            inputs["cap"] = constant(bundle.caption.vector.astype(dt))
        if "des" in self.branches:
            if bundle.description.tokens.shape[1] != cfg.d_d:
                raise DataError(f"token width {bundle.description.tokens.shape[1]} != {cfg.d_d}")
            inputs["des"] = constant(bundle.description.tokens.astype(dt))
        return inputs

    def start(self, lr_img: np.ndarray, bundle: Optional[PriorBundle]) -> Tuple[Tensor, Dict]:
        """The entry stage's input and a fresh context for one image: the
        bundle and the bicubic base that recon adds to its output."""
        cfg = self.config
        lr = np.asarray(lr_img)
        if lr.shape != (3, cfg.h, cfg.w):
            raise ShapeError(f"LR image shape {lr.shape} != configured (3, {cfg.h}, {cfg.w})")
        if self.branches:
            if bundle is None:
                raise DataError(f"variant '{self.variant}' requires a prior bundle")
            bundle.check_lr_extents(cfg.h, cfg.w)
        dt = self.feat_w.data.dtype
        # a value-preserving input dtype: the resize writes its float64
        # result straight into `dt` when the LR image already has it
        src = lr.astype(np.promote_types(lr.dtype, dt), copy=False)
        base = bicubic_resize(src, cfg.h * cfg.r, cfg.w * cfg.r).astype(dt, copy=False)
        return constant(lr.astype(dt)), {"bundle": bundle, "base": constant(base)}

    def stages(self) -> List[Stage]:
        """The forward in order: entry (writes the encoded priors, keyed by
        branch, into the context), then per block a fusion stage (none in
        model1) and a body stage, then recon. Built per call, so a stage
        function rebound by name (a per-layer timer) is seen by models built
        before."""
        out = [Stage("entry", self._entry)]
        for i, bp in enumerate(self.blocks):
            if bp.fusion is not None:
                fuse = (fusion_forward if isinstance(bp.fusion, FusionParams)
                        else concat_fusion_forward)
                out.append(Stage(f"block{i}.fusion", partial(fuse, p=bp.fusion), bp.fusion))
            out.append(Stage(f"block{i}.body", lambda x, _, bp=bp:
                             basic_block(x, bp, self.config.heads), bp))
        out.append(Stage("recon", self._recon))
        return out

    def forward(self, lr_img: np.ndarray, bundle: Optional[PriorBundle]) -> Tensor:
        x, context = self.start(lr_img, bundle)
        for stage in self.stages():
            x = stage.run(x, context)
        return x

    def _entry(self, x: Tensor, context: Dict) -> Tensor:
        context.update(self.prior_inputs(context["bundle"]))
        return conv2d(x, self.feat_w, self.feat_b, stride=1, pad=1)

    def _recon(self, x: Tensor, context: Dict) -> Tensor:
        x = conv2d(x, self.recon_w, self.recon_b, stride=1, pad=1)
        return add(pixel_shuffle(x, self.config.r), context["base"])


# --- checkpoint serialization ------------------------------------------------

@dataclass
class Checkpoint:
    config: NetworkConfig
    variant: str
    seed: int
    step: int
    params: List[Tuple[str, np.ndarray]]
    opt_m: Mapping[str, np.ndarray] = field(default_factory=dict)
    opt_v: Mapping[str, np.ndarray] = field(default_factory=dict)


class _Moments(Mapping):
    """Adam moments of a loaded checkpoint: checked blobs of its buffer,
    parsed into a fresh array on each read."""

    def __init__(self, blobs: Dict[str, memoryview], context: str):
        self._blobs, self._context = blobs, context

    def __getitem__(self, name: str) -> np.ndarray:
        return tensor_from_bytes(self._blobs[name], f"{self._context}:{name}")

    def __iter__(self) -> Iterator[str]:
        return iter(self._blobs)

    def __len__(self) -> int:
        return len(self._blobs)


def checkpoint_of(model: Model, step: int, opt_m: Optional[Dict] = None,
                  opt_v: Optional[Dict] = None) -> Checkpoint:
    params = [(n, p.data.copy()) for n, p in model.params.items()]
    return Checkpoint(model.config, model.variant, model.seed, step, params,
                      dict(opt_m or {}), dict(opt_v or {}))


def _pack_blob(out: List[bytes], blob: bytes) -> None:
    out.append(struct.pack("<I", len(blob)))
    out.append(blob)


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    head = json.dumps({"config": ckpt.config.to_dict(), "variant": ckpt.variant},
                      sort_keys=True, separators=(",", ":")).encode()
    out: List[bytes] = [CKPT_MAGIC, struct.pack("<IQQ", CKPT_VERSION,
                                                ckpt.seed, ckpt.step)]
    _pack_blob(out, head)
    names = [n for n, _ in ckpt.params]
    if len(set(names)) != len(names):
        raise FormatError("duplicate parameter names in checkpoint")
    out.append(struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params:
        _pack_blob(out, name.encode())
        _pack_blob(out, tensor_bytes(arr))
    has_opt = bool(ckpt.opt_m)
    out.append(struct.pack("<B", int(has_opt)))
    if has_opt:
        if set(ckpt.opt_m) != set(names) or set(ckpt.opt_v) != set(names):
            raise FormatError("optimizer moments do not cover the parameter set")
        for name, _ in ckpt.params:
            _pack_blob(out, tensor_bytes(ckpt.opt_m[name]))
            _pack_blob(out, tensor_bytes(ckpt.opt_v[name]))
    return b"".join(out)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    atomic_write(path, checkpoint_bytes(ckpt))


_U32 = struct.Struct("<I")


def _span(buf: bytes, pos: int, path) -> Tuple[int, int]:
    """Start and end of the length-prefixed blob at `pos`."""
    (size,) = _U32.unpack_from(buf, pos)
    start = pos + 4
    if start + size > len(buf):
        raise FormatError(f"{path}: truncated checkpoint")
    return start, start + size


def _text(buf: bytes, pos: int, path, what: str) -> Tuple[str, int]:
    """The UTF-8 blob at `pos`, and the position after it."""
    start, end = _span(buf, pos, path)
    try:
        return buf[start:end].decode(), end
    except UnicodeDecodeError:
        raise FormatError(f"{path}: {what} is not UTF-8") from None


def load_checkpoint(path) -> Checkpoint:
    """Read and check a checkpoint file, copying none of its floats.

    Parameters are read-only views of the file's bytes, which
    `model_from_checkpoint` copies once. Every Adam moment's framing is
    checked here: its length and header (magic, rank, extents) must equal
    its parameter's, which was checked in full. Its floats are parsed only
    when `opt_m` or `opt_v` is read, so an inference restore never copies
    them.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_checkpoint(buf, path)
    except struct.error:  # a fixed-size field runs past the end
        raise FormatError(f"{path}: truncated checkpoint") from None


def _parse_checkpoint(buf: bytes, path) -> Checkpoint:
    if len(buf) < 4:
        raise FormatError(f"{path}: truncated checkpoint")
    if buf[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    version, seed, step = struct.unpack_from("<IQQ", buf, 4)
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
    text, pos = _text(buf, 24, path, "config block")
    try:
        head = json.loads(text)
        if not isinstance(head, dict):
            raise ConfigError(f"header is a JSON {type(head).__name__}, not an object")
        config = NetworkConfig.from_dict(head["config"])
        variant = head["variant"]
    except (ValueError, KeyError, RecursionError, ConfigError) as e:
        raise FormatError(f"{path}: malformed config block: {e}") from None
    if variant not in VARIANTS:
        raise FormatError(f"{path}: unknown variant '{variant}'")
    view = memoryview(buf)
    (n,) = _U32.unpack_from(buf, pos)
    pos += 4
    params: List[Tuple[str, np.ndarray]] = []
    # each parameter blob's length word and header (magic, rank, extents),
    # which its moments must repeat byte for byte
    frames: List[bytes] = []
    seen = set()
    for _ in range(n):
        name, pos = _text(buf, pos, path, "parameter name")
        if name in seen:
            raise FormatError(f"{path}: duplicate parameter '{name}'")
        seen.add(name)
        start, end = _span(buf, pos, path)
        arr = tensor_view(view[start:end], context=f"{path}:{name}")
        params.append((name, arr))
        frames.append(buf[pos:start + 8 + 4 * arr.ndim])
        pos = end
    opt_m: Dict[str, memoryview] = {}
    opt_v: Dict[str, memoryview] = {}
    (has_opt,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    if has_opt:
        for (name, arr), frame in zip(params, frames):
            size = arr.nbytes + len(frame) - 4
            for which, moments in (("m", opt_m), ("v", opt_v)):
                start, end = pos + 4, pos + 4 + size
                if not buf.startswith(frame, pos) or end > len(buf):
                    start, end = _span(buf, pos, path)
                    context = f"{path}:{which}:{name}"
                    extents = tensor_extents(view[start:end], context)
                    raise FormatError(f"{context}: moment extents {extents} != "
                                      f"parameter extents {arr.shape}")
                moments[name] = view[start:end]
                pos = end
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes")
    return Checkpoint(config, variant, seed, step, params,
                      _Moments(opt_m, f"{path}:m"), _Moments(opt_v, f"{path}:v"))


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """An inference model holding the checkpoint's parameters.

    Nothing is drawn: each parameter takes its saved array as the
    architecture registers it. The parameters do not require grad, so a
    forward records no tape; set `requires_grad` on them to train.
    """
    model = Model(ckpt.config, ckpt.variant, ckpt.seed, saved=ckpt.params)
    if len(model.params) != len(ckpt.params):
        raise FormatError("checkpoint parameter names do not match the architecture")
    return model
