"""Model assembly, variants, forward contracts, checkpoint format."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfsr.errors import ConfigError, DataError, FormatError, ShapeError
from lvfsr.fusion import (BRANCH_ORDER, ConcatFusion, FusionParams,
                          concat_fusion_forward, fusion_forward)
from lvfsr.network import (Checkpoint, Model, NetworkConfig, VARIANT_PRIORS, VARIANTS,
                           basic_block, checkpoint_bytes, checkpoint_of,
                           load_checkpoint, model_from_checkpoint,
                           save_checkpoint)
from lvfsr.numeric import (Rng, add, backward, constant, conv2d, mean_all,
                           pixel_shuffle, tensor_bytes, zero_grads)
from lvfsr.priors import synth_priors
from lvfsr.resample import bicubic_resize

CFG = NetworkConfig(l=2, c=8, heads=2, r=8, d_c=12, d_d=16, k=8, h=4, w=4)


def lr_image(seed=0, h=4, w=4):
    return Rng(seed).uniform((3, h, w)).astype(np.float32)


def bundle_for(seed=0, h=4, w=4, r=8, **kw):
    hr = Rng(seed + 100).uniform((3, h * r, w * r)).astype(np.float32)
    return synth_priors(hr, lr_image(seed, h, w), seed, False, f"b{seed}",
                        d_c=kw.get("d_c", 12), d_d=kw.get("d_d", 16),
                        tokens=kw.get("tokens", 4), k=kw.get("k", 8))


# --- config ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError, match="scale"):
        NetworkConfig(r=4).validate()
    with pytest.raises(ConfigError, match="divisible"):
        NetworkConfig(c=10, heads=4).validate()
    with pytest.raises(ConfigError, match="positive"):
        NetworkConfig(l=0).validate()
    with pytest.raises(ConfigError, match="'heads' must be positive"):
        NetworkConfig(heads=0).validate()
    with pytest.raises(ConfigError, match="'c' must be an integer"):
        NetworkConfig(c="x").validate()
    with pytest.raises(ConfigError, match="'c' must be an integer"):
        NetworkConfig(c=8.0).validate()


def test_config_dict_round_trip():
    d = CFG.to_dict()
    assert NetworkConfig.from_dict(d) == CFG
    with pytest.raises(ConfigError, match="unknown"):
        NetworkConfig.from_dict({**d, "extra": 1})
    with pytest.raises(ConfigError, match="missing"):
        NetworkConfig.from_dict({k: v for k, v in d.items() if k != "c"})


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        Model(CFG, "model3", 0)


# --- forward ----------------------------------------------------------------

def test_forward_output_shape_and_determinism():
    model = Model(CFG, "full", 0)
    out = model.forward(lr_image(), bundle_for())
    assert out.shape == (3, 32, 32)
    again = Model(CFG, "full", 0).forward(lr_image(), bundle_for())
    assert np.array_equal(out.data, again.data)


def test_forward_seed_changes_output():
    a = Model(CFG, "full", 0).forward(lr_image(), bundle_for())
    b = Model(CFG, "full", 1).forward(lr_image(), bundle_for())
    assert not np.array_equal(a.data, b.data)


def test_forward_rejects_wrong_lr_shape():
    with pytest.raises(ShapeError, match="LR image"):
        Model(CFG, "full", 0).forward(lr_image(h=5, w=4), bundle_for(h=5, w=4))


def test_forward_requires_bundle_unless_no_prior():
    model = Model(CFG, "full", 0)
    with pytest.raises(DataError, match="requires a prior bundle"):
        model.forward(lr_image(), None)
    out = Model(CFG, "model1_no_prior", 0).forward(lr_image(), None)
    assert out.shape == (3, 32, 32)


def test_forward_rejects_mismatched_priors():
    model = Model(CFG, "full", 0)
    with pytest.raises(DataError, match="classes"):
        model.forward(lr_image(), bundle_for(k=4))
    with pytest.raises(DataError, match="caption width"):
        model.forward(lr_image(), bundle_for(d_c=8))
    with pytest.raises(DataError, match="token width"):
        model.forward(lr_image(), bundle_for(d_d=8))
    wrong_hw = bundle_for(h=8, w=8)
    with pytest.raises(DataError, match="extents"):
        model.forward(lr_image(), wrong_hw)


def test_identity_at_init_under_bundle_substitution():
    model = Model(CFG, "full", 3)
    img = lr_image(7)
    outs = [model.forward(img, bundle_for(s)).data for s in (0, 1, 2)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_trained_fuse_breaks_bundle_invariance():
    model = Model(CFG, "full", 3)
    for name, p in model.params.items():
        if "fuse.weight" in name:
            p.data[:] = Rng(9).stream(name).uniform(p.data.shape, -0.1, 0.1)
    img = lr_image(7)
    a = model.forward(img, bundle_for(0)).data
    b = model.forward(img, bundle_for(1)).data
    assert not np.array_equal(a, b)


def test_zero_model_outputs_bicubic_base():
    from lvfsr.resample import bicubic_resize
    model = Model(CFG, "model1_no_prior", 0)
    img = lr_image(4)
    for name, p in model.params.items():
        p.data[:] = 0.0
    out = model.forward(img, None)
    want = bicubic_resize(img.astype(np.float64), 32, 32).astype(np.float32)
    assert np.abs(out.data - want).max() < 1e-6


def spelled_out(model, img, bundle):
    """The network written out op by op, as one hand-ordered pipeline."""
    cfg, dt = model.config, model.feat_w.data.dtype
    inputs = model.prior_inputs(bundle) if bundle is not None else {}
    x = conv2d(constant(img.astype(dt)), model.feat_w, model.feat_b, stride=1, pad=1)
    for bp in model.blocks:
        if isinstance(bp.fusion, FusionParams):
            x = fusion_forward(x, inputs, bp.fusion)
        elif isinstance(bp.fusion, ConcatFusion):
            x = concat_fusion_forward(x, inputs, bp.fusion)
        x = basic_block(x, bp, cfg.heads)
    x = pixel_shuffle(conv2d(x, model.recon_w, model.recon_b, stride=1, pad=1), cfg.r)
    base = bicubic_resize(img.astype(np.promote_types(img.dtype, dt)),
                          cfg.h * cfg.r, cfg.w * cfg.r).astype(dt)
    return add(x, constant(base))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_stage_list_composes_to_forward_bytes(variant, dtype):
    model = Model(CFG, variant, 3)
    model.cast(dtype)
    rng = Rng(9)
    for name, p in model.params.items():  # open the zero-initialised fusion
        if ".fuse." in name:
            p.data = rng.stream(name).uniform(p.data.shape, -0.2, 0.2).astype(dtype)
    img = lr_image(2)
    bundle = None if variant == "model1_no_prior" else bundle_for(2)
    stages = model.stages()
    names = [st.name for st in stages]
    assert names[0] == "entry" and names[-1] == "recon"
    assert len(names) == 2 + CFG.l * (1 if variant == "model1_no_prior" else 2)
    for name in model.params:  # each parameter has one owner, found by prefix
        owners = [n for n in names if name.startswith(n + ".")]
        assert owners or name.split(".")[0] in ("feat", "mask_enc", "depth_enc")
        assert len(owners) <= 1, name
    x, context = model.start(img, bundle)
    for st in stages:
        x = st.run(x, context)
    out, ref = model.forward(img, bundle), spelled_out(model, img, bundle)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes() == x.data.tobytes()
    # same ops in the same order: the gradients agree to the byte as well
    grads = backward(mean_all(out))
    zero_grads(model.params)
    want = backward(mean_all(ref))
    assert grads.keys() == want.keys() == model.params.keys()
    for name, g in grads.items():
        assert g.data.tobytes() == want[name].data.tobytes(), name


# --- variants ----------------------------------------------------------------

def test_param_count_ordering():
    counts = {v: Model(CFG, v, 0).param_count() for v in VARIANTS}
    assert counts["model1_no_prior"] < counts["model2_concat"] < counts["full"]
    for v in ("drop_FS", "drop_FD", "drop_EC", "drop_ED"):
        assert counts["model1_no_prior"] < counts[v] < counts["full"]


def test_dropped_branch_parameters_absent():
    model = Model(CFG, "drop_ED", 0)
    assert not any(".des." in n for n in model.params)
    assert any(".seg." in n for n in model.params)
    model = Model(CFG, "drop_FS", 0)
    assert not any(".seg." in n for n in model.params)
    assert model.mask_w is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_reads_the_priors_its_table_lists(variant):
    priors = VARIANT_PRIORS[variant]
    model = Model(CFG, variant, 0)
    assert model.branches == priors
    assert ("mask_enc.conv.weight" in model.params) == ("seg" in priors)
    assert ("depth_enc.conv.weight" in model.params) == ("dep" in priors)
    for i, bp in enumerate(model.blocks):
        parts = {n.split(".")[2] for n in model.params if n.startswith(f"block{i}.fusion.")}
        if not priors:
            assert bp.fusion is None and not parts
        elif variant == "model2_concat":
            assert isinstance(bp.fusion, ConcatFusion) and priors == BRANCH_ORDER
            assert parts == {"capmap", "desmap", "fuse"}
        else:
            assert bp.fusion.enabled() == priors
            assert parts == {"fuse", *priors}
    # a bundle is needed if and only if the variant reads a prior
    if priors:
        with pytest.raises(DataError, match="requires a prior bundle"):
            model.forward(lr_image(), None)
        assert tuple(model.prior_inputs(bundle_for(0))) == priors
    else:
        assert model.forward(lr_image(), None).shape == (3, 32, 32)


def test_variant_forward_shapes():
    img = lr_image(1)
    b = bundle_for(1)
    for v in VARIANTS:
        out = Model(CFG, v, 0).forward(img, None if v == "model1_no_prior" else b)
        assert out.shape == (3, 32, 32), v


# --- checkpoints --------------------------------------------------------------

def roundtrip(ckpt, tmp_path, name="c.lvck"):
    p = tmp_path / name
    save_checkpoint(p, ckpt)
    return p, load_checkpoint(p)


def test_checkpoint_round_trip_byte_exact(tmp_path):
    model = Model(CFG, "full", 5)
    m = {n: Rng(1).stream(n).uniform(p.data.shape).astype(np.float32)
         for n, p in model.params.items()}
    v = {n: Rng(2).stream(n).uniform(p.data.shape).astype(np.float32)
         for n, p in model.params.items()}
    ckpt = checkpoint_of(model, 42, m, v)
    p, back = roundtrip(ckpt, tmp_path)
    assert checkpoint_bytes(back) == p.read_bytes()
    assert back.step == 42 and back.seed == 5 and back.variant == "full"
    assert [n for n, _ in back.params] == list(model.params)
    for (n, arr), (n2, arr2) in zip(ckpt.params, back.params):
        assert n == n2 and np.array_equal(arr, arr2)
        assert np.array_equal(back.opt_m[n], m[n])
        assert np.array_equal(back.opt_v[n], v[n])


def test_checkpoint_without_moments(tmp_path):
    ckpt = checkpoint_of(Model(CFG, "drop_EC", 0), 7)
    _, back = roundtrip(ckpt, tmp_path)
    assert back.opt_m == {} and back.opt_v == {}


def test_model_from_checkpoint_reproduces_forward(tmp_path):
    model = Model(CFG, "full", 5)
    for p in model.params.values():
        p.data += 0.01  # move off init so restore actually matters
    _, back = roundtrip(checkpoint_of(model, 1, {}, {}), tmp_path)
    clone = model_from_checkpoint(back)
    img, b = lr_image(3), bundle_for(3)
    out = clone.forward(img, b)
    # a restored model is for inference: its forward records no tape
    assert not out.requires_grad and out._backward is None and not out._parents
    assert not any(p.requires_grad for p in clone.params.values())
    assert np.array_equal(model.forward(img, b).data, out.data)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.lvck"
    p.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path):
    model = Model(CFG, "full", 0)
    buf = bytearray(checkpoint_bytes(checkpoint_of(model, 0)))
    buf[4] = 99
    p = tmp_path / "v.lvck"
    p.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(p)


def test_checkpoint_truncation_and_trailing(tmp_path):
    buf = checkpoint_bytes(checkpoint_of(Model(CFG, "full", 0), 0))
    p = tmp_path / "t.lvck"
    p.write_bytes(buf[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)
    p.write_bytes(buf + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(p)


def _with_header(buf: bytes, header: bytes) -> bytes:
    """Swap the JSON config block of serialized checkpoint bytes."""
    (old,) = struct.unpack_from("<I", buf, 24)
    return buf[:24] + struct.pack("<I", len(header)) + header + buf[28 + old:]


@pytest.mark.parametrize("header", [
    b'[{"config": {}, "variant": "full"}]',  # a list, not an object
    {"c": None},                               # a null config value
    {"l": True},                               # a bool is not an integer
    {"c": 8.9},                                # nor is a fractional number
    {"heads": 0},                              # checked before c % heads
    b"[" * 200000,                             # nested past the parser's depth
], ids=["json-list", "null-config-value", "bool-config-value", "float-config-value",
        "zero-heads", "deep-nesting"])
def test_checkpoint_malformed_header_is_format_error(tmp_path, header):
    buf = checkpoint_bytes(checkpoint_of(Model(CFG, "full", 0), 0))
    if isinstance(header, dict):
        head = {"config": {**CFG.to_dict(), **header}, "variant": "full"}
        header = json.dumps(head).encode()
    p = tmp_path / "h.lvck"
    p.write_bytes(_with_header(buf, header))
    with pytest.raises(FormatError, match=r"h\.lvck: malformed config block"):
        load_checkpoint(p)


def test_checkpoint_non_utf8_name_is_format_error(tmp_path):
    buf = bytearray(checkpoint_bytes(checkpoint_of(Model(CFG, "full", 0), 0)))
    (head,) = struct.unpack_from("<I", buf, 24)
    buf[28 + head + 8] = 0xFF  # first byte of the first parameter name
    p = tmp_path / "n.lvck"
    p.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=r"n\.lvck: parameter name is not UTF-8"):
        load_checkpoint(p)


def _moments(model, seed):
    return {n: Rng(seed).stream(n).uniform(p.data.shape).astype(np.float32)
            for n, p in model.params.items()}


def test_checkpoint_moment_bad_magic_fails_at_load(tmp_path):
    model = Model(CFG, "full", 0)
    # the moments follow the parameter section and its has-moments flag
    start = len(checkpoint_bytes(checkpoint_of(model, 0)))
    buf = bytearray(checkpoint_bytes(checkpoint_of(model, 0, _moments(model, 1),
                                                   _moments(model, 2))))
    assert buf[start + 4:start + 8] == b"LVT1"
    buf[start + 4] = ord("X")  # first byte of the first parameter's m blob
    p = tmp_path / "mm.lvck"
    p.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=r"mm\.lvck:m:feat\.conv\.weight: bad magic"):
        load_checkpoint(p)


@pytest.mark.parametrize("which", ["m", "v"])
def test_checkpoint_moment_extents_checked_at_load(tmp_path, which):
    model = Model(CFG, "full", 0)
    moments = {"m": _moments(model, 1), "v": _moments(model, 2)}
    name = "block0.body.t0.attn.q.weight"
    moments[which][name] = moments[which][name][:, :3]
    p = tmp_path / "me.lvck"
    save_checkpoint(p, checkpoint_of(model, 0, moments["m"], moments["v"]))
    with pytest.raises(FormatError, match=rf"me\.lvck:{which}:{name}: moment extents"):
        load_checkpoint(p)


@pytest.mark.parametrize("which", ["m", "v"])
def test_checkpoint_moment_rank_checked_at_equal_length(tmp_path, which):
    # (n - 1, 1) floats plus one more extent word fill exactly the bytes of
    # an (n,) blob, so only the header tells the two apart
    model = Model(CFG, "full", 0)
    moments = {"m": _moments(model, 1), "v": _moments(model, 2)}
    name = "block0.body.t0.ln1.beta"
    (n,) = model.params[name].data.shape
    moments[which][name] = moments[which][name][:n - 1, None]
    assert (len(tensor_bytes(moments[which][name]))
            == len(tensor_bytes(model.params[name].data)))
    p = tmp_path / "mr.lvck"
    save_checkpoint(p, checkpoint_of(model, 0, moments["m"], moments["v"]))
    with pytest.raises(FormatError, match=rf"mr\.lvck:{which}:{name}: moment extents "
                                          rf"\({n - 1}, 1\) != parameter extents \({n},\)"):
        load_checkpoint(p)


def _fuzz_checkpoint():
    """A small checkpoint with moments, and the offsets of its framing: the
    fixed header, config block and name count, every parameter name blob and
    every moment blob's length, magic, rank and extents."""
    cfg = NetworkConfig(l=1, c=2, heads=1, r=8, d_c=2, d_d=2, k=2, h=1, w=1)
    model = Model(cfg, "full", 0)
    buf = checkpoint_bytes(checkpoint_of(model, 5, _moments(model, 1), _moments(model, 2)))
    (head,) = struct.unpack_from("<I", buf, 24)
    pos = 28 + head + 4
    spots = list(range(pos))
    for _ in model.params:
        (size,) = struct.unpack_from("<I", buf, pos)
        spots += range(pos, pos + 4 + size)
        pos += 4 + size
        (size,) = struct.unpack_from("<I", buf, pos)
        pos += 4 + size
    pos += 1  # the has-moments flag
    while pos < len(buf):
        size, _, rank = struct.unpack_from("<III", buf, pos)
        spots += range(pos, pos + 12 + 4 * rank)
        pos += 4 + size
    return buf, spots


_FUZZ_BUF, _FUZZ_SPOTS = _fuzz_checkpoint()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(cut=st.one_of(st.just(len(_FUZZ_BUF)), st.integers(0, len(_FUZZ_BUF) - 1)),
       edits=st.lists(st.tuples(st.sampled_from(_FUZZ_SPOTS), st.integers(0, 255)),
                      max_size=3))
@settings(max_examples=80, deadline=None)
def test_checkpoint_fuzz_fails_typed_or_loads_its_bytes(fuzz_dir, cut, edits):
    data = bytearray(_FUZZ_BUF)
    for i, v in edits:
        data[i] = v
    data = bytes(data[:cut])
    p = fuzz_dir / "f.lvck"
    p.write_bytes(data)
    try:
        back = load_checkpoint(p)
    except FormatError as e:
        assert str(e).startswith(f"{p}:"), str(e)
        return
    # accepted: saving what was read gives the file back, up to how the JSON
    # config block is spelt
    (head,) = struct.unpack_from("<I", data, 24)
    canon = json.dumps(json.loads(data[28:28 + head]), sort_keys=True,
                       separators=(",", ":")).encode()
    assert checkpoint_bytes(back) == (data[:24] + struct.pack("<I", len(canon))
                                      + canon + data[28 + head:])

def test_restored_models_share_no_array(tmp_path):
    model = Model(CFG, "full", 5)
    _, ckpt = roundtrip(checkpoint_of(model, 1, _moments(model, 1), _moments(model, 2)),
                        tmp_path)
    saved = [arr.copy() for _, arr in ckpt.params]
    a, b = model_from_checkpoint(ckpt), model_from_checkpoint(ckpt)
    arrays = ([p.data for p in a.params.values()] + [p.data for p in b.params.values()]
              + [arr for _, arr in ckpt.params])
    for i, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1:])
    for p in a.params.values():
        p.data += 1.0
    for (name, arr), want in zip(ckpt.params, saved):
        assert np.array_equal(arr, want) and np.array_equal(b.params[name].data, want)
    # a read moment is a fresh array too
    m = ckpt.opt_m["feat.conv.weight"]
    m += 1.0
    assert not np.array_equal(ckpt.opt_m["feat.conv.weight"], m)


def test_checkpoint_rejects_architecture_mismatch(tmp_path):
    ckpt = checkpoint_of(Model(CFG, "full", 0), 0)
    ckpt.params = ckpt.params[1:]  # drop one tensor
    # serialization itself is happy; rebuilding the model is what must fail
    with pytest.raises(FormatError, match="do not match"):
        model_from_checkpoint(ckpt)
    ckpt = checkpoint_of(Model(CFG, "full", 0), 0)
    ckpt.params[2], ckpt.params[3] = ckpt.params[3], ckpt.params[2]
    with pytest.raises(FormatError, match="do not match"):
        model_from_checkpoint(ckpt)
    ckpt = checkpoint_of(Model(CFG, "full", 0), 0)
    ckpt.params.append(("extra.weight", np.zeros(1, np.float32)))
    with pytest.raises(FormatError, match="do not match"):
        model_from_checkpoint(ckpt)
    ckpt = checkpoint_of(Model(CFG, "full", 0), 0)
    name, arr = ckpt.params[3]
    ckpt.params[3] = (name, arr[:1])
    with pytest.raises(FormatError, match=f"parameter '{name}' shape"):
        model_from_checkpoint(ckpt)


def test_checkpoint_moments_must_cover_params():
    model = Model(CFG, "full", 0)
    ckpt = checkpoint_of(model, 0, {"feat.conv.weight": np.zeros(1, np.float32)},
                         {"feat.conv.weight": np.zeros(1, np.float32)})
    with pytest.raises(FormatError, match="moments"):
        checkpoint_bytes(ckpt)
