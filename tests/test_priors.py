"""Prior bundle types, synthetic generation, disk round trips, PPM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfsr.datagen import generate_dataset
from lvfsr.errors import DataError, FormatError
from lvfsr.numeric import Rng, parameter, tensor_bytes, write_ten
from lvfsr.priors import (PriorBundle, description_projection, encode_depth,
                          encode_mask, load_prior_bundle, luminance, one_hot,
                          read_ppm, save_prior_bundle, synth_priors, write_ppm)


def small_pair(seed=0, hr_size=32, scale=8):
    r = Rng(seed).stream("imgs")
    hr = r.uniform((3, hr_size, hr_size))
    lr = r.uniform((3, hr_size // scale, hr_size // scale))
    return hr.astype(np.float32), lr.astype(np.float32)


def flat_bundle(**parts):
    """A valid 4x4 bundle, with any of its fields replaced."""
    fields = dict(image_id="x", labels=np.zeros((4, 4), dtype=np.int64),
                  depth=np.zeros((4, 4)), caption=np.zeros(8, dtype=np.float32),
                  tokens=np.zeros((2, 8), dtype=np.float32))
    fields.update(parts)
    return PriorBundle(**fields)


# --- bundle validation ---------------------------------------------------

def test_mask_rejects_out_of_range_labels():
    with pytest.raises(DataError, match="outside"):
        flat_bundle(labels=np.array([[0, 8]]), depth=np.zeros((1, 2)), k=8).validate()
    with pytest.raises(DataError):
        flat_bundle(labels=np.array([[-1, 0]]), depth=np.zeros((1, 2)), k=8).validate()


def test_mask_rejects_wrong_rank():
    with pytest.raises(DataError, match="rank"):
        flat_bundle(labels=np.zeros(4, dtype=np.int64)).validate()


def test_depth_rejects_out_of_range():
    with pytest.raises(DataError, match="outside"):
        flat_bundle(labels=np.zeros((1, 2)), depth=np.array([[0.0, 1.5]])).validate()
    # closed interval ok
    flat_bundle(labels=np.zeros((1, 2)), depth=np.array([[0.0, 1.0]])).validate()


def test_caption_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        flat_bundle(caption=np.array([1.0, np.inf])).validate()


def test_description_token_count_bounds():
    with pytest.raises(DataError, match="token count"):
        flat_bundle(tokens=np.zeros((0, 4), dtype=np.float32)).validate()
    with pytest.raises(DataError, match="token count"):
        flat_bundle(tokens=np.zeros((78, 4), dtype=np.float32)).validate()
    flat_bundle(tokens=np.zeros((77, 4), dtype=np.float32)).validate()


def test_bundle_rejects_mismatched_extents():
    with pytest.raises(DataError, match="mask extents"):
        flat_bundle(depth=np.zeros((4, 5))).validate()


# --- synth_priors --------------------------------------------------------

def test_generate_dataset_refuses_token_count_before_writing(tmp_path):
    # the CLI test of too few informative patches covers the other failure
    with pytest.raises(DataError, match="token count 0"):
        generate_dataset(tmp_path / "d", count=2, hr_size=16, scale=8, seed=0,
                         informative=False, tokens=0)
    assert not (tmp_path / "d").exists()


def test_synth_priors_deterministic():
    hr, lr = small_pair()
    a = synth_priors(hr, lr, 3, False, "id0")
    b = synth_priors(hr, lr, 3, False, "id0")
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.caption, b.caption)
    assert np.array_equal(a.tokens, b.tokens)


def test_synth_priors_constant_image_single_class():
    hr = np.full((3, 32, 32), 0.4, dtype=np.float32)
    lr = np.full((3, 4, 4), 0.4, dtype=np.float32)
    bundle = synth_priors(hr, lr, 0, False, "c")
    assert len(np.unique(bundle.labels)) == 1


def test_synth_priors_mask_is_luma_quantization():
    hr, lr = small_pair(seed=5)
    bundle = synth_priors(hr, lr, 0, False, "q", k=8)
    want = np.clip((luminance(lr.astype(np.float64)) * 8).astype(np.int64), 0, 7)
    assert np.array_equal(bundle.labels, want)


def test_synth_priors_depth_normalized_radial():
    hr, lr = small_pair(seed=2)
    d = synth_priors(hr, lr, 0, False, "d").depth
    assert d.min() >= 0.0 and d.max() == pytest.approx(1.0)
    assert d.shape == lr.shape[1:]


def test_synth_priors_caption_unit_norm_and_id_keyed():
    hr, lr = small_pair()
    a = synth_priors(hr, lr, 0, False, "one").caption
    b = synth_priors(hr, lr, 0, False, "two").caption
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)
    assert not np.array_equal(a, b)


def test_informative_tokens_reconstruct_patches():
    # checkerboard: all energy above the LR band, gone after downsampling
    side = 32
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    hr = np.broadcast_to(((yy + xx) % 2).astype(np.float64), (3, side, side)).copy()
    lr = np.full((3, 4, 4), 0.5)
    bundle = synth_priors(hr, lr, 7, True, "cb", d_d=64, tokens=16)
    proj = description_projection(64, 3 * 4 * 4, 7)
    cols = side // 4
    for t in range(16):
        r, c = divmod(t, cols)
        patch = hr[:, r * 4:(r + 1) * 4, c * 4:(c + 1) * 4].reshape(-1)
        rec = proj.T @ bundle.tokens[t].astype(np.float64)
        assert np.abs(rec - patch).max() < 1e-5


def test_description_projection_orthonormal():
    q = description_projection(64, 48, 11)
    assert q.shape == (64, 48)
    assert np.abs(q.T @ q - np.eye(48)).max() < 1e-12


def test_description_projection_rejects_wide_patches():
    with pytest.raises(DataError, match="exceeds"):
        description_projection(8, 9, 0)


def test_informative_rejects_too_many_tokens():
    hr, lr = small_pair(hr_size=8, scale=2)
    with pytest.raises(DataError, match="tokens"):
        synth_priors(hr, lr, 0, True, "t", d_d=64, tokens=16)


# --- disk round trips -----------------------------------------------------

def test_bundle_round_trip(tmp_path):
    hr, lr = small_pair(seed=9)
    bundle = synth_priors(hr, lr, 9, False, "rt")
    save_prior_bundle(tmp_path, bundle)
    back = load_prior_bundle(tmp_path, "rt", k=8)
    assert np.array_equal(back.labels, bundle.labels)
    assert np.array_equal(back.depth, bundle.depth)
    assert np.array_equal(back.caption, bundle.caption)
    assert np.array_equal(back.tokens, bundle.tokens)


def test_bundle_save_is_byte_deterministic(tmp_path):
    hr, lr = small_pair()
    bundle = synth_priors(hr, lr, 0, False, "bb")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    save_prior_bundle(tmp_path / "a", bundle)
    save_prior_bundle(tmp_path / "b", bundle)
    for part in ("mask", "depth", "cap", "desc"):
        fa = (tmp_path / "a" / f"bb.{part}.ten").read_bytes()
        fb = (tmp_path / "b" / f"bb.{part}.ten").read_bytes()
        assert fa == fb


def test_load_missing_file_names_path(tmp_path):
    hr, lr = small_pair()
    save_prior_bundle(tmp_path, synth_priors(hr, lr, 0, False, "m"))
    (tmp_path / "m.depth.ten").unlink()
    with pytest.raises(DataError, match="m.depth.ten"):
        load_prior_bundle(tmp_path, "m")


def test_load_rejects_out_of_range_depth(tmp_path):
    hr, lr = small_pair()
    save_prior_bundle(tmp_path, synth_priors(hr, lr, 0, False, "z"))
    for value in (1.5, np.nan):
        write_ten(tmp_path / "z.depth.ten", np.full((4, 4), value, dtype=np.float32))
        with pytest.raises(DataError, match="z.depth.ten"):
            load_prior_bundle(tmp_path, "z")


def test_load_rejects_fractional_labels(tmp_path):
    hr, lr = small_pair()
    save_prior_bundle(tmp_path, synth_priors(hr, lr, 0, False, "f"))
    for value, match in ((0.5, "not integral"), (np.nan, "non-finite"), (1e30, "outside")):
        write_ten(tmp_path / "f.mask.ten", np.full((4, 4), value, dtype=np.float32))
        with pytest.raises(DataError, match=f"f.mask.ten: .*{match}"):
            load_prior_bundle(tmp_path, "f")


def test_load_rejects_label_above_k(tmp_path):
    hr, lr = small_pair()
    save_prior_bundle(tmp_path, synth_priors(hr, lr, 0, False, "k"))
    write_ten(tmp_path / "k.mask.ten", np.full((4, 4), 5.0, dtype=np.float32))
    with pytest.raises(DataError, match="outside"):
        load_prior_bundle(tmp_path, "k", k=4)


@pytest.fixture(scope="module")
def fuzz_bundle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle-fuzz")
    hr, lr = small_pair()
    save_prior_bundle(d, synth_priors(hr, lr, 0, False, "u", d_c=8, d_d=8, tokens=4))
    return d


def _framed(shape, raw):
    """A well-framed `.ten` payload of arbitrary float32 bit patterns."""
    n = int(np.prod(shape))
    return tensor_bytes(np.frombuffer(raw[:4 * n].ljust(4 * n, b"\0"), "<f4").reshape(shape))


# the bundle's own shapes (mask and depth, caption, tokens) and arbitrary ones
_SHAPES = st.one_of(st.sampled_from([(4, 4), (8,), (4, 8)]),
                    st.lists(st.integers(0, 5), max_size=3).map(tuple))
_PAYLOADS = st.one_of(st.binary(max_size=96),
                      st.builds(_framed, _SHAPES, st.binary(min_size=128, max_size=128)))


@given(part=st.sampled_from(["mask", "depth", "cap", "desc"]), payload=_PAYLOADS)
@settings(max_examples=100, deadline=None)
def test_load_prior_bundle_fuzz_fails_typed_naming_the_file(fuzz_bundle_dir, part, payload):
    target = fuzz_bundle_dir / f"u.{part}.ten"
    original = target.read_bytes()
    target.write_bytes(payload)
    try:
        bundle = load_prior_bundle(fuzz_bundle_dir, "u")
    except (DataError, FormatError) as e:
        # a mask whose extents differ from the depth's is reported on the depth file
        named = "u.depth.ten" if "mask extents" in str(e) else target.name
        assert str(e).startswith(f"{fuzz_bundle_dir / named}:"), str(e)
    else:
        assert bundle.labels.dtype == np.int64
    finally:
        target.write_bytes(original)


# --- encoders -------------------------------------------------------------

def test_one_hot_exactly_one_per_pixel():
    oh = one_hot(np.array([[0, 3], [7, 1]]), 8)
    assert oh.shape == (8, 2, 2)
    assert np.array_equal(oh.sum(axis=0), np.ones((2, 2)))
    assert oh[3, 0, 1] == 1.0 and oh[7, 1, 0] == 1.0


def test_encode_mask_matches_manual_conv():
    m = Rng(0).integers(16, 8).reshape(4, 4)
    w = parameter(Rng(1).uniform((5, 8, 3, 3), -0.2, 0.2), "w")
    b = parameter(np.zeros(5), "b")
    out = encode_mask(m, 8, w, b)
    assert out.shape == (5, 4, 4)
    oh = one_hot(m, 8).astype(np.float64)
    padded = np.pad(oh, ((0, 0), (1, 1), (1, 1)))
    want = np.zeros((5, 4, 4))
    for co in range(5):
        for y in range(4):
            for x in range(4):
                want[co, y, x] = (padded[:, y:y + 3, x:x + 3] * w.data[co]).sum()
    assert np.abs(out.data - want).max() < 1e-10


def test_encode_depth_shape():
    d = Rng(2).uniform((6, 5))
    w = parameter(Rng(3).uniform((4, 1, 3, 3), -0.2, 0.2), "w")
    b = parameter(Rng(4).uniform((4,)), "b")
    assert encode_depth(d, w, b).shape == (4, 6, 5)


def test_luminance_weights():
    img = np.zeros((3, 1, 1))
    img[0] = 1.0
    assert luminance(img)[0, 0] == pytest.approx(0.299)
    assert luminance(np.ones((3, 2, 2)))[0, 0] == pytest.approx(1.0)


# --- PPM -------------------------------------------------------------------

def test_ppm_round_trip_exact_at_8bit(tmp_path):
    img = Rng(0).uniform((3, 7, 5))
    q = np.rint(img * 255.0) / 255.0
    p = tmp_path / "i.ppm"
    write_ppm(p, img)
    assert np.abs(read_ppm(p) - q).max() < 1e-7


def test_ppm_write_clips(tmp_path):
    img = np.array([[[-0.5]], [[0.5]], [[1.5]]])
    p = tmp_path / "c.ppm"
    write_ppm(p, img)
    back = read_ppm(p)
    assert back[0, 0, 0] == 0.0 and back[2, 0, 0] == 1.0



def test_ppm_payload_is_interleaved_quantised_planes(tmp_path):
    img = Rng(3).uniform((3, 9, 14), -0.3, 1.3)  # values outside [0, 1] too
    img[:, 0, :3] = [[0.0, 1.0, 0.5 / 255]] * 3
    p = tmp_path / "q.ppm"
    write_ppm(p, img)
    u8 = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    assert p.read_bytes() == b"P6\n14 9\n255\n" + u8.transpose(1, 2, 0).tobytes()

def test_ppm_header_comments_ok(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n# more\n255\n" + bytes(6))
    img = read_ppm(p)
    assert img.shape == (3, 1, 2)


def test_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "p5.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="magic"):
        read_ppm(p)


def test_ppm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError, match="payload"):
        read_ppm(p)


def test_ppm_rejects_zero_extents(tmp_path):
    for header in (b"P6\n0 0\n255\n", b"P6\n0 2\n255\n", b"P6\n2 0\n255\n"):
        p = tmp_path / "z.ppm"
        p.write_bytes(header)
        with pytest.raises(FormatError, match=f"{p}: extents .* must be positive"):
            read_ppm(p)


def test_ppm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "m.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(FormatError, match="maxval"):
        read_ppm(p)


def test_ppm_rejects_non_image_shape(tmp_path):
    with pytest.raises(FormatError, match="3, H, W"):
        write_ppm(tmp_path / "x.ppm", np.zeros((1, 2, 2)))
