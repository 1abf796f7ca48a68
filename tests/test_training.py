"""Training loop: config parsing, loss, determinism, checkpoints, resume."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfsr.datagen import generate_dataset
from lvfsr.errors import ConfigError, DataError, ShapeError
from lvfsr.network import VARIANTS, Model, NetworkConfig, load_checkpoint
from lvfsr.numeric import AdamHyper, AdamState, Rng, add, constant, scale
from lvfsr.priors import load_prior_bundle, read_ppm
from lvfsr.training import (NetworkFields, TrainConfig, degrade, epoch_order,
                            l1_loss, load_dataset, load_train_config,
                            network_config_for, read_manifest, run_training,
                            train_config_from_dict, train_step)

NET = NetworkFields(l=1, c=4, heads=2, d_c=8, d_d=8, k=8)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate_dataset(root, count=4, hr_size=16, scale=8, seed=0,
                     informative=False, d_c=8, d_d=8, tokens=4, k=8,
                     splits=("train",))
    return root


def tiny_cfg(data_root, **over):
    base = dict(lr=1e-3, epochs=3, batch=2, scale=8, seed=0,
                checkpoint_interval=2, data_root=str(data_root), variant="full",
                network=NET)
    base.update(over)
    return TrainConfig(**base)


# --- config -------------------------------------------------------------

def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"lr": 0.1, "warp": 9}))
    with pytest.raises(ConfigError, match="warp"):
        load_train_config(p)


def test_config_rejects_invalid_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_train_config(p)


def test_config_rejects_non_object():
    with pytest.raises(ConfigError, match="top level"):
        train_config_from_dict([1, 2])


def test_config_network_nesting(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"lr": 0.1, "network": {"c": 16, "heads": 2}}))
    cfg = load_train_config(p)
    assert cfg.network.c == 16 and cfg.network.heads == 2
    assert cfg.network.l == 3  # untouched default
    p.write_text(json.dumps({"network": {"widht": 4}}))
    with pytest.raises(ConfigError, match="widht"):
        load_train_config(p)
    p.write_text(json.dumps({"network": {"r": 8}}))  # set by `scale`, not here
    with pytest.raises(ConfigError, match=r"unknown keys \['r'\]"):
        load_train_config(p)


def test_config_bounds():
    with pytest.raises(ConfigError, match="'lr'"):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError, match="'epochs'"):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ConfigError, match="scale"):
        TrainConfig(scale=3).validate()
    # malformed fields fail at load, before any training starts
    for raw, match in [({"lr": "abc"}, "'lr' must be a finite number"),
                       ({"lr": float("nan")}, "'lr' must be a finite number"),
                       ({"data_root": 5}, "'data_root' must be a string"),
                       ({"network": {"l": "x"}}, "'l' must be an integer"),
                       ({"network": {"c": 10, "heads": 4}}, "divisible"),
                       ({"epochs": 1.5}, "'epochs' must be an integer"),
                       ({"batch": True}, "'batch' must be an integer"),
                       ({"epochs": True}, "'epochs' must be an integer"),
                       ({"variant": "model3"}, "unknown variant"),
                       ({"seed": -1}, "'seed' must be in"),
                       ({"seed": 2 ** 64}, "'seed' must be in")]:
        with pytest.raises(ConfigError, match=match):
            train_config_from_dict(raw)
    assert train_config_from_dict({"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
    with pytest.raises(ConfigError, match="'seed' must be in"):
        TrainConfig(seed=-5).validate()  # as after the CLI's --seed override


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)
_OF_KIND = {"int": [-1, 0, 1, 2, 4, 8, 16, 2 ** 64],
            "float": [0.0, 1e-3, 0.5, 1, 10 ** 400, float("inf")],
            "str": ["data", *VARIANTS]}


def _objects(cls, complete=False, **special):
    """Dicts over the fields of `cls`, whose values are mostly of the field's
    own kind, so that most draws reach the range checks."""
    values = {f.name: st.integers(0, 19).flatmap(
        lambda i, kind=_OF_KIND.get(f.type): _JSON if i == 0 or kind is None
        else st.sampled_from(kind)) for f in fields(cls)}
    values.update(special)
    if complete:
        return st.fixed_dictionaries(values)
    return st.fixed_dictionaries({}, optional={**values, "x": _JSON})


_TRAIN = _objects(TrainConfig, network=_objects(NetworkFields) | _JSON) | _JSON
_NETWORK = st.one_of(_objects(NetworkConfig, complete=True), _objects(NetworkConfig), _JSON)


@settings(max_examples=400, deadline=None)
@given(st.tuples(st.just(train_config_from_dict), _TRAIN)
       | st.tuples(st.just(NetworkConfig.from_dict), _NETWORK))
def test_every_json_config_loads_or_is_config_error(case):
    load, raw = case
    try:
        load(raw)
    except ConfigError:
        pass


# --- pieces -------------------------------------------------------------

def test_epoch_order_pure_and_complete():
    a = epoch_order(3, 5, 16)
    assert np.array_equal(a, epoch_order(3, 5, 16))
    assert sorted(a.tolist()) == list(range(16))
    assert not np.array_equal(a, epoch_order(3, 6, 16))
    assert not np.array_equal(a, epoch_order(4, 5, 16))


def test_l1_loss_values():
    x = constant(Rng(0).uniform((3, 4, 4)))
    assert float(l1_loss(x, x).data) == 0.0
    y = constant(x.data + 0.5)
    assert float(l1_loss(x, y).data) == pytest.approx(0.5)
    z = constant(Rng(1).uniform((3, 4, 4)))
    assert float(l1_loss(x, z).data) == pytest.approx(np.abs(x.data - z.data).mean())


def test_l1_loss_shape_mismatch():
    with pytest.raises(ShapeError, match="extents"):
        l1_loss(constant(np.zeros((2, 2))), constant(np.zeros((2, 3))))


def test_degrade_requires_divisible_extents():
    with pytest.raises(DataError, match="divide"):
        degrade(np.zeros((3, 10, 10)), 8)
    assert degrade(np.zeros((3, 16, 16)), 8).shape == (3, 2, 2)


def test_load_dataset_errors(tmp_path, tiny_data):
    with pytest.raises(DataError, match="manifest"):
        load_dataset(tmp_path, "train", 8)
    (tmp_path / "train.txt").write_text("\n")
    with pytest.raises(DataError, match="empty"):
        load_dataset(tmp_path, "train", 8)
    (tmp_path / "train.txt").write_bytes(b"tr0000\n\xfftr0001\n")
    with pytest.raises(DataError, match=r"train\.txt: split manifest is not UTF-8"):
        load_dataset(tmp_path, "train", 8)
    data = load_dataset(tiny_data, "train", 8, k=8)
    ids = read_manifest(tiny_data, "train")
    assert [s.bundle.image_id for s in data] == ids


def test_load_dataset_degrades_each_image_once(tiny_data):
    samples = load_dataset(tiny_data, "train", 8, k=8)
    for s, image_id in zip(samples, read_manifest(tiny_data, "train")):
        hr = read_ppm(tiny_data / "hr" / "train" / f"{image_id}.ppm")
        assert s.hr.dtype == np.float32 and s.hr.tobytes() == hr.tobytes()
        want = degrade(hr, 8)
        assert s.lr.dtype == want.dtype and s.lr.tobytes() == want.tobytes()
    no_priors = load_dataset(tiny_data, "train", 8, with_priors=False)
    assert all(s.bundle is None for s in no_priors)


def test_load_dataset_rejects_non_dividing_scale(tiny_data):
    with pytest.raises(DataError, match="scale 3 does not divide"):
        load_dataset(tiny_data, "train", 3)


# --- stepping ------------------------------------------------------------

def frozen_batch(tiny_data):
    return load_dataset(tiny_data, "train", 8, k=8)[:2]


def test_step_one_loss_equals_per_step_degrade(tiny_data, tmp_path):
    """Degrading at load leaves the logged loss bit for bit where degrading
    inside every step put it."""
    cfg = tiny_cfg(tiny_data)
    run_training(cfg, tmp_path / "s", max_steps=1)
    logged = (tmp_path / "s" / "loss.log").read_text().split("\t")[1].strip()
    model = Model(network_config_for(cfg, 2, 2), "full", cfg.seed)
    ids = read_manifest(tiny_data, "train")
    losses = []
    for i in epoch_order(cfg.seed, 0, len(ids))[:cfg.batch]:
        hr = read_ppm(tiny_data / "hr" / "train" / f"{ids[i]}.ppm")
        bundle = load_prior_bundle(tiny_data / "priors" / "train", ids[i], k=8)
        losses.append(l1_loss(model.forward(degrade(hr, cfg.scale), bundle),
                              constant(hr)))
    total = losses[0]
    for li in losses[1:]:
        total = add(total, li)
    assert logged == repr(float(scale(total, 1.0 / len(losses)).data))


def test_frozen_batch_descent(tiny_data):
    cfg = tiny_cfg(tiny_data)
    model = Model(network_config_for(cfg, 2, 2), "full", 0)
    batch = frozen_batch(tiny_data)
    state = AdamState()
    losses = []
    for t in range(1, 51):
        losses.append(train_step(model, batch, state, cfg, t))
    # early steps may wobble but never explode; 50 steps must clearly descend
    assert losses[4] <= losses[0] * 1.05
    assert losses[-1] < losses[0]


def test_zero_lr_leaves_params_bit_identical(tiny_data):
    cfg = tiny_cfg(tiny_data)
    model = Model(network_config_for(cfg, 2, 2), "full", 0)
    before = {n: p.data.copy() for n, p in model.params.items()}
    train_step(model, frozen_batch(tiny_data), AdamState(),
               AdamHyper(0.0, 0.9, 0.99, 1e-8), 1)
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n


# --- the loop --------------------------------------------------------------

def test_run_training_logs_and_checkpoints(tiny_data, tmp_path):
    out = tmp_path / "run"
    final = run_training(tiny_cfg(tiny_data), out)
    lines = (out / "loss.log").read_text().splitlines()
    assert len(lines) == 6  # 3 epochs x (4 images / batch 2)
    steps = [int(l.split("\t")[0]) for l in lines]
    assert steps == list(range(1, 7))
    assert (out / "ckpt_final.lvck").exists()
    assert (out / "ckpt_000002.lvck").exists()
    assert (out / "ckpt_000004.lvck").exists()
    assert not (out / "ckpt_000006.lvck").exists()  # final step not doubled
    assert final.step == 6
    assert (out / "timing.log").exists()


def test_run_training_is_byte_deterministic(tiny_data, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_training(tiny_cfg(tiny_data), a)
    run_training(tiny_cfg(tiny_data), b)
    assert (a / "loss.log").read_bytes() == (b / "loss.log").read_bytes()
    assert (a / "ckpt_final.lvck").read_bytes() == (b / "ckpt_final.lvck").read_bytes()


def test_resume_reproduces_trace(tiny_data, tmp_path):
    full, part = tmp_path / "full", tmp_path / "part"
    run_training(tiny_cfg(tiny_data), full)
    run_training(tiny_cfg(tiny_data), part, max_steps=4)
    run_training(tiny_cfg(tiny_data), part, resume=str(part / "ckpt_final.lvck"))
    full_log = (full / "loss.log").read_text().splitlines()
    part_log = (part / "loss.log").read_text().splitlines()
    # the partial run logs steps 1-4, the resumed run appends 5-6
    assert part_log == full_log
    assert (part / "ckpt_final.lvck").read_bytes() == \
        (full / "ckpt_final.lvck").read_bytes()


def test_resume_refuses_config_mismatch(tiny_data, tmp_path):
    out = tmp_path / "r"
    run_training(tiny_cfg(tiny_data), out, max_steps=2)
    other = tiny_cfg(tiny_data, network=NetworkFields(l=2, c=4, heads=2,
                                                      d_c=8, d_d=8, k=8))
    with pytest.raises(ConfigError, match="resume refused"):
        run_training(other, tmp_path / "r2", resume=str(out / "ckpt_final.lvck"))
    wrong_variant = tiny_cfg(tiny_data, variant="drop_ED")
    with pytest.raises(ConfigError, match="variant"):
        run_training(wrong_variant, tmp_path / "r3",
                     resume=str(out / "ckpt_final.lvck"))


def test_max_steps_caps_run(tiny_data, tmp_path):
    out = tmp_path / "m"
    final = run_training(tiny_cfg(tiny_data), out, max_steps=3)
    assert final.step == 3
    assert len((out / "loss.log").read_text().splitlines()) == 3


def test_training_without_priors_variant(tiny_data, tmp_path):
    final = run_training(tiny_cfg(tiny_data, variant="model1_no_prior"),
                         tmp_path / "np", max_steps=2)
    assert final.variant == "model1_no_prior"
    assert not any(".fusion." in n for n, _ in final.params)


def test_batch_larger_than_dataset(tiny_data, tmp_path):
    with pytest.raises(DataError, match="batch"):
        run_training(tiny_cfg(tiny_data, batch=5), tmp_path / "x")


def test_loss_log_steps_match_checkpoint_step(tiny_data, tmp_path):
    out = tmp_path / "s"
    run_training(tiny_cfg(tiny_data), out, max_steps=4)
    ckpt = load_checkpoint(out / "ckpt_final.lvck")
    assert ckpt.step == 4
    assert ckpt.opt_m and ckpt.opt_v  # moments travel with the checkpoint
