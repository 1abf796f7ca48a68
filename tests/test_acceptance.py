"""Acceptance gates. One test per gate; each prints a [PASS]/[FAIL] line
(visible under `pytest -s` or in the failure output) with the measured value
next to its threshold.

Run order matters for nobody: every test builds its own state from scratch.
The slow gates (overfit, ablation) sit at the end so a broken fast gate
surfaces quickly.
"""

import json
import time

import numpy as np
import pytest

from lvfsr.checks import TOLERANCE, run_target
from lvfsr.datagen import generate_dataset
from lvfsr.errors import FormatError
from lvfsr.evaluate import (AblationSpec, MetricReport, ablation_medians,
                            make_report, psnr, read_report, report_text,
                            run_ablation, ssim, write_report)
from lvfsr.network import (Checkpoint, Model, NetworkConfig, checkpoint_bytes,
                           checkpoint_of, load_checkpoint, model_from_checkpoint,
                           save_checkpoint)
from lvfsr.numeric import (Rng, constant, conv2d, linear, parameter,
                           read_ten, scaled_dot_attention, softmax,
                           tensor_bytes, tensor_from_bytes, write_ten)
from lvfsr.priors import load_prior_bundle, read_ppm, save_prior_bundle, synth_priors
from lvfsr.resample import bicubic_resize
from lvfsr.training import (NetworkFields, TrainConfig, load_train_config,
                            run_training)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- gate 1: gradient suite ---------------------------------------------------

@pytest.mark.slow
def test_gradient_suite():
    t0 = time.perf_counter()
    worst_name, worst = "", 0.0
    for seed in (0, 1, 2):
        for target in ("op", "lvpfb", "network"):
            for name, err in run_target(target, seed):
                if err > worst:
                    worst_name, worst = f"{name}@seed{seed}", err
    elapsed = time.perf_counter() - t0
    ok = worst < TOLERANCE and elapsed < 120.0
    report("gradient-suite", ok,
           f"worst {worst:.3e} ({worst_name}) vs {TOLERANCE:.0e}, "
           f"3 seeds in {elapsed:.1f}s (limit 120s)")


# --- gate 2: oracle suite -------------------------------------------------

def _conv_oracle(x, w, b, stride, pad):
    cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for y in range(ho):
            for xx in range(wo):
                acc = (xp[:, y * stride:y * stride + kh,
                          xx * stride:xx * stride + kw] * w[co]).sum()
                out[co, y, xx] = acc + b[co]
    return out


def _softmax_oracle(rows):
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        e = np.exp(rows[i] - rows[i].max())
        out[i] = e / e.sum()
    return out


def _attn_oracle(q, k, v, heads):
    tq, d = q.shape
    dh = d // heads
    out = np.empty((tq, d))
    for hh in range(heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        att = _softmax_oracle(q[:, sl] @ k[:, sl].T / np.sqrt(dh))
        out[:, sl] = att @ v[:, sl]
    return out


def _bicubic_oracle(img, oh, ow):
    def kern(x):
        ax = abs(x)
        if ax <= 1:
            return 1.5 * ax ** 3 - 2.5 * ax ** 2 + 1
        if ax < 2:
            return -0.5 * ax ** 3 + 2.5 * ax ** 2 - 4 * ax + 2
        return 0.0
    c, h, w = img.shape
    out = np.zeros((c, oh, ow))
    for oy in range(oh):
        sy = (oy + 0.5) * h / oh - 0.5
        by = int(np.floor(sy))
        for ox in range(ow):
            sx = (ox + 0.5) * w / ow - 0.5
            bx = int(np.floor(sx))
            for dy in range(-1, 3):
                iy = min(max(by + dy, 0), h - 1)
                ky = kern(sy - (by + dy))
                for dx in range(-1, 3):
                    ix = min(max(bx + dx, 0), w - 1)
                    out[:, oy, ox] += ky * kern(sx - (bx + dx)) * img[:, iy, ix]
    return out


def _psnr_oracle(a, b):
    mse = np.mean((a - b) ** 2)
    return 100.0 if mse < 1e-10 else 10 * np.log10(1.0 / mse)


def _ssim_oracle(a, b):
    x = np.tensordot([0.299, 0.587, 0.114], a, axes=([0], [0]))
    y = np.tensordot([0.299, 0.587, 0.114], b, axes=([0], [0]))
    g1 = np.arange(11) - 5.0
    g = np.exp(-(g1 ** 2) / (2 * 1.5 ** 2))
    w = np.outer(g, g) / np.outer(g, g).sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for i in range(x.shape[0] - 10):
        for j in range(x.shape[1] - 10):
            xs, ys = x[i:i + 11, j:j + 11], y[i:i + 11, j:j + 11]
            mx, my = (w * xs).sum(), (w * ys).sum()
            sxx = (w * xs * xs).sum() - mx * mx
            syy = (w * ys * ys).sum() - my * my
            sxy = (w * xs * ys).sum() - mx * my
            vals.append((2 * mx * my + c1) * (2 * sxy + c2)
                        / ((mx * mx + my * my + c1) * (sxx + syy + c2)))
    return float(np.mean(vals))


def test_oracle_suite():
    t0 = time.perf_counter()
    n = 20
    fails = []

    for i in range(n):
        r = Rng(1000 + i)
        cin, cout = 1 + i % 3, 1 + (i + 1) % 3
        k, stride, pad = [(1, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0)][i % 4]
        h = 4 + i % 5
        x = r.stream("x").uniform((cin, h, h), -1, 1)
        w = r.stream("w").uniform((cout, cin, k, k), -1, 1)
        b = r.stream("b").uniform((cout,), -1, 1)
        got = conv2d(constant(x), parameter(w, "w"), parameter(b, "b"),
                     stride=stride, pad=pad).data
        want = _conv_oracle(x, w, b, stride, pad)
        err = np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)
        if err > 1e-6:
            fails.append(f"conv2d[{i}]={err:.2e}")

    for i in range(n):
        r = Rng(2000 + i)
        t, din, dout = 1 + i % 4, 2 + i % 5, 2 + (i + 1) % 5
        x = r.stream("x").uniform((t, din), -1, 1)
        w = r.stream("w").uniform((dout, din), -1, 1)
        b = r.stream("b").uniform((dout,), -1, 1)
        got = linear(constant(x), parameter(w, "w"), parameter(b, "b")).data
        want = x @ w.T + b
        err = np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)
        if err > 1e-6:
            fails.append(f"linear[{i}]={err:.2e}")

    for i in range(n):
        x = Rng(3000 + i).uniform((2 + i % 4, 3 + i % 5), -5, 5)
        got = softmax(constant(x)).data
        err = np.abs(got - _softmax_oracle(x)).max()
        if err > 1e-12:
            fails.append(f"softmax[{i}]={err:.2e}")

    for i in range(n):
        r = Rng(4000 + i)
        heads = [1, 2, 4][i % 3]
        d = heads * (2 + i % 3)
        tq, tk = 2 + i % 4, 2 + (i + 1) % 4
        q = r.stream("q").uniform((tq, d), -1, 1)
        k = r.stream("k").uniform((tk, d), -1, 1)
        v = r.stream("v").uniform((tk, d), -1, 1)
        got = scaled_dot_attention(constant(q), constant(k), constant(v), heads).data
        err = np.abs(got - _attn_oracle(q, k, v, heads)).max()
        if err > 1e-10:
            fails.append(f"attention[{i}]={err:.2e}")

    for i in range(n):
        r = Rng(5000 + i)
        h, w = 3 + i % 6, 3 + (i + 1) % 6
        oh, ow = 2 + (i * 3) % 7, 2 + (i * 5) % 7
        img = r.uniform((2, h, w))
        got = bicubic_resize(img, oh, ow)
        err = np.abs(got - _bicubic_oracle(img, oh, ow)).max()
        if err > 1e-9:
            fails.append(f"bicubic[{i}]={err:.2e}")

    for i in range(n):
        r = Rng(6000 + i)
        a = r.stream("a").uniform((3, 16, 16))
        b = np.clip(a + r.stream("n").uniform(a.shape, -0.1, 0.1), 0, 1)
        if abs(psnr(a, b) - _psnr_oracle(a, b)) > 1e-9:
            fails.append(f"psnr[{i}]")
        if abs(ssim(a, b) - _ssim_oracle(a, b)) > 1e-6:
            fails.append(f"ssim[{i}]")

    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 60.0
    report("oracle-suite", ok,
           f"7 ops x {n} instances, {len(fails)} mismatches "
           f"{fails[:3] if fails else ''} in {elapsed:.1f}s (limit 60s)")


# --- gate 3: identity at init -----------------------------------------------

def test_identity_at_init():
    cfg = NetworkConfig(l=2, c=8, heads=2, r=8, d_c=16, d_d=16, k=8, h=6, w=6)
    model = Model(cfg, "full", 11)
    img = Rng(0).uniform((3, 6, 6)).astype(np.float32)

    def bundle(seed):
        hr = Rng(seed).uniform((3, 48, 48)).astype(np.float32)
        return synth_priors(hr, img, seed, seed % 2 == 1, f"s{seed}",
                            d_c=16, d_d=16, tokens=4, k=8)

    outs = [model.forward(img, bundle(s)).data for s in range(4)]
    same = all(np.array_equal(outs[0], o) for o in outs[1:])
    report("identity-at-init", same,
           f"4 bundle substitutions, outputs {'bit-identical' if same else 'diverged'}")


# --- gate 4: overfit ----------------------------------------------------------

@pytest.mark.slow
def test_overfit_beats_bicubic(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    generate_dataset(data, count=8, hr_size=64, scale=8, seed=0,
                     informative=False, splits=("train",))
    cfg = TrainConfig(lr=1e-3, epochs=500, batch=8, scale=8, seed=0,
                      checkpoint_interval=1000, data_root=str(data),
                      variant="full",
                      network=NetworkFields(l=3, c=32, heads=4,
                                            d_c=64, d_d=64, k=8))
    ckpt = run_training(cfg, tmp_path / "run", max_steps=500)
    model = model_from_checkpoint(ckpt)
    base, ours = [], []
    for line in (data / "train.txt").read_text().split():
        hr = read_ppm(data / "hr" / "train" / f"{line}.ppm")
        lr = bicubic_resize(hr, 8, 8)
        bundle = load_prior_bundle(data / "priors" / "train", line, k=8)
        base.append(psnr(bicubic_resize(lr, 64, 64), hr))
        ours.append(psnr(np.clip(model.forward(lr, bundle).data, 0.0, 1.0), hr))
    gain = float(np.mean(ours) - np.mean(base))
    elapsed = time.perf_counter() - t0
    ok = gain >= 3.0 and elapsed < 600.0
    report("overfit", ok,
           f"gain {gain:.2f} dB over bicubic ({np.mean(base):.2f} -> "
           f"{np.mean(ours):.2f}) vs 3.00 dB, {elapsed:.0f}s (limit 600s)")


# --- gate 5: prior-utility ablation ---------------------------------------

@pytest.mark.slow
def test_prior_utility_ablation(tmp_path):
    t0 = time.perf_counter()
    rows = run_ablation(("model1_no_prior", "drop_ED", "full"),
                        AblationSpec(), tmp_path)
    med = ablation_medians(rows)
    m1, de, fu = med["model1_no_prior"], med["drop_ED"], med["full"]
    elapsed = time.perf_counter() - t0
    ok = fu <= 0.8 * m1 and fu < de < m1 and elapsed < 1800.0
    report("prior-utility-ablation", ok,
           f"medians full={fu:.5f} drop_ED={de:.5f} model1={m1:.5f} "
           f"(full/model1={fu / m1:.3f} vs <=0.800, "
           f"between={fu < de < m1}), {elapsed:.0f}s (limit 1800s)")


# --- gate 6: determinism ----------------------------------------------------

def test_determinism_and_resume(tmp_path):
    data = tmp_path / "data"
    generate_dataset(data, count=4, hr_size=16, scale=8, seed=1,
                     informative=False, d_c=8, d_d=8, tokens=4, k=8,
                     splits=("train",))
    cfg = TrainConfig(lr=1e-3, epochs=4, batch=2, scale=8, seed=1,
                      checkpoint_interval=3, data_root=str(data), variant="full",
                      network=NetworkFields(l=1, c=4, heads=2, d_c=8, d_d=8, k=8))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_training(cfg, a)
    run_training(cfg, b)
    twin_logs = (a / "loss.log").read_bytes() == (b / "loss.log").read_bytes()
    twin_ckpt = (a / "ckpt_final.lvck").read_bytes() == (b / "ckpt_final.lvck").read_bytes()
    run_training(cfg, c, max_steps=5)
    run_training(cfg, c, resume=str(c / "ckpt_final.lvck"))
    resumed_log = (c / "loss.log").read_bytes() == (a / "loss.log").read_bytes()
    resumed_ckpt = (c / "ckpt_final.lvck").read_bytes() == (a / "ckpt_final.lvck").read_bytes()
    ok = twin_logs and twin_ckpt and resumed_log and resumed_ckpt
    report("determinism", ok,
           f"twin logs={twin_logs} twin ckpt={twin_ckpt} "
           f"resume log={resumed_log} resume ckpt={resumed_ckpt}")


# --- gate 7: format round trips ---------------------------------------------

def test_format_round_trips(tmp_path):
    notes = []

    arr = Rng(7).uniform((3, 5, 4)).astype(np.float32)
    write_ten(tmp_path / "a.ten", arr)
    ten_ok = ((tmp_path / "a.ten").read_bytes() == tensor_bytes(arr)
              and np.array_equal(read_ten(tmp_path / "a.ten"), arr))
    notes.append(f"ten={ten_ok}")

    hr = Rng(8).uniform((3, 32, 32)).astype(np.float32)
    lr = bicubic_resize(hr, 4, 4)
    bundle = synth_priors(hr, lr, 8, True, "fmt", d_c=16, d_d=64, tokens=4, k=8)
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    d1.mkdir(), d2.mkdir()
    save_prior_bundle(d1, bundle)
    save_prior_bundle(d2, load_prior_bundle(d1, "fmt", k=8))
    bundle_ok = all((d1 / f"fmt.{p}.ten").read_bytes() == (d2 / f"fmt.{p}.ten").read_bytes()
                    for p in ("mask", "depth", "cap", "desc"))
    notes.append(f"bundle={bundle_ok}")

    cfg = NetworkConfig(l=1, c=4, heads=2, r=8, d_c=8, d_d=8, k=8, h=2, w=2)
    model = Model(cfg, "full", 3)
    m = {n: np.full(p.data.shape, 0.25, np.float32) for n, p in model.params.items()}
    v = {n: np.full(p.data.shape, 0.5, np.float32) for n, p in model.params.items()}
    save_checkpoint(tmp_path / "c.lvck", checkpoint_of(model, 9, m, v))
    back = load_checkpoint(tmp_path / "c.lvck")
    ckpt_ok = checkpoint_bytes(back) == (tmp_path / "c.lvck").read_bytes()
    notes.append(f"checkpoint={ckpt_ok}")

    rep = make_report([("i0", 31.5, 0.875), ("i1", 28.25, 1 / 3)],
                      meta={"scale": "8"})
    write_report(tmp_path / "r.tsv", rep)
    back_rep = read_report(tmp_path / "r.tsv")
    rep_ok = report_text(back_rep) == (tmp_path / "r.tsv").read_text()
    notes.append(f"report={rep_ok}")

    corrupt_ok = True
    try:
        tensor_from_bytes(b"BAD!" + bytes(12))
        corrupt_ok = False
    except FormatError:
        pass
    bad = bytearray(checkpoint_bytes(checkpoint_of(model, 0)))
    bad[:4] = b"XXXX"
    (tmp_path / "bad.lvck").write_bytes(bytes(bad))
    try:
        load_checkpoint(tmp_path / "bad.lvck")
        corrupt_ok = False
    except FormatError:
        pass
    notes.append(f"corrupt-headers={corrupt_ok}")

    ok = ten_ok and bundle_ok and ckpt_ok and rep_ok and corrupt_ok
    report("format-round-trips", ok, " ".join(notes))
