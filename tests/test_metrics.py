"""PSNR/SSIM, report files, and ablation bookkeeping."""

from dataclasses import asdict

import numpy as np
import pytest

from lvfsr.errors import DataError, ShapeError
from lvfsr.evaluate import (AblationRow, AblationSpec, MetricReport, ablation_medians,
                            ablation_report_text, eval_dir, final_phase_loss,
                            make_report, parse_loss_log, psnr, read_report,
                            report_text, ssim, write_report)
from lvfsr.numeric import Rng
from lvfsr.priors import luminance, write_ppm


def img(seed, h=16, w=16):
    return Rng(seed).uniform((3, h, w))


# --- psnr -----------------------------------------------------------------

def test_psnr_closed_form():
    a = np.zeros((3, 4, 4))
    b = np.full((3, 4, 4), 0.5)
    # MSE = 0.25 -> 10*log10(1/0.25)
    assert psnr(a, b) == pytest.approx(10 * np.log10(4.0))


def test_psnr_identical_capped():
    x = img(0)
    assert psnr(x, x) == 100.0
    assert psnr(x, x + 1e-9) == 100.0  # below the MSE floor


def test_psnr_symmetry_and_maxval():
    a, b = img(1), img(2)
    assert psnr(a, b) == pytest.approx(psnr(b, a))
    assert psnr(a * 255, b * 255, max_val=255.0) == pytest.approx(psnr(a, b))


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


def test_psnr_monotone_in_noise():
    x = img(3)
    small = psnr(x, np.clip(x + 0.01, 0, 1))
    large = psnr(x, np.clip(x + 0.1, 0, 1))
    assert small > large


# --- ssim -----------------------------------------------------------------

def test_ssim_self_is_one():
    assert ssim(img(4), img(4)) == pytest.approx(1.0)


def test_ssim_symmetric():
    a, b = img(5), img(6)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_degrades_with_noise():
    x = img(7, 32, 32)
    n1 = ssim(x, np.clip(x + Rng(8).uniform(x.shape, -0.05, 0.05), 0, 1))
    n2 = ssim(x, np.clip(x + Rng(8).uniform(x.shape, -0.3, 0.3), 0, 1))
    assert 1.0 > n1 > n2


def test_ssim_rejects_small_images():
    with pytest.raises(ShapeError, match="window"):
        ssim(img(0, 8, 8), img(1, 8, 8))


def _window_oracle_ssim(a, b):
    """Direct per-window evaluation of the SSIM definition."""
    x, y = luminance(a), luminance(b)
    win, sig = 11, 1.5
    g1 = np.arange(win) - (win - 1) / 2
    g = np.exp(-(g1 ** 2) / (2 * sig * sig))
    w = np.outer(g, g) / (np.outer(g, g).sum())
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for i in range(x.shape[0] - win + 1):
        for j in range(x.shape[1] - win + 1):
            xs = x[i:i + win, j:j + win]
            ys = y[i:i + win, j:j + win]
            mx, my = (w * xs).sum(), (w * ys).sum()
            sxx = (w * xs * xs).sum() - mx * mx
            syy = (w * ys * ys).sum() - my * my
            sxy = (w * xs * ys).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * sxy + c2)) /
                        ((mx * mx + my * my + c1) * (sxx + syy + c2)))
    return np.mean(vals)


def test_ssim_matches_window_oracle():
    # an odd small extent, and the 128x128 extent of evaluation images
    pairs = [(img(9, 14, 13), img(10, 14, 13))]
    hr = img(11, 128, 128)
    pairs.append((hr, np.clip(hr + Rng(12).uniform(hr.shape, -0.2, 0.2), 0, 1)))
    for a, b in pairs:
        assert ssim(a, b) == pytest.approx(_window_oracle_ssim(a, b), abs=1e-6)


def _dense_ssim(a, b, window=11, sigma=1.5):
    """SSIM with each windowed mean as one dense product `rows @ img @ cols`
    of full (valid, extent) band matrices."""
    x, y = luminance(np.asarray(a, np.float64)), luminance(np.asarray(b, np.float64))

    def band(extent):
        g = np.exp(-((np.arange(window) - (window - 1) / 2) ** 2) / (2 * sigma * sigma))
        g /= g.sum()
        m = np.zeros((extent - window + 1, extent))
        for i in range(m.shape[0]):
            m[i, i:i + window] = g
        return m

    rows, cols = band(x.shape[0]), band(x.shape[1]).T
    mx, my = rows @ x @ cols, rows @ y @ cols
    sxx = rows @ (x * x) @ cols - mx * mx
    syy = rows @ (y * y) @ cols - my * my
    sxy = rows @ (x * y) @ cols - mx * my
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    num = (2.0 * mx * my + c1) * (2.0 * sxy + c2)
    den = (mx * mx + my * my + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("h,w", [(11, 11), (37, 53), (128, 128), (256, 256)])
def test_ssim_matches_dense_band_product(h, w):
    # one block, a partial last block on each axis, the evaluation extent,
    # and more blocks than a 128x128 image holds
    a = img(20, h, w)
    b = np.clip(a + Rng(21).uniform(a.shape, -0.2, 0.2), 0, 1)
    assert ssim(a, b) == pytest.approx(_dense_ssim(a, b), rel=1e-12, abs=0)


# --- reports -----------------------------------------------------------------

def test_make_report_sorts_and_averages():
    rep = make_report([("b", 30.0, 0.9), ("a", 20.0, 0.8)])
    assert [r[0] for r in rep.records] == ["a", "b"]
    assert rep.mean_psnr == 25.0
    assert rep.mean_ssim == pytest.approx(0.85)


def test_make_report_requires_records():
    with pytest.raises(DataError):
        make_report([])


def test_report_round_trip_exact(tmp_path):
    rep = make_report([("x", 31.415926535897932, 1 / 3), ("y", 28.2, 0.5)],
                      meta={"run": "t1", "scale": "8"})
    p = tmp_path / "r.tsv"
    write_report(p, rep)
    back = read_report(p)
    assert back.records == rep.records  # repr floats round-trip exactly
    assert back.mean_psnr == rep.mean_psnr
    assert back.mean_ssim == rep.mean_ssim
    assert back.meta == rep.meta
    assert report_text(back) == report_text(rep)


@pytest.mark.parametrize("line", ["img1\t20.0", "img1\t20.0\tnope", "#mean\t1.0"],
                         ids=["short-record", "non-float-field", "short-footer"])
def test_read_report_rejects_malformed_line(tmp_path, line):
    p = tmp_path / "bad.tsv"
    p.write_text(f"img0\t30.0\t0.9\n{line}\n#mean\t30.0\t0.9\n")
    with pytest.raises(DataError, match=r"bad\.tsv:2: malformed report line"):
        read_report(p)


def test_read_report_rejects_non_utf8(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_bytes(b"a\xff\t1.0\t0.5\n#mean\t1.0\t0.5\n")
    with pytest.raises(DataError, match=r"r\.tsv: report is not UTF-8"):
        read_report(p)


def test_read_report_requires_footer(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("a\t1.0\t0.5\n")
    with pytest.raises(DataError, match="#mean"):
        read_report(p)


def test_eval_dir(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    for i, s in enumerate(("p", "q")):
        x = img(i, 16, 16)
        write_ppm(gt / f"{s}.ppm", x)
        write_ppm(pred / f"{s}.ppm", np.clip(x + 0.02, 0, 1))
    rep = eval_dir(pred, gt, tmp_path / "out.tsv")
    assert len(rep.records) == 2
    assert (tmp_path / "out.tsv").exists()
    assert 20.0 < rep.mean_psnr < 100.0


def test_eval_dir_unpaired_ids(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    write_ppm(pred / "a.ppm", img(0))
    write_ppm(gt / "b.ppm", img(1))
    with pytest.raises(DataError, match="unpaired"):
        eval_dir(pred, gt)


def test_eval_dir_empty(tmp_path):
    (tmp_path / "pred").mkdir(), (tmp_path / "gt").mkdir()
    with pytest.raises(DataError, match="no .ppm"):
        eval_dir(tmp_path / "pred", tmp_path / "gt")


# --- ablation bookkeeping ----------------------------------------------------

def test_final_phase_loss_last_tenth():
    losses = list(range(100, 0, -1))  # 100 .. 1
    assert final_phase_loss(losses) == pytest.approx(np.mean(list(range(10, 0, -1))))
    assert final_phase_loss([4.0]) == 4.0
    assert final_phase_loss([3.0, 1.0]) == 1.0  # n//10 floors to 0 -> keep one


def test_ablation_medians_and_text():
    rows = [AblationRow("full", 0, 0.10, 50), AblationRow("full", 1, 0.30, 50),
            AblationRow("full", 2, 0.20, 50),
            AblationRow("model1_no_prior", 0, 0.40, 30)]
    med = ablation_medians(rows)
    assert med["full"] == pytest.approx(0.20)
    text = ablation_report_text(rows)
    lines = text.splitlines()
    assert lines[0] == "variant\tseed\tfinal_loss\tparam_count"
    assert sum(1 for l in lines if l.startswith("#median")) == 2
    assert any(l.startswith("full\t1\t0.3\t50") for l in lines)


def test_ablation_spec_pins_the_gate():
    """The prior-utility gate's settings: retuning any of them moves it."""
    assert asdict(AblationSpec()) == {
        "steps": 300, "seeds": (0, 1, 2), "count": 8, "hr_size": 16, "scale": 8,
        "network": {"l": 2, "c": 24, "heads": 4, "d_c": 64, "d_d": 192, "k": 8},
        "tokens": 4, "batch": 4, "lr": 2e-3}


def test_parse_loss_log(tmp_path):
    p = tmp_path / "loss.log"
    p.write_text("1\t0.5\n2\t0.25\n")
    assert parse_loss_log(p) == [0.5, 0.25]
