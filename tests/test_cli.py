"""Command line surface: flag handling, exit codes, pipeline smoke."""

import json

import numpy as np
import pytest

from lvfsr.cli import main
from lvfsr.priors import read_ppm, write_ppm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    code = main(["synth-data", "--out", str(root), "--count", "4",
                 "--hr-size", "16", "--scale", "8", "--seed", "0"])
    assert code == 0
    return root


def small_train_cfg(tmp_path, data, **over):
    cfg = {"lr": 1e-3, "epochs": 2, "batch": 2, "scale": 8, "seed": 0,
           "checkpoint_interval": 100, "data_root": str(data),
           "variant": "full",
           "network": {"l": 1, "c": 4, "heads": 2, "d_c": 64, "d_d": 64, "k": 8}}
    cfg.update(over)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_synth_data_prints_config_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run_cli(capsys, "synth-data", "--out", str(a), "--count", "2",
                           "--hr-size", "16", "--seed", "3")
    assert code == 0
    assert out.startswith("config: synth-data ")
    assert json.loads(out.split("synth-data ", 1)[1].splitlines()[0])["seed"] == 3
    run_cli(capsys, "synth-data", "--out", str(b), "--count", "2",
            "--hr-size", "16", "--seed", "3")
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert fa == fb
    for rel in fa:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth-data", "--out", "x", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # single-line machine-parsable error
    assert "error:" in err


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["transmogrify"])


def test_pipeline_smoke(dataset, tmp_path, capsys):
    """synth-data -> train -> infer -> eval, all exit 0."""
    cfg = small_train_cfg(tmp_path, dataset)
    run_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                           "--out", str(run_dir))
    assert code == 0
    assert out.startswith("config: train ")
    assert (run_dir / "ckpt_final.lvck").exists()

    ids = (dataset / "train.txt").read_text().split()
    pred = tmp_path / "pred"
    pred.mkdir()
    gt = dataset / "hr" / "train"
    for image_id in ids:
        lr_path = tmp_path / f"{image_id}.ppm"
        hr = read_ppm(gt / f"{image_id}.ppm")
        from lvfsr.resample import bicubic_resize
        write_ppm(lr_path, bicubic_resize(hr, 2, 2))
        code, out, _ = run_cli(capsys, "infer",
                               "--checkpoint", str(run_dir / "ckpt_final.lvck"),
                               "--lr-image", str(lr_path),
                               "--priors", str(dataset / "priors" / "train"),
                               "--out", str(pred / f"{image_id}.ppm"))
        assert code == 0
        assert read_ppm(pred / f"{image_id}.ppm").shape == (3, 16, 16)

    report = tmp_path / "report.tsv"
    code, out, _ = run_cli(capsys, "eval", "--pred", str(pred), "--gt", str(gt),
                           "--report", str(report))
    assert code == 0
    assert "#mean" in report.read_text()
    assert any(line.startswith("#mean") for line in out.splitlines())


def test_train_seed_override(dataset, tmp_path, capsys):
    cfg = small_train_cfg(tmp_path, dataset)
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                           "--out", str(tmp_path / "r1"), "--seed", "9")
    assert code == 0
    line = out.splitlines()[0]
    assert json.loads(line.split("train ", 1)[1])["seed"] == 9


def test_train_missing_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--config",
                           str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_train_bad_config_errors(dataset, tmp_path, capsys):
    cfg = small_train_cfg(tmp_path, dataset, lr=-1.0)
    code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: ConfigError:")


@pytest.mark.parametrize("over,argv", [
    ({"lr": "abc"}, ()), ({"data_root": 5}, ()), ({"network": {"l": "x"}}, ()),
    ({"epochs": 1.5}, ()), ({"batch": True, "epochs": True}, ()),
    ({"seed": -1}, ()), ({}, ("--seed", "-5")), ({"network": {"heads": 0}}, ())])
def test_train_malformed_config_is_one_error_line(dataset, tmp_path, capsys, over, argv):
    cfg = small_train_cfg(tmp_path, dataset, **over)
    run_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                           "--out", str(run_dir), *argv)
    assert code == 1
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not run_dir.exists()  # refused before any training output


@pytest.mark.parametrize("raw", [
    b'{"lr": 0.001, "data_root": "\xff"}',         # not UTF-8
    b'{"seed": ' + b"1" * 5000 + b"}",               # past the int digit limit
    b"[" * 200000,                                   # nested past the parser's depth
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_train_config_not_json_text_is_one_error_line(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    run_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(run_dir))
    assert code == 1
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1
    assert "cfg.json" in err
    assert not run_dir.exists()


def test_infer_without_priors_requires_no_prior_variant(dataset, tmp_path, capsys):
    cfg = small_train_cfg(tmp_path, dataset)
    run_dir = tmp_path / "run"
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(run_dir))
    hr = read_ppm(dataset / "hr" / "train" / "tr0000.ppm")
    from lvfsr.resample import bicubic_resize
    lr_path = tmp_path / "tr0000.ppm"
    write_ppm(lr_path, bicubic_resize(hr, 2, 2))
    code, _, err = run_cli(capsys, "infer",
                           "--checkpoint", str(run_dir / "ckpt_final.lvck"),
                           "--lr-image", str(lr_path),
                           "--out", str(tmp_path / "sr.ppm"))
    assert code == 1
    assert err.startswith("error:")


def test_eval_error_is_single_line(tmp_path, capsys):
    (tmp_path / "p").mkdir(), (tmp_path / "g").mkdir()
    code, _, err = run_cli(capsys, "eval", "--pred", str(tmp_path / "p"),
                           "--gt", str(tmp_path / "g"))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: DataError:")


def test_gradcheck_op_reports_pass(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--target", "op", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("config: gradcheck ")
    assert any("max_rel_err=" in l for l in lines)
    assert lines[-1].endswith("pass")


def test_ablate_tiny_table(dataset, tmp_path, capsys):
    report = tmp_path / "abl.tsv"
    code, out, _ = run_cli(capsys, "ablate", "--variants", "model1,full",
                           "--steps", "2", "--seeds", "1",
                           "--report", str(report))
    assert code == 0
    body = report.read_text().splitlines()
    assert body[0] == "variant\tseed\tfinal_loss\tparam_count"
    tags = [l.split("\t")[0] for l in body[1:] if not l.startswith("#")]
    assert tags == ["model1_no_prior", "full"]
    assert any(l.startswith("#median\tfull") for l in body)
    assert "#median" in out


def test_ablate_rejects_unknown_variant(capsys):
    code, _, err = run_cli(capsys, "ablate", "--variants", "modelX",
                           "--steps", "2", "--seeds", "1")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("--hr-size", "7"), ("--hr-size", "20"), ("--count", "0"), ("--count", "-1")])
def test_synth_data_bad_size_or_count_is_one_error_line(tmp_path, capsys, argv):
    out_dir = tmp_path / "d"
    code, out, err = run_cli(capsys, "synth-data", "--out", str(out_dir), *argv)
    assert code == 1
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1
    assert "wrote" not in out
    assert not out_dir.exists()  # refused before writing anything


def test_synth_data_too_few_token_patches_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "sd"
    code, out, err = run_cli(capsys, "synth-data", "--out", str(out_dir),
                             "--hr-size", "8", "--informative")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "patches" in err and "wrote" not in out
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [("--seeds", "0"), ("--seeds", "-2"), ("--steps", "0")])
def test_ablate_rejects_empty_run(capsys, argv):
    args = {"--steps": "2", "--seeds": "1"}
    args.update([argv])
    code, out, err = run_cli(capsys, "ablate", "--variants", "full",
                             *[x for kv in args.items() for x in kv])
    assert code == 1
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1
    assert "variant\tseed" not in out
