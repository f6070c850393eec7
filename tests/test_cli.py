import json
import os
import subprocess
import sys

import numpy as np
import pytest

from moograd.cli import main


def write_cfg(tmp_path, name="cfg.json", **over):
    cfg = {
        "problem": {"name": "quadratic_pair", "params": {"dim": 2, "seed": 3, "noise_sigma": 0.1}},
        "optimizer": {"name": "smg", "params": {}},
        "steps": 5,
        "step_schedule": {"kind": "constant", "alpha": 0.2},
        "seeds": [1],
        "outputs": str(tmp_path / "out"),
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_and_compare_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    out = str(tmp_path / "out")
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert main(["compare", out, "--metric", "final-max-loss"]) == 0
    assert "final-max-loss" in capsys.readouterr().out


def test_seed_override(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--seeds", "7,8", "--out", str(tmp_path / "o2")]) == 0
    manifest = json.load(open(tmp_path / "o2" / "manifest.json"))
    assert [r["seed"] for r in manifest["runs"]] == [7, 8]


def test_front_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, population=4)
    assert main(["front", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "out" / "front_seed1.csv")


def test_threads_flag_is_gone(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, optimizer={"name": "bogus", "params": {}})
    assert main(["run", "--config", cfg]) == 1


def train_cfg(tmp_path, **over):
    cfg = {
        "problem_sampler": {"name": "quadratic_pair", "params": {"dim": 2}},
        "hidden": 3,
        "steps": 4,
        "window": 2,
        "meta_lr": 0.01,
        "epochs": 1,
        "alpha": 0.1,
        "seed": 0,
        "outputs": str(tmp_path / "train"),
    }
    cfg.update(over)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return str(path)


MALFORMED_RUN = [
    ("steps", True, "steps: must be an integer >= 1"),
    ("seeds", [True], "seeds: must be a non-empty list of integers"),
    ("seeds", [-1], "seeds: must be a non-empty list of integers >= 0"),
    ("population", True, "population: must be an integer >= 1"),
    ("step_schedule", {"kind": "constant", "alpha": True}, "step_schedule.alpha"),
    ("sample_schedule", {"n_base": True, "q": 0.1}, "sample_schedule: n_base"),
]
MALFORMED_TRAIN = [
    ("window", True, "window: must be an integer >= 1"),
    ("epochs", True, "epochs: must be an integer >= 0"),
    ("meta_lr", True, "meta_lr: must be a number >= 0"),
    ("m", True, "m: must be an integer >= 1"),
    ("hidden", 0, "hidden: must be an integer >= 1"),
    ("hidden", 2.5, "hidden: must be an integer >= 1"),
    ("alpha", -1, "alpha: must be a number > 0"),
    ("alpha", "x", "alpha: must be a number > 0"),
    ("init_scale", -1, "init_scale: must be a number >= 0"),
    ("seed", "s", "seed: must be an integer >= 0"),
    ("seed", True, "seed: must be an integer >= 0"),
    ("start_epoch", -1, "start_epoch: must be an integer >= 0"),
    ("problem_sampler", {"name": "bogus"}, "problem_sampler.name: unknown problem_sampler 'bogus'"),
    ("problem_sampler", {"name": "quadratic_pair", "params": {"size": 3}},
     "problem_sampler.params: unknown fields ['size']"),
]


def json_ids(cases):
    return [f"{field}={json.dumps(value)}" for field, value, _ in cases]


@pytest.mark.parametrize("field, value, message", MALFORMED_RUN, ids=json_ids(MALFORMED_RUN))
def test_malformed_run_field_is_config_error(tmp_path, capsys, field, value, message):
    # JSON true is not the integer 1
    assert main(["run", "--config", write_cfg(tmp_path, **{field: value})]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("field, value, message", MALFORMED_TRAIN, ids=json_ids(MALFORMED_TRAIN))
def test_malformed_train_field_is_config_error(tmp_path, capsys, field, value, message):
    assert main(["train-ml2o", "--config", train_cfg(tmp_path, **{field: value})]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "train")


# configs that pass the field checks but that the problem family rejects
PROBLEM_REJECTED = [
    ("run", {"problem": {"name": "quadratic_pair", "params": {"dim": 0, "seed": 3}}},
     "problem.params: dim must be >= 1"),
    ("run", {"problem": {"name": "toy_mtl", "params": {"seed": 3, "samples": 8, "batch": 16}}},
     "problem.params: batch must be in [1, 8], got 16"),
    ("run", {"problem": {"name": "quadratic_pair", "params": {"dim": "8", "seed": 3}}},
     "problem.params: '<' not supported"),
    ("run", {"optimizer": None},
     "optimizer.params.checkpoint: the checkpoint has 3 objectives, the problem has 2"),
    ("train-ml2o", {"problem_sampler": {"name": "quadratic_pair", "params": {"dim": 0}}},
     "problem_sampler.params: dim must be >= 1"),
    ("train-ml2o", {"m": 3}, "m: the optimizer has 3 objectives, problem 'quadratic_pair' has 2"),
    ("train-ml2o", {"problem_sampler": {"name": "toy_mtl", "params": {"samples": 16, "batch": 4}}},
     "problem_sampler.name: ToyMtlProblem is not tape-differentiable"),
]


@pytest.mark.parametrize("command, over, message", PROBLEM_REJECTED,
                         ids=[f"{c}-{m.split(':')[0]}-{i}" for i, (c, _, m) in enumerate(PROBLEM_REJECTED)])
def test_config_the_problem_rejects_is_config_error(tmp_path, capsys, command, over, message):
    from moograd.ml2o import init_params, save_checkpoint

    if "optimizer" in over:  # a 3-objective checkpoint for the 2-objective pair
        save_checkpoint(init_params(3, 2, seed=0), str(tmp_path / "m3.json"))
        over = {"optimizer": {"name": "ml2o", "params": {"checkpoint": str(tmp_path / "m3.json")}}}
    if command == "run":
        cfg, out = write_cfg(tmp_path, **over), tmp_path / "out"
    else:
        cfg, out = train_cfg(tmp_path, **over), tmp_path / "train"
    assert main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_runtime_error_exit_code(tmp_path, capsys):
    # a valid config whose training diverges: meta_lr blows the weights up after two epochs
    cfg = train_cfg(tmp_path, steps=2, window=2, meta_lr=1e100, epochs=4)
    with np.errstate(all="ignore"):
        assert main(["train-ml2o", "--config", cfg]) == 2
    assert "MetaTrainDiverged" in capsys.readouterr().err


def test_missing_checkpoint_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    cfg = write_cfg(tmp_path, optimizer={"name": "ml2o", "params": {"checkpoint": missing}})
    assert main(["run", "--config", cfg]) == 1
    assert "optimizer.params.checkpoint: cannot read" in capsys.readouterr().err
    cfg = train_cfg(tmp_path, init_checkpoint=missing)
    assert main(["train-ml2o", "--config", cfg]) == 1
    assert "init_checkpoint: cannot read" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "train")


def test_non_finite_checkpoint_is_config_error(tmp_path, capsys):
    from moograd.ml2o import init_params, save_checkpoint

    params = init_params(2, 3, seed=0)
    params.arrays["head.b"][...] = np.nan
    ck = str(tmp_path / "nan.json")
    save_checkpoint(params, ck)
    cfg = write_cfg(tmp_path, optimizer={"name": "ml2o", "params": {"checkpoint": ck}})
    assert main(["run", "--config", cfg]) == 1
    assert "'head.b'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_train_subcommand(tmp_path):
    assert main(["train-ml2o", "--config", train_cfg(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "train" / "checkpoint.json")


def test_check_subcommand_fast_criterion(capsys):
    assert main(["check", "--only", "2"]) == 0
    assert "[PASS] criterion  2" in capsys.readouterr().out


def test_check_subcommand_failure_exit_code(monkeypatch, capsys):
    import moograd.checks as checks

    monkeypatch.setitem(
        checks.__dict__, "CHECKS", [(99, "synthetic", lambda ctx: (False, "forced"))]
    )
    assert main(["check"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_console_script_help():
    # the child interpreter finds the package where this one did, installed or not
    import moograd

    path = [os.path.dirname(os.path.dirname(moograd.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "moograd.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    for cmd in ("run", "train-ml2o", "compare", "front", "check"):
        assert cmd in proc.stdout
