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
    ("sample_schedule", {"n_base": True, "q": 0.1}, "sample_schedule.n_base: must be an integer >= 1"),
    # a seed listed twice would write each of its files twice
    ("seeds", [1, 1], "seeds: must be a non-empty list of integers >= 0, none repeated"),
    ("seeds", [[1]], "seeds: must be a non-empty list of integers >= 0"),
    ("outputs", 5, "outputs: must be a non-empty path string"),
    # hyperparameters take the type of their default: a float one a number, an int one an integer >= 1
    ("optimizer", {"name": "adam", "params": {"beta1": True}}, "optimizer.params.beta1: must be a number"),
    ("optimizer", {"name": "adam", "params": {"beta1": "x"}}, "optimizer.params.beta1: must be a number"),
    ("optimizer", {"name": "momentum", "params": {"momentum": None}},
     "optimizer.params.momentum: must be a number"),
    ("optimizer", {"name": "moco", "params": {"track_bound": [1]}},
     "optimizer.params.track_bound: must be a number"),
]
MALFORMED_TRAIN = [
    ("window", True, "window: must be an integer >= 1"),
    ("epochs", True, "epochs: must be an integer >= 0"),
    ("meta_lr", True, "meta_lr: must be a number >= 0"),
    ("m", True, "unknown fields ['m']"),  # the objective count is the sampler's
    ("outputs", 5, "outputs: must be a non-empty path string"),
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
    ("train-ml2o", {"init_checkpoint": (2, 2)},
     "hidden: 3 differs from the init_checkpoint's hidden size 2"),
    ("train-ml2o", {"problem_sampler": {"name": "toy_mtl", "params": {"samples": 16, "batch": 4}}},
     "problem_sampler.name: ToyMtlProblem is not tape-differentiable"),
    # the objective count is the sampler's, so a checkpoint trained for another count is refused
    ("train-ml2o", {"init_checkpoint": (3, 3)},
     "init_checkpoint: the checkpoint has 3 objectives, the problem has 2"),
]


@pytest.mark.parametrize("command, over, message", PROBLEM_REJECTED,
                         ids=[f"{c}-{m.split(':')[0]}-{i}" for i, (c, _, m) in enumerate(PROBLEM_REJECTED)])
def test_config_the_problem_rejects_is_config_error(tmp_path, capsys, command, over, message):
    from moograd.ml2o import init_params, save_checkpoint

    if "optimizer" in over:  # a 3-objective checkpoint for the 2-objective pair
        save_checkpoint(init_params(3, 2, seed=0), str(tmp_path / "m3.json"))
        over = {"optimizer": {"name": "ml2o", "params": {"checkpoint": str(tmp_path / "m3.json")}}}
    if "init_checkpoint" in over:  # an (objectives, hidden) checkpoint for the 2-objective, hidden-3 config
        m, hidden = over["init_checkpoint"]
        save_checkpoint(init_params(m, hidden, seed=0), str(tmp_path / "init.json"))
        over = {"init_checkpoint": str(tmp_path / "init.json")}
    if command == "run":
        cfg, out = write_cfg(tmp_path, **over), tmp_path / "out"
    else:
        cfg, out = train_cfg(tmp_path, **over), tmp_path / "train"
    assert main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_init_scale_with_init_checkpoint_is_config_error(tmp_path, capsys):
    # the checkpoint's weights are trained on, so no scale would be used
    from moograd.ml2o import init_params, save_checkpoint

    ck = str(tmp_path / "ck.json")
    save_checkpoint(init_params(2, 3, seed=0), ck)
    assert main(["train-ml2o", "--config", train_cfg(tmp_path, init_checkpoint=ck, init_scale=5.0)]) == 1
    assert "init_scale: has no effect with init_checkpoint" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "train")


def test_repeated_seed_override_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, population=3)
    assert main(["run", "--config", cfg, "--seeds", "1,1"]) == 1
    assert "seeds: must be a non-empty list of integers >= 0, none repeated" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


MALFORMED_INPUT = [
    ("not-json", "bad.json", '{"steps": 3,', [], "--config: '{path}' is not JSON"),
    ("json-list", "list.json", "[1]", [], "--config: '{path}' holds a JSON list, not an object"),
    ("missing", None, None, [], "--config: cannot read '{path}'"),
    ("seeds", "cfg.json", "{}", ["--seeds", "a,b"],
     "--seeds: 'a,b' is not a comma-separated list of integers"),
]


@pytest.mark.parametrize("name, text, extra, message",
                         [(n, t, e, m) for _, n, t, e, m in MALFORMED_INPUT],
                         ids=[case[0] for case in MALFORMED_INPUT])
def test_malformed_cli_input_is_config_error(tmp_path, capsys, name, text, extra, message):
    path = tmp_path / (name or "missing.json")
    if text is not None:
        path.write_text(text)
    assert main(["run", "--config", str(path), *extra]) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("only", ["99", "x", "2,", "0,2"])
def test_check_only_must_name_criteria(capsys, only):
    assert main(["check", "--only", only]) == 1
    err = capsys.readouterr().err
    assert f"--only: {only!r} is not a comma-separated list of criterion numbers" in err
    assert "the criteria are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13" in err


def cli_subprocess(args):
    """Run the CLI in a child interpreter, its stdin empty and its output captured.

    The child finds the package where this one did, installed or not.
    """
    import moograd

    path = [os.path.dirname(os.path.dirname(moograd.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "moograd.cli", *args], capture_output=True,
                          text=True, env=env, stdin=subprocess.DEVNULL, timeout=120)


# A path field that is not a string would reach open() as a file descriptor
# (true is stdout, 0 is stdin) and close it; a child interpreter keeps such a
# failure away from the test runner's descriptors. An empty init_checkpoint is
# given, not absent.
BAD_PATHS = [
    ("run", "checkpoint", 0, "optimizer.params.checkpoint: must be a non-empty path string"),
    ("train-ml2o", "init_checkpoint", True, "init_checkpoint: must be a non-empty path string"),
    ("train-ml2o", "init_checkpoint", "", "init_checkpoint: must be a non-empty path string"),
]


@pytest.mark.parametrize("command, field, value, message", BAD_PATHS,
                         ids=[f"{c}-{f}={json.dumps(v)}" for c, f, v, _ in BAD_PATHS])
def test_path_field_must_be_a_string(tmp_path, command, field, value, message):
    if command == "run":
        cfg = write_cfg(tmp_path, optimizer={"name": "ml2o", "params": {field: value}})
        out = tmp_path / "out"
    else:
        cfg, out = train_cfg(tmp_path, **{field: value}), tmp_path / "train"
    proc = cli_subprocess([command, "--config", cfg])
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr
    assert not os.path.exists(out)


def manifest_hashes(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return [r["content_hash"] for r in json.load(fh)["runs"]]


@pytest.mark.parametrize("partial, full", [({"n_base": 4}, {"n_base": 4, "q": 0.1}),
                                           ({}, {"n_base": 1, "q": 0.1})],
                         ids=["n_base-only", "empty"])
def test_partial_sample_schedule_takes_the_schedule_defaults(tmp_path, partial, full):
    # a field left out takes SampleSchedule's default
    hashes = []
    for name, sched in (("partial", partial), ("full", full)):
        cfg = write_cfg(tmp_path, name=f"{name}.json", optimizer={"name": "dssmg", "params": {}},
                        sample_schedule=sched, population=3, outputs=str(tmp_path / name))
        assert main(["run", "--config", cfg]) == 0
        hashes.append(manifest_hashes(str(tmp_path / name)))
    assert hashes[0] == hashes[1]


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
    proc = cli_subprocess(["--help"])
    assert proc.returncode == 0
    for cmd in ("run", "train-ml2o", "compare", "front", "check"):
        assert cmd in proc.stdout
