import json
import os

import numpy as np
import pytest

from moograd.harness import (
    ConfigError,
    compare_cmd,
    csv_content_hash,
    hash_csv_file,
    run_experiment,
    train_ml2o_cmd,
    validate_run_config,
)
from moograd.ml2o import MetaTrainDiverged, init_params, meta_train, save_checkpoint
from moograd.problems import make_problem


def base_config(outputs, **over):
    cfg = {
        "problem": {"name": "quadratic_pair", "params": {"dim": 3, "seed": 5, "noise_sigma": 0.2}},
        "optimizer": {"name": "dssmg", "params": {}},
        "steps": 12,
        "step_schedule": {"kind": "constant", "alpha": 0.3},
        "sample_schedule": {"n_base": 4, "q": 0.1},
        "seeds": [1, 2],
        "outputs": outputs,
    }
    cfg.update(over)
    return cfg


def read_csv(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_validate_collects_every_violation():
    errors = validate_run_config(
        {
            "problem": {"name": "nope"},
            "optimizer": {"name": "also_nope"},
            "steps": 0,
            "seeds": [],
            "bogus": 1,
        }
    )
    text = "\n".join(errors)
    assert "bogus" in text
    assert "unknown problem" in text
    assert "unknown optimizer" in text
    assert "steps" in text
    assert "seeds" in text
    assert "missing field 'step_schedule'" in text
    assert "missing field 'outputs'" in text


def test_unknown_optimizer_param_is_config_error(tmp_path):
    cfg = base_config(str(tmp_path / "o"), optimizer={"name": "dssmg", "params": {"zeta": 1}})
    with pytest.raises(ConfigError, match="zeta"):
        run_experiment(cfg)


def test_run_experiment_outputs_and_manifest(tmp_path):
    out = str(tmp_path / "runs")
    results = run_experiment(base_config(out))
    assert len(results) == 2
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["schema_version"] == 1
    assert len(manifest["runs"]) == 2
    for entry in manifest["runs"]:
        path = os.path.join(out, entry["file"])
        lines = read_csv(path)
        assert lines[0] == "k,loss_1,loss_2,direction_norm,alpha,n_samples,guard_choice,wall_time"
        assert len(lines) == 1 + entry["rows"] == 1 + 12
        assert hash_csv_file(path) == entry["content_hash"]
        assert entry["nonconverged_solves"] == 0
        assert entry["eval_count"] == 12
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == sorted(set(ks))


def test_run_experiment_deterministic_and_seed_repeat(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(base_config(out1))
    run_experiment(base_config(out2))
    m1 = json.load(open(os.path.join(out1, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    assert [r["content_hash"] for r in m1["runs"]] == [r["content_hash"] for r in m2["runs"]]
    # identical seeds listed twice produce identical files
    out3 = str(tmp_path / "c")
    run_experiment(base_config(out3, seeds=[1, 1]))
    m3 = json.load(open(os.path.join(out3, "manifest.json")))
    assert m3["runs"][0]["content_hash"] == m3["runs"][1]["content_hash"]


def manifest_hashes(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return {(r["seed"], r["member"]): r["content_hash"] for r in json.load(fh)["runs"]}


# The optimizer registry's validation contract: the config params each
# optimizer accepts, and which optimizers require a sample schedule or a
# checkpoint. Every other param is rejected.
ACCEPTED_PARAMS = {
    "mgda": set(),
    "smg": set(),
    "dssmg": set(),
    "moco": {"beta", "gamma", "rho", "track_bound"},
    "composite": {"beta"},
    "sgd": set(),
    "momentum": {"momentum"},
    "adam": {"beta1", "beta2", "eps"},
    "rmsprop": {"rms_decay", "eps"},
    "adadelta": {"ada_decay", "eps"},
    "ml2o": {"checkpoint", "exact"},
    "gml2o": {"checkpoint", "guard_batch"},
    "gml2o_det": {"checkpoint"},
}
NEEDS_SAMPLES = {"dssmg", "gml2o"}
NEEDS_CHECKPOINT = {"ml2o", "gml2o", "gml2o_det"}
PARAM_VALUES = {"checkpoint": "ck.json", "exact": True, "guard_batch": 8}


@pytest.mark.parametrize("name", sorted(ACCEPTED_PARAMS))
def test_registry_validation_contract(name):
    accepted = ACCEPTED_PARAMS[name]
    params = {key: PARAM_VALUES.get(key, 0.5) for key in accepted}
    assert validate_run_config(base_config("o", optimizer={"name": name, "params": params})) == []
    every = set().union(*ACCEPTED_PARAMS.values()) | {"zeta"}
    for extra in sorted(every - accepted):
        errors = validate_run_config(
            base_config("o", optimizer={"name": name, "params": {**params, extra: 1}})
        )
        assert errors == [
            f"optimizer.params: unknown fields {[extra]} (allowed: {sorted(accepted)})"
        ]
    cfg = base_config("o", optimizer={"name": name, "params": params})
    del cfg["sample_schedule"]
    errors = validate_run_config(cfg)
    assert errors == ([f"sample_schedule: required for optimizer {name!r}"] if name in NEEDS_SAMPLES else [])
    without = {k: v for k, v in params.items() if k != "checkpoint"}
    errors = validate_run_config(base_config("o", optimizer={"name": name, "params": without}))
    assert errors == (
        [f"optimizer.params.checkpoint: required for {name!r}"] if name in NEEDS_CHECKPOINT else []
    )


@pytest.mark.parametrize("bad", [0, -3, 1.5, True, "8"])
def test_guard_batch_must_be_positive_integer(tmp_path, bad):
    out = str(tmp_path / "gb")
    params = {"checkpoint": str(tmp_path / "ck.json"), "guard_batch": bad}
    with pytest.raises(ConfigError, match="guard_batch: must be an integer >= 1"):
        run_experiment(base_config(out, optimizer={"name": "gml2o", "params": params}))
    assert not os.path.exists(out)


def test_deterministic_guard_requires_constant_schedule(tmp_path):
    out = str(tmp_path / "det")
    cfg = base_config(
        out,
        optimizer={"name": "gml2o_det", "params": {"checkpoint": str(tmp_path / "ck.json")}},
        step_schedule={"kind": "harmonic", "alpha": 0.3},
    )
    assert validate_run_config(cfg) == [
        "step_schedule: optimizer 'gml2o_det' requires kind 'constant'"
    ]
    with pytest.raises(ConfigError, match="constant"):
        run_experiment(cfg)
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ck") / "ck.json")
    save_checkpoint(init_params(2, 4, 0), path)
    return path


@pytest.mark.parametrize("name", sorted(ACCEPTED_PARAMS))
def test_member_hash_independent_of_population_size(tmp_path, name, checkpoint):
    # batching must not break the (seed, member, purpose) stream contract:
    # member m's run is the same whether the population has m + 1 members or 7
    opt = {"name": name, "params": {"checkpoint": checkpoint} if name in NEEDS_CHECKPOINT else {}}
    full = str(tmp_path / "p7")
    run_experiment(base_config(full, optimizer=opt, population=7, seeds=[3]))
    big = manifest_hashes(full)
    for m in range(7):
        out = str(tmp_path / f"p{m + 1}")
        run_experiment(base_config(out, optimizer=opt, population=m + 1, seeds=[3]))
        assert manifest_hashes(out)[(3, m)] == big[(3, m)]


@pytest.mark.parametrize("population", [None, 4])
def test_seed_alone_equals_seed_in_multi_seed_config(tmp_path, population):
    multi = str(tmp_path / "multi")
    run_experiment(base_config(multi, population=population, seeds=[5, 2, 9]))
    together = manifest_hashes(multi)
    for seed in (5, 2, 9):
        alone = str(tmp_path / f"alone{seed}")
        run_experiment(base_config(alone, population=population, seeds=[seed]))
        for key, digest in manifest_hashes(alone).items():
            assert together[key] == digest


def test_threads_other_than_one_rejected(tmp_path):
    cfg = base_config(str(tmp_path / "t"))
    with pytest.raises(ValueError, match="threads"):
        run_experiment(cfg, threads=2)
    assert not os.path.exists(str(tmp_path / "t"))


def test_population_front_files(tmp_path):
    out = str(tmp_path / "front")
    cfg = base_config(out, population=6, seeds=[4])
    run_experiment(cfg, write_front=True)
    lines = read_csv(os.path.join(out, "front_seed4.csv"))
    assert lines[0] == "f_1,f_2"
    assert 1 <= len(lines) - 1 <= 6


def test_manifest_is_sufficient_to_rerun_exactly(tmp_path):
    out = str(tmp_path / "orig")
    run_experiment(base_config(out))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    replay_out = str(tmp_path / "replay")
    run_experiment(dict(manifest["config"], outputs=replay_out))
    replay = json.load(open(os.path.join(replay_out, "manifest.json")))
    assert [r["content_hash"] for r in manifest["runs"]] == [
        r["content_hash"] for r in replay["runs"]
    ]


def test_wall_time_excluded_from_hash():
    lines = ["k,loss_1,wall_time", "1,0.5,0.001"]
    lines_slow = ["k,loss_1,wall_time", "1,0.5,9.99"]
    assert csv_content_hash(lines) == csv_content_hash(lines_slow)
    assert csv_content_hash(lines) != csv_content_hash(["k,loss_1,wall_time", "1,0.6,0.001"])


def test_ml2o_and_guard_optimizers_through_harness(tmp_path):
    ck = str(tmp_path / "ck.json")
    save_checkpoint(init_params(2, 4, seed=0), ck)
    for name, params in [
        ("ml2o", {"checkpoint": ck}),
        ("gml2o", {"checkpoint": ck, "guard_batch": 16}),
        ("gml2o_det", {"checkpoint": ck}),
    ]:
        out = str(tmp_path / f"run_{name}")
        cfg = base_config(out, optimizer={"name": name, "params": params}, seeds=[1])
        results = run_experiment(cfg)
        assert len(results[0].record.rows) == 12
        if name.startswith("gml2o"):
            choices = {r.guard_choice for r in results[0].record.rows}
            assert choices <= {"fallback", "learned"}


def test_checkpoint_required_for_learned_runs(tmp_path):
    cfg = base_config(str(tmp_path / "x"), optimizer={"name": "ml2o", "params": {}})
    with pytest.raises(ConfigError, match="checkpoint"):
        run_experiment(cfg)


def test_failure_removes_partial_outputs(tmp_path, monkeypatch):
    # the third CSV fails to format after two are on disk: nothing is left
    out = str(tmp_path / "boom")
    cfg = base_config(out, seeds=[1, 2, 3])

    import moograd.harness as hz

    real = hz._csv_lines
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(hz, "_csv_lines", flaky)
    with pytest.raises(RuntimeError, match="synthetic"):
        run_experiment(cfg)
    assert calls["n"] == 3
    leftovers = [f for f in os.listdir(out)] if os.path.isdir(out) else []
    assert all(not f.endswith(".csv") for f in leftovers)
    assert "manifest.json" not in leftovers


def train_config(outputs, **over):
    cfg = {
        "problem_sampler": {"name": "quadratic_pair", "params": {"dim": 2, "noise_sigma": 0.0}},
        "m": 2,
        "hidden": 3,
        "steps": 8,
        "window": 4,
        "meta_lr": 0.02,
        "epochs": 3,
        "alpha": 0.1,
        "seed": 11,
        "draw_mode": "exact",
        "outputs": outputs,
    }
    cfg.update(over)
    return cfg


def test_train_cmd_outputs(tmp_path):
    out = str(tmp_path / "train")
    train_ml2o_cmd(train_config(out))
    lines = read_csv(os.path.join(out, "meta_loss.csv"))
    assert lines[0] == "epoch,period,meta_loss"
    assert len(lines) - 1 == 3 * 2  # epochs * periods
    assert os.path.exists(os.path.join(out, "checkpoint.json"))


def test_train_cmd_zero_epochs_equals_init(tmp_path):
    out = str(tmp_path / "train0")
    trained = train_ml2o_cmd(train_config(out, epochs=0))
    p0 = init_params(2, 3, 11)
    for name in p0.arrays:
        assert np.array_equal(trained.arrays[name], p0.arrays[name])


def test_train_cmd_resume_matches_uninterrupted(tmp_path):
    full = train_ml2o_cmd(train_config(str(tmp_path / "full"), epochs=4))
    half_dir = str(tmp_path / "half")
    train_ml2o_cmd(train_config(half_dir, epochs=2))
    resumed = train_ml2o_cmd(
        train_config(
            str(tmp_path / "resumed"),
            epochs=2,
            start_epoch=2,
            init_checkpoint=os.path.join(half_dir, "checkpoint.json"),
        )
    )
    for name in full.arrays:
        assert np.array_equal(full.arrays[name], resumed.arrays[name])


def test_train_cmd_checkpoint_equals_one_meta_train_call(tmp_path):
    cfg = train_config(str(tmp_path / "epochwise"))
    train_ml2o_cmd(cfg)
    sampler = lambda rng: make_problem("quadratic_pair", seed=int(rng.integers(2**31 - 1)),
                                       dim=2, noise_sigma=0.0)
    trained, trace = meta_train(sampler, init_params(2, 3, 11), steps=8, window=4, meta_lr=0.02,
                                epochs=3, seed=11, alpha=0.1, draw_mode="exact")
    one_call = str(tmp_path / "one_call.json")
    save_checkpoint(trained, one_call)
    with open(one_call, "rb") as a, open(os.path.join(cfg["outputs"], "checkpoint.json"), "rb") as b:
        assert a.read() == b.read()
    rows = read_csv(os.path.join(cfg["outputs"], "meta_loss.csv"))[1:]
    assert rows == [f"{e},{p},{loss:.17g}" for e, p, loss in trace]


def test_train_cmd_keeps_finished_epochs_after_divergence(tmp_path):
    out = str(tmp_path / "diverged")
    cfg = train_config(out, steps=2, window=2, meta_lr=1e100, epochs=4, draw_mode="sample")
    with np.errstate(all="ignore"), pytest.raises(MetaTrainDiverged, match="epoch 2 period 0"):
        train_ml2o_cmd(cfg)
    rows = read_csv(os.path.join(out, "meta_loss.csv"))
    assert rows[0] == "epoch,period,meta_loss"
    assert [r.split(",")[:2] for r in rows[1:]] == [["0", "0"], ["1", "0"]]


def test_train_cmd_bad_init_checkpoint_is_config_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="init_checkpoint: cannot read"):
        train_ml2o_cmd(train_config(str(tmp_path / "a"), init_checkpoint=missing))
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{")
    with pytest.raises(ConfigError, match="init_checkpoint: corrupt"):
        train_ml2o_cmd(train_config(str(tmp_path / "b"), init_checkpoint=str(corrupt)))


def test_train_cmd_rejects_negative_meta_lr(tmp_path):
    # checked up front, since zero epochs never reach meta_train's own check
    with pytest.raises(ConfigError, match="meta_lr"):
        train_ml2o_cmd(train_config(str(tmp_path / "c"), meta_lr=-0.1, epochs=0))


def test_train_cmd_rejects_fixed_sampler_seed(tmp_path):
    cfg = train_config(str(tmp_path / "bad"))
    cfg["problem_sampler"]["params"]["seed"] = 3
    with pytest.raises(ConfigError, match="drawn per epoch"):
        train_ml2o_cmd(cfg)


def test_compare_cmd(tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    run_experiment(base_config(out1, population=5, seeds=[2]))
    run_experiment(
        base_config(out2, population=5, seeds=[2], optimizer={"name": "smg", "params": {}})
    )
    report = compare_cmd([out1, out2], "hypervolume", out_path=str(tmp_path / "rep.csv"))
    assert len(report) == 2
    assert all(r["n_seeds"] == 1 for r in report)
    # a run compared to itself has zero std and identical means
    rep_self = compare_cmd([out1, out1], "final-max-loss")
    assert rep_self[0]["std"] == 0.0
    assert rep_self[0]["mean"] == rep_self[1]["mean"]
    rep_crit = compare_cmd([out1], "criticality")
    assert np.isfinite(rep_crit[0]["mean"])


def test_compare_cmd_mismatched_problems(tmp_path):
    out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
    run_experiment(base_config(out1))
    other = base_config(out2)
    other["problem"]["params"]["seed"] = 99
    run_experiment(other)
    with pytest.raises(ValueError, match="different problem"):
        compare_cmd([out1, out2], "final-max-loss")


def test_compare_cmd_empty_dir(tmp_path):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    with pytest.raises(FileNotFoundError, match="manifest"):
        compare_cmd([empty], "final-max-loss")
