"""Config-driven experiment runner.

One JSON document describes an experiment: problem, optimizer, schedules,
seeds and an optional population of start points. ``OPTIMIZERS`` is the
optimizer registry: each name maps to its population step function and what
a run of it needs; the step's keyword-only parameters are the config params
it accepts. Every (seed, member) run owns independent RNG streams derived as
``SeedSequence(seed, spawn_key=(member, purpose))`` with purposes
0 = initial point, 1 = gradient draws, 2 = guard batches, so runs are
deterministic and independent of each other. All (seed, member) runs of a
config step together as one (P, N) array through
``optimizers.run_population``; each run's CSV is byte-identical to running
it alone. Outputs are one CSV per run plus a manifest sufficient to re-run
the experiment exactly. Each CSV row is one step, formatted from the run's
trace columns; CSV floats carry 17 significant digits and the manifest
stores a content hash computed with the wall-time column blanked
(timestamps are excluded from determinism checks).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from . import optimizers as opt
from .guard import _guarded_loop, gml2o_det_step
from .metrics import extract_front, front_reference, hypervolume_2d, hypervolume_3d
from .minnorm import criticality_measure
from .ml2o import (
    CheckpointError,
    Ml2oParams,
    init_params,
    learned_step,
    load_checkpoint,
    meta_train,
    save_checkpoint,
)
from .problems import _REGISTRY as _PROBLEMS
from .problems import UnsupportedCapability, make_problem
from .trace import GUARD_CHOICES, RunRecord

SCHEMA_VERSION = 1
PURPOSE_INIT, PURPOSE_DRAWS, PURPOSE_GUARD = 0, 1, 2


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n  - " + "\n  - ".join(self.problems))


def derive_rng(seed: int, member: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(member, purpose)))


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` are not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number other than ``true`` and ``false``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# A rule is (test, what it asks for). A rule table maps each field of a JSON
# object to its rule, to the table of a nested object, or to None for a field
# checked on its own. Only present fields are checked; a field left out takes
# the default of the dataclass or function that receives it.
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_COUNT = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_NUMBER = (_is_number, "a number")
_NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0, "a number >= 0")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a number > 0")
_PATH = (lambda v: isinstance(v, str) and v != "", "a non-empty path string")
_SEEDS = (lambda v: isinstance(v, list) and all(_is_int(s) and s >= 0 for s in v)
          and len(v) == len(set(v)) > 0,
          "a non-empty list of integers >= 0, none repeated")

_RUN_RULES = {
    "problem": None,
    "optimizer": None,
    "steps": _POSITIVE_INT,
    "step_schedule": {
        "kind": (lambda v: v in opt.StepSchedule.KINDS, f"one of {list(opt.StepSchedule.KINDS)}"),
        "alpha": _POSITIVE,
    },
    "sample_schedule": {"n_base": _POSITIVE_INT, "q": _POSITIVE},
    "seeds": _SEEDS,
    "population": (lambda v: v is None or (_is_int(v) and v >= 1), "an integer >= 1 or null"),
    "outputs": _PATH,
}
_RUN_REQUIRED = ("problem", "optimizer", "steps", "step_schedule", "seeds", "outputs")
_TRAIN_RULES = {
    "problem_sampler": None,
    "hidden": _POSITIVE_INT, "steps": _POSITIVE_INT, "window": _POSITIVE_INT,
    "epochs": _COUNT, "seed": _COUNT, "start_epoch": _COUNT,
    "meta_lr": _NON_NEGATIVE, "init_scale": _NON_NEGATIVE, "alpha": _POSITIVE,
    "draw_mode": (lambda v: v in ("sample", "exact"), "'sample' or 'exact'"),
    "init_checkpoint": _PATH,
    "outputs": _PATH,
}
_TRAIN_REQUIRED = ("problem_sampler", "steps", "window", "meta_lr", "epochs", "seed", "outputs")
# the meta_train keywords a training config may set
_META_TRAIN_FIELDS = ("steps", "window", "meta_lr", "seed", "alpha", "start_epoch", "draw_mode")
_HIDDEN = 8  # the hidden size of a training config that sets none


def _check_object(obj, rules: dict, where: str, errors: list[str]) -> bool:
    """Append the violations of ``rules`` by the JSON object ``obj`` at ``where``
    (``""`` for the root); return whether there were none."""
    before = len(errors)
    if not isinstance(obj, dict):
        errors.append(f"{where}: must be an object")
        return False
    unknown = set(obj) - set(rules)
    if unknown:
        head = f"{where}: " if where else ""
        errors.append(f"{head}unknown fields {sorted(unknown)} (allowed: {sorted(rules)})")
    for key, rule in rules.items():
        name = f"{where}.{key}" if where else key
        if key not in obj or rule is None:
            continue
        if isinstance(rule, dict):
            _check_object(obj[key], rule, name, errors)
        elif not rule[0](obj[key]):
            errors.append(f"{name}: must be {rule[1]}, got {obj[key]!r}")
    return len(errors) == before


def _params(block: dict) -> dict:
    """The ``params`` of a ``{"name", "params"}`` block; a block without them has none."""
    return block.get("params", {})


@dataclass(frozen=True)
class Optimizer:
    """A registry entry: the population step and what a run of it needs.

    The step is called as ``step(problem, xs, k, alpha, rngs, memory,
    **bound)``. The run binds each of these that the step takes: ``samples``,
    ``model`` (the checkpoint, which the config must then name) and
    ``guard_rngs`` (the purpose-2 streams); then the config params.
    """

    step: Callable
    samples: bool = False  # a sample_schedule is required
    constant_step: bool = False  # the step schedule must be constant

    def takes(self, name: str) -> bool:
        return name in inspect.signature(self.step).parameters

    def params(self) -> dict:
        """The rule of each config param: the step's keyword-only parameters, an
        integer >= 1 for an int default and a number for a float one, plus the
        checkpoint path."""
        sig = inspect.signature(self.step).parameters.values()
        rules = {p.name: _POSITIVE_INT if isinstance(p.default, int) else _NUMBER
                 for p in sig if p.kind is inspect.Parameter.KEYWORD_ONLY}
        return rules | ({"checkpoint": _PATH} if self.takes("model") else {})


OPTIMIZERS: dict[str, Optimizer] = {
    "mgda": Optimizer(opt.mgda_step),
    "smg": Optimizer(opt.smg_step),
    "dssmg": Optimizer(opt.dssmg_step, samples=True),
    "moco": Optimizer(opt.moco_like_step),
    "composite": Optimizer(opt.composite_weight_step),
    "sgd": Optimizer(opt.sgd_step),
    "momentum": Optimizer(opt.momentum_step),
    "adam": Optimizer(opt.adam_step),
    "rmsprop": Optimizer(opt.rmsprop_step),
    "adadelta": Optimizer(opt.adadelta_step),
    "ml2o": Optimizer(learned_step),
    "gml2o": Optimizer(_guarded_loop, samples=True),
    "gml2o_det": Optimizer(gml2o_det_step, constant_step=True),
}


def _problem_params(factory) -> dict:
    """Every factory parameter, checked by the factory itself."""
    return dict.fromkeys(inspect.signature(factory).parameters)


def _sampler_params(factory) -> dict:
    """A problem sampler's params: the factory's, but never the seed, which is drawn per epoch."""
    return _problem_params(factory) | {"seed": (lambda v: False, "left out: drawn per epoch")}


def _check_block(block, field: str, registry: dict, rules_of: Callable, errors: list[str]):
    """Check a ``{"name", "params"}`` block against ``registry``; ``rules_of(entry)``
    is the rule table of the entry's params. Returns the entry and its params when
    both are valid, else ``None`` for each that is not."""
    if not isinstance(block, dict):
        errors.append(f"{field}: must be an object with 'name' and 'params'")
        return None, None
    _check_object(block, {"name": None, "params": None}, field, errors)
    name = block.get("name")
    if name not in registry:
        errors.append(f"{field}.name: unknown {field} {name!r}; registered: {sorted(registry)}")
        return None, None
    ok = _check_object(_params(block), rules_of(registry[name]), f"{field}.params", errors)
    return registry[name], _params(block) if ok else None


def _build_problem(name: str, params: dict, field: str):
    """``make_problem(name, **params)``; a factory's ValueError or TypeError (a param of the
    wrong JSON type) becomes a ConfigError on ``field``."""
    try:
        return make_problem(name, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"{field}: {exc}"]) from exc


def _load_model(path: str, field: str, problem) -> Ml2oParams:
    """The checkpoint at ``path`` for ``problem``; an unreadable or mismatched one is a
    ConfigError on ``field``."""
    try:
        model = load_checkpoint(path)
    except CheckpointError as exc:
        raise ConfigError([f"{field}: {exc}"]) from exc
    if model.m != problem.objectives:
        raise ConfigError([f"{field}: the checkpoint has {model.m} objectives, "
                           f"the problem has {problem.objectives}"])
    return model


def validate_run_config(cfg: dict) -> list[str]:
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    errors: list[str] = []
    _check_object(cfg, _RUN_RULES, "", errors)
    errors += [f"missing field {key!r}" for key in _RUN_REQUIRED if key not in cfg]
    _check_block(cfg.get("problem"), "problem", _PROBLEMS, _problem_params, errors)
    entry, params = _check_block(
        cfg.get("optimizer"), "optimizer", OPTIMIZERS, Optimizer.params, errors
    )
    if entry is None:
        return errors
    optname = cfg["optimizer"]["name"]
    if params is not None and entry.takes("model") and "checkpoint" not in params:
        errors.append(f"optimizer.params.checkpoint: required for {optname!r}")
    if entry.samples and "sample_schedule" not in cfg:
        errors.append(f"sample_schedule: required for optimizer {optname!r}")
    sched = cfg.get("step_schedule")  # its kind is known once it passes its rules
    if entry.constant_step and _check_object(sched, _RUN_RULES["step_schedule"], "", []) \
            and opt.StepSchedule(**sched).kind != "constant":
        errors.append(f"step_schedule: optimizer {optname!r} requires kind 'constant'")
    return errors


@dataclass
class RunResult:
    seed: int
    member: int | None
    record: RunRecord


def _csv_lines(record: RunRecord, m: int) -> list[str]:
    header = (
        ["k"]
        + [f"loss_{i + 1}" for i in range(m)]
        + ["direction_norm", "alpha", "n_samples", "guard_choice", "wall_time"]
    )
    # one %-format per row: "%.17g" % v is format(v, ".17g"), "%d" and "%s" of an int are str()
    row_format = "%d," + "%.17g," * (m + 2) + "%s,%s,%.6g"
    columns = zip(
        record.losses.tolist(),
        record.direction_norms.tolist(),
        record.alphas.tolist(),
        record.n_samples.tolist(),
        record.guard_codes.tolist(),
        record.wall_times.tolist(),
    )
    lines = [",".join(header)]
    for k, (losses, norm, alpha, n, code, wall) in enumerate(columns, start=1):
        lines.append(row_format % (k, *losses, norm, alpha, n or "", GUARD_CHOICES[code], wall))
    return lines


def csv_content_hash(lines: list[str]) -> str:
    """SHA-256 of the rows with the trailing wall-time cell blanked."""
    body = "".join(line[: line.rfind(",") + 1] + "\n" for line in lines)
    return hashlib.sha256(body.encode()).hexdigest()


def _write_manifest(out_dir: str, doc: dict) -> None:
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def _create(path: str):
    """``path`` opened for writing as a new file.

    An existing file is unlinked first: opening it with "w" would truncate it
    in place, and on ext4 each such truncation forces its old blocks to disk
    (re-running a 400-run experiment into its own directory took 19 s
    instead of 0.4 s).
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w")


def _write_file(path: str, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def run_experiment(cfg: dict, out_dir: str | None = None, threads: int = 1,
                   write_front: bool = False) -> list[RunResult]:
    """Execute every (seed, member) run of a config and persist CSVs + manifest.

    ``threads`` must be 1: the runs execute in this thread as one population.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    errors = validate_run_config(cfg)
    if errors:
        raise ConfigError(errors)
    entry = OPTIMIZERS[cfg["optimizer"]["name"]]
    bound = dict(_params(cfg["optimizer"]))
    problem = _build_problem(cfg["problem"]["name"], _params(cfg["problem"]), "problem.params")
    if entry.takes("model"):
        bound["model"] = _load_model(bound.pop("checkpoint"), "optimizer.params.checkpoint",
                                     problem)
    out_dir = out_dir or cfg["outputs"]
    os.makedirs(out_dir, exist_ok=True)

    schedule = opt.StepSchedule(**cfg["step_schedule"])
    if entry.takes("samples"):
        bound["samples"] = (opt.SampleSchedule(**cfg["sample_schedule"])
                            if "sample_schedule" in cfg else None)

    population = cfg.get("population")
    members = [None] if population is None else list(range(population))
    tasks = [(seed, member) for seed in cfg["seeds"] for member in members]

    def streams(purpose: int) -> list[np.random.Generator]:
        """One stream per run for ``purpose``."""
        return [derive_rng(seed, 0 if member is None else member, purpose) for seed, member in tasks]

    xs0 = np.array([problem.initial_point(rng) for rng in streams(PURPOSE_INIT)])
    if entry.takes("guard_rngs"):
        bound["guard_rngs"] = streams(PURPOSE_GUARD)
    step = functools.partial(entry.step, **bound)

    written: list[str] = []
    try:
        records = opt.run_population(
            problem, step, xs0, cfg["steps"], schedule, streams(PURPOSE_DRAWS)
        )
        results = [RunResult(seed, member, rec) for (seed, member), rec in zip(tasks, records)]
        manifest_runs = []
        for res in results:
            stem = f"seed{res.seed}" + ("" if res.member is None else f"_member{res.member}")
            path = os.path.join(out_dir, stem + ".csv")
            lines = _csv_lines(res.record, problem.objectives)
            _write_file(path, "\n".join(lines) + "\n")
            written.append(path)
            manifest_runs.append(
                {
                    "seed": res.seed,
                    "member": res.member,
                    "file": stem + ".csv",
                    "rows": res.record.steps,
                    "content_hash": csv_content_hash(lines),
                    "final_losses": [float(v) for v in res.record.final_losses],
                    "final_x": [float(v) for v in res.record.meta["final_x"]],
                    "nonconverged_solves": res.record.meta["nonconverged_solves"],
                    "eval_count": res.record.meta["eval_count"],
                }
            )
        if write_front:
            for seed in cfg["seeds"]:
                pts = np.array(
                    [r.record.final_losses for r in results if r.seed == seed], dtype=np.float64
                )
                rows = [",".join(f"f_{i + 1}" for i in range(problem.objectives))]
                rows += [",".join(f"{v:.17g}" for v in row) for row in extract_front(pts)]
                fpath = os.path.join(out_dir, f"front_seed{seed}.csv")
                _write_file(fpath, "\n".join(rows) + "\n")
                written.append(fpath)
        _write_manifest(
            out_dir,
            {
                "schema_version": SCHEMA_VERSION,
                "toolkit_version": __version__,
                "kind": "run",
                "config": cfg,
                "csv_columns": "k,loss_*,direction_norm,alpha,n_samples,guard_choice,wall_time",
                "runs": manifest_runs,
                "created_unix": time.time(),
            },
        )
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    return results


def validate_train_config(cfg: dict) -> list[str]:
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    errors: list[str] = []
    _check_object(cfg, _TRAIN_RULES, "", errors)
    errors += [f"missing field {key!r}" for key in _TRAIN_REQUIRED if key not in cfg]
    if "problem_sampler" in cfg:
        _check_block(cfg["problem_sampler"], "problem_sampler", _PROBLEMS, _sampler_params, errors)
    steps, window = cfg.get("steps"), cfg.get("window")
    if _is_int(steps) and _is_int(window) and min(steps, window) >= 1 and steps % window != 0:
        errors.append(f"window: {window} must divide steps {steps}")
    if "init_checkpoint" in cfg and "init_scale" in cfg:
        errors.append("init_scale: has no effect with init_checkpoint")
    return errors


def train_ml2o_cmd(cfg: dict, out_dir: str | None = None) -> Ml2oParams:
    """Meta-train from a config; writes checkpoint.json and meta_loss.csv.

    The optimizer has one objective cell per objective of the sampler's
    problems. Training runs one epoch per ``meta_train`` call (resuming is
    exact), and each epoch's rows are appended to meta_loss.csv and flushed as
    it ends, so a run that diverges keeps the rows of every finished epoch.
    """
    errors = validate_train_config(cfg)
    if errors:
        raise ConfigError(errors)
    pname, pparams = cfg["problem_sampler"]["name"], _params(cfg["problem_sampler"])
    # one problem of the family, to check the config before anything is written
    probe = _build_problem(pname, {"seed": 0, **pparams}, "problem_sampler.params")
    try:
        probe.eval_terms(np.zeros((probe.dim, 1)))
    except UnsupportedCapability as exc:
        raise ConfigError([f"problem_sampler.name: {exc}; meta-training needs "
                           "tape-differentiable losses"]) from exc
    if "init_checkpoint" in cfg:
        params = _load_model(cfg["init_checkpoint"], "init_checkpoint", probe)
        if "hidden" in cfg and cfg["hidden"] != params.hidden:
            raise ConfigError([f"hidden: {cfg['hidden']} differs from the init_checkpoint's "
                               f"hidden size {params.hidden}"])
    else:
        scale = {"scale": cfg["init_scale"]} if "init_scale" in cfg else {}
        params = init_params(probe.objectives, cfg["hidden"] if "hidden" in cfg else _HIDDEN,
                             cfg["seed"], **scale)
    out_dir = out_dir or cfg["outputs"]
    os.makedirs(out_dir, exist_ok=True)

    def sampler(rng: np.random.Generator):
        return make_problem(pname, seed=int(rng.integers(2**31 - 1)), **pparams)

    given = {key: cfg[key] for key in _META_TRAIN_FIELDS if key in cfg}
    periods = 0
    with _create(os.path.join(out_dir, "meta_loss.csv")) as fh:
        fh.write("epoch,period,meta_loss\n")
        for _ in range(cfg["epochs"]):
            params, trace = meta_train(sampler, params, epochs=1, **given)
            fh.writelines(f"{e},{period},{loss:.17g}\n" for e, period, loss in trace)
            fh.flush()
            periods += len(trace)
            given["start_epoch"] = trace[-1][0] + 1  # the next call trains the next epoch
    save_checkpoint(params, os.path.join(out_dir, "checkpoint.json"))
    _write_manifest(
        out_dir,
        {
            "schema_version": SCHEMA_VERSION,
            "toolkit_version": __version__,
            "kind": "train",
            "config": cfg,
            "periods": periods,
            "created_unix": time.time(),
        },
    )
    return params


COMPARE_METRICS = ("final-max-loss", "hypervolume", "criticality")


def _load_manifest(run_dir: str) -> dict:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest.json in {run_dir!r}; not a run directory")
    with open(path) as fh:
        return json.load(fh)


def compare_cmd(run_dirs: list[str], metric: str, out_path: str | None = None) -> list[dict]:
    """Aggregate one metric per run directory (mean and std over seeds)."""
    if metric not in COMPARE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {COMPARE_METRICS}")
    if not run_dirs:
        raise ValueError("at least one run directory is required")
    manifests = [_load_manifest(d) for d in run_dirs]
    base = manifests[0]["config"]
    for mf, d in zip(manifests, run_dirs):
        c = mf["config"]
        if c["problem"] != base["problem"] or c["steps"] != base["steps"]:
            raise ValueError(f"run dir {d!r} has a different problem or step count")

    per_dir_fronts: dict[int, dict[str, np.ndarray]] = {}
    if metric == "hypervolume":
        for d, mf in zip(run_dirs, manifests):
            for seed in mf["config"]["seeds"]:
                pts = np.array(
                    [r["final_losses"] for r in mf["runs"] if r["seed"] == seed], dtype=np.float64
                )
                per_dir_fronts.setdefault(seed, {})[d] = extract_front(pts)

    report = []
    for d, mf in zip(run_dirs, manifests):
        cfgd = mf["config"]
        problem = None
        if metric == "criticality":
            problem = make_problem(cfgd["problem"]["name"], **_params(cfgd["problem"]))
        per_seed = []
        for seed in cfgd["seeds"]:
            runs = [r for r in mf["runs"] if r["seed"] == seed]
            if not runs:
                raise ValueError(f"run dir {d!r} has no runs for seed {seed}")
            if metric == "final-max-loss":
                per_seed.append(float(np.mean([max(r["final_losses"]) for r in runs])))
            elif metric == "criticality":
                per_seed.append(
                    float(
                        np.mean(
                            [
                                criticality_measure(problem, np.asarray(r["final_x"]))
                                for r in runs
                            ]
                        )
                    )
                )
            else:
                fronts = per_dir_fronts[seed]
                ref = front_reference(*fronts.values())
                front = fronts[d]
                hv = hypervolume_2d(front, ref) if ref.size == 2 else hypervolume_3d(front, ref)
                per_seed.append(float(hv))
        report.append(
            {
                "run_dir": d,
                "optimizer": cfgd["optimizer"]["name"],
                "metric": metric,
                "mean": float(np.mean(per_seed)),
                "std": float(np.std(per_seed)),
                "n_seeds": len(per_seed),
            }
        )
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("run_dir,optimizer,metric,mean,std,n_seeds\n")
            for row in report:
                fh.write(
                    f"{row['run_dir']},{row['optimizer']},{row['metric']},"
                    f"{row['mean']:.17g},{row['std']:.17g},{row['n_seeds']}\n"
                )
    return report
