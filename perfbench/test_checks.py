"""Each correctness check passes on a real output and fails on a corrupted copy.

Small instances of every workload keep this fast. Run from the repository
root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import os
import shutil

import numpy as np
import pytest

from moograd import harness, minnorm, ml2o, problems

import refs
import workloads as wl


@pytest.fixture(scope="module")
def front_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("front"))
    cfg = dict(wl.front_config(problem_seed=11, seeds=[3], population=12, steps=8, dim=4),
               optimizer={"name": "dssmg", "params": {}}, outputs=out)
    harness.run_experiment(cfg, threads=1, write_front=True)
    centers = problems.make_problem("quadratic_pair", **cfg["problem"]["params"]).centers
    return out, cfg, centers


def _corrupted_copy(front_run, tmp_path, name, edit):
    out, cfg, centers = front_run
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    path = os.path.join(bad, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return wl.check_front_run(bad, cfg, centers)


def test_front_check_passes_on_real_output(front_run):
    assert wl.check_front_run(*front_run) == []


def test_front_check_fails_on_dropped_front_point(front_run, tmp_path):
    errors = _corrupted_copy(front_run, tmp_path, "front_seed3.csv", lambda lines: lines[:-1])
    assert any("front_seed3.csv" in e for e in errors)


def test_front_check_fails_on_edited_csv_cell(front_run, tmp_path):
    def edit(lines):
        cells = lines[4].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-12))
        return lines[:4] + [",".join(cells)] + lines[5:]

    errors = _corrupted_copy(front_run, tmp_path, "seed3_member5.csv", edit)
    assert any("seed3_member5.csv: content hash" in e for e in errors)


def test_start_points_follow_the_documented_stream(front_run):
    _, cfg, _ = front_run
    problem = problems.make_problem("quadratic_pair", **cfg["problem"]["params"])
    x0 = problem.initial_point(harness.derive_rng(3, 7, harness.PURPOSE_INIT))
    assert np.array_equal(x0, wl.member_rng(3, 7, wl.PURPOSE_INIT).uniform(-1.0, 1.0, 4))


@pytest.fixture(scope="module")
def guarded():
    problem = problems.make_toy_mtl(seed=5, samples=256, batch=16, hidden=8)
    params = ml2o.init_params(2, 3, seed=2)
    x0 = problem.initial_point(wl.member_rng(5, 0, wl.PURPOSE_INIT))
    record, stacks, batches = wl.replay_guarded_run(problem, params, x0, 5, 15, 0.5, 64)
    return problem, params, x0, record, stacks, batches


def test_guard_checks_pass_on_real_run(guarded):
    problem, params, x0, record, stacks, batches = guarded
    assert wl.check_guarded_record(problem, record, x0) == []
    assert wl.verify_guarded_steps(problem, params, record, stacks, batches, 0.5) == []


def test_guard_check_fails_on_flipped_choice(guarded):
    problem, params, x0, record, stacks, batches = guarded
    bad = copy.deepcopy(record)
    d = bad.meta["decisions"][4]
    d.chosen = "learned" if d.chosen == "fallback" else "fallback"
    bad.rows[4].guard_choice = d.chosen
    assert any("step 5" in e for e in wl.check_guarded_record(problem, bad, x0))
    assert any("step 5" in e for e in wl.verify_guarded_steps(problem, params, bad, stacks, batches, 0.5))


def test_direction_check_fails_on_perturbed_weight(guarded):
    problem, params, x0, record, stacks, batches = guarded
    bad = params.copy()
    bad.arrays["shared.wx_o"][1, 2] += 1e-3
    errors = wl.verify_guarded_steps(problem, bad, record, stacks, batches, 0.5)
    assert any("recorded increases" in e for e in errors)


def test_meta_gradient_check_passes_and_fails_on_perturbed_weight():
    rng = np.random.default_rng(4)
    params = ml2o.init_params(2, 3, seed=4)
    problem = problems.make_quadratic_pair(3, seed=8, noise_sigma=0.1)
    x0 = problem.initial_point(rng)
    loss, grads, stacks = wl.taped_window(params, problem, x0, rng, 5, 0.35)
    ref_loss = lambda arrays: wl.reference_window_loss(arrays, 2, 3, x0, stacks, problem.centers, 0.35)
    assert wl.check_meta_gradient(loss, grads, ref_loss, params.arrays, np.random.default_rng(0)) == []
    bad = {k: v.copy() for k, v in params.arrays.items()}
    bad["head.w"][0, 0] += 1e-3
    assert wl.check_meta_gradient(loss, grads, ref_loss, bad, np.random.default_rng(0))
    bad_grads = {k: v.copy() for k, v in grads.items()}
    bad_grads["head.w"][0, 0] += 1e-2
    assert wl.check_meta_gradient(loss, bad_grads, ref_loss, params.arrays, np.random.default_rng(0))


def test_min_norm_check_fails_on_corrupted_solution():
    battery = wl.minnorm_battery(40)
    for w in battery:
        assert wl.check_min_norm(w, minnorm.solve_min_norm(w), 1e-10) == []
    w = next(w for w in battery if w.shape[0] == 2)
    sol = minnorm.solve_min_norm(w)
    off = copy.deepcopy(sol)
    off.weights = off.weights * 1.01
    assert wl.check_min_norm(w, off, 1e-10)
    lie = copy.deepcopy(sol)
    lie.weights = np.array([1.0, 0.0]) if sol.weights[0] < 0.5 else np.array([0.0, 1.0])
    lie.combined = w.T @ lie.weights
    lie.descent_direction = -lie.combined
    lie.dual_norm_sq = float(lie.combined @ lie.combined)
    assert refs.simplex_gap(w, lie.weights) > 1e-10
    assert wl.check_min_norm(w, lie, 1e-10)


def test_nondominated_reference():
    pts = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0], [0.5, 3.0]])
    assert refs.nondominated(pts).tolist() == [True, True, False, True, True]
