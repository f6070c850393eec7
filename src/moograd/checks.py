"""Acceptance suite: every shipped claim, checked at its stated tolerance.

Each criterion is a function returning (passed, detail); ``run_checks`` (and
the acceptance test module) runs them in order and prints one pass/fail line
per criterion. Training artifacts (learned-optimizer checkpoints) are built
once per work directory and reused by later criteria.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import time

import numpy as np

from . import harness
from .guard import _guarded_loop, gml2o_deterministic_run, gml2o_run
from .metrics import extract_front, front_reference, hypervolume_2d, theorem_monitor
from .minnorm import criticality_measure, min_norm_2obj_oracle, simplex_grid_oracle, solve_min_norm
from .ml2o import (
    Ml2oParams,
    evaluate_meta_loss,
    init_params,
    init_state,
    learned_step,
    load_checkpoint,
    store_from_params,
    unroll_window,
)
from .optimizers import (
    SampleSchedule,
    StepSchedule,
    dssmg_step,
    mgda_step,
    run_steps,
)
from .problems import QuadraticPair, make_quadratic_pair, make_toy_mtl
from . import autodiff as ad

# Training recipe shared by the learned-optimizer criteria.
TRAIN_RECIPE = dict(
    problem_sampler={"name": "quadratic_pair", "params": {"dim": 8, "noise_sigma": 0.1}},
    m=2,
    steps=200,
    window=20,
    meta_lr=0.05,
    epochs=200,
    alpha=0.35,
    draw_mode="sample",
)
N_TRAIN_SEEDS = 10
VALIDATION_PROBLEM_SEED = 91000
COMPARISON_PROBLEM_SEED = 60000
CURVED_PROBLEM_SEED = 20240113
ML2O_RUN_ALPHA = 0.35
MGDA_RUN_ALPHA = 0.01


class CheckContext:
    """Lazily built shared artifacts (checkpoints live under work_dir)."""

    def __init__(self, work_dir: str | None = None):
        self._owns_dir = work_dir is None
        self.work_dir = work_dir or tempfile.mkdtemp(prefix="moograd_checks_")
        os.makedirs(self.work_dir, exist_ok=True)
        self._h8: list[tuple[Ml2oParams, Ml2oParams, float, float]] | None = None
        self._h20: Ml2oParams | None = None

    def _train_one(self, hidden: int, seed: int) -> Ml2oParams:
        out = os.path.join(self.work_dir, f"ml2o_h{hidden}_seed{seed}")
        ck = os.path.join(out, "checkpoint.json")
        if os.path.exists(ck):
            return load_checkpoint(ck)
        cfg = dict(TRAIN_RECIPE, hidden=hidden, seed=seed, outputs=out)
        return harness.train_ml2o_cmd(cfg)

    def h8_models(self):
        """Ten (untrained, trained, untrained_val, trained_val) tuples.

        Validation is the mean meta-loss on a fixed held-out problem set,
        evaluated with exact gradients.
        """
        if self._h8 is None:
            heldout = [make_quadratic_pair(8, seed=VALIDATION_PROBLEM_SEED + i) for i in range(20)]
            rows = []
            for seed in range(N_TRAIN_SEEDS):
                p0 = init_params(2, 8, seed)
                trained = self._train_one(8, seed)
                base = evaluate_meta_loss(heldout, p0, 100, ML2O_RUN_ALPHA, seed=7)
                after = evaluate_meta_loss(heldout, trained, 100, ML2O_RUN_ALPHA, seed=7)
                rows.append((p0, trained, base, after))
            self._h8 = rows
        return self._h8

    def selected_h8(self) -> Ml2oParams:
        rows = self.h8_models()
        return min(rows, key=lambda r: r[3])[1]

    def h20_model(self) -> Ml2oParams:
        if self._h20 is None:
            self._h20 = self._train_one(20, 1)
        return self._h20

    def cleanup(self):
        if self._owns_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def check_1_min_norm_oracles(ctx):
    """Active-set dual objective vs closed-form (M=2) and grid (M=3) oracles."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240001)
    worst2 = 0.0
    for _ in range(1000):
        w = rng.uniform(-1, 1, size=(2, int(rng.integers(1, 11))))
        sol = solve_min_norm(w)
        lam = min_norm_2obj_oracle(w[0], w[1])
        worst2 = max(worst2, abs(sol.dual_norm_sq - float(np.sum((w.T @ lam) ** 2))))
    worst3 = -np.inf
    resolution = 500
    for _ in range(200):
        w = rng.uniform(-1, 1, size=(3, int(rng.integers(1, 9))))
        sol = solve_min_norm(w)
        lam_grid = simplex_grid_oracle(w, resolution)
        obj_grid = float(np.sum((w.T @ lam_grid) ** 2))
        gram = w @ w.T
        # rounding the true minimizer onto the grid moves lam by <= 3 steps in
        # L1 and changes the objective by <= |move|_1 * 2 max|G|
        step_bound = 6.0 * float(np.abs(gram).max()) / resolution
        worst3 = max(worst3, abs(sol.dual_norm_sq - obj_grid) - step_bound)
    elapsed = time.perf_counter() - t0
    passed = worst2 <= 1e-6 and worst3 <= 0.0 and elapsed < 10.0
    return passed, (
        f"M=2 worst gap {worst2:.2e} (<=1e-6), M=3 within one grid step "
        f"(worst excess {worst3:.2e}), {elapsed:.1f}s (<10s)"
    )


def check_2_descent_invariant(ctx):
    """grad_i . descent <= -|d|^2 + 10 tol on every solve, each of which must converge."""
    rng = np.random.default_rng(20240002)
    tol = 1e-10
    violations = 0
    for _ in range(1200):
        m = int(rng.integers(2, 6))
        w = rng.normal(size=(m, int(rng.integers(1, 10))))
        sol = solve_min_norm(w, tol=tol)
        if not sol.converged or np.any(w @ sol.descent_direction > -sol.dual_norm_sq + 10 * tol):
            violations += 1
    return violations == 0, f"{violations} violations over 1200 instances"


def check_3_holder_continuity(ctx):
    """|d(W)-d(V)| <= sqrt(2C) |W-V|^(1/2) + 1e-8 on 1000 bounded pairs."""
    rng = np.random.default_rng(20240003)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        w = rng.uniform(-1, 1, size=(2, n))
        if rng.random() < 0.5:
            v = w + rng.uniform(-1, 1, size=w.shape) * 10.0 ** rng.integers(-7, 0)
        else:
            v = rng.uniform(-1, 1, size=(2, n))
        c = max(np.linalg.norm(w), np.linalg.norm(v))
        dw = w.T @ min_norm_2obj_oracle(w[0], w[1])
        dv = v.T @ min_norm_2obj_oracle(v[0], v[1])
        if np.linalg.norm(dw - dv) > np.sqrt(2 * c) * np.linalg.norm(w - v) ** 0.5 + 1e-8:
            violations += 1
    return violations == 0, f"{violations} violations over 1000 pairs"


def check_4_averaged_gradient_variance(ctx):
    """E|y - grad|^2 <= 1.5 sigma^2 / N_k for N_k in {1, 8, 64, 512}."""
    sigma_entry = 0.4
    prob = make_quadratic_pair(6, seed=20240004, noise_sigma=sigma_entry)
    sigma_sq = prob.dim * sigma_entry**2
    rng = np.random.default_rng(4)
    x = prob.initial_point(rng)
    jac = prob.full_jacobian(x)
    details = []
    ok = True
    for n in (1, 8, 64, 512):
        sq = np.empty(1000)
        for t in range(1000):
            y = prob.averaged_gradient(x, n, rng)
            sq[t] = np.linalg.norm(y[0] - jac[0]) ** 2
        ratio = float(np.mean(sq) / (sigma_sq / n))
        ok = ok and ratio <= 1.5
        details.append(f"N={n}: {ratio:.3f}")
    return ok, "variance ratio vs sigma^2/N_k " + ", ".join(details) + " (all <=1.5)"


def check_5_dynamic_sampling_monitor(ctx):
    """Weighted criticality partial sums plateau; best-iterate criticality small."""
    t0 = time.perf_counter()
    sched = StepSchedule("harmonic")
    samp = SampleSchedule(32, 0.1)
    good = 0
    details = []
    for seed in range(10):
        prob = make_quadratic_pair(8, seed=20240050 + seed, noise_sigma=0.1)
        x0 = prob.initial_point(harness.derive_rng(seed, 0, harness.PURPOSE_INIT))
        rec = run_steps(
            prob,
            functools.partial(dssmg_step, samples=samp),
            x0,
            5000,
            sched,
            harness.derive_rng(seed, 0, harness.PURPOSE_DRAWS),
        )
        series = theorem_monitor(rec, prob)
        total = series.partial_sums[-1]
        tail = total - series.partial_sums[int(0.9 * len(series)) - 1]
        best = int(np.argmin(np.max(rec.losses, axis=1)))
        crit = criticality_measure(prob, rec.iterates[best + 1])
        if tail < 0.05 * total and crit < 0.05:
            good += 1
        details.append(f"{tail / total:.1e}/{crit:.1e}")
    elapsed = time.perf_counter() - t0
    passed = good >= 9 and elapsed < 120.0
    return passed, f"{good}/10 seeds plateaued with small criticality, {elapsed:.0f}s (<120s)"


def check_6_front_comparison(ctx):
    """Population fronts: dynamic sampling beats single-draw hypervolume."""
    t0 = time.perf_counter()
    base = {
        "problem": {"name": "quadratic_pair", "params": {"dim": 8, "seed": 777, "noise_sigma": 0.5}},
        "steps": 100,
        "step_schedule": {"kind": "constant", "alpha": 0.5},
        "sample_schedule": {"n_base": 32, "q": 0.1},
        "seeds": list(range(10)),
        "population": 200,
    }
    dirs = {}
    for name in ("smg", "dssmg"):
        out = os.path.join(ctx.work_dir, f"front_{name}")
        if not os.path.exists(os.path.join(out, "manifest.json")):
            cfg = dict(base, optimizer={"name": name, "params": {}}, outputs=out)
            harness.run_experiment(cfg, write_front=True)
        dirs[name] = out
    manifests = {k: json.load(open(os.path.join(d, "manifest.json"))) for k, d in dirs.items()}
    wins = 0
    for seed in base["seeds"]:
        fronts = {}
        for name, mf in manifests.items():
            pts = np.array(
                [r["final_losses"] for r in mf["runs"] if r["seed"] == seed], dtype=np.float64
            )
            fronts[name] = extract_front(pts)
        ref = front_reference(fronts["smg"], fronts["dssmg"])
        hv = {k: hypervolume_2d(f, ref) for k, f in fronts.items()}
        wins += hv["dssmg"] >= hv["smg"]
    elapsed = time.perf_counter() - t0
    passed = wins >= 8 and elapsed < 300.0
    return passed, f"dynamic-sampling hypervolume >= single-draw in {wins}/10 seeds, {elapsed:.0f}s (<300s)"


def check_7_bptt_gradient(ctx):
    """Meta-gradient vs central finite differences on the tiny instance."""
    failures = 0
    worst = 0.0
    for seed in range(20):
        params = init_params(2, 3, seed)
        prob = make_quadratic_pair(2, seed=seed + 1000)
        x0 = prob.initial_point(np.random.default_rng(seed + 2000)).reshape(-1, 1)
        draw = lambda j, xv: prob.full_jacobian(xv)
        store = store_from_params(params)
        tape = ad.Tape()
        leafs = {n: tape.param(store, n) for n in store.names()}
        mean, _, _ = unroll_window(prob, x0, init_state(2, 3, 2), leafs, 4, 0.1, draw)
        ad.backward(tape, mean)
        g_ad = np.concatenate([store.grads[n].ravel() for n in sorted(store.names())])

        def f(s):
            m, _, _ = unroll_window(prob, x0, init_state(2, 3, 2), s.params, 4, 0.1, draw)
            return float(m)

        g_fd_map = ad.finite_diff_gradient(f, store, eps=1e-5)
        g_fd = np.concatenate([g_fd_map[n].ravel() for n in sorted(g_fd_map)])
        rel = float(np.linalg.norm(g_ad - g_fd) / max(np.linalg.norm(g_fd), 1e-300))
        worst = max(worst, rel)
        failures += rel >= 1e-4
    return failures == 0, f"{failures}/20 seeds failed; worst relative error {worst:.2e} (<1e-4)"


def check_8_learning_signal(ctx):
    """Training helps: validation meta-loss drops, and the selected optimizer
    beats the hand-designed min-norm method at step 100 on most problems."""
    t0 = time.perf_counter()
    rows = ctx.h8_models()
    improved = sum(after < base for _, _, base, after in rows)
    learned = functools.partial(learned_step, model=ctx.selected_h8(), exact=True)
    wins = 0
    for i in range(50):
        prob = make_quadratic_pair(8, seed=COMPARISON_PROBLEM_SEED + i)
        x0 = prob.initial_point(np.random.default_rng(0))
        final = {}
        for name, step, alpha in (("mgda", mgda_step, MGDA_RUN_ALPHA),
                                  ("ml2o", learned, ML2O_RUN_ALPHA)):
            rec = run_steps(prob, step, x0, 100, StepSchedule("constant", alpha), keep_iterates=False)
            final[name] = float(np.max(rec.final_losses))
        wins += final["ml2o"] < final["mgda"]
    elapsed = time.perf_counter() - t0
    passed = improved >= 9 and wins >= 35 and elapsed < 900.0
    return passed, (
        f"held-out meta-loss improved in {improved}/10 seeds (>=9); selected optimizer "
        f"beat the min-norm baseline at step 100 on {wins}/50 problems (>=35), {elapsed:.0f}s (<900s)"
    )


def check_9_guard_invariant(ctx):
    """Per-step guard inequality holds exactly in every guarded run."""
    violations = 0
    steps_checked = 0
    params_random = init_params(2, 6, seed=4)
    # stochastic guarded runs on an analytic problem, exact-loss yardstick
    for seed in range(5):
        prob = make_quadratic_pair(5, seed=20240090 + seed, noise_sigma=0.4)
        x0 = prob.initial_point(harness.derive_rng(seed, 0, harness.PURPOSE_INIT))
        rec = gml2o_run(
            prob,
            params_random,
            StepSchedule("constant", 0.3),
            SampleSchedule(2, 0.1),
            120,
            x0,
            harness.derive_rng(seed, 0, harness.PURPOSE_DRAWS),
        )
        f_prev = prob.eval(x0)
        for losses, dec in zip(rec.losses, rec.meta["decisions"]):
            chosen_delta = float(np.max(losses - f_prev))
            if chosen_delta > dec.fallback_delta:
                violations += 1
            f_prev = losses
            steps_checked += 1
    # mini-batch guarded run and a deterministic guarded run
    prob = make_toy_mtl(seed=31, samples=256, batch=16)
    rec = gml2o_run(
        prob,
        params_random,
        StepSchedule("constant", 0.25),
        SampleSchedule(1, 0.1),
        80,
        prob.initial_point(np.random.default_rng(0)),
        harness.derive_rng(0, 0, harness.PURPOSE_DRAWS),
        guard_rng=harness.derive_rng(0, 0, harness.PURPOSE_GUARD),
        guard_batch=64,
    )
    for dec in rec.meta["decisions"]:
        if min(dec.fallback_delta, dec.learned_delta) > dec.fallback_delta:
            violations += 1
        steps_checked += 1
    quad = make_quadratic_pair(4, seed=99)
    rec = gml2o_deterministic_run(
        quad, params_random, 1.0, 200, quad.initial_point(np.random.default_rng(1))
    )
    f_prev = quad.eval(rec.iterates[0])
    for losses, dec in zip(rec.losses, rec.meta["decisions"]):
        chosen_delta = float(np.max(losses - f_prev))
        if chosen_delta > dec.fallback_delta:
            violations += 1
        f_prev = losses
        steps_checked += 1
    return violations == 0, f"{violations} violations over {steps_checked} guarded steps"


def check_10_guarded_mtl(ctx):
    """Guarded learned optimizer matches or beats both baselines on the MTL task."""
    t0 = time.perf_counter()
    params = ctx.h20_model()
    prob = make_toy_mtl(seed=4242)
    alpha = 0.5
    samp = SampleSchedule(1, 0.1)
    seeds = range(10)
    x0s = np.array([prob.initial_point(harness.derive_rng(s, 0, harness.PURPOSE_INIT)) for s in seeds])

    def streams(purpose):
        return [harness.derive_rng(s, 0, purpose) for s in seeds]

    def final_losses(step):
        """Full-data losses after 700 steps of the population. The steps are not
        recorded: that would add a full-data evaluation per step that nothing reads."""
        xs, memory, draws = x0s, {}, streams(harness.PURPOSE_DRAWS)
        for k in range(1, 701):
            xs = step(prob, xs, k, alpha, draws, memory)[0]
        return prob.eval_many(xs)

    finals = {
        "dssmg": final_losses(functools.partial(dssmg_step, samples=samp)),
        "ml2o": final_losses(functools.partial(learned_step, model=params, samples=samp)),
        "gml2o": final_losses(functools.partial(
            _guarded_loop, model=params, samples=samp,
            guard_rngs=streams(harness.PURPOSE_GUARD), guard_batch=512)),
    }
    means = {k: np.mean(v, axis=0) for k, v in finals.items()}
    bound = np.minimum(means["dssmg"], means["ml2o"]) + 0.05
    elapsed = time.perf_counter() - t0
    passed = bool(np.all(means["gml2o"] <= bound)) and elapsed < 600.0
    return passed, (
        f"per-task means: guarded {np.round(means['gml2o'], 4).tolist()} vs "
        f"bound {np.round(bound, 4).tolist()} "
        f"(dssmg {np.round(means['dssmg'], 4).tolist()}, ml2o {np.round(means['ml2o'], 4).tolist()}), "
        f"{elapsed:.0f}s (<600s)"
    )


def _guarded_first_hits(params, make_problem, steps: int) -> tuple[int, int]:
    """Exact-gradient guarded runs at alpha = 1 on ``make_problem(seed)``, seeds 0 to 9.

    Returns ``(good, worst_k)``: how many runs drove |d(z_k)| below 1e-4
    within ``steps`` steps, and the latest step at which one first did.
    """
    good = worst_k = 0
    for seed in range(10):
        prob = make_problem(seed)
        x0 = prob.initial_point(harness.derive_rng(seed, 0, harness.PURPOSE_INIT))
        rec = gml2o_deterministic_run(prob, params, alpha=1.0, steps=steps, x0=x0,
                                      keep_iterates=False)
        hit = np.nonzero(rec.direction_norms < 1e-4)[0]
        if hit.size:
            good += 1
            worst_k = max(worst_k, int(hit[0]) + 1)
    return good, worst_k


def check_11_deterministic_guard_convergence(ctx):
    """Exact-gradient guarded runs drive the direction norm below 1e-4."""
    make = lambda seed: make_quadratic_pair(8, seed=20240110 + seed)  # identity curvature: L = 1
    good, worst_k = _guarded_first_hits(ctx.selected_h8(), make, 5000)
    return good == 10, f"{good}/10 seeds reached |d(z_k)| < 1e-4 (worst first hit: step {worst_k})"


def check_12_run_determinism(ctx):
    """Identical config twice: byte-identical CSVs (wall-time column excluded)."""
    cfg = {
        "problem": {"name": "quadratic_pair", "params": {"dim": 4, "seed": 5, "noise_sigma": 0.3}},
        "optimizer": {"name": "dssmg", "params": {}},
        "steps": 60,
        "step_schedule": {"kind": "harmonic", "alpha": 0.5},
        "sample_schedule": {"n_base": 8, "q": 0.1},
        "seeds": [1, 2, 3],
        "outputs": "",
    }
    outs = [os.path.join(ctx.work_dir, f"det_{i}") for i in (0, 1)]
    for out in outs:
        if os.path.isdir(out):
            shutil.rmtree(out)
        harness.run_experiment(dict(cfg, outputs=out))
    same = True
    for fname in sorted(os.listdir(outs[0])):
        if not fname.endswith(".csv"):
            continue

        def strip(path):
            rows = open(path).read().splitlines()
            return ["," .join(line.split(",")[:-1]) for line in rows]

        same = same and strip(os.path.join(outs[0], fname)) == strip(os.path.join(outs[1], fname))
    m0 = json.load(open(os.path.join(outs[0], "manifest.json")))
    m1 = json.load(open(os.path.join(outs[1], "manifest.json")))
    hashes_equal = [r["content_hash"] for r in m0["runs"]] == [r["content_hash"] for r in m1["runs"]]
    passed = same and hashes_equal
    return passed, f"CSV bytes identical after wall-time exclusion: {same}; manifest hashes equal: {hashes_equal}"


def _random_spd(rng: np.random.Generator, dim: int, low: float, high: float) -> np.ndarray:
    """Symmetric positive definite matrix with eigenvalues drawn U[low, high]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * rng.uniform(low, high, dim)) @ q.T
    return 0.5 * (a + a.T)


def _curved_pair(seed: int) -> QuadraticPair:
    rng = np.random.default_rng(CURVED_PROBLEM_SEED + seed)
    c1, c2 = rng.uniform(-1.0, 1.0, (2, 8))
    a1, a2 = _random_spd(rng, 8, 0.1, 1.0), _random_spd(rng, 8, 0.1, 1.0)  # L <= 1
    return QuadraticPair(c1, c2, a1, a2, domain=(-1.0, 1.0))


def check_13_curved_guard_convergence(ctx):
    """Exact-gradient guarded runs drive the direction norm below 1e-4 under real curvature."""
    good, worst_k = _guarded_first_hits(ctx.selected_h8(), _curved_pair, 500)
    return good == 10, (
        f"{good}/10 seeds with curvature eigenvalues in [0.1, 1] reached |d(z_k)| < 1e-4 "
        f"within 500 steps (worst first hit: step {worst_k})"
    )


CHECKS = [
    (1, "min-norm oracle equivalence", check_1_min_norm_oracles),
    (2, "descent invariant", check_2_descent_invariant),
    (3, "direction map Holder continuity", check_3_holder_continuity),
    (4, "averaged-gradient variance bound", check_4_averaged_gradient_variance),
    (5, "dynamic-sampling convergence monitor", check_5_dynamic_sampling_monitor),
    (6, "population front comparison", check_6_front_comparison),
    (7, "meta-gradient vs finite differences", check_7_bptt_gradient),
    (8, "learned-optimizer training signal", check_8_learning_signal),
    (9, "guard invariant", check_9_guard_invariant),
    (10, "guarded optimizer on the MTL task", check_10_guarded_mtl),
    (11, "deterministic guard convergence", check_11_deterministic_guard_convergence),
    (12, "run determinism", check_12_run_determinism),
    (13, "guarded convergence under curvature", check_13_curved_guard_convergence),
]


def run_checks(work_dir: str | None = None, only: list[int] | None = None) -> bool:
    ctx = CheckContext(work_dir)
    all_ok = True
    try:
        for number, name, fn in CHECKS:
            if only and number not in only:
                continue
            t0 = time.perf_counter()
            try:
                passed, detail = fn(ctx)
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] criterion {number:>2} ({name}): {detail} [{time.perf_counter() - t0:.1f}s]")
            all_ok = all_ok and passed
    finally:
        ctx.cleanup()
    return all_ok
