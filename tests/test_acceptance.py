"""End-to-end acceptance suite: eight criteria, each reporting one
pass/fail line with its elapsed time and checked tolerance."""

import time

import numpy as np
import pytest
from conftest import random_infinite_model, random_staged_model

from drmdp.ambiguity import (
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
)
from drmdp.engine import (
    backward_induction,
    bellman_operator,
    certificate_factors,
    classical_dp_finite,
    value_iteration,
)
from drmdp.geometry import PolyhedralSet, box, enumerate_vertices, simplex
from drmdp.lp import LE, GE, EQ, OPTIMAL, LinearProgram, residuals, solve_lp
from drmdp.newsvendor import (
    NewsvendorConfig,
    build_newsvendor_model,
    paired_t_statistic,
    run_experiment,
    sample_training_set,
)
from drmdp.reformulation import (
    StageObjective,
    oracle_worst_case,
    worst_case_expectation,
)


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _newsvendor_root_value(cfg, ambiguity):
    model, _ = build_newsvendor_model(cfg, ambiguity)
    vf, _, _ = backward_induction(model, solver="highs", certificates=False)
    return vf[0], model


def test_criterion_1_wasserstein_limit_identities():
    t0 = time.time()
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(101))
    d = simplex(cfg.n_demand)

    v_zero, model = _newsvendor_root_value(cfg, build_wasserstein(samples, 0.0, d))
    xibar = np.mean(samples, axis=0)
    factors = {s: xibar for s in range(model.n_states) if model.factor_maps[s] is not None}
    v_empirical = classical_dp_finite(model, factors)[0]
    err_zero = abs(v_zero - v_empirical)

    v_two, _ = _newsvendor_root_value(cfg, build_wasserstein(samples, 2.0, d))
    v_support, _ = _newsvendor_root_value(cfg, build_support_only(d))
    err_two = abs(v_two - v_support)

    elapsed = time.time() - t0
    ok = err_zero <= 1e-6 and err_two <= 1e-6 and elapsed < 30.0
    _report(
        "criterion-1 wasserstein-limits",
        ok,
        f"|v(0)−empirical|={err_zero:.2e}, |v(2)−support|={err_two:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_saddle_point():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        model = random_staged_model(rng)
        vf, _, certs = backward_induction(model)
        classical = classical_dp_finite(model, certificate_factors(certs))
        root = model.stages[0][0]
        worst = max(worst, abs(classical[root] - vf[root]))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 120.0
    _report("criterion-2 saddle-point", ok, f"max gap {worst:.2e} over 20 models, {elapsed:.1f}s")


def test_criterion_3_reformulation_vs_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    step = 0.05
    worst_cont = worst_finite = 0.0
    for i in range(20):
        finite_support = i % 5 == 4
        if finite_support:
            dim = int(rng.integers(1, 4))
            pts = [rng.uniform(0, 1, dim) for _ in range(int(rng.integers(2, 4)))]
            amb = build_phi_divergence_tv(pts, float(rng.uniform(0.1, 0.6)))
        else:
            dim = int(rng.integers(1, 4))
            if dim == 3:
                d = simplex(3)
                samples = [rng.dirichlet(np.ones(3)) for _ in range(2)]
            else:
                d = box(np.zeros(dim), np.ones(dim))
                samples = [rng.uniform(0.2, 0.8, dim) for _ in range(2)]
            kind = rng.choice(["support", "wasserstein", "mean"])
            if kind == "support":
                amb = build_support_only(d)
            elif kind == "wasserstein":
                amb = build_wasserstein(samples, float(rng.uniform(0.1, 0.5)), d)
            else:
                c0 = np.asarray(samples[0])
                amb = build_uncertain_mean(
                    d, np.zeros(dim), np.ones(dim), c0, float(rng.uniform(0.1, 0.3))
                )
        n_actions = int(rng.integers(1, 4))
        obj = StageObjective(rng.normal(size=n_actions), rng.normal(size=(n_actions, dim)))
        pi = rng.dirichlet(np.ones(n_actions))
        v, _ = worst_case_expectation(obj, amb, pi, solver="highs")
        v_oracle = oracle_worst_case(obj, amb, pi, step, solver="highs")
        if finite_support:
            worst_finite = max(worst_finite, abs(v_oracle - v))
        else:
            lip = np.abs(obj.coeff(pi)).max()
            gap = v_oracle - v
            excess = max(-gap - 1e-9, gap - lip * step * np.sqrt(dim) - 1e-9, 0.0)
            worst_cont = max(worst_cont, excess)
    elapsed = time.time() - t0
    ok = worst_cont <= 0.0 and worst_finite <= 1e-7 and elapsed < 120.0
    _report(
        "criterion-3 oracle-agreement",
        ok,
        f"Lipschitz-bound excess {worst_cont:.2e}, finite-support gap {worst_finite:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_contraction():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = -np.inf
    for gamma in (0.5, 0.9):
        model = random_infinite_model(rng, 6, gamma)
        for _ in range(50):
            v1 = rng.normal(size=6) * 5
            v2 = rng.normal(size=6) * 5
            lv1, _, _ = bellman_operator(model, v1, solver="highs")
            lv2, _, _ = bellman_operator(model, v2, solver="highs")
            worst = max(
                worst,
                np.max(np.abs(lv1 - lv2)) - gamma * np.max(np.abs(v1 - v2)),
            )
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        "criterion-4 contraction", ok, f"max violation {worst:.2e} over 100 pairs, {elapsed:.1f}s"
    )


def test_criterion_5_value_iteration_fixed_point():
    t0 = time.time()
    rng = np.random.default_rng(505)
    eps = 1e-6
    worst_gap = worst_res = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 4))
        model = random_infinite_model(rng, n, float(rng.choice([0.6, 0.8])))
        vf1, _, _ = value_iteration(model, eps, v0=np.zeros(n), solver="highs")
        vf2, _, _ = value_iteration(model, eps, v0=20.0 * rng.normal(size=n), solver="highs")
        worst_gap = max(worst_gap, float(np.max(np.abs(vf1.values - vf2.values))))
        # stationarity needs the fixed point itself, so converge much tighter
        # than the 2ε comparison above before re-applying the operator
        vf_tight, _, _ = value_iteration(model, 1e-10, v0=vf1.values, solver="highs")
        again, _, _ = bellman_operator(model, vf_tight.values, solver="highs")
        worst_res = max(worst_res, float(np.max(np.abs(again - vf_tight.values))))
    elapsed = time.time() - t0
    ok = worst_gap <= 2 * eps and worst_res <= 1e-8 and elapsed < 120.0
    _report(
        "criterion-5 vi-fixed-point",
        ok,
        f"init gap {worst_gap:.2e} (≤2e-6), stationarity {worst_res:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_6_trend_reproduction():
    t0 = time.time()
    cfg = NewsvendorConfig(repetitions=200, test_runs=1000, seed=606)
    record = run_experiment(cfg, solver="highs")
    t_stat = paired_t_statistic(record, 2.0, 0.0, 5)
    std5 = float(np.std(record.costs(0.0, 5)))
    std15 = float(np.std(record.costs(0.0, 15)))
    elapsed = time.time() - t0
    ok = (
        not record.failures
        and t_stat > 2.0
        and std15 < std5
        and elapsed < 1200.0
    )
    _report(
        "criterion-6 trend-reproduction",
        ok,
        f"t(θ=2 vs θ=0, N=5)={t_stat:.2f} (>2), std θ=0: N=15 {std15:.3f} < N=5 {std5:.3f}, "
        f"{len(record.failures)} failures, {elapsed:.0f}s",
    )


def test_criterion_7_theta_monotonicity():
    t0 = time.time()
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(707))
    d = simplex(cfg.n_demand)
    values = []
    for theta in cfg.theta_grid:
        v, _ = _newsvendor_root_value(cfg, build_wasserstein(samples, theta, d))
        values.append(v)
    worst = max(
        (values[i + 1] - values[i] for i in range(len(values) - 1)), default=0.0
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-7
    _report(
        "criterion-7 theta-monotonicity",
        ok,
        f"max increase {worst:.2e} over θ grid {cfg.theta_grid}, {elapsed:.1f}s",
    )


def _random_bounded_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 4))
    a = rng.normal(size=(m, n))
    senses = [[LE, GE, EQ][int(rng.integers(0, 3))] for _ in range(m)]
    x0 = rng.uniform(0.2, 0.8, n)
    slack = rng.uniform(0.1, 1.0, m)
    b = a @ x0
    for i, s in enumerate(senses):
        if s == LE:
            b[i] += slack[i]
        elif s == GE:
            b[i] -= slack[i]
    c = rng.normal(size=n)
    sense = "max" if rng.random() < 0.5 else "min"
    return LinearProgram(sense, c, a, tuple(senses), b, np.zeros(n), np.full(n, 2.0))


def _vertex_optimum(lp):
    ineq = [(np.asarray(lp.a[i]), lp.b[i]) for i in range(lp.n_rows) if lp.row_senses[i] == LE]
    ineq += [(-np.asarray(lp.a[i]), -lp.b[i]) for i in range(lp.n_rows) if lp.row_senses[i] == GE]
    eq = [(np.asarray(lp.a[i]), lp.b[i]) for i in range(lp.n_rows) if lp.row_senses[i] == EQ]
    n = lp.n_vars
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        ineq.append((e.copy(), lp.ub[j]))
        ineq.append((-e, -lp.lb[j]))
    verts = enumerate_vertices(PolyhedralSet(n, ineq, eq))
    vals = [float(lp.c @ v) for v in verts]
    return (max(vals) if lp.sense == "max" else min(vals)) if vals else None


def test_criterion_8_lp_kernel_soundness():
    t0 = time.time()
    rng = np.random.default_rng(808)
    worst_val = worst_cert = 0.0
    checked = 0
    while checked < 500:
        lp = _random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL, "constructed-feasible bounded LP must solve"
        brute = _vertex_optimum(lp)
        assert brute is not None
        worst_val = max(worst_val, abs(sol.value - brute))
        worst_cert = max(worst_cert, max(residuals(lp, sol).values()))
        checked += 1
    elapsed = time.time() - t0
    ok = worst_val <= 1e-7 and worst_cert <= 1e-8
    _report(
        "criterion-8 lp-soundness",
        ok,
        f"max value gap {worst_val:.2e} (≤1e-7), max certificate residual {worst_cert:.2e} "
        f"(≤1e-8) over {checked} LPs, {elapsed:.1f}s",
    )
