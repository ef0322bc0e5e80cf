import threading

import numpy as np
import pytest

from drmdp.ambiguity import build_support_only, build_wasserstein
from drmdp.engine import (
    EngineError,
    RandomizedPolicy,
    backward_induction,
    classical_dp_finite,
    evaluate_policy_worst_case,
)
from drmdp.geometry import simplex
from drmdp.newsvendor import (
    ExperimentRecord,
    NewsvendorConfig,
    NewsvendorError,
    _state_factor_map,
    build_newsvendor_model,
    paired_t_statistic,
    run_experiment,
    sample_training_set,
    simulate_policy,
    solve_order_strategy,
)
from drmdp.reformulation import assemble_stage_objective


def _model_with_index(cfg, amb=None):
    amb = amb or build_support_only(simplex(cfg.n_demand))
    return build_newsvendor_model(cfg, amb)


def _fixed_order_policy(cfg, model, index, order):
    """Policy placing min(order, s_max − s) at every decision state."""
    dists = [None] * model.n_states
    for (t, s), sid in index.items():
        n_actions = cfg.s_max - s + 1
        d = np.zeros(n_actions)
        d[min(order, n_actions - 1)] = 1.0
        dists[sid] = d
    return RandomizedPolicy(tuple(dists))


def test_config_invariants():
    with pytest.raises(NewsvendorError):
        NewsvendorConfig(s_min=1)
    with pytest.raises(NewsvendorError):
        NewsvendorConfig(true_dist=(0.5, 0.4))
    with pytest.raises(NewsvendorError):
        NewsvendorConfig(order_cost=-1.0)
    cfg = NewsvendorConfig()
    assert len(cfg.inventories) == 16 and cfg.inventories[0] == -5


def test_action_set_shrinks_with_inventory():
    cfg = NewsvendorConfig()
    assert _state_factor_map(cfg, 10).n_actions == 1
    assert _state_factor_map(cfg, -5).n_actions == 16
    assert _state_factor_map(cfg, 0).n_actions == 11


def test_deterministic_demand_transition():
    cfg = NewsvendorConfig()
    fm = _state_factor_map(cfg, 0)
    xi = np.zeros(cfg.n_demand)
    xi[2] = 1.0  # demand exactly 2
    rows = fm.transitions(xi)
    target = cfg.inventories.index(0)  # 0 + 2 − 2 = 0
    expected = np.zeros(len(cfg.inventories))
    expected[target] = 1.0
    assert np.allclose(rows[2], expected)


def test_transition_rows_are_stochastic():
    cfg = NewsvendorConfig()
    rng = np.random.default_rng(0)
    for s in (-5, -1, 0, 4, 10):
        fm = _state_factor_map(cfg, s)
        for _ in range(5):
            xi = rng.dirichlet(np.ones(cfg.n_demand))
            rows = fm.transitions(xi)
            assert np.allclose(rows.sum(axis=1), 1.0)
            assert np.all(rows >= -1e-12)


def test_sampling_zero_noise_returns_truth():
    p = (0.05, 0.4, 0.1, 0.4, 0.05)
    out = sample_training_set(p, 1, np.random.default_rng(0), draws=0)
    assert np.allclose(out[0], p)


def test_sampling_simplex_membership_and_mean():
    p = np.array((0.05, 0.4, 0.1, 0.4, 0.05))
    rng = np.random.default_rng(1)
    samples = np.array(sample_training_set(p, 100_000, rng, draws=20))
    assert np.allclose(samples.sum(axis=1), 1.0)
    assert np.all(samples >= 0.0)
    assert np.max(np.abs(samples.mean(axis=0) - p)) < 0.01


def test_sampling_deterministic_given_seed():
    p = (0.2, 0.3, 0.5)
    a = sample_training_set(p, 4, np.random.default_rng(7))
    b = sample_training_set(p, 4, np.random.default_rng(7))
    assert np.array_equal(np.array(a), np.array(b))


def test_simulate_zero_demand_zero_orders_costs_nothing():
    cfg = NewsvendorConfig(true_dist=(1.0, 0.0, 0.0, 0.0, 0.0))
    model, index = _model_with_index(cfg)
    policy = _fixed_order_policy(cfg, model, index, 0)
    cost = simulate_policy(cfg, policy, index, 200, np.random.default_rng(0))
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_simulate_point_mass_demand_hand_traced():
    # demand is always 1; ordering one unit per period keeps inventory at 0,
    # so the cost over a 3-period horizon is two order placements
    cfg = NewsvendorConfig(horizon=3, true_dist=(0.0, 1.0, 0.0, 0.0, 0.0))
    model, index = _model_with_index(cfg)
    policy = _fixed_order_policy(cfg, model, index, 1)
    cost = simulate_policy(cfg, policy, index, 100, np.random.default_rng(0))
    assert cost == pytest.approx(2.0 * cfg.order_cost, abs=1e-12)


def test_simulation_variance_shrinks_with_runs():
    cfg = NewsvendorConfig()
    model, index = _model_with_index(cfg)
    policy = _fixed_order_policy(cfg, model, index, 2)
    seeds = np.random.SeedSequence(3).spawn(30)
    stds = []
    for runs in (100, 10_000):
        est = [
            simulate_policy(cfg, policy, index, runs, np.random.default_rng(s))
            for s in seeds
        ]
        stds.append(np.std(est))
    ratio = stds[0] / stds[1]
    assert 5.0 < ratio < 20.0  # expect ~10 under 1/sqrt(runs) scaling


def test_zero_radius_equals_mean_sample_dp():
    cfg = NewsvendorConfig(horizon=4)
    rng = np.random.default_rng(4)
    samples = sample_training_set(cfg.true_dist, 5, rng)
    amb = build_wasserstein(samples, 0.0, simplex(cfg.n_demand))
    model, index = build_newsvendor_model(cfg, amb)
    vf, _, _ = backward_induction(model, solver="highs", certificates=False)
    xibar = np.mean(samples, axis=0)
    factors = {sid: xibar for sid in index.values()}
    classical = classical_dp_finite(model, factors)
    assert vf[0] == pytest.approx(classical[0], abs=1e-6)


def test_backward_induction_builds_one_template(monkeypatch):
    import drmdp.reformulation

    builds = []
    template = drmdp.reformulation.SRobustTemplate
    monkeypatch.setattr(
        drmdp.reformulation, "SRobustTemplate", lambda *args: builds.append(args) or template(*args)
    )
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(6))
    solve_order_strategy(cfg, samples, 0.2, solver="highs")
    # every state shares one ambiguity set; action counts run from 1 to 16
    assert len(builds) == 1


def test_fixed_policy_evaluation_reuses_the_template(monkeypatch):
    import drmdp.reformulation

    assemblies = []
    rows = drmdp.reformulation._adversary_rows
    monkeypatch.setattr(
        drmdp.reformulation, "_adversary_rows", lambda amb: assemblies.append(id(amb)) or rows(amb)
    )
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 15, np.random.default_rng(6))
    amb = build_wasserstein(samples, 0.5, simplex(cfg.n_demand), cfg.metric)
    model, _ = build_newsvendor_model(cfg, amb)
    vf, policy, _ = backward_induction(model, solver="highs")
    assert len(assemblies) == 1
    values = evaluate_policy_worst_case(model, policy, solver="highs")
    obj = assemble_stage_objective(vf.values[list(model.stages[1])], model.factor_maps[0])
    drmdp.reformulation.build_srobust_lp(obj, amb)
    # the backups, the 49 fixed-policy LPs and the dumped root LP share one assembly
    assert len(assemblies) == 1
    assert values[0] == pytest.approx(vf[0], abs=1e-8)


def test_progress_follows_repetition_order_for_any_worker_count(monkeypatch):
    import drmdp.newsvendor as newsvendor

    threads = []
    run = newsvendor._run_repetition
    monkeypatch.setattr(
        newsvendor, "_run_repetition", lambda *args: threads.append(threading.get_ident()) or run(*args)
    )
    cfg = NewsvendorConfig(train_sizes=(5,), theta_grid=(0.0, 0.5), repetitions=3, test_runs=50)
    seen, records = {}, {}
    for workers in (1, 2):
        seen[workers] = []
        records[workers] = run_experiment(cfg, workers=workers, progress=seen[workers].append)
        if workers == 1:
            assert set(threads) == {threading.get_ident()}
    assert seen[1] == seen[2] == [0, 1, 2]
    assert records[1].rows == records[2].rows


def test_robust_value_bounds_simulated_cost():
    # worst-case expected cost must upper-bound the simulated cost under the
    # true law whenever the true distribution lies in the ambiguity ball
    cfg = NewsvendorConfig()
    value, policy, index = solve_order_strategy(
        cfg, [np.array(cfg.true_dist)], 0.3, solver="highs"
    )
    cost = simulate_policy(cfg, policy, index, 20_000, np.random.default_rng(5))
    worst_case_cost = -value
    assert cost <= worst_case_cost + 0.15  # Monte Carlo slack


def test_experiment_record_roundtrip(tmp_path):
    rec = ExperimentRecord()
    rec.add(0.0, 5, 0, 12.0)
    rec.add(0.0, 5, 1, 14.0)
    rec.add(0.5, 5, 0, 13.0)
    with pytest.raises(NewsvendorError):
        rec.add(0.5, 5, 1, np.inf)
    agg = rec.aggregate()
    assert agg[0] == (0.0, 5, 13.0, 1.0)
    assert all(row[3] >= 0.0 for row in agg)
    rec.to_csv(tmp_path / "rows.csv")
    rec.aggregate_to_csv(tmp_path / "agg.csv")
    assert (tmp_path / "rows.csv").read_text().splitlines()[0] == "theta,N,repetition,mean_cost"
    assert (tmp_path / "agg.csv").read_text().splitlines()[0] == "theta,N,mean,std"


def test_experiment_deterministic_rerun():
    cfg = NewsvendorConfig(
        repetitions=2, test_runs=50, train_sizes=(3,), theta_grid=(0.0, 0.5), seed=11
    )
    rec1 = run_experiment(cfg)
    rec2 = run_experiment(cfg)
    assert rec1.rows == rec2.rows
    assert not rec1.failures
    assert len(rec1.rows) == 2 * 2


def test_paired_t_statistic_sign():
    rec = ExperimentRecord()
    for rep in range(10):
        rec.add(0.0, 5, rep, 10.0 + 0.1 * rep)
        rec.add(2.0, 5, rep, 11.0 + 0.1 * rep)
    t = paired_t_statistic(rec, 2.0, 0.0, 5)
    assert t > 10.0  # constant positive paired difference


def test_policy_that_does_not_sum_to_one_is_rejected():
    # the dense simplex returns a policy summing to 0 on this LP; normalising
    # it would give a NaN policy, so the backup fails and names its state
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(1), draws=20)
    with pytest.raises(EngineError, match=r"state 1, stage 1: .* policy summing to 0"):
        solve_order_strategy(cfg, samples, 0.0, solver="simplex")
