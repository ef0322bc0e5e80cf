import dataclasses
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


def _loop_state_factor_map(cfg, s):
    """The factor map built one (order, demand) pair at a time with scalar
    clamps: the reference for `_state_factor_map`."""
    invs = cfg.inventories
    n_next, n_actions = len(invs), cfg.s_max - s + 1
    p_mat = np.zeros((n_actions * n_next, cfg.n_demand))
    r_offset = np.zeros(n_actions)
    for a in range(n_actions):
        for d in range(cfg.n_demand):
            p_mat[a * n_next + invs.index(int(cfg.clamp(s + a - d))), d] += 1.0
        r_offset[a] = -cfg.period_cost(s, a)
    return p_mat, r_offset


@pytest.mark.parametrize(
    "cfg",
    [
        NewsvendorConfig(),
        NewsvendorConfig(s_min=-2, s_max=4, order_cost=1.5, holding_cost=0.5,
                         backorder_cost=4.0, true_dist=(0.1, 0.2, 0.3, 0.15, 0.15, 0.1)),
    ],
)
def test_factor_maps_match_the_loop_reference(cfg):
    for s in cfg.inventories:
        fm = _state_factor_map(cfg, s)
        p_mat, r_offset = _loop_state_factor_map(cfg, s)
        assert fm.n_actions == cfg.s_max - s + 1 and fm.n_next == len(cfg.inventories)
        assert fm.p_mat.tobytes() == p_mat.tobytes() and fm.p_mat.shape == p_mat.shape
        assert fm.r_offset.tobytes() == r_offset.tobytes()
        assert not fm.p_offset.any() and not fm.r_mat.any()


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


def test_sampling_simplex_membership_and_mean():
    p = np.array((0.05, 0.4, 0.1, 0.4, 0.05))
    rng = np.random.default_rng(1)
    samples = np.array(sample_training_set(p, 100_000, rng))
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


def test_default_backend_solves_the_paper_sized_zero_radius_case():
    # the dense simplex fails on these backups; called without a solver,
    # the robust value at θ = 0 is classical DP at the sample mean
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(1))
    value, _, index = solve_order_strategy(cfg, samples, 0.0)
    amb = build_wasserstein(samples, 0.0, simplex(cfg.n_demand))
    model, _ = build_newsvendor_model(cfg, amb)
    xibar = np.mean(samples, axis=0)
    classical = classical_dp_finite(model, {sid: xibar for sid in index.values()})
    assert value == pytest.approx(classical[0], abs=1e-6)


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
    import drmdp.lp
    import drmdp.reformulation

    assemblies = []
    rows = drmdp.reformulation._adversary_rows
    monkeypatch.setattr(
        drmdp.reformulation, "_adversary_rows", lambda amb: assemblies.append(id(amb)) or rows(amb)
    )
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 15, np.random.default_rng(6))
    amb = build_wasserstein(samples, 0.5, simplex(cfg.n_demand))
    model, _ = build_newsvendor_model(cfg, amb)
    vf, policy, _ = backward_induction(model, solver="highs")
    assert len(assemblies) == 1
    highs_models = []
    highs_cls = drmdp.lp._Highs
    monkeypatch.setattr(drmdp.lp, "_Highs", lambda: highs_models.append(1) or highs_cls())
    values = evaluate_policy_worst_case(model, policy, solver="highs")
    obj = assemble_stage_objective(vf.values[list(model.stages[1])], model.factor_maps[0])
    drmdp.reformulation.build_srobust_lp(obj, amb)
    # the backups, the 49 fixed-policy LPs and the dumped root LP share one assembly
    assert len(assemblies) == 1
    # and the fixed-policy LPs run on the set's warm model, not on fresh ones
    assert highs_models == []
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


@pytest.mark.parametrize("missing", [{2.0: 2}, {0.0: 1, 2.0: 3}])
def test_paired_t_statistic_pairs_repetitions_by_index(missing):
    # failed cells leave repetitions out; the others pair by their index
    rec = ExperimentRecord()
    diffs = {}
    for rep in range(5):
        base = 10.0 + rep**2
        diffs[rep] = 1.0 + 0.1 * rep
        for theta, cost in ((0.0, base), (2.0, base + diffs[rep])):
            if missing.get(theta) != rep:
                rec.add(theta, 5, rep, cost)
    shared = np.array([d for rep, d in diffs.items() if rep not in missing.values()])
    want = shared.mean() / (shared.std(ddof=1) / np.sqrt(len(shared)))
    assert paired_t_statistic(rec, 2.0, 0.0, 5) == pytest.approx(want, rel=1e-12)
    assert paired_t_statistic(rec, 0.0, 2.0, 5) == pytest.approx(-want, rel=1e-12)
    # with the difference +1 on every shared repetition, t is +inf
    flat = ExperimentRecord()
    for theta, n, rep, _ in rec.rows:
        flat.add(theta, n, rep, 10.0 + rep**2 + (theta > 0))
    assert paired_t_statistic(flat, 2.0, 0.0, 5) == np.inf


def test_paired_t_statistic_needs_two_pairs():
    rec = ExperimentRecord()
    rec.add(0.0, 5, 0, 10.0)
    rec.add(0.0, 5, 1, 11.0)
    rec.add(2.0, 5, 1, 12.0)
    assert np.isnan(paired_t_statistic(rec, 2.0, 0.0, 5))


def test_failed_cell_is_recorded_and_the_run_goes_on(monkeypatch):
    import drmdp.newsvendor as newsvendor

    solve = newsvendor.solve_order_strategy

    def failing(cfg, samples, theta, solver):
        if theta == 0.5:
            raise EngineError("backup failed")
        return solve(cfg, samples, theta, solver=solver)

    monkeypatch.setattr(newsvendor, "solve_order_strategy", failing)
    cfg = NewsvendorConfig(train_sizes=(3,), theta_grid=(0.0, 0.5), repetitions=2, test_runs=20)
    record = run_experiment(cfg)
    assert record.failures == [(0.5, 3, rep, "backup failed") for rep in range(2)]
    assert [row[:3] for row in record.rows] == [(0.0, 3, 0), (0.0, 3, 1)]


def test_policy_that_does_not_sum_to_one_is_rejected(monkeypatch):
    # a robust LP reported optimal with a policy summing to 0: normalising
    # it would give a NaN policy, so the backup fails and names its state
    import drmdp.lp

    highs = drmdp.lp._SOLVERS["highs"]

    def zero_policy(lp, warm):
        sol = highs(lp, warm)
        if sol.optimal and warm is not None:  # robust LPs: π columns lead
            x = sol.x.copy()
            x[: lp.n_vars - warm.n_shared] = 0.0
            sol = dataclasses.replace(sol, x=x)
        return sol

    monkeypatch.setitem(drmdp.lp._SOLVERS, "highs", zero_policy)
    # three periods: state 1, stage 1 is the first backup
    cfg = NewsvendorConfig(horizon=3)
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(1))
    with pytest.raises(EngineError, match=r"state 1, stage 1: .* policy summing to 0"):
        solve_order_strategy(cfg, samples, 0.0)


def test_simplex_reports_its_wrong_optimum_as_a_numerical_failure():
    # the dense simplex ends this robust LP at a basis with a policy summing
    # to 0 and residual 0.021; the residual check turns it into a failure
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 5, np.random.default_rng(1))
    with pytest.raises(
        EngineError,
        match=r"state 1, stage 1: robust LP \(57 rows × 104 columns\) ended with status numerical_failure",
    ):
        solve_order_strategy(cfg, samples, 0.0, solver="simplex")
