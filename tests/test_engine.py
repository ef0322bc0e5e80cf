import dataclasses
import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FAMILIES,
    random_infinite_model,
    random_simplex_ambiguity,
    random_staged_model,
    shared_row_factor_map,
    singleton_kernel_model,
)

import drmdp.engine
import drmdp.lp
import drmdp.reformulation
from drmdp.ambiguity import FactorMap, build_support_only, build_wasserstein
from drmdp.engine import (
    DrMdpModel,
    EngineError,
    RandomizedPolicy,
    backward_induction,
    bellman_operator,
    certificate_factors,
    classical_dp_finite,
    evaluate_policy_worst_case,
    value_iteration,
)
from drmdp.geometry import feasibility_check, simplex, singleton
from drmdp.modelfile import parse_model_file
from drmdp.reformulation import assemble_stage_objective, solve_srobust

DATA = Path(drmdp.engine.__file__).parent / "data"


def _chain_model(gamma=0.5, r0=1.0, r1=2.0):
    # state 0 -> state 1 (reward r0), state 1 -> state 1 (reward r1)
    def det_fm(target, reward):
        p_off = np.zeros(2)
        p_off[target] = 1.0
        return FactorMap(1, 2, np.zeros((2, 1)), p_off, np.zeros((1, 1)), [reward])

    amb = build_support_only(singleton([0.0]))
    return DrMdpModel(
        2,
        (det_fm(1, r0), det_fm(1, r1)),
        (amb, amb),
        discount=gamma,
    )


def test_singleton_matches_classical_dp():
    rng = np.random.default_rng(0)
    for _ in range(5):
        model, factors = singleton_kernel_model(rng)
        vf, pol, _ = backward_induction(model)
        classical = classical_dp_finite(model, factors)
        for s in model.stages[0] + model.stages[1]:
            assert vf[s] == pytest.approx(classical[s], abs=1e-8)
        for d in pol.distributions:
            assert d is None or d.sum() == pytest.approx(1.0, abs=1e-9)


def test_two_stage_equals_single_backup():
    rng = np.random.default_rng(1)
    fm = shared_row_factor_map(rng, 2, 2)
    amb = build_wasserstein([[0.3, 0.7]], 0.2, simplex(2))
    model = DrMdpModel(
        3,
        (fm, None, None),
        (amb, None, None),
        stages=((0,), (1, 2)),
        terminal_values=[1.0, -1.0],
    )
    vf, _, _ = backward_induction(model)
    obj = assemble_stage_objective([1.0, -1.0], fm)
    assert vf[0] == pytest.approx(solve_srobust(obj, amb).value, abs=1e-12)


def test_root_value_nonincreasing_in_theta():
    rng = np.random.default_rng(2)
    fm0 = shared_row_factor_map(rng, 2, 2)
    fm_mid = shared_row_factor_map(rng, 2, 2)
    samples = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    prev = np.inf
    for theta in (0.0, 0.2, 0.5, 1.5):
        amb = build_wasserstein(samples, theta, simplex(2))
        model = DrMdpModel(
            5,
            (fm0, fm_mid, fm_mid, None, None),
            (amb, amb, amb, None, None),
            stages=((0,), (1, 2), (3, 4)),
            terminal_values=[2.0, -1.0],
        )
        vf, _, _ = backward_induction(model)
        assert vf[0] <= prev + 1e-7
        prev = vf[0]


def test_saddle_certificate_classical_dp():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model = random_staged_model(rng)
        vf, _, certs = backward_induction(model)
        classical = classical_dp_finite(model, certificate_factors(certs))
        root = model.stages[0][0]
        assert classical[root] == pytest.approx(vf[root], abs=1e-5)


def _affine_reward_staged_model(rng):
    """Three stages with 3 actions per decision state; the factor is the
    shared transition row over 2 next states and the rewards are affine in
    it, so robust policies often randomize."""
    fms, ambs = [None] * 5, [None] * 5
    for s in (0, 1, 2):
        fms[s] = FactorMap(
            3, 2, np.tile(np.eye(2), (3, 1)), np.zeros(6),
            rng.normal(size=(3, 2)), rng.normal(size=3),
        )
        ambs[s] = random_simplex_ambiguity(rng, 2)
    return DrMdpModel(
        5, tuple(fms), tuple(ambs),
        stages=((0,), (1, 2), (3, 4)),
        terminal_values=rng.normal(size=2),
    )


@pytest.mark.parametrize("solver", ["simplex", "highs"])
def test_saddle_certificate_randomized_policies(solver):
    randomized = 0
    for seed in range(20):
        model = _affine_reward_staged_model(np.random.default_rng(seed))
        vf, pol, certs = backward_induction(model, solver=solver)
        randomized += sum(np.max(d) < 0.99 for d in pol.distributions if d is not None)
        classical = classical_dp_finite(model, certificate_factors(certs))
        assert classical[0] == pytest.approx(vf[0], abs=1e-8)
    assert randomized > 0


def test_templates_live_with_the_model(monkeypatch):
    builds = []
    template = drmdp.reformulation.SRobustTemplate
    monkeypatch.setattr(
        drmdp.reformulation, "SRobustTemplate", lambda amb: builds.append(id(amb)) or template(amb)
    )
    model = random_infinite_model(np.random.default_rng(11), 3, 0.6)
    for _ in range(3):
        bellman_operator(model, np.zeros(3))
    assert len(builds) == 3  # one per state, reused across sweeps
    amb = weakref.ref(model.ambiguities[0])
    del model
    gc.collect()
    assert amb() is None


def test_bellman_zero_value_singleton():
    model = _chain_model()
    v, _, _ = bellman_operator(model, np.zeros(2))
    assert v == pytest.approx([1.0, 2.0])


def test_bellman_contraction():
    rng = np.random.default_rng(4)
    for _ in range(20):
        gamma = float(rng.choice([0.5, 0.9]))
        model = random_infinite_model(rng, 2, gamma)
        v1 = rng.normal(size=2) * 5
        v2 = rng.normal(size=2) * 5
        lv1, _, _ = bellman_operator(model, v1)
        lv2, _, _ = bellman_operator(model, v2)
        assert np.max(np.abs(lv1 - lv2)) <= gamma * np.max(np.abs(v1 - v2)) + 1e-9


def test_bellman_monotone():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = random_infinite_model(rng, 2, 0.8)
        v1 = rng.normal(size=2)
        v2 = v1 + rng.uniform(0.0, 2.0, size=2)
        lv1, _, _ = bellman_operator(model, v1)
        lv2, _, _ = bellman_operator(model, v2)
        assert np.all(lv1 <= lv2 + 1e-9)


def test_value_iteration_closed_form_chain():
    model = _chain_model(gamma=0.5, r0=1.0, r1=2.0)
    vf, pol, _ = value_iteration(model, epsilon=1e-6)
    # v(1) = 2 / (1 - 0.5) = 4, v(0) = 1 + 0.5 * 4 = 3
    assert vf.values == pytest.approx([3.0, 4.0], abs=1e-6)
    assert pol.distributions[0] == pytest.approx([1.0])


def test_value_iteration_initialization_independence():
    rng = np.random.default_rng(6)
    model = random_infinite_model(rng, 2, 0.7)
    eps = 1e-4
    vf1, _, _ = value_iteration(model, eps, v0=np.zeros(2))
    vf2, _, _ = value_iteration(model, eps, v0=50.0 * np.ones(2))
    assert np.max(np.abs(vf1.values - vf2.values)) <= 2 * eps


def test_value_iteration_rate():
    model = _chain_model(gamma=0.5)
    _, _, it1 = value_iteration(model, 1e-3)
    _, _, it2 = value_iteration(model, 0.5e-3)
    extra = np.log(2) / np.log(2)  # γ = 0.5
    assert abs((it2 - it1) - extra) <= 1


def test_policy_evaluation_consistency_finite():
    rng = np.random.default_rng(7)
    model = random_staged_model(rng)
    vf, pol, _ = backward_induction(model)
    evals = evaluate_policy_worst_case(model, pol)
    for t, stage in enumerate(model.stages[:-1]):
        for s in stage:
            assert evals[s] == pytest.approx(vf[s], abs=1e-7)
    # random alternative policies never beat the robust value
    for _ in range(5):
        alt = list(pol.distributions)
        for s in model.stages[0] + model.stages[1]:
            k = model.factor_maps[s].n_actions
            alt[s] = rng.dirichlet(np.ones(k))
        evals_alt = evaluate_policy_worst_case(model, RandomizedPolicy(tuple(alt)))
        root = model.stages[0][0]
        assert evals_alt[root] <= vf[root] + 1e-7


def test_policy_evaluation_consistency_infinite():
    rng = np.random.default_rng(8)
    model = random_infinite_model(rng, 2, 0.6)
    eps = 1e-6
    vf, pol, _ = value_iteration(model, eps)
    evals = evaluate_policy_worst_case(model, pol, epsilon=eps)
    assert np.max(np.abs(evals - vf.values)) <= 5 * eps


def test_stationarity_of_converged_values():
    rng = np.random.default_rng(9)
    model = random_infinite_model(rng, 2, 0.6)
    vf, _, _ = value_iteration(model, 1e-9)
    v_again, _, _ = bellman_operator(model, vf.values)
    assert np.max(np.abs(v_again - vf.values)) <= 1e-8


def test_model_validation_errors():
    rng = np.random.default_rng(10)
    fm = shared_row_factor_map(rng, 1, 2)
    amb = build_support_only(simplex(2))
    with pytest.raises(EngineError):
        DrMdpModel(2, (fm, fm), (amb, amb))  # neither horizon given
    with pytest.raises(EngineError):
        DrMdpModel(2, (fm, fm), (amb, amb), discount=1.0)
    with pytest.raises(EngineError):
        DrMdpModel(
            3,
            (fm, None, None),
            (amb, None, None),
            stages=((0, 1), (2,)),  # first stage must be a single state
        )
    with pytest.raises(EngineError):
        RandomizedPolicy(([0.5, 0.6],))


def test_malformed_policies_rejected():
    with pytest.raises(EngineError, match="non-finite"):
        RandomizedPolicy((np.array([np.nan, np.nan]),))
    with pytest.raises(EngineError, match="non-finite"):
        RandomizedPolicy((None, np.array([0.5, np.inf])))
    model = random_staged_model(np.random.default_rng(3))
    _, pol, _ = backward_induction(model)
    for s in (model.stages[0][0], model.stages[-2][-1]):
        dists = list(pol.distributions)
        dists[s] = None
        with pytest.raises(EngineError, match="every decision state"):
            evaluate_policy_worst_case(model, RandomizedPolicy(tuple(dists)))
    with pytest.raises(EngineError, match="every decision state"):
        evaluate_policy_worst_case(model, RandomizedPolicy(pol.distributions[:-1]))


def test_failed_fixed_policy_evaluation_names_state_and_stage(monkeypatch):
    model = random_staged_model(np.random.default_rng(3))
    _, pol, _ = backward_induction(model, solver="highs")
    lp = drmdp.lp
    monkeypatch.setitem(lp._SOLVERS, "highs", lambda prog: lp.LpSolution(lp.NUMERICAL_FAILURE))
    t = model.horizon - 2
    with pytest.raises(EngineError) as err:
        evaluate_policy_worst_case(model, pol, solver="highs")
    assert re.fullmatch(
        rf"backup failed at state {model.stages[t][0]}, stage {t}: fixed-policy LP "
        r"\(\d+ rows × \d+ columns\) ended with status numerical_failure",
        str(err.value),
    ), str(err.value)


def _check_warm_against_cold(monkeypatch):
    """Solve every HiGHS LP warm and cold and compare; record each robust
    backup's saddle gap and the LP sizes each warm model served."""
    lp = drmdp.lp
    served = {}

    def warm_and_cold(prog):
        warm = lp.solve_lp_highs(prog)
        cold = lp.solve_lp_highs(dataclasses.replace(prog, warm=None))
        assert warm.optimal and cold.optimal
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        # a backup's LP reaches the seam as its leading columns
        assert max(lp.residuals(prog.lp(), warm).values()) <= 1e-7
        served.setdefault(prog.warm, set()).add(prog.n_vars)
        return warm

    saddle_gaps = []
    backup = drmdp.engine.solve_srobust

    def checked_backup(obj, amb, solver):
        sol = backup(obj, amb, solver=solver)
        saddle_gaps.append(sol.saddle_residual(obj))
        return sol

    monkeypatch.setitem(lp._SOLVERS, "highs", warm_and_cold)
    monkeypatch.setattr(drmdp.engine, "solve_srobust", checked_backup)
    return served, saddle_gaps


@pytest.mark.parametrize("kind", FAMILIES)
def test_warm_highs_matches_cold_per_backup(monkeypatch, kind):
    served, saddle_gaps = _check_warm_against_cold(monkeypatch)
    rng = np.random.default_rng(FAMILIES.index(kind))
    for model in (
        random_staged_model(rng, kind=kind),
        random_staged_model(rng, mid_states=3, kind=kind, actions=(3, 1, 2)),
        random_infinite_model(rng, kind=kind),
        random_infinite_model(rng, n_states=3, kind=kind, actions=(3, 1, 2)),
    ):
        if model.is_finite:
            vf, pol, _ = backward_induction(model, solver="highs")
        else:
            vf, pol, _ = value_iteration(model, 1e-6, solver="highs")
        # the fixed-policy LPs run on the same warm models
        evals = evaluate_policy_worst_case(model, pol, solver="highs")
        if model.is_finite:
            np.testing.assert_allclose(evals, vf.values, atol=1e-8)
    assert max(saddle_gaps) <= 1e-8
    # the shared sets served LPs with different action counts on one model
    assert None not in served
    assert sum(len(sizes) == 3 for sizes in served.values()) >= 2


# ------------------------- certificates on demand ---------------------------


def _count_point_masses(monkeypatch):
    calls = []
    point_masses = drmdp.reformulation._point_masses
    monkeypatch.setattr(
        drmdp.reformulation, "_point_masses", lambda *a: calls.append(1) or point_masses(*a)
    )
    return calls


def _eager_certificates(monkeypatch):
    """Build every robust backup's certificate as the backup returns;
    returns the certificates in backup order."""
    eager = []
    backup = drmdp.engine.solve_srobust

    def eager_backup(obj, amb, solver):
        sol = backup(obj, amb, solver=solver)
        eager.append(sol.certificate)
        return sol

    monkeypatch.setattr(drmdp.engine, "solve_srobust", eager_backup)
    return eager


def _same_certificate(a, b):
    for x, y in ((a.weights, b.weights), (a.means, b.means)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_certificates_are_built_only_when_asked(monkeypatch):
    calls = _count_point_masses(monkeypatch)
    for kind in FAMILIES:
        rng = np.random.default_rng(FAMILIES.index(kind))
        staged, infinite = random_staged_model(rng, kind=kind), random_infinite_model(rng, kind=kind)
        backward_induction(staged, solver="highs", certificates=False)
        _, _, its = value_iteration(infinite, 1e-6, solver="highs")
        assert its > 1
        _, _, certs = bellman_operator(infinite, np.zeros(infinite.n_states))
        assert not calls
        # looked up, a certificate is built once
        assert certs[0] is certs[0] and len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("kind", FAMILIES)
def test_lazy_certificates_equal_eager_ones(monkeypatch, kind):
    def run():
        rng = np.random.default_rng(10 + FAMILIES.index(kind))
        staged, infinite = random_staged_model(rng, kind=kind), random_infinite_model(rng, kind=kind)
        _, _, staged_certs = backward_induction(staged, solver="highs")
        vf, _, _ = value_iteration(infinite, 1e-6, solver="highs")
        _, _, operator_certs = bellman_operator(infinite, vf.values)
        return [staged_certs[s] for s in sorted(staged_certs)], [
            operator_certs[s] for s in sorted(operator_certs)
        ]

    lazy_staged, lazy_operator = run()
    eager = _eager_certificates(monkeypatch)
    eager_staged, eager_operator = run()
    assert len(eager) > len(lazy_staged) + len(lazy_operator)
    for lazy, ref in zip(lazy_staged + lazy_operator, eager_staged + eager_operator):
        _same_certificate(lazy, ref)


def test_fixed_policy_certificate_unchanged_by_later_backups():
    from drmdp.reformulation import StageObjective, _fixed_policy_backup, worst_case_expectation

    def backups():
        rng = np.random.default_rng(4)
        amb = random_simplex_ambiguity(rng, 3, "wasserstein")
        objs = [StageObjective(rng.normal(size=k), rng.normal(size=(k, 3))) for k in (2, 3, 1)]
        return amb, objs, [rng.dirichlet(np.ones(o.n_actions)) for o in objs]

    amb, objs, pis = backups()
    lazy = [_fixed_policy_backup(o, amb, pi, "highs") for o, pi in zip(objs, pis)]
    amb, objs, pis = backups()
    eager = [worst_case_expectation(o, amb, pi) for o, pi in zip(objs, pis)]
    for sol, (value, cert) in zip(lazy, eager):
        assert sol.value == value
        _same_certificate(sol.certificate, cert)


@pytest.mark.parametrize("pinned", [False, True])
def test_backup_errors_name_the_lp_and_its_shape(monkeypatch, pinned):
    from drmdp.reformulation import ReformulationError, StageObjective, _template, worst_case_expectation

    amb = build_wasserstein([[0.2, 0.8], [0.6, 0.4]], 0.15, simplex(2))
    obj = StageObjective([0.1, 0.2, 0.3], np.ones((3, 2)))
    lp, _ = _template(amb).instantiate(obj)
    name = "fixed-policy LP" if pinned else "robust LP"
    lp_module = drmdp.lp
    for status, tail in (
        (lp_module.UNBOUNDED, "is unbounded: the ambiguity set admits no distribution"),
        (lp_module.NUMERICAL_FAILURE, "ended with status numerical_failure"),
    ):
        monkeypatch.setitem(lp_module._SOLVERS, "highs", lambda prog: lp_module.LpSolution(status))
        with pytest.raises(ReformulationError) as err:
            if pinned:
                worst_case_expectation(obj, amb, [0.2, 0.3, 0.5])
            else:
                solve_srobust(obj, amb)
        assert str(err.value) == f"{name} ({lp.n_rows} rows × {lp.n_vars} columns) {tail}"


def test_warm_backups_keep_their_basis(monkeypatch):
    # a count, not a clock: a set's backups re-solve from the basis the
    # previous one left, so a converging value iteration barely pivots
    model = parse_model_file(DATA / "infinite_two_state.yaml").build()
    highs = drmdp.lp._SOLVERS["highs"]
    solves = []

    def counted(request):
        solves.append(highs(request))
        return solves[-1]

    monkeypatch.setitem(drmdp.lp._SOLVERS, "highs", counted)
    _, _, sweeps = value_iteration(model, 1e-6)
    assert len(solves) == sweeps * model.n_states == 290
    assert sum(sol.iterations for sol in solves) <= 10


def test_zero_weight_scenario_sits_at_a_point_of_its_support(monkeypatch):
    # a TV budget of 2 moves all weight onto the sample at 0.2
    model = parse_model_file(DATA / "boundary_weights.yaml").build()
    witnesses = []

    def witness(dset):
        found = feasibility_check(dset)
        witnesses.append((dset, found[1]))
        return found

    monkeypatch.setattr(drmdp.reformulation, "feasibility_check", witness)
    values, _, certs = backward_induction(model, certificates=True)
    cert = certs[0]
    assert cert.weights.tolist() == [1.0, 0.0]
    support = model.ambiguities[0].supports[1]
    assert [dset for dset, _ in witnesses] == [support]
    assert np.array_equal(cert.means[1], witnesses[0][1])
    assert support.contains(cert.means[1], tol=1e-9)
    assert values[0] == pytest.approx(0.2, abs=1e-12)
    saddle = classical_dp_finite(model, certificate_factors(certs))[0] - values[0]
    assert abs(saddle) <= 1e-12
