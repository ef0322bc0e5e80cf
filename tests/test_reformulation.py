import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from drmdp.ambiguity import (
    FactorMap,
    MixtureComponent,
    build_hybrid_wasserstein_mad,
    build_mixture,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
    identity_factor_map,
)
from drmdp.geometry import box, enumerate_vertices, simplex, singleton
import drmdp.lp
from drmdp.lp import WarmHighs, get_solver, solve_lp
from drmdp.reformulation import (
    ReformulationError,
    StageObjective,
    assemble_stage_objective,
    build_srobust_lp,
    oracle_worst_case,
    solve_srobust,
    worst_case_expectation,
)


def _random_factor_map(rng, n_actions, n_next, dim):
    return FactorMap(
        n_actions,
        n_next,
        rng.normal(size=(n_actions * n_next, dim)),
        rng.normal(size=n_actions * n_next),
        rng.normal(size=(n_actions, dim)),
        rng.normal(size=n_actions),
    )


# --------------------------- stage objective -------------------------------


def test_stage_objective_zero_continuation():
    fm = identity_factor_map(2, 2)
    obj = assemble_stage_objective(np.zeros(2), fm)
    xi = np.array([0.1, 0.9, 0.5, 0.5, 3.0, -1.0])
    assert obj.evaluate([1.0, 0.0], xi) == pytest.approx(3.0)
    assert obj.evaluate([0.0, 1.0], xi) == pytest.approx(-1.0)


def test_stage_objective_matches_direct_expansion():
    rng = np.random.default_rng(0)
    for _ in range(10):
        fm = _random_factor_map(rng, 2, 2, 3)
        v = rng.normal(size=2)
        gamma = rng.uniform(0.3, 1.0)
        obj = assemble_stage_objective(v, fm, discount=gamma)
        for _ in range(10):
            pi = rng.dirichlet(np.ones(2))
            xi = rng.normal(size=3)
            direct = float(fm.rewards(xi) @ pi) + gamma * float(
                pi @ (fm.transitions(xi) @ v)
            )
            assert obj.evaluate(pi, xi) == pytest.approx(direct, abs=1e-10)


def test_stage_objective_superposition_in_policy():
    rng = np.random.default_rng(1)
    fm = _random_factor_map(rng, 3, 2, 2)
    obj = assemble_stage_objective(rng.normal(size=2), fm, discount=0.9)
    basis = np.eye(3)
    pi = np.array([0.2, 0.3, 0.5])
    xi = rng.normal(size=2)
    combo = sum(pi[a] * obj.evaluate(basis[a], xi) for a in range(3))
    assert obj.evaluate(pi, xi) == pytest.approx(combo, abs=1e-12)


def test_stage_objective_dimension_mismatch():
    fm = identity_factor_map(2, 2)
    with pytest.raises(ReformulationError):
        assemble_stage_objective(np.zeros(3), fm)


# --------------------------- fixed-policy worst case -----------------------


def test_singleton_everything():
    obj = StageObjective([2.0], [[1.0, -1.0]])
    amb = build_support_only(singleton([0.3, 0.4]))
    v, cert = worst_case_expectation(obj, amb, [1.0])
    assert v == pytest.approx(1.9, abs=1e-9)
    assert cert.weights == pytest.approx([1.0])
    assert cert.means[0] == pytest.approx([0.3, 0.4], abs=1e-9)


def test_support_only_simplex_minimum():
    obj = StageObjective([0.5], [[3.0, 1.0, 2.0]])
    amb = build_support_only(simplex(3))
    v, cert = worst_case_expectation(obj, amb, [1.0])
    assert v == pytest.approx(1.5, abs=1e-9)
    assert cert.means[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-8)


def test_support_only_box_vertex():
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.normal(size=2)
        obj = StageObjective([0.0], c.reshape(1, 2))
        d = box([-1, 0], [1, 2])
        amb = build_support_only(d)
        v, _ = worst_case_expectation(obj, amb, [1.0])
        verts = enumerate_vertices(d).vertices
        assert v == pytest.approx(min(verts @ c), abs=1e-8)


def test_wasserstein_transport_example():
    obj = StageObjective([0.0], [[1.0]])
    amb = build_wasserstein([[0.5]], 0.3, box([0.0], [1.0]))
    v, cert = worst_case_expectation(obj, amb, [1.0])
    assert v == pytest.approx(0.2, abs=1e-9)
    assert cert.means[0] == pytest.approx([0.2], abs=1e-8)


def test_wasserstein_limits():
    rng = np.random.default_rng(3)
    d = simplex(3)
    samples = [rng.dirichlet(np.ones(3)) for _ in range(3)]
    c = rng.normal(size=3)
    obj = StageObjective([0.0], c.reshape(1, 3))
    # θ=0: empirical average
    amb0 = build_wasserstein(samples, 0.0, d)
    v0, _ = worst_case_expectation(obj, amb0, [1.0])
    assert v0 == pytest.approx(np.mean([c @ s for s in samples]), abs=1e-7)
    # θ ≥ diameter: classical robust value over the support
    amb_big = build_wasserstein(samples, 2.0, d)
    v_big, _ = worst_case_expectation(obj, amb_big, [1.0])
    v_rob, _ = worst_case_expectation(obj, build_support_only(d), [1.0])
    assert v_big == pytest.approx(v_rob, abs=1e-7)


def test_tv_limits():
    samples = [[0.0], [1.0], [4.0]]
    obj = StageObjective([0.0], [[1.0]])
    amb0 = build_phi_divergence_tv(samples, 0.0)
    v0, _ = worst_case_expectation(obj, amb0, [1.0])
    assert v0 == pytest.approx(5.0 / 3.0, abs=1e-8)
    # θ past the TV diameter: (floored) worst sample
    ambf = build_phi_divergence_tv(samples, 2.0)
    vf, cert = worst_case_expectation(obj, ambf, [1.0])
    assert vf == pytest.approx(0.0, abs=1e-6)


def test_mixture_fixed_weights():
    comps = [
        MixtureComponent(singleton([1.0])),
        MixtureComponent(singleton([-2.0])),
    ]
    amb = build_mixture(comps, singleton([0.4, 0.6]))
    obj = StageObjective([0.0], [[1.0]])
    v, _ = worst_case_expectation(obj, amb, [1.0])
    assert v == pytest.approx(0.4 * 1.0 + 0.6 * (-2.0), abs=1e-9)


def test_uncertain_mean_reductions():
    d = box([0, 0], [1, 1])
    c = np.array([2.0, -1.0])
    obj = StageObjective([0.0], c.reshape(1, 2))
    # pinned mean: linear objective at μ0
    amb = build_uncertain_mean(d, [0, 0], [1, 1], [0.4, 0.6], 0.0)
    v, _ = worst_case_expectation(obj, amb, [1.0])
    assert v == pytest.approx(c @ [0.4, 0.6], abs=1e-8)
    # huge radius over the full box: support-only value
    amb_big = build_uncertain_mean(d, [0, 0], [1, 1], [0.5, 0.5], 10.0)
    v_big, _ = worst_case_expectation(obj, amb_big, [1.0])
    v_sup, _ = worst_case_expectation(obj, build_support_only(d), [1.0])
    assert v_big == pytest.approx(v_sup, abs=1e-8)


def test_hybrid_reductions():
    d = box([0, 0], [1, 1])
    samples = [[0.3, 0.3], [0.7, 0.7]]
    c = np.array([1.0, 2.0, 0.0])  # zero weight on the augmented coordinate
    obj = StageObjective([0.0], c.reshape(1, 3))
    obj_base = StageObjective([0.0], c[:2].reshape(1, 2))
    # inactive deviation bound and free mean box: plain transport value
    amb = build_hybrid_wasserstein_mad(samples, 0.2, d, 1, [0, 0], [1, 1], np.inf)
    v, _ = worst_case_expectation(obj, amb, [1.0])
    vw, _ = worst_case_expectation(obj_base, build_wasserstein(samples, 0.2, d, 1), [1.0])
    assert v == pytest.approx(vw, abs=1e-7)
    # transport budget at the diameter, mean pinned: uncertain-mean value
    amb2 = build_hybrid_wasserstein_mad(samples, 4.0, d, 1, [0.5, 0.5], [0.5, 0.5], np.inf)
    v2, _ = worst_case_expectation(obj, amb2, [1.0])
    vm, _ = worst_case_expectation(
        obj_base, build_uncertain_mean(d, [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], 0.0), [1.0]
    )
    assert v2 == pytest.approx(vm, abs=1e-7)
    # both constraints active: at least each single-constraint value
    amb3 = build_hybrid_wasserstein_mad(samples, 0.2, d, 1, [0.45, 0.45], [0.55, 0.55], 0.1)
    v3, _ = worst_case_expectation(obj, amb3, [1.0])
    assert v3 >= vw - 1e-8


# --------------------------- robust policy LP ------------------------------


def test_srobust_support_only_matches_vertex_maximin():
    rng = np.random.default_rng(4)
    d = box([0.0, 0.0], [1.0, 1.0])
    verts = enumerate_vertices(d).vertices
    for _ in range(5):
        c_mat = rng.normal(size=(3, 2))
        kappa = rng.normal(size=3)
        obj = StageObjective(kappa, c_mat)
        amb = build_support_only(d)
        sol = solve_srobust(obj, amb)
        # maximin over the vertex set via a small LP on π
        from drmdp.lp import EQ, LE, make_lp

        rows = [(-(kappa + c_mat @ v), LE, 0.0) for v in verts]
        rows = [(np.concatenate([r[0], [1.0]]), LE, 0.0) for r in rows]
        rows.append((np.concatenate([np.ones(3), [0.0]]), EQ, 1.0))
        ref = make_lp(
            "max",
            np.concatenate([np.zeros(3), [1.0]]),
            rows,
            bounds=[(0, np.inf)] * 3 + [(-np.inf, np.inf)],
        )
        ref_sol = solve_lp(ref)
        assert sol.value == pytest.approx(ref_sol.value, abs=1e-7)
        assert sol.saddle_residual(obj) <= 1e-6


def test_fixed_policy_consistency():
    rng = np.random.default_rng(5)
    d = simplex(3)
    samples = [rng.dirichlet(np.ones(3)) for _ in range(2)]
    cases = [
        (build_wasserstein(samples, 0.2, d),
         StageObjective(rng.normal(size=2), rng.normal(size=(2, 3)))),
        *_saddle_cases(),
        (build_phi_divergence_tv([[0.0, 1.0], [1.0, 0.5], [0.3, 0.2]], 0.4),
         StageObjective(rng.normal(size=3), rng.normal(size=(3, 2)))),
        (build_uncertain_mean(box([0, 0], [1, 1]), [0, 0], [1, 1], [0.4, 0.6], 0.3),
         StageObjective(rng.normal(size=2), rng.normal(size=(2, 2)))),
    ]
    for amb, obj in cases:
        lp, cols = build_srobust_lp(obj, amb)
        for _ in range(3):
            pi = rng.dirichlet(np.ones(obj.n_actions))
            lb, ub = lp.lb.copy(), lp.ub.copy()
            lb[cols["pi"]] = pi
            ub[cols["pi"]] = pi
            pinned = dataclasses.replace(lp, lb=lb, ub=ub)
            for solver in ("simplex", "highs"):
                v_lp = get_solver(solver)(pinned).value
                v_adv, _ = worst_case_expectation(obj, amb, pi, solver=solver)
                assert v_lp == pytest.approx(v_adv, abs=1e-8)


def test_policy_optimality_against_alternatives():
    rng = np.random.default_rng(6)
    amb = build_wasserstein([[0.2, 0.8], [0.6, 0.4]], 0.15, simplex(2))
    obj = StageObjective(rng.normal(size=3), rng.normal(size=(3, 2)))
    sol = solve_srobust(obj, amb)
    for _ in range(50):
        alt = rng.dirichlet(np.ones(3))
        v_alt, _ = worst_case_expectation(obj, amb, alt)
        assert v_alt <= sol.value + 1e-7
    assert sol.gamma and all(np.all(g >= -1e-12) for g in sol.gamma.values())


def _saddle_cases():
    """(ambiguity set, stage objective) pairs; the last two have robust
    policies that randomize over actions."""
    for amb, seed in (
        (build_wasserstein([[0.3], [0.8]], 0.1, box([0.0], [1.0])), 7),
        (build_support_only(box([0.0, 0.0], [1.0, 1.0])), 1),
        (build_wasserstein([[0.2, 0.8], [0.6, 0.4]], 0.15, simplex(2)), 2),
    ):
        rng = np.random.default_rng(seed)
        obj = StageObjective(rng.normal(size=3), rng.normal(size=(3, amb.factor_dim)))
        yield amb, obj


def test_saddle_point_property():
    randomized = 0
    for amb, obj in _saddle_cases():
        for solver in ("simplex", "highs"):
            sol = solve_srobust(obj, amb, solver=solver)
            randomized += int(np.max(sol.policy) < 0.99)
            # with the adversary frozen at the certificate, no policy beats v
            mean_bar = sol.certificate.weights @ sol.certificate.means
            action_values = obj.kappa_vec + obj.c_mat @ mean_bar
            assert max(action_values) == pytest.approx(sol.value, abs=1e-8)
            assert sol.saddle_residual(obj) <= 1e-8
            # and the certificate is a worst case for the robust policy
            worst = sol.certificate.expectation(obj, sol.policy)
            assert worst == pytest.approx(sol.value, abs=1e-8)
    assert randomized == 4


def test_linprog_fallback_duals_give_the_same_certificate(monkeypatch):
    import drmdp.lp

    direct = [solve_srobust(obj, amb, solver="highs") for amb, obj in _saddle_cases()]
    monkeypatch.setattr(drmdp.lp, "_HIGHS_DIRECT", None)
    calls = []
    fallback = drmdp.lp._solve_lp_highs_public
    monkeypatch.setattr(
        drmdp.lp, "_solve_lp_highs_public", lambda lp: calls.append(lp) or fallback(lp)
    )
    for (amb, obj), ref in zip(_saddle_cases(), direct):
        sol = solve_srobust(obj, amb, solver="highs")
        assert sol.value == pytest.approx(ref.value, abs=1e-9)
        np.testing.assert_allclose(sol.policy, ref.policy, atol=1e-8)
        # the worst case need not be unique, so scenario means may differ;
        # the weights and the mixture mean, which prices every action, agree
        cert, ref_cert = sol.certificate, ref.certificate
        np.testing.assert_allclose(cert.weights, ref_cert.weights, atol=1e-8)
        np.testing.assert_allclose(cert.mean, ref_cert.mean, atol=1e-8)
        assert cert.expectation(obj, sol.policy) == pytest.approx(sol.value, abs=1e-8)
        assert sol.saddle_residual(obj) <= 1e-8
        assert sol.saddle_residual(obj) == pytest.approx(ref.saddle_residual(obj), abs=1e-9)
    assert len(calls) == len(direct)


def _shared_set_sequences():
    """Per _saddle_cases set, three objectives with 3, 1 and 2 actions."""
    for amb, obj in _saddle_cases():
        rng = np.random.default_rng(obj.n_actions + amb.n_scenarios)
        d = amb.factor_dim
        more = (StageObjective(rng.normal(size=k), rng.normal(size=(k, d))) for k in (1, 2))
        yield amb, [obj, *more]


def _solve_sequences(solver):
    sequences = _shared_set_sequences()
    return [[solve_srobust(o, amb, solver=solver) for o in objs] for amb, objs in sequences]


def _same_solution(sol, ref, obj):
    assert sol.value == pytest.approx(ref.value, abs=1e-9)
    np.testing.assert_allclose(sol.policy, ref.policy, atol=1e-8)
    np.testing.assert_allclose(sol.certificate.weights, ref.certificate.weights, atol=1e-8)
    np.testing.assert_allclose(sol.certificate.mean, ref.certificate.mean, atol=1e-8)
    assert sol.saddle_residual(obj) <= 1e-8


def test_cold_adapter_when_the_highs_class_is_missing(monkeypatch):
    warm = _solve_sequences("highs")
    monkeypatch.setattr(drmdp.lp, "_HIGHS_MODEL", None)
    wrapper, *rest = drmdp.lp._HIGHS_DIRECT
    calls = []
    monkeypatch.setattr(
        drmdp.lp, "_HIGHS_DIRECT", (lambda *args: calls.append(1) or wrapper(*args), *rest)
    )
    n = 0
    for (amb, objs), refs in zip(_shared_set_sequences(), warm):
        for obj, ref in zip(objs, refs):
            _same_solution(solve_srobust(obj, amb, solver="highs"), ref, obj)
            n += 1
        assert amb._template.warm._highs is None
    assert len(calls) == n


def test_failed_warm_run_is_retried_cold(monkeypatch):
    model_status = drmdp.lp._HIGHS_DIRECT[1]
    run = WarmHighs._run
    runs = []

    def flaky(self):
        # a model's first run and the retry after a stall succeed; every
        # other run (one warm-started by a column swap) stalls
        status, its = run(self)
        stall = bool(runs) and runs[-1] == "ok"
        runs.append("stalled" if stall else "ok")
        return (model_status.kIterationLimit if stall else status), its

    cold = _solve_sequences("simplex")
    monkeypatch.setattr(WarmHighs, "_run", flaky)
    for (amb, objs), refs in zip(_shared_set_sequences(), cold):
        runs.clear()
        for obj, ref in zip(objs, refs):
            _same_solution(solve_srobust(obj, amb, solver="highs"), ref, obj)
        assert runs == ["ok"] + ["stalled", "ok"] * (len(objs) - 1)


def test_warm_failure_reported_after_the_cold_retry(monkeypatch):
    model_status = drmdp.lp._HIGHS_DIRECT[1]
    runs = []

    def stalled(self):
        runs.append(1)
        return model_status.kIterationLimit, 0

    amb, obj = next(_saddle_cases())
    solve_srobust(obj, amb, solver="highs")
    monkeypatch.setattr(WarmHighs, "_run", stalled)
    with pytest.raises(ReformulationError, match="ended with status numerical_failure"):
        solve_srobust(obj, amb, solver="highs")
    assert len(runs) == 2


def test_scale_equivariance():
    rng = np.random.default_rng(8)
    amb = build_wasserstein([[0.2, 0.8]], 0.1, simplex(2))
    kappa, c = rng.normal(size=2), rng.normal(size=(2, 2))
    sol = solve_srobust(StageObjective(kappa, c), amb)
    lam = 3.7
    sol_scaled = solve_srobust(StageObjective(lam * kappa, lam * c), amb)
    assert sol_scaled.value == pytest.approx(lam * sol.value, abs=1e-8)
    v_cross, _ = worst_case_expectation(
        StageObjective(lam * kappa, lam * c), amb, sol.policy
    )
    assert v_cross == pytest.approx(sol_scaled.value, abs=1e-8)


def test_theta_monotonicity():
    rng = np.random.default_rng(9)
    d = simplex(3)
    samples = [rng.dirichlet(np.ones(3)) for _ in range(2)]
    obj = StageObjective(rng.normal(size=2), rng.normal(size=(2, 3)))
    prev = np.inf
    for theta in (0.0, 0.1, 0.3, 0.8, 2.0):
        sol = solve_srobust(obj, build_wasserstein(samples, theta, d))
        assert sol.value <= prev + 1e-7
        prev = sol.value


# --------------------------- oracle ----------------------------------------


def test_oracle_exact_on_singletons():
    obj = StageObjective([0.0], [[1.5, -0.5]])
    amb = build_phi_divergence_tv([[0.0, 1.0], [1.0, 0.0]], 0.4)
    pi = [1.0]
    v, _ = worst_case_expectation(obj, amb, pi)
    assert oracle_worst_case(obj, amb, pi, 0.1) == pytest.approx(v, abs=1e-7)


def test_oracle_exact_on_box_vertices():
    obj = StageObjective([0.0], [[1.0, -2.0]])
    amb = build_support_only(box([0, 0], [1, 1]))
    v, _ = worst_case_expectation(obj, amb, [1.0])
    assert oracle_worst_case(obj, amb, [1.0], 0.5) == pytest.approx(v, abs=1e-9)


def test_oracle_sandwich_wasserstein():
    rng = np.random.default_rng(10)
    d = box([0, 0], [1, 1])
    samples = [[0.25, 0.5], [0.75, 0.5]]
    step = 0.05
    for _ in range(3):
        c = rng.normal(size=(1, 2))
        obj = StageObjective([0.0], c)
        amb = build_wasserstein(samples, rng.uniform(0.1, 0.5), d)
        v, _ = worst_case_expectation(obj, amb, [1.0])
        v_oracle = oracle_worst_case(obj, amb, [1.0], step)
        lip = np.abs(c).max()
        assert v - 1e-9 <= v_oracle <= v + lip * step * np.sqrt(2) + 1e-9
    with pytest.raises(ReformulationError):
        oracle_worst_case(obj, build_wasserstein([[0.1] * 2] * 5, 0.1, d), [1.0], 0.5)


def test_mixture_two_boxes_vs_oracle():
    comps = [
        MixtureComponent(box([0.0], [0.4])),
        MixtureComponent(box([0.6], [1.0])),
    ]
    from drmdp.geometry import PolyhedralSet

    w = PolyhedralSet(
        2,
        [([1, 0], 0.7), ([-1, 0], -0.3), ([0, 1], 0.7), ([0, -1], -0.3)],
        [([1, 1], 1.0)],
    )
    amb = build_mixture(comps, w)
    obj = StageObjective([0.0], [[1.0]])
    v, _ = worst_case_expectation(obj, amb, [1.0])
    assert oracle_worst_case(obj, amb, [1.0], 0.05) == pytest.approx(v, abs=5e-2)
    # adversary puts max weight (0.7) on the lower box at its bottom
    assert v == pytest.approx(0.7 * 0.0 + 0.3 * 0.6, abs=1e-8)


def test_invalid_policy_rejected():
    obj = StageObjective([0.0], [[1.0]])
    amb = build_support_only(box([0.0], [1.0]))
    with pytest.raises(ReformulationError):
        worst_case_expectation(obj, amb, [0.5])


@pytest.mark.parametrize("solver", ["simplex", "highs"])
def test_non_finite_or_misshapen_policy_rejected(solver):
    obj = StageObjective([0.0, 1.0], [[1.0], [-1.0]])
    amb = build_support_only(box([0.0], [1.0]))
    for pi in ([np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf], [1.0], [0.5, 0.25, 0.25]):
        with pytest.raises(ReformulationError, match="finite entries"):
            worst_case_expectation(obj, amb, pi, solver=solver)
    v, _ = worst_case_expectation(obj, amb, [0.5, 0.5], solver=solver)
    assert v == pytest.approx(0.5)


def test_set_and_template_free_without_the_cycle_collector():
    obj = StageObjective([0.0, 0.5], [[1.0, -1.0], [0.0, 1.0]])
    amb = build_wasserstein([np.array([0.2, 0.8]), np.array([0.6, 0.4])], 0.3, simplex(2), 1)
    solve_srobust(obj, amb)
    refs = (weakref.ref(amb), weakref.ref(amb._template))
    gc.disable()
    try:
        del amb
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_set_template_and_warm_model_free_without_the_cycle_collector():
    amb = build_wasserstein([np.array([0.2, 0.8]), np.array([0.6, 0.4])], 0.3, simplex(2), 1)
    for obj in (
        StageObjective([0.0, 0.5], [[1.0, -1.0], [0.0, 1.0]]),
        StageObjective([0.3], [[-1.0, 1.0]]),
    ):
        solve_srobust(obj, amb, solver="highs")
    template = amb._template
    assert template.warm._highs is not None
    refs = [weakref.ref(x) for x in (amb, template, template.warm, template.warm._highs)]
    del template
    gc.disable()
    try:
        del amb
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_threads_sharing_one_set_get_their_own_answers():
    rng = np.random.default_rng(12)
    samples = [rng.dirichlet(np.ones(3)) for _ in range(4)]
    amb = build_wasserstein(samples, 0.2, simplex(3))
    objs = [StageObjective(rng.normal(size=k), rng.normal(size=(k, 3))) for k in (1, 4, 2, 3, 4, 2)]
    refs = [solve_srobust(obj, amb, solver="simplex").value for obj in objs]
    jobs = [objs[i % len(objs)] for i in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_srobust, obj, amb, "highs") for obj in jobs]
            values = [f.result(timeout=60).value for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, value in enumerate(values):
        assert value == pytest.approx(refs[i % len(objs)], abs=1e-8)
