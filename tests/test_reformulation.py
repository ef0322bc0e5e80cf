import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import FAMILIES, certificate_value, leading_request, make_lp, random_simplex_ambiguity, stage_value

from drmdp.ambiguity import (
    FactorMap,
    LiftedAmbiguitySet,
    MixtureComponent,
    build_hybrid_wasserstein_mad,
    build_mixture,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
    identity_factor_map,
)
from drmdp.geometry import (
    PolyhedralSet,
    box,
    enumerate_vertices,
    inf_norm_distance,
    one_norm_distance,
    simplex,
    singleton,
)
import drmdp.lp
from drmdp.lp import LinearProgram, WarmHighs, get_solver, solve_lp
from drmdp.reformulation import (
    ReformulationError,
    StageObjective,
    _template,
    assemble_stage_objective,
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
    assert stage_value(obj, [1.0, 0.0], xi) == pytest.approx(3.0)
    assert stage_value(obj, [0.0, 1.0], xi) == pytest.approx(-1.0)


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
            assert stage_value(obj, pi, xi) == pytest.approx(direct, abs=1e-10)


def test_stage_objective_matches_the_block_matrix_reference():
    # the reshaped products sum in another order than the block matrix, so
    # agreement is to a few ulps of each entry's scale per summed term
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for _ in range(40):
        na, n_next, dim = (int(k) for k in rng.integers(1, 6, size=3))
        fm = _random_factor_map(rng, na, n_next, dim)
        v = rng.normal(size=n_next) * 10.0 ** rng.integers(-2, 3)
        gamma = rng.uniform(0.3, 1.0)
        blocks = np.zeros((na, na * n_next))
        for a in range(na):
            blocks[a, a * n_next : (a + 1) * n_next] = v
        kappa = fm.r_offset + gamma * blocks @ fm.p_offset
        c_mat = fm.r_mat + gamma * blocks @ fm.p_mat
        obj = assemble_stage_objective(v, fm, discount=gamma)
        scale = np.abs(blocks) @ np.abs(np.column_stack([fm.p_offset, fm.p_mat]))
        tol = 4 * n_next * eps * (1.0 + scale)
        assert np.all(np.abs(obj.kappa_vec - kappa) <= tol[:, 0])
        assert np.all(np.abs(obj.c_mat - c_mat) <= tol[:, 1:])


def test_pi_column_gather_matches_the_tiled_reference():
    for amb in _swap_cases():
        template = _template(amb)
        n, d = amb.n_scenarios, amb.factor_dim
        rng = np.random.default_rng(n)
        for na in (3, 1, 4, 3):
            obj = StageObjective(rng.normal(size=na), rng.normal(size=(na, d)))
            value = np.empty((na, n + n * d + 1))
            value[:, :n] = -obj.kappa_vec[:, None]
            value[:, n:-1] = -np.tile(obj.c_mat, (1, n))
            value[:, -1] = 1.0
            lead = template.leading_columns(obj)
            _same_bytes(lead.value, value.ravel())
            assert np.array_equal(lead.index, np.tile(lead.index[: n + n * d + 1], na))
            assert lead.starts is template.leading_columns(obj).starts


def test_stage_objective_superposition_in_policy():
    rng = np.random.default_rng(1)
    fm = _random_factor_map(rng, 3, 2, 2)
    obj = assemble_stage_objective(rng.normal(size=2), fm, discount=0.9)
    basis = np.eye(3)
    pi = np.array([0.2, 0.3, 0.5])
    xi = rng.normal(size=2)
    combo = sum(pi[a] * stage_value(obj, basis[a], xi) for a in range(3))
    assert stage_value(obj, pi, xi) == pytest.approx(combo, abs=1e-12)


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
        verts = enumerate_vertices(d)
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
    verts = enumerate_vertices(d)
    for _ in range(5):
        c_mat = rng.normal(size=(3, 2))
        kappa = rng.normal(size=3)
        obj = StageObjective(kappa, c_mat)
        amb = build_support_only(d)
        sol = solve_srobust(obj, amb)
        # maximin over the vertex set via a small LP on π
        from drmdp.lp import EQ, LE

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
        # the primal adversary LP, min (Mπ)'v over the set's rows with v
        # free: an independent reference for the pinned robust LP
        template = _template(amb)
        n, layout = amb.n_scenarios, template.layout
        free = np.full(layout.total, np.inf)
        for _ in range(3):
            pi = rng.dirichlet(np.ones(obj.n_actions))
            cost = np.zeros(layout.total)
            cost[layout["w"].start : layout["w"].start + n] = obj.kappa(pi)
            cost[layout["x"]] = np.tile(obj.coeff(pi), n)
            adversary = LinearProgram(
                "min", cost, template.at.toarray().T, template.senses, template.b, -free, free
            )
            for solver in ("simplex", "highs"):
                v_ref = get_solver(solver)(adversary).value
                v_adv, cert = worst_case_expectation(obj, amb, pi, solver=solver)
                assert v_adv == pytest.approx(v_ref, abs=1e-8)
                assert certificate_value(cert, obj, pi) == pytest.approx(v_adv, abs=1e-8)


@pytest.mark.parametrize("solver", ["simplex", "highs"])
def test_empty_ambiguity_set_admits_no_distribution(solver):
    one = PolyhedralSet(1, eq=[([1.0], 1.0)])
    empty_support = LiftedAmbiguitySet(
        1, (PolyhedralSet(1, [([1.0], -1.0), ([-1.0], -1.0)]),), (), one
    )
    empty_weights = LiftedAmbiguitySet(
        1, (box([0.0], [1.0]),), (), PolyhedralSet(1, [([1.0], 0.5)], [([1.0], 1.0)])
    )
    obj = StageObjective([0.0, 0.0], [[1.0], [-1.0]])
    for amb in (empty_support, empty_weights):
        with pytest.raises(ReformulationError, match="the ambiguity set admits no distribution"):
            solve_srobust(obj, amb, solver=solver)
        with pytest.raises(ReformulationError, match="the ambiguity set admits no distribution"):
            worst_case_expectation(obj, amb, [0.5, 0.5], solver=solver)


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
            worst = certificate_value(sol.certificate, obj, sol.policy)
            assert worst == pytest.approx(sol.value, abs=1e-8)
    assert randomized == 4


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


def test_failed_warm_run_is_retried_cold(monkeypatch):
    model_status = drmdp.lp.HighsModelStatus
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
    model_status = drmdp.lp.HighsModelStatus
    runs = []

    def stalled(self):
        runs.append(1)
        return model_status.kIterationLimit, 0

    amb, obj = next(_saddle_cases())
    solve_srobust(obj, amb, solver="highs")
    monkeypatch.setattr(WarmHighs, "_run", stalled)
    with pytest.raises(ReformulationError, match="ended with status iteration_limit"):
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


# ------------------- adversary rows against a row-by-row loop ----------------


def _loop_adversary_rows(amb):
    """The adversary rows placed one at a time, each polytope row read as
    a (row, rhs) pair and each moment-function piece as its (a, b, block)
    entries, with one epigraph column ("s", j, i, m, l) per max-block: the
    reference for `_adversary_rows`, which places every group of rows as a
    matrix block.  Returns (slices, moment_rows, A, senses, b)."""
    from drmdp.lp import EQ, LE
    from drmdp.reformulation import _Cols, _unit

    d, n = amb.factor_dim, amb.n_scenarios
    cols = _Cols()
    w = cols.add("w", amb.weight_set.dim)
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            cols.add(("mu", j), d)
        if g.n_moments:
            cols.add(("nu", j), g.n_moments)
    x = cols.add("x", n * d)
    xs = [slice(x.start + i * d, x.start + (i + 1) * d) for i in range(n)]
    for j, g in enumerate(amb.groups):
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                for l in range(fn.n_blocks):
                    cols.add(("s", j, i, m, l), 1)

    rows = []

    def row(vec_pairs, sense, rhs=0.0):
        v = np.zeros(cols.total)
        for sl, coeffs in vec_pairs:
            v[sl] += coeffs
        rows.append((v, sense, rhs))

    ws = amb.weight_set
    for a, b in zip(ws.a_in, ws.b_in):
        row([(w, a)], LE, b)
    for a, b in zip(ws.a_eq, ws.b_eq):
        row([(w, a)], EQ, b)
    for j, g in enumerate(amb.groups):
        ms, mu_dim = g.moment_set, d if g.mean_equality else 0
        wsel = np.zeros(ws.dim)
        wsel[list(g.scenarios)] = 1.0
        for fmat, hvec, sense in ((ms.a_in, ms.b_in, LE), (ms.a_eq, ms.b_eq, EQ)):
            for f, h in zip(fmat, hvec):
                pairs = [(w, -h * wsel)]
                if mu_dim:
                    pairs.append((cols[("mu", j)], f[:mu_dim]))
                if g.n_moments:
                    pairs.append((cols[("nu", j)], f[mu_dim:]))
                row(pairs, sense)
    for i, dset in enumerate(amb.supports):
        wi = slice(i, i + 1)
        for a, b in zip(dset.a_in, dset.b_in):
            row([(xs[i], a), (wi, -b)], LE)
        for a, b in zip(dset.a_eq, dset.b_eq):
            row([(xs[i], a), (wi, -b)], EQ)
    moment_rows = {}
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            for k in range(d):
                pairs = [(xs[i], _unit(d, k)) for i in g.scenarios]
                pairs.append((cols[("mu", j)], _unit(d, k, -1.0)))
                row(pairs, EQ)
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                for a, b, l in zip(fn.a, fn.b, fn.block):
                    s = cols[("s", j, i, m, int(l))]
                    row([(xs[i], a), (slice(i, i + 1), b), (s, -1.0)], LE)
        if g.n_moments:
            moment_rows[j] = np.arange(len(rows), len(rows) + g.n_moments)
        for m in range(g.n_moments):
            pairs = [
                (cols[("s", j, i, m, l)], 1.0)
                for i in g.scenarios
                for l in range(g.g_fns[i][m].n_blocks)
            ]
            pairs.append((cols[("nu", j)], _unit(g.n_moments, m, -1.0)))
            row(pairs, LE)

    amat = np.array([r[0] for r in rows]).reshape(len(rows), cols.total)
    return (cols.slices, moment_rows, amat, tuple(r[1] for r in rows),
            np.array([r[2] for r in rows]))


def _adversary_row_cases():
    from conftest import FAMILIES, random_simplex_ambiguity

    from drmdp.newsvendor import NewsvendorConfig, sample_training_set

    for kind in FAMILIES:
        for seed in range(4):
            yield random_simplex_ambiguity(np.random.default_rng(seed), 3, kind)
    cfg = NewsvendorConfig()
    samples = sample_training_set(cfg.true_dist, 15, np.random.default_rng(1))
    for metric in (1, "inf"):
        yield build_wasserstein(samples, 0.5, simplex(cfg.n_demand), metric)
    # two moment functions per scenario, so each aggregate row picks its own
    fns = (one_norm_distance([0.2, 0.3, 0.5]), inf_norm_distance([0.5, 0.25, 0.25]))
    moments = box([0.0, 0.0], [0.6, 0.4])
    yield build_mixture(
        [MixtureComponent(simplex(3), g_fns=fns, g_moment_set=moments),
         MixtureComponent(simplex(3), box([0.1] * 3, [0.5] * 3), fns, moments)],
        simplex(2),
    )


def test_block_adversary_rows_match_the_row_by_row_reference():
    from drmdp.reformulation import _template

    for amb in _adversary_row_cases():
        slices, moment_rows, amat, senses, b = _loop_adversary_rows(amb)
        template = _template(amb)
        layout = template.layout.slices
        shared = layout.keys() & slices.keys()
        assert {"w", "x"} <= shared
        for key in shared:
            assert layout[key] == slices[key], key
        # the layouts differ only in their epigraph keys: one ("s", j) slice
        # per group, spanning exactly the reference's per-piece columns of j
        assert all(key[0] == "s" and len(key) == 2 for key in layout.keys() - shared)
        assert all(key[0] == "s" and len(key) == 5 for key in slices.keys() - shared)
        for j in range(len(amb.groups)):
            pieces = sorted(s.start for key, s in slices.items() if key[:2] == ("s", j))
            assert all(slices[key].stop - slices[key].start == 1
                       for key in slices if key[:2] == ("s", j))
            if ("s", j) in layout:
                assert pieces == list(range(layout[("s", j)].start, layout[("s", j)].stop))
            else:
                assert not pieces
        assert template.moment_rows.keys() == moment_rows.keys()
        for j, rows in moment_rows.items():
            np.testing.assert_array_equal(template.moment_rows[j], rows)
        np.testing.assert_array_equal(template.at.toarray(), amat.T)
        assert template.senses == senses
        np.testing.assert_array_equal(template.b, b)


def test_template_matrix_holds_the_arrays_scipy_would():
    from scipy.sparse import csc_matrix

    from drmdp.newsvendor import NewsvendorConfig, sample_training_set
    from drmdp.reformulation import _adversary_rows, _template

    rng = np.random.default_rng(11)
    cfg = NewsvendorConfig()
    sets = [random_simplex_ambiguity(rng, 3, kind) for kind in FAMILIES]
    sets += [
        build_wasserstein(sample_training_set(cfg.true_dist, n, rng), 0.5, simplex(cfg.n_demand), cfg.metric)
        for n in cfg.train_sizes
    ]
    for amb in sets:
        got, ref = _template(amb).at, csc_matrix(_adversary_rows(amb)[2].T)
        assert got.shape == ref.shape and got.nnz == ref.nnz
        for name in ("data", "indices", "indptr"):
            mine, scipys = getattr(got, name), getattr(ref, name)
            assert mine.dtype == scipys.dtype and mine.tobytes() == scipys.tobytes(), name


# ------------- the column-swap backup against the whole-LP backup ------------


def _swap_cases():
    from conftest import FAMILIES, random_simplex_ambiguity

    from drmdp.newsvendor import NewsvendorConfig, sample_training_set

    for kind in FAMILIES:
        for seed in range(5):
            yield random_simplex_ambiguity(np.random.default_rng(seed), 3, kind)
    cfg = NewsvendorConfig()
    for n in (5, 15):
        samples = sample_training_set(cfg.true_dist, n, np.random.default_rng(n))
        yield build_wasserstein(samples, 0.5, simplex(cfg.n_demand), cfg.metric)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_column_swap_backup_equals_the_whole_lp_backup(monkeypatch):
    import drmdp.reformulation as reformulation

    seen = []
    highs = drmdp.lp._SOLVERS["highs"]

    def recorded(lead):
        assert isinstance(lead, drmdp.lp.LeadingColumns)
        seen.append(highs(lead))
        return seen[-1]

    monkeypatch.setitem(drmdp.lp._SOLVERS, "highs", recorded)
    for amb in _swap_cases():
        template = _template(amb)
        second = WarmHighs()
        rng = np.random.default_rng(amb.n_scenarios)
        d = amb.factor_dim
        # robust and pinned backups, 1 and 3 actions, interleaved on one set
        for k, pinned in ((3, False), (1, False), (3, True), (1, True), (3, False), (1, False)):
            obj = StageObjective(rng.normal(size=k), rng.normal(size=(k, d)))
            pi = rng.dirichlet(np.ones(k)) if pinned else None
            if pinned:
                sol = reformulation._fixed_policy_backup(obj, amb, pi, "highs")
            else:
                sol = solve_srobust(obj, amb, solver="highs")
            lp = template.instantiate(obj, pi)
            whole = second.run(leading_request(lp, template.shared.n_vars, second))
            swap = seen[-1]
            _same_bytes(swap.x, whole.x)
            _same_bytes(swap.y, whole.y)
            _same_bytes(swap.value, whole.value)
            assert swap.iterations == whole.iterations
            policy = pi if pinned else np.clip(whole.x[:k], 0.0, None)
            _same_bytes(sol.policy, policy / policy.sum() if not pinned else pi)
            _same_bytes(sol.value, whole.value)
            y = whole.x[k:]
            assert sol.gamma.keys() == template.moment_rows.keys()
            for j, rows in template.moment_rows.items():
                _same_bytes(sol.gamma[j], -y[rows])
            cert = reformulation._point_masses(amb, template.layout, whole.y)
            _same_bytes(sol.certificate.weights, cert.weights)
            _same_bytes(sol.certificate.means, cert.means)
    assert len(seen) == 6 * 32
