import json
import re
from pathlib import Path

import numpy as np
import pytest

import drmdp.geometry as geometry
from conftest import FAMILIES, random_simplex_ambiguity, shared_row_factor_map
from drmdp.ambiguity import (
    AmbiguityError,
    ConditionGroup,
    LiftedAmbiguitySet,
    MixtureComponent,
    build_hybrid_wasserstein_mad,
    build_mixture,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
    identity_factor_map,
    pad_factor_map,
    validate,
)
from drmdp.geometry import (
    PolyhedralSet,
    box,
    simplex,
    singleton,
    support_value,
)
from drmdp.ambiguity import FactorMap
from drmdp.modelfile import parse_model_file

DATA = Path(__file__).parent.parent / "src" / "drmdp" / "data"


def test_support_only_simplex():
    amb = build_support_only(simplex(3))
    assert amb.n_scenarios == 1 and not amb.groups
    assert validate(amb).passed


def test_support_only_rejects_unbounded():
    with pytest.raises(AmbiguityError):
        build_support_only(PolyhedralSet(2, [([1, 0], 1.0)]))


def test_uncertain_mean_builder():
    d = box([0, 0], [1, 1])
    amb = build_uncertain_mean(d, [0.2, 0.2], [0.8, 0.8], [0.5, 0.5], 0.1, norm=1)
    assert len(amb.groups) == 1
    g = amb.groups[0]
    assert g.mean_equality and g.n_moments == 0
    assert g.moment_set.contains([0.55, 0.5])
    assert not g.moment_set.contains([0.7, 0.5])  # outside the radius-0.1 ball
    assert validate(amb).passed


def test_validate_skips_weight_checks_on_an_unbounded_weight_set():
    # ω >= 0 alone: the weight polytope is a ray, so sums and minima of its
    # weights are not checked
    amb = LiftedAmbiguitySet(1, (box([0.0], [1.0]),), (), PolyhedralSet(1, [([-1.0], 0.0)]))
    report = validate(amb)
    assert ("weight_set_compact", False, "") in report.checks
    assert {name for name, _, _ in report.checks}.isdisjoint({"weight_normalization", "weight_interiority"})
    assert not report.passed


def test_uncertain_mean_without_a_ball_keeps_the_mean_box():
    amb = build_uncertain_mean(box([0, 0], [1, 1]), [0.2, 0.2], [0.8, 0.8], [0.5, 0.5], np.inf, norm="inf")
    moment_set = amb.groups[0].moment_set
    assert moment_set.contains([0.8, 0.2]) and not moment_set.contains([0.9, 0.5])
    assert validate(amb).passed


def test_uncertain_mean_empty_mean_set():
    d = box([0, 0], [1, 1])
    with pytest.raises(AmbiguityError):
        build_uncertain_mean(d, [0.2, 0.2], [0.3, 0.3], [0.9, 0.9], 0.05)


def test_tv_weight_set_hand_example():
    # N=2, θ=0.5: |ω1-0.5| + |ω2-0.5| ≤ 0.5 with ω1+ω2=1 gives ω1 ∈ [0.25, 0.75]
    amb = build_phi_divergence_tv([[0.0], [1.0]], 0.5)
    w = amb.weight_set
    e1 = np.zeros(w.dim)
    e1[0] = 1.0
    assert support_value(w, e1) == pytest.approx(0.75, abs=1e-9)
    assert -support_value(w, -e1) == pytest.approx(0.25, abs=1e-9)
    assert validate(amb).passed


def test_tv_theta_zero_pins_uniform():
    amb = build_phi_divergence_tv([[0.0], [1.0], [2.0]], 0.0)
    w = amb.weight_set
    for i in range(3):
        e = np.zeros(w.dim)
        e[i] = 1.0
        assert support_value(w, e) == pytest.approx(1 / 3, abs=1e-9)
        assert -support_value(w, -e) == pytest.approx(1 / 3, abs=1e-9)


def test_wasserstein_builder_shape():
    d = box([0.0], [1.0])
    amb = build_wasserstein([[0.2], [0.8]], 0.3, d)
    assert amb.n_scenarios == 2
    g = amb.groups[0]
    assert not g.mean_equality and g.n_moments == 1
    assert g.g_fns[0][0]([0.5]) == pytest.approx(0.3)
    assert g.moment_set.contains([0.3]) and not g.moment_set.contains([0.31])
    assert validate(amb).passed


def test_wasserstein_rejects_outside_sample():
    with pytest.raises(AmbiguityError):
        build_wasserstein([[1.5]], 0.1, box([0.0], [1.0]))


def test_hybrid_builder_structure():
    d = box([0, 0], [1, 1])
    amb = build_hybrid_wasserstein_mad(
        [[0.3, 0.3], [0.7, 0.7]], 0.2, d, 1, [0.3, 0.3], [0.7, 0.7], 0.5
    )
    assert amb.factor_dim == 3 and amb.aug_dim == 1
    assert len(amb.groups) == 2
    wg, mg = amb.groups
    # Wasserstein distance ignores the augmented center coordinate
    assert wg.g_fns[0][0]([0.5, 0.5, 99.0]) == pytest.approx(0.4)
    # deviation |ξ1+ξ2 - m|
    assert mg.g_fns[1][0]([0.4, 0.3, 0.5]) == pytest.approx(0.2)
    # mean block ties e·μ_ξ to the center's mean
    assert mg.moment_set.contains([0.4, 0.6, 1.0, 0.1])
    assert not mg.moment_set.contains([0.4, 0.6, 0.9, 0.1])
    assert validate(amb).passed


def test_mixture_reduces_and_validates():
    comps = [
        MixtureComponent(box([0.0], [0.5])),
        MixtureComponent(box([0.5], [1.0]), mean_set=box([0.6], [0.9])),
    ]
    amb = build_mixture(comps, singleton([0.4, 0.6]))
    assert amb.n_scenarios == 2
    assert len(amb.groups) == 1  # support-only component contributes no group
    assert amb.groups[0].scenarios == (1,)
    assert validate(amb).passed


def test_weight_interiority_failure_detected():
    amb = build_mixture(
        [MixtureComponent(box([0.0], [1.0])), MixtureComponent(box([0.0], [1.0]))],
        simplex(2),  # touches the boundary: min weight = 0
    )
    rep = validate(amb)
    assert not rep.passed
    assert any(name == "weight_interiority" for name, _ in rep.failures())


def test_slater_measures_a_support_inside_its_affine_hull():
    def slater(d):
        (check,) = [c for c in validate(build_support_only(d)).checks if c[0] == "support_0_slater"]
        return check[1], float(check[2].split()[-1])

    # {0}: the equality row leaves a line on which both inequalities bind at 0
    assert slater(PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 0.0)], [([1, 1], 0.0)])) == (False, 0.0)
    # equality rows that pin a point: strictly feasible iff every inequality is slack there
    pinned = [([1, 0], 0.0), ([0, 1], 0.0)]
    assert slater(PolyhedralSet(2, [([-1, 0], 1.0), ([0, -1], 2.0)], pinned)) == (True, 1.0)
    assert not slater(PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 2.0)], pinned))[0]
    # the simplex's inradius within its hyperplane is 1 / sqrt(dim (dim - 1))
    for dim in (2, 3, 5):
        ok, radius = slater(simplex(dim))
        assert ok and radius == pytest.approx(1 / np.sqrt(dim * (dim - 1)), rel=5e-3)


def test_slater_radius_is_kept_with_the_support(monkeypatch):
    # sets that share a support, as the states of one document do, measure
    # its radius once; a later validation reads the kept one
    import drmdp.ambiguity as ambiguity

    calls = []
    real = ambiguity.chebyshev_radius
    monkeypatch.setattr(ambiguity, "chebyshev_radius", lambda s: calls.append(s) or real(s))
    d = simplex(3)
    sets = [build_wasserstein([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], 0.3, d), build_support_only(d)]
    reports = [validate(amb) for amb in sets + sets]
    assert len(calls) == 1
    slater = {detail for rep in reports for name, _, detail in rep.checks if name.endswith("_slater")}
    assert slater == {f"inequality-system inscribed radius {d._slater_radius:.2e}"}


def test_factor_map_row_checks():
    # two actions over two next-states driven by a scalar factor in [0, 1]
    fm = FactorMap(
        2,
        2,
        p_mat=[[1.0], [-1.0], [0.0], [0.0]],
        p_offset=[0.0, 1.0, 0.5, 0.5],
        r_mat=[[1.0], [0.0]],
        r_offset=[0.0, 2.0],
    )
    amb = build_support_only(box([0.0], [1.0]))
    assert validate(amb, fm).passed
    xi = np.array([0.25])
    assert np.allclose(fm.transitions(xi), [[0.25, 0.75], [0.5, 0.5]])
    assert fm.rewards(xi) == pytest.approx([0.25, 2.0])


def test_factor_map_negative_entry_detected():
    # p(row 0) = 2ξ - 0.5 goes negative for ξ < 0.25
    fm = FactorMap(
        1,
        2,
        p_mat=[[2.0], [-2.0]],
        p_offset=[-0.5, 1.5],
        r_mat=[[0.0]],
        r_offset=[0.0],
    )
    amb = build_support_only(box([0.0], [1.0]))
    rep = validate(amb, fm)
    assert not rep.passed
    assert any("nonnegative" in name for name, _ in rep.failures())


def test_factor_map_of_another_dimension_fails_its_check():
    # a map over a 2-dimensional factor against a set over a scalar one
    fm = FactorMap(1, 2, p_mat=[[1.0, 0.0], [0.0, 1.0]], p_offset=[0.0, 0.0], r_mat=[[0.0, 0.0]], r_offset=[0.0])
    rep = validate(build_support_only(box([0.0], [1.0])), fm)
    assert not rep.passed
    assert rep.failures() == [("factor_map_dim", "factor_dim mismatch")]


def test_identity_and_padded_factor_maps():
    fm = identity_factor_map(2, 3)
    xi = np.concatenate([[0.2, 0.3, 0.5, 0.1, 0.4, 0.5], [1.0, -1.0]])
    assert np.allclose(fm.transitions(xi), [[0.2, 0.3, 0.5], [0.1, 0.4, 0.5]])
    assert fm.rewards(xi) == pytest.approx([1.0, -1.0])
    padded = pad_factor_map(fm, 2)
    assert padded.factor_dim == fm.factor_dim + 2
    assert np.allclose(padded.transitions(np.concatenate([xi, [9.0, 9.0]])), fm.transitions(xi))


def test_group_validation_errors():
    with pytest.raises(AmbiguityError):
        ConditionGroup((), False, {}, box([0.0], [1.0]))
    with pytest.raises(AmbiguityError):
        LiftedAmbiguitySet(
            1,
            (box([0.0], [1.0]),),
            (ConditionGroup((3,), False, {3: ()}, box([0.0], [1.0])),),
            singleton([1.0]),
        )


def test_theta_nesting_tv_weight_sets():
    # weight polytopes nest as θ grows: marginal intervals widen
    lo_prev, hi_prev = 1 / 3, 1 / 3
    for theta in (0.1, 0.4, 0.9):
        amb = build_phi_divergence_tv([[0.0], [1.0], [2.0]], theta)
        e = np.zeros(amb.weight_set.dim)
        e[0] = 1.0
        hi = support_value(amb.weight_set, e)
        lo = -support_value(amb.weight_set, -e)
        assert hi >= hi_prev - 1e-12 and lo <= lo_prev + 1e-12
        lo_prev, hi_prev = lo, hi


def test_validate_solves_few_lps_on_a_small_support(monkeypatch):
    # one state shaped like the benchmark's: a Wasserstein set over the
    # 3-simplex, two actions sharing the factor as their transition row
    amb = build_wasserstein([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], 0.3, simplex(3))
    fm = shared_row_factor_map(np.random.default_rng(0), 2, 3)
    calls = []
    real = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp", lambda lp: calls.append(lp) or real(lp))
    rep = validate(amb, fm)
    assert rep.passed
    assert [name for name, _, _ in rep.checks] == [
        "support_0_compact", "support_0_slater", "support_1_compact", "support_1_slater",
        "weight_set_compact", "weight_normalization", "weight_interiority",
        "group_0_moment_set_nonempty", "factor_map_dim",
        "rows_sum_to_one_support_0", "rows_nonnegative_support_0",
        "rows_sum_to_one_support_1", "rows_nonnegative_support_1",
    ]
    # the shared support's Chebyshev LP and the moment set's feasibility LP
    assert len(calls) <= 2


def _numbers(detail):
    return [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", detail)]


def _assert_same_report(got, want):
    assert [(n, ok) for n, ok, _ in got.checks] == [(n, ok) for n, ok, _ in want.checks]
    for (_, _, a), (_, _, b) in zip(got.checks, want.checks):
        assert _numbers(a) == pytest.approx(_numbers(b), abs=1e-12)


def _reports(build):
    """Validation reports of freshly built (ambiguity set, factor map) pairs,
    once as built and once with every set kept on the LP path."""
    out = []
    for limit in (geometry.VERTEX_FORM_MAX_ACTIVE_SETS, -1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "VERTEX_FORM_MAX_ACTIVE_SETS", limit)
            out.append([validate(amb, fm) for amb, fm in build()])
    return out


@pytest.mark.parametrize("name", ["boundary_weights", "finite_two_state", "infinite_two_state", "invalid_rows"])
def test_vertex_form_keeps_bundled_reports(name):
    def build():
        model = parse_model_file(DATA / f"{name}.yaml").build()
        return [(a, f) for a, f in zip(model.ambiguities, model.factor_maps) if a is not None]

    for got, want in zip(*_reports(build)):
        _assert_same_report(got, want)


@pytest.mark.parametrize("kind", FAMILIES)
def test_vertex_form_keeps_random_reports(kind):
    def build():
        rng = np.random.default_rng(7)
        out = []
        for dim in (2, 3):
            amb = random_simplex_ambiguity(rng, dim, kind)
            fm = shared_row_factor_map(rng, 2, dim)
            out.append((amb, pad_factor_map(fm, amb.factor_dim - dim)))
        return out

    for got, want in zip(*_reports(build)):
        _assert_same_report(got, want)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.yaml")))
def test_validate_flags_are_bools_on_every_fixture(name):
    # a flag read off a vertex form's numpy values is numpy.bool_ unless cast
    model = parse_model_file(DATA / name).build()
    for amb, fm in zip(model.ambiguities, model.factor_maps):
        if amb is not None:
            checks = validate(amb, fm).checks
            assert all(type(ok) is bool for _, ok, _ in checks), checks
            json.dumps(checks)
