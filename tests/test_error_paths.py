"""The errors each module raises on bad input, one table per module: a
call, the error it must raise and a fragment of the error's message."""

from pathlib import Path

import numpy as np
import pytest
from conftest import make_lp
from scipy.sparse import csr_matrix

import drmdp.engine
import drmdp.lp
from drmdp.ambiguity import (
    AmbiguityError,
    ConditionGroup,
    FactorMap,
    LiftedAmbiguitySet,
    MixtureComponent,
    build_hybrid_wasserstein_mad,
    build_mixture,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
)
from drmdp.engine import DrMdpModel, EngineError, backward_induction, bellman_operator, value_iteration
from drmdp.geometry import (
    GeometryError,
    PolyhedralSet,
    box,
    feasibility_check,
    norm_ball,
    one_norm_distance,
    simplex,
    singleton,
)
from drmdp.lp import (
    GE,
    INFEASIBLE,
    LE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    LeadingColumns,
    LinearProgram,
    LpError,
    LpSolution,
    residuals,
    solve_lp,
)
from drmdp.modelfile import ModelFileError, parse_model_file, parse_model_text
from drmdp.newsvendor import NewsvendorConfig, NewsvendorError, sample_training_set
from drmdp.reformulation import ReformulationError, StageObjective, oracle_worst_case, solve_srobust

DATA = Path(drmdp.lp.__file__).parent / "data"
NAN, INF = float("nan"), float("inf")
# x >= 0 on the line: nonempty and unbounded
RAY = PolyhedralSet(1, [([-1.0], 0.0)])


def _check(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def _group(moment_set, g_fns=None):
    return ConditionGroup((0,), g_fns or {0: ()}, moment_set)


AMBIGUITY = {
    "g-function counts differ": (
        lambda: ConditionGroup((0, 1), {0: (one_norm_distance([0.0]),), 1: ()}, box([0], [1])),
        "g-function count differs",
    ),
    "no support": (lambda: LiftedAmbiguitySet((), (), singleton([1.0])), "at least one scenario support"),
    "support dimension": (
        lambda: LiftedAmbiguitySet((simplex(2), simplex(3)), (), singleton([0.5, 0.5])),
        "supports differ in dimension",
    ),
    "weight-set dimension": (
        lambda: LiftedAmbiguitySet((simplex(2), simplex(2)), (), singleton([1.0])),
        "weight-set dimension 1 is less than the 2 scenarios",
    ),
    "moment-set dimension": (
        lambda: LiftedAmbiguitySet((simplex(2),), (_group(box([0], [1])),), singleton([1.0])),
        "moment-set dimension mismatch",
    ),
    "g-function dimension": (
        lambda: LiftedAmbiguitySet(
            (simplex(2),), (_group(box([0], [1]), {0: (one_norm_distance([0.0]),)}),), singleton([1.0])
        ),
        "g-function dimension mismatch",
    ),
    "no actions": (
        lambda: FactorMap(np.zeros((2, 1)), np.zeros(2), np.zeros((0, 1)), []),
        "r_offset is empty",
    ),
    "transition rows": (
        lambda: FactorMap(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 2)), np.zeros(2)),
        "p_mat's 3 rows are not a nonzero multiple of the 2 actions",
    ),
    "no transition rows": (
        lambda: FactorMap(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.zeros(1)),
        "p_mat's 0 rows are not a nonzero multiple of the 1 actions",
    ),
    "transition offsets": (
        lambda: FactorMap(np.zeros((2, 1)), np.zeros(3), np.zeros((1, 1)), np.zeros(1)),
        "p_offset needs one entry per p_mat row",
    ),
    "reward rows": (
        lambda: FactorMap(np.zeros((4, 2)), np.zeros(4), np.zeros((1, 2)), np.zeros(2)),
        "r_mat needs one row per action",
    ),
    "map factor dims": (
        lambda: FactorMap(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 3)), np.zeros(1)),
        "disagree on factor_dim",
    ),
    "map entry nan": (lambda: FactorMap([[1.0]], [NAN], [[0.0]], [1.0]), "p_offset must be finite"),
    "map entry inf": (lambda: FactorMap([[1.0]], [0.0], [[INF]], [1.0]), "r_mat must be finite"),
    "mean support unbounded": (
        lambda: build_uncertain_mean(RAY, [0], [1], [0], INF),
        "support must be nonempty and bounded",
    ),
    "mean radius negative": (
        lambda: build_uncertain_mean(simplex(2), [0, 0], [1, 1], [0.5, 0.5], -1.0),
        "radius must be nonnegative",
    ),
    "mean radius nan": (
        lambda: build_uncertain_mean(simplex(2), [0, 0], [1, 1], [0.5, 0.5], NAN),
        "radius must be nonnegative",
    ),
    # checked even without a ball, whose builder would otherwise catch it
    "mean norm without a ball": (
        lambda: build_uncertain_mean(simplex(2), [0, 0], [1, 1], [0, 0], INF, norm=7),
        "norm must be 1 or 'inf', got 7",
    ),
    "tv radius negative": (lambda: build_phi_divergence_tv([[0.0]], -0.1), "θ must be finite and nonnegative"),
    "tv radius nan": (lambda: build_phi_divergence_tv([[0.0]], NAN), "θ must be finite and nonnegative"),
    "tv radius inf": (lambda: build_phi_divergence_tv([[0.0]], INF), "θ must be finite and nonnegative"),
    "tv no samples": (lambda: build_phi_divergence_tv([], 0.1), "at least one sample"),
    "wasserstein radius negative": (
        lambda: build_wasserstein([[0.5, 0.5]], -1.0, simplex(2)),
        "θ must be finite and nonnegative",
    ),
    "wasserstein radius nan": (
        lambda: build_wasserstein([[0.5, 0.5]], NAN, simplex(2)),
        "θ must be finite and nonnegative",
    ),
    "wasserstein no samples": (lambda: build_wasserstein([], 0.1, simplex(2)), "at least one sample"),
    "wasserstein sample inf": (lambda: build_wasserstein([[INF, 0.0]], 0.1, simplex(2)), "samples must be finite"),
    "wasserstein support unbounded": (
        lambda: build_wasserstein([[0.5]], 0.1, RAY),
        "support must be nonempty and bounded",
    ),
    "hybrid mean box dimension": (
        lambda: build_hybrid_wasserstein_mad([[0.5, 0.5]], 0.1, simplex(2), 1, [0], [1], 1.0),
        "mean box dimension mismatch",
    ),
    "hybrid mean box empty": (
        lambda: build_hybrid_wasserstein_mad([[0.5, 0.5]], 0.1, simplex(2), 1, [0.6, 0], [0.5, 1], 1.0),
        "empty mean box",
    ),
    "hybrid MAD bound nan": (
        lambda: build_hybrid_wasserstein_mad([[0.5, 0.5]], 0.1, simplex(2), 1, [0, 0], [1, 1], NAN),
        "MAD bound must be a number",
    ),
    "hybrid MAD bound negative": (
        lambda: build_hybrid_wasserstein_mad([[0.5, 0.5]], 0.1, simplex(2), 1, [0, 0], [1, 1], -1.0),
        "MAD bound must be a number >= 0 (inf for none), got -1.0",
    ),
    "mixture no components": (lambda: build_mixture([], singleton([1.0])), "at least one component"),
    "mixture dimensions": (
        lambda: build_mixture([MixtureComponent(simplex(2)), MixtureComponent(simplex(3))], singleton([0.5, 0.5])),
        "supports differ in dimension",
    ),
    "mixture g-functions alone": (
        lambda: build_mixture([MixtureComponent(simplex(2), g_fns=(one_norm_distance([0, 0]),))], singleton([1.0])),
        "must come together",
    ),
}


@pytest.mark.parametrize("call, fragment", AMBIGUITY.values(), ids=AMBIGUITY.keys())
def test_ambiguity_errors(call, fragment):
    _check(call, AmbiguityError, fragment)


# one action, one next state, reward 1: ξ = 1 pins the transition
_FM = FactorMap([[1.0]], [0.0], [[0.0]], [1.0])
_FM2 = FactorMap([[1.0], [0.0]], [0.0, 0.0], [[0.0]], [1.0])
_AMB = build_support_only(singleton([1.0]))
_FINITE = DrMdpModel((_FM, None), (_AMB, None), stages=((0,), (1,)))
_DISCOUNTED = DrMdpModel((_FM,), (_AMB,), discount=0.5)


def _one_sweep_value_iteration():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(drmdp.engine, "MAX_VALUE_ITERATIONS", 1)
        value_iteration(_DISCOUNTED, 1e-12)


ENGINE = {
    "entries per state": (lambda: DrMdpModel((_FM,), (_AMB, _AMB), discount=0.5), "one entry per state"),
    "labels per state": (
        lambda: DrMdpModel((None,), (None,), discount=0.5, state_labels=("a", "b")),
        "state_labels must have one entry",
    ),
    "stage partition": (
        lambda: DrMdpModel((None, None), (None, None), stages=((0,), (0,))),
        "stages must partition",
    ),
    "terminal values": (
        lambda: DrMdpModel((_FM, None), (_AMB, None), stages=((0,), (1,)), terminal_values=[1.0, 2.0]),
        "terminal_values must cover",
    ),
    "terminal value nan": (
        lambda: DrMdpModel((_FM, None), (_AMB, None), stages=((0,), (1,)), terminal_values=[NAN]),
        "terminal_values must be finite",
    ),
    "missing factor map": (
        lambda: DrMdpModel((None, None), (None, None), stages=((0,), (1,))),
        "state 0 needs a factor map",
    ),
    "next-state count": (
        lambda: DrMdpModel((_FM2, None), (_AMB, None), stages=((0,), (1,))),
        "emits 2 next-states, expected 1",
    ),
    "factor dimension": (
        lambda: DrMdpModel((_FM,), (build_support_only(simplex(2)),), discount=0.5),
        "disagree on factor_dim",
    ),
    "value iteration on a finite model": (
        lambda: value_iteration(_FINITE, 1e-6),
        "requires an infinite-horizon model",
    ),
    "epsilon": (lambda: value_iteration(_DISCOUNTED, 0.0), "epsilon must be positive"),
    "epsilon nan": (lambda: value_iteration(_DISCOUNTED, NAN), "epsilon must be positive and finite, got nan"),
    "epsilon inf": (lambda: value_iteration(_DISCOUNTED, INF), "epsilon must be positive and finite, got inf"),
    "no convergence": (_one_sweep_value_iteration, "did not converge within 1 sweeps"),
    "backward induction on a discounted model": (
        lambda: backward_induction(_DISCOUNTED),
        "requires a finite-horizon model",
    ),
    "bellman operator on a finite model": (
        lambda: bellman_operator(_FINITE, [0.0, 0.0]),
        "requires an infinite-horizon model",
    ),
    "bellman operator on a NaN value": (
        lambda: bellman_operator(_DISCOUNTED, [NAN]),
        "value vector must be finite",
    ),
}


@pytest.mark.parametrize("call, fragment", ENGINE.values(), ids=ENGINE.keys())
def test_engine_errors(call, fragment):
    _check(call, EngineError, fragment)


GEOMETRY = {
    "point dimension": (lambda: simplex(2).contains([0.5]), "point dimension mismatch"),
    "ball radius negative": (lambda: norm_ball([0.0], -1.0, 1), "radius must be finite and nonnegative"),
    "ball radius nan": (lambda: norm_ball([0.0], NAN, "inf"), "radius must be finite and nonnegative"),
    "ball radius inf": (lambda: norm_ball([0.0], INF, 1), "radius must be finite and nonnegative"),
    "ball norm": (lambda: norm_ball([0.0], 1.0, 2), "norm must be 1 or 'inf'"),
    "row nan": (lambda: PolyhedralSet(1, [([NAN], 1.0)]), "inequality row holds NaN"),
    "rhs nan": (lambda: singleton([NAN]), "equality row holds NaN"),
    "inequality bound -inf": (lambda: box([INF], [INF]), "inequality bound is -inf: the set is empty"),
    "equality rhs inf": (lambda: singleton([INF]), "equality right-hand side must be finite"),
    # above the vertex-form guard, so an LP answers, and HiGHS takes no
    # infinite coefficient
    "feasibility LP failure": (
        lambda: feasibility_check(PolyhedralSet(9, [(np.r_[INF, np.zeros(8)], 1.0)])),
        "feasibility LP ended with status numerical_failure",
    ),
}


@pytest.mark.parametrize("call, fragment", GEOMETRY.values(), ids=GEOMETRY.keys())
def test_geometry_errors(call, fragment):
    _check(call, GeometryError, fragment)


def _lp(**change):
    fields = dict(sense="max", c=[1.0], a=[[1.0]], row_senses=(LE,), b=[1.0], lb=[0.0], ub=[1.0])
    return LinearProgram(**{**fields, **change})


LP = {
    "objective sense": (lambda: _lp(sense="maximize"), "unknown objective sense"),
    "row count": (lambda: _lp(b=[1.0, 2.0]), "row count mismatch"),
    "bound count": (lambda: _lp(lb=[0.0, 0.0]), "bound vectors must match"),
    "rhs nan": (lambda: _lp(b=[NAN]), "right-hand sides must be finite"),
    "row sense": (lambda: _lp(row_senses=("<",)), "unknown row sense '<'"),
    # scipy's CSR arrays would be read as CSC, the transposed matrix
    "scipy.sparse matrix": (
        lambda: _lp(a=csr_matrix([[1.0]])),
        "matrix must be a dense array or a CscArrays, not csr_matrix",
    ),
    "dense shared matrix": (
        lambda: LeadingColumns(_lp(), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, np.int32),
                               np.zeros(0, np.int32), np.zeros(0)),
        "a request's shared matrix must be a CscArrays",
    ),
    "residuals of a non-optimum": (
        lambda: residuals(_lp(), LpSolution(INFEASIBLE)),
        "residuals only defined for optimal solutions",
    ),
}


@pytest.mark.parametrize("call, fragment", LP.values(), ids=LP.keys())
def test_lp_errors(call, fragment):
    _check(call, LpError, fragment)


# max x1 + x2 s.t. x1 + 2x2 <= 4, 3x1 + x2 >= 3: phase 1 pivots twice to
# reach (1, 0), phase 2 once to reach the optimum (4, 0)
_POLYGON = make_lp("max", [1, 1], [([1, 2], LE, 4), ([3, 1], GE, 3)])


def test_simplex_iteration_limit_ends_each_phase(monkeypatch):
    full = solve_lp(_POLYGON)
    assert full.optimal and full.value == pytest.approx(4.0) and full.iterations == 3
    monkeypatch.setattr(drmdp.lp, "ITER_LIMIT_FACTOR", 0)
    # the first pivot is phase 1's, the last phase 2's; either can end the run
    for limit in (1, full.iterations):
        monkeypatch.setattr(drmdp.lp, "ITER_LIMIT_BASE", limit)
        sol = solve_lp(_POLYGON)
        assert (sol.status, sol.iterations, sol.x) == (NUMERICAL_FAILURE, limit, None)
    monkeypatch.setattr(drmdp.lp, "ITER_LIMIT_BASE", full.iterations + 1)
    assert solve_lp(_POLYGON).status == OPTIMAL


def _document(old, new, name="finite_two_state.yaml"):
    text = (DATA / name).read_text()
    assert old in text
    return text.replace(old, new)


MODELFILE = {
    "document not a mapping": (lambda: parse_model_text("- 1\n"), "document: expected a mapping, got list"),
    "missing keys": (lambda: parse_model_text("format_version: 1\n"), "missing required keys ['states']"),
    "nested vector": (
        lambda: parse_model_text(_document("terminal_values: [1.0, -1.0]", "terminal_values: [[1.0, -1.0]]")),
        "terminal_values: expected a flat numeric list",
    ),
    "flat matrix": (
        lambda: parse_model_text(_document("p_mat: [[1, 0], [0, 1], [1, 0], [0, 1]]", "p_mat: [1, 0, 0, 1]")),
        "p_mat: expected a list of equal-length rows",
    ),
    "support kind": (
        lambda: parse_model_text(_document("kind: simplex", "kind: ball")),
        "unknown support kind 'ball'",
    ),
    "radius without center": (
        lambda: parse_model_text(
            _document(
                "builder: wasserstein\n    support: {kind: simplex, dim: 2}\n    samples: [[0.3, 0.7]]",
                "builder: uncertain_mean\n    support: {kind: simplex, dim: 2}\n    mean_lo: [0, 0]\n"
                "    mean_hi: [1, 1]",
            )
        ),
        "radius given without a center",
    ),
    "radius nan": (
        lambda: parse_model_text(_document("radius: 0.2", "radius: .nan")),
        "θ must be finite and nonnegative",
    ),
    "uncertain-mean norm": (
        lambda: parse_model_text(
            _document(
                "builder: wasserstein\n    support: {kind: simplex, dim: 2}\n    samples: [[0.3, 0.7]]\n"
                "    radius: 0.2",
                "builder: uncertain_mean\n    support: {kind: simplex, dim: 2}\n    mean_lo: [0, 0]\n"
                "    mean_hi: [1, 1]\n    norm: 7",
            )
        ),
        "norm must be 1 or 'inf', got 7",
    ),
    "stage partition": (
        lambda: parse_model_text(_document("stages: [[0], [1, 2]]", "stages: [[0], [1]]")),
        "model validation failed: stages must partition",
    ),
    "terminal values without stages": (
        lambda: parse_model_text(
            _document("discount:", "terminal_values: [1.0]\ndiscount:", "infinite_two_state.yaml")
        ),
        "terminal_values requires stages",
    ),
    "no states": (
        lambda: parse_model_text("format_version: 1\nstages: [[0]]\nstates: []\n"),
        "document.states: expected a nonempty list",
    ),
    "state without ambiguity": (
        lambda: parse_model_text(
            "format_version: 1\nstages: [[0], [1]]\nstates:\n"
            "- factor_map: {p_mat: [[1]], p_offset: [0], r_mat: [[0]], r_offset: [1]}\n- terminal: true\n"
        ),
        "non-terminal states need factor_map and ambiguity",
    ),
    "unreadable file": (lambda: parse_model_file(DATA / "no_such_model.yaml"), "cannot read"),
    "reward offset nan": (
        lambda: parse_model_text(_document("r_offset: [0.5, 1.0]", "r_offset: [.nan, 1.0]")),
        "states[0].factor_map: r_offset must be finite",
    ),
    "transition offset nan": (
        lambda: parse_model_text(_document("p_offset: [0, 0, 0, 0]", "p_offset: [.nan, 0, 0, 0]")),
        "states[0].factor_map: p_offset must be finite",
    ),
    "terminal value nan": (
        lambda: parse_model_text(_document("terminal_values: [1.0, -1.0]", "terminal_values: [.nan, -1.0]")),
        "terminal_values must be finite",
    ),
    "tv null sample": (
        lambda: parse_model_text(
            _document("samples: [[0.2], [0.8]]", "samples: [[null], [0.8]]", "boundary_weights.yaml")
        ),
        "states[0].ambiguity: equality row holds NaN",
    ),
    "mean bound nan": (
        lambda: parse_model_text(
            _document(
                "builder: wasserstein\n    support: {kind: simplex, dim: 2}\n    samples: [[0.3, 0.7]]\n"
                "    radius: 0.2",
                "builder: uncertain_mean\n    support: {kind: simplex, dim: 2}\n    mean_lo: [.nan, 0]\n"
                "    mean_hi: [1, 1]",
            )
        ),
        "states[0].ambiguity: inequality row holds NaN",
    ),
    "box bound nan": (
        lambda: parse_model_text(
            _document("{kind: simplex, dim: 2}", "{kind: box, lo: [.nan, 0], hi: [1, 1]}")
        ),
        "states[0].ambiguity: inequality row holds NaN",
    ),
    "singleton point nan": (
        lambda: parse_model_text(_document("{kind: simplex, dim: 2}", "{kind: singleton, point: [.nan, 0.5]}")),
        "states[0].ambiguity: equality row holds NaN",
    ),
    "simplex dim inf": (
        lambda: parse_model_text(_document("dim: 2}", "dim: -.inf}")),
        "states[0].ambiguity.support.dim: cannot convert float infinity to integer",
    ),
}


@pytest.mark.parametrize("call, fragment", MODELFILE.values(), ids=MODELFILE.keys())
def test_modelfile_errors(call, fragment):
    _check(call, ModelFileError, fragment)


NEWSVENDOR = {
    "one period": (lambda: NewsvendorConfig(horizon=1), "need at least two periods"),
    "zero training size": (lambda: NewsvendorConfig(train_sizes=(0,)), "training-set sizes must be positive ints"),
    "negative training size": (
        lambda: NewsvendorConfig(train_sizes=(5, -3)),
        "training-set sizes must be positive ints",
    ),
    "fractional training size": (
        lambda: NewsvendorConfig(train_sizes=(2.5,)),
        "training-set sizes must be positive ints",
    ),
    "negative radius": (lambda: NewsvendorConfig(theta_grid=(-1.0, 0.0)), "radii must be finite and nonnegative"),
    "nan radius": (lambda: NewsvendorConfig(theta_grid=(NAN,)), "radii must be finite and nonnegative"),
    "no training sample": (
        lambda: sample_training_set((0.5, 0.5), 0, np.random.default_rng(0)),
        "need at least one training sample",
    ),
}


@pytest.mark.parametrize("call, fragment", NEWSVENDOR.values(), ids=NEWSVENDOR.keys())
def test_newsvendor_errors(call, fragment):
    _check(call, NewsvendorError, fragment)


REFORMULATION = {
    "action counts": (lambda: StageObjective([1.0, 2.0], [[1.0]]), "disagree on the action count"),
    "factor dimensions": (
        lambda: solve_srobust(StageObjective([1.0], [[1.0, 0.0, 0.0]]), build_support_only(simplex(2))),
        "stage objective and ambiguity set disagree on factor_dim",
    ),
    # the component's mean set lies outside its support: no grid
    # distribution has that mean
    # HiGHS would take the NaN entry and report an optimum
    "stage objective nan": (
        lambda: solve_srobust(StageObjective([NAN], [[1.0, 0.0]]), build_support_only(simplex(2))),
        "ended with status numerical_failure",
    ),
    "oracle LP infeasible": (
        lambda: oracle_worst_case(
            StageObjective([0.0], [[1.0]]),
            build_mixture([MixtureComponent(box([0], [1]), mean_set=box([2], [3]))], singleton([1.0])),
            [1.0],
            0.5,
        ),
        "oracle LP ended with status infeasible",
    ),
}


@pytest.mark.parametrize("call, fragment", REFORMULATION.values(), ids=REFORMULATION.keys())
def test_reformulation_errors(call, fragment):
    _check(call, ReformulationError, fragment)
