"""Geometry LPs on HiGHS against the dense-simplex reference.

Every geometry LP is asked as a max on a HiGHS model: one warm model per
set for its support, bounding-box and feasibility queries, a fresh one for
each Chebyshev radius.  The reference sends the same requests to the dense
simplex in place of `geometry.solve_lp`.
"""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import drmdp.engine as engine
import drmdp.geometry as geometry
import drmdp.lp as lp
from drmdp.ambiguity import (
    build_hybrid_wasserstein_mad,
    build_phi_divergence_tv,
    build_wasserstein,
    validate,
)
from drmdp.geometry import (
    GeometryError,
    PolyhedralSet,
    bounding_box,
    box,
    chebyshev_radius,
    enumerate_vertices,
    feasibility_check,
    intersect,
    is_nonempty_bounded,
    simplex,
    support_value,
)
from drmdp.modelfile import parse_model_file, parse_model_text

DATA = Path(__file__).resolve().parent.parent / "src" / "drmdp" / "data"
FIXTURES = ("boundary_weights", "finite_two_state", "infinite_two_state", "invalid_rows")
TOL = 1e-9


@pytest.fixture
def lp_path(monkeypatch):
    """Every set answers with LPs, never from its vertex form."""
    monkeypatch.setattr(geometry, "VERTEX_FORM_MAX_ACTIVE_SETS", -1)


def _reference(monkeypatch):
    """From here on geometry solves on the dense simplex."""
    monkeypatch.setattr(geometry, "solve_lp", lp.solve_lp)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as err:
        return type(err)


def _assert_certificate(s, cert):
    """A Farkas certificate of emptiness: y >= 0 on the inequality rows,
    a'y = 0 and b'y < 0."""
    a = np.vstack([s.a_in, s.a_eq])
    b = np.concatenate([s.b_in, s.b_eq])
    assert cert is not None and cert.shape == b.shape
    scale = np.abs(cert).max()
    assert np.all(cert[: len(s.b_in)] >= -TOL * scale)
    assert np.abs(a.T @ cert).max() <= TOL * scale
    assert b @ cert < 0


def _random_sets(rng):
    """TV weight polytopes, hybrid and Wasserstein supports, unbounded
    sets and empty ones, each built twice: one for HiGHS, one for the
    reference."""
    k = int(rng.integers(2, 5))
    samples = [rng.dirichlet(np.ones(k)) for _ in range(int(rng.integers(2, 5)))]
    theta = float(rng.uniform(0.05, 0.6))
    mean = np.mean(samples, axis=0)
    point = rng.normal(size=k)
    a = rng.normal(size=(int(rng.integers(1, k + 1)), k))
    cut = int(rng.integers(k))
    builders = {
        "tv": lambda: build_phi_divergence_tv(samples, theta).weight_set,
        "hybrid": lambda: build_hybrid_wasserstein_mad(
            samples, theta, simplex(k), 1, np.clip(mean - 0.2, 0, 1), np.clip(mean + 0.2, 0, 1), 0.2
        ).supports[0],
        "wasserstein": lambda: build_wasserstein(samples, theta, simplex(k)).supports[0],
        # at most dim rows around a point: nonempty, never compact
        "unbounded": lambda: PolyhedralSet(k, zip(a, a @ point + 1.0)),
        "empty": lambda: intersect(simplex(k), PolyhedralSet(k, [(-np.eye(k)[cut], -1.5)])),
    }
    return {name: (build(), build()) for name, build in builders.items()}


def _answers(s, directions):
    feasible, witness = feasibility_check(s)
    return {
        "support": [_outcome(support_value, s, d) for d in directions],
        "box": _outcome(bounding_box, s),
        "radius": chebyshev_radius(s),
        "nonempty_bounded": is_nonempty_bounded(s),
        "feasible": feasible,
        "witness": witness,
    }


def test_highs_geometry_matches_the_dense_simplex(lp_path, monkeypatch):
    rng = np.random.default_rng(41)
    cases = [
        (kind, pair, rng.normal(size=(5, pair[0].dim)))
        for _ in range(12)
        for kind, pair in _random_sets(rng).items()
    ]
    got = [_answers(pair[0], directions) for _, pair, directions in cases]
    _reference(monkeypatch)
    want = [_answers(pair[1], directions) for _, pair, directions in cases]
    for (kind, (s, _), directions), g, w in zip(cases, got, want):
        assert g["feasible"] == w["feasible"] == (kind != "empty")
        assert g["nonempty_bounded"] == w["nonempty_bounded"] == (kind not in ("empty", "unbounded"))
        if kind == "empty":
            _assert_certificate(s, g["witness"])
            _assert_certificate(s, w["witness"])
        else:
            assert s.contains(g["witness"], tol=TOL) and s.contains(w["witness"], tol=TOL)
        for a, b in zip(g["support"] + [g["box"]], w["support"] + [w["box"]]):
            if isinstance(b, type):
                assert a is b
            else:
                assert a == pytest.approx(b, abs=TOL)
        if kind == "unbounded":
            assert g["box"] is w["box"] is geometry.NotCompactError
        elif kind != "empty":
            # and both against the vertex enumerator, which solves no LP
            verts = enumerate_vertices(s)
            assert g["support"] == pytest.approx((verts @ directions.T).max(axis=0), abs=TOL)
            assert g["box"] == pytest.approx(np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1), abs=TOL)
        assert g["radius"] == pytest.approx(w["radius"], abs=TOL)


@pytest.mark.parametrize("backend", ["highs", "simplex"])
def test_infeasible_sets_carry_farkas_certificates(backend, monkeypatch):
    rng = np.random.default_rng(43)
    if backend == "simplex":
        _reference(monkeypatch)
    for _ in range(60):
        k = int(rng.integers(1, 6))
        base = simplex(k) if rng.random() < 0.5 else box(-rng.random(k), rng.random(k))
        d = rng.normal(size=k)
        # d.x >= (max of d.x over the base) + a margin: empty
        top = float(support_value(base, d)) + float(rng.uniform(0.01, 1.0))
        s = intersect(base, PolyhedralSet(k, [(-d, -top)]))
        ok, cert = feasibility_check(s)
        assert not ok
        _assert_certificate(s, cert)
        with pytest.raises(GeometryError):
            support_value(s, d)


def test_feasibility_witness_and_certificate_without_highs(monkeypatch):
    _reference(monkeypatch)
    ok, w = feasibility_check(simplex(3))
    assert ok and simplex(3).contains(w)
    empty = PolyhedralSet(2, [([1, 0], -1.0), ([-1, 0], -1.0)])
    ok, cert = feasibility_check(empty)
    assert not ok
    _assert_certificate(empty, cert)


def test_queries_after_an_unbounded_one_reuse_the_warm_model(lp_path):
    # x1 <= 1, x2 in [0, 2]: bounded above in x1 only
    s = PolyhedralSet(2, [([1, 0], 1.0), ([0, 1], 2.0), ([0, -1], 0.0)])
    assert support_value(s, [1.0, 1.0]) == pytest.approx(3.0, abs=TOL)
    with pytest.raises(geometry.NotCompactError):
        support_value(s, [-1.0, 0.0])
    warm = s._lp_model[1]
    assert support_value(s, [0.5, -1.0]) == pytest.approx(0.5, abs=TOL)
    assert s._lp_model[1] is warm
    assert feasibility_check(s)[0]


def test_costs_are_read_when_the_query_is_made(lp_path):
    # a caller that reuses one direction array, changed in between
    s = build_phi_divergence_tv([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]], 0.3).weight_set
    d = np.zeros(s.dim)
    values = []
    for i in range(s.dim):
        d[:] = 0.0
        d[i] = 1.0
        values.append(support_value(s, d))
    assert values == pytest.approx(bounding_box(s)[:, 1], abs=TOL)


def test_set_and_warm_geometry_model_free_without_the_cycle_collector(lp_path):
    s = build_phi_divergence_tv([[0.2, 0.8], [0.6, 0.4]], 0.3).weight_set
    assert is_nonempty_bounded(s)
    request, warm = s._lp_model
    assert warm._highs is not None
    refs = [weakref.ref(x) for x in (s, request, warm, warm._highs)]
    del request
    del warm
    gc.disable()
    try:
        del s
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Validation reports and the library's LP paths
# ---------------------------------------------------------------------------


def _validate_solve_document(rng):
    """A document shaped like the benchmark's validate-solve units: stages
    of 1, 3, 3 and 3 states, two actions sharing the factor as their
    transition row, and the Wasserstein, uncertain-mean, TV and
    support-only builders in turn, every support a simplex."""
    states = []
    for n in range(7):
        samples = rng.dirichlet(np.ones(3), size=3).tolist()
        support = {"kind": "simplex", "dim": 3}
        block = [
            {"builder": "wasserstein", "support": support, "samples": samples[:2],
             "radius": float(rng.uniform(0.05, 0.5))},
            {"builder": "uncertain_mean", "support": support, "mean_lo": [0.0] * 3,
             "mean_hi": [1.0] * 3, "center": rng.dirichlet(np.ones(3)).tolist(),
             "radius": float(rng.uniform(0.05, 0.5))},
            {"builder": "tv", "samples": samples, "radius": float(rng.uniform(0.1, 0.5))},
            {"builder": "support_only", "support": support},
        ][n % 4]
        states.append({
            "factor_map": {
                "p_mat": np.tile(np.eye(3), (2, 1)).tolist(),
                "p_offset": [0.0] * 6,
                "r_mat": np.zeros((2, 3)).tolist(),
                "r_offset": rng.normal(size=2).tolist(),
            },
            "ambiguity": block,
        })
    states += [{"terminal": True}] * 3
    return yaml.safe_dump({
        "format_version": 1,
        "stages": [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9]],
        "terminal_values": rng.normal(size=3).tolist(),
        "states": states,
    })


def _models():
    rng = np.random.default_rng(47)
    for name in FIXTURES:
        yield name, parse_model_file(DATA / f"{name}.yaml").build()
    for k in range(3):
        yield f"generated {k}", parse_model_text(_validate_solve_document(rng)).build()


def _reports():
    return {
        name: [validate(a, f) for a, f in zip(model.ambiguities, model.factor_maps) if a is not None]
        for name, model in _models()
    }


def _numbers(detail):
    return [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", detail)]


def test_validation_reports_match_the_dense_simplex(lp_path, monkeypatch):
    got = _reports()
    _reference(monkeypatch)
    want = _reports()
    assert got.keys() == want.keys()
    for name in got:
        assert len(got[name]) == len(want[name]) > 0
        for g, w in zip(got[name], want[name]):
            assert [(n, ok) for n, ok, _ in g.checks] == [(n, ok) for n, ok, _ in w.checks], name
            for (_, _, a), (_, _, b) in zip(g.checks, w.checks):
                assert _numbers(a) == pytest.approx(_numbers(b), abs=TOL), name


def test_no_library_path_calls_the_dense_simplex(monkeypatch):
    calls = []

    def counted(fn):
        return lambda prog: calls.append(prog) or fn(prog)

    monkeypatch.setattr(lp, "solve_lp", counted(lp.solve_lp))
    monkeypatch.setitem(lp._SOLVERS, "simplex", counted(lp._SOLVERS["simplex"]))
    solved = 0
    for _, model in _models():
        for a, f in zip(model.ambiguities, model.factor_maps):
            if a is not None:
                validate(a, f)
        if model.is_finite:
            _, _, certs = engine.backward_induction(model)
            engine.classical_dp_finite(model, engine.certificate_factors(certs))
        else:
            engine.value_iteration(model, 1e-6)
        solved += 1
    assert solved == len(FIXTURES) + 3
    assert not calls
