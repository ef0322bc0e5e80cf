import dataclasses

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from drmdp.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpSolution,
    WarmHighs,
    dump_lp,
    get_solver,
    make_lp,
    residuals,
    solve_lp,
    solve_lp_highs,
)


def test_simplex_face():
    lp = make_lp("max", [1, 1], [([1, 1], LE, 1)])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_with_certificate():
    lp = make_lp("min", [0.0], [([1.0], LE, -1.0), ([1.0], GE, 0.0)])
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    assert sol.certificate is not None


def test_polygon_vertex_optimum():
    # max 2x1+3x2 s.t. x1<=2, x2<=1, x1+x2<=2.5, x>=0.
    # Vertex enumeration: (0,0)->0, (2,0)->4, (2,.5)->5.5, (1.5,1)->6, (0,1)->3.
    lp = make_lp(
        "max",
        [2, 3],
        [([1, 0], LE, 2), ([0, 1], LE, 1), ([1, 1], LE, 2.5)],
    )
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(6.0, abs=1e-9)
    assert sol.x == pytest.approx([1.5, 1.0], abs=1e-9)


def test_unbounded():
    lp = make_lp("max", [1.0], [([-1.0], LE, 0.0)])
    assert solve_lp(lp).status == UNBOUNDED


def test_equality_and_free_vars():
    # min x + y s.t. x + y = 3, x - y >= 1, y free below
    lp = make_lp(
        "min",
        [1, 1],
        [([1, 1], EQ, 3), ([1, -1], GE, 1)],
        bounds=[(-np.inf, np.inf), (-np.inf, np.inf)],
    )
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(3.0, abs=1e-9)


def test_bounded_variables():
    lp = make_lp("max", [1, 2], [], bounds=[(-1, 2), (0, 5)])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(12.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 5.0])


def test_certificate_residuals():
    lp = make_lp(
        "max",
        [2, 3],
        [([1, 0], LE, 2), ([0, 1], LE, 1), ([1, 1], LE, 2.5)],
    )
    sol = solve_lp(lp)
    res = residuals(lp, sol)
    for name, v in res.items():
        assert v <= 1e-8, (name, v)


def test_idempotent_resolve():
    rng = np.random.default_rng(0)
    c = rng.normal(size=5)
    a = rng.normal(size=(4, 5))
    lp = make_lp("max", c, [(a[i], LE, 1.0) for i in range(4)], bounds=[(0, 1)] * 5)
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.value == s2.value
    assert s1.status == s2.status
    assert np.array_equal(s1.x, s2.x)


def test_dimension_mismatch_raises():
    with pytest.raises(LpError):
        make_lp("min", [1, 2], [([1.0], LE, 0.0)])


def _random_bounded_lp(rng, n_vars, n_rows):
    c = rng.normal(size=n_vars)
    a = rng.normal(size=(n_rows, n_vars))
    b = rng.uniform(0.5, 2.0, size=n_rows)
    rows = [(a[i], LE, b[i]) for i in range(n_rows)]
    return make_lp("max", c, rows, bounds=[(0.0, rng.uniform(0.5, 3.0))] * n_vars)


def _vertex_value(lp):
    # brute-force: enumerate all basic points of the box+rows system
    from itertools import combinations

    n = lp.n_vars
    rows = [(lp.a[i], lp.b[i]) for i in range(lp.n_rows)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((-e, -lp.lb[j]))
        rows.append((e, lp.ub[j]))
    best = -np.inf
    for idx in combinations(range(len(rows)), n):
        amat = np.array([rows[i][0] for i in idx])
        bvec = np.array([rows[i][1] for i in idx])
        if abs(np.linalg.det(amat)) < 1e-10:
            continue
        x = np.linalg.solve(amat, bvec)
        if all(r[0] @ x <= r[1] + 1e-9 for r in rows):
            best = max(best, lp.c @ x)
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(30):
        lp = _random_bounded_lp(rng, rng.integers(2, 5), rng.integers(1, 4))
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.value == pytest.approx(_vertex_value(lp), abs=1e-7)
        res = residuals(lp, sol)
        assert max(res.values()) <= 1e-8


def test_highs_backend_agrees_with_simplex():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lp = _random_bounded_lp(rng, 4, 3)
        s1 = solve_lp(lp)
        s2 = solve_lp_highs(lp)
        assert s1.status == s2.status == OPTIMAL
        assert s1.value == pytest.approx(s2.value, abs=1e-7)
        assert np.allclose(s1.y, s2.y, atol=1e-6) or max(residuals(lp, s2).values()) <= 1e-7


def test_highs_duals_satisfy_residuals():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lp = _random_bounded_lp(rng, 4, 3)
        sol = solve_lp_highs(lp)
        assert max(residuals(lp, sol).values()) <= 1e-7


def test_get_solver_seam():
    assert get_solver("simplex") is solve_lp
    with pytest.raises(LpError):
        get_solver("nope")


def test_dump_lp_roundtrippable_text():
    lp = make_lp("max", [1, -2], [([1, 1], LE, 3), ([1, -1], EQ, 0)])
    text = dump_lp(lp)
    assert "Maximize" in text and "c0:" in text and "End" in text


def _loop_residuals(lp, sol):
    """Row-by-row reference for `residuals`, on a dense matrix."""
    x, y = sol.x, sol.y
    scale = 1.0 + max(np.abs(lp.b).max(initial=0.0), np.abs(x).max(initial=0.0))
    ax = lp.a @ x
    primal = 0.0
    for i, s in enumerate(lp.row_senses):
        if s == LE:
            primal = max(primal, ax[i] - lp.b[i])
        elif s == GE:
            primal = max(primal, lp.b[i] - ax[i])
        else:
            primal = max(primal, abs(ax[i] - lp.b[i]))
    primal = max(primal, np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0))
    sign = 1.0 if lp.sense == "min" else -1.0
    dual = 0.0
    for i, s in enumerate(lp.row_senses):
        if s == LE:
            dual = max(dual, sign * y[i])
        elif s == GE:
            dual = max(dual, -sign * y[i])
    r = lp.c - lp.a.T @ y
    dscale = 1.0 + np.abs(lp.c).max(initial=0.0)
    comp = 0.0
    for j in range(lp.n_vars):
        at_lb = x[j] - lp.lb[j] <= 1e-7 * scale
        at_ub = lp.ub[j] - x[j] <= 1e-7 * scale
        rj = sign * r[j]
        if at_lb and at_ub:
            continue
        if at_lb:
            dual = max(dual, -rj / dscale)
        elif at_ub:
            dual = max(dual, rj / dscale)
        else:
            dual = max(dual, abs(rj) / dscale)
    for i, s in enumerate(lp.row_senses):
        if s == EQ:
            continue
        slack = lp.b[i] - ax[i] if s == LE else ax[i] - lp.b[i]
        comp = max(comp, abs(y[i] * slack) / (scale * dscale))
    bound_part = 0.0
    for j in range(lp.n_vars):
        at_lb = x[j] - lp.lb[j] <= 1e-7 * scale
        at_ub = lp.ub[j] - x[j] <= 1e-7 * scale
        if at_lb and abs(lp.lb[j]) > 0:
            bound_part += r[j] * lp.lb[j]
        elif at_ub and abs(lp.ub[j]) > 0:
            bound_part += r[j] * lp.ub[j]
    gap = abs((lp.c @ x) - (y @ lp.b + bound_part)) / (scale * dscale)
    return {"primal": primal / scale, "dual": dual, "comp": comp, "gap": gap}


def _mixed_lp(rng, n_vars, n_rows):
    """Feasible LP with every row sense and free, fixed, one- and two-sided
    bounds."""
    kinds = rng.integers(0, 5, size=n_vars)
    lb = np.choose(kinds, [0.0, -np.inf, -np.inf, 0.5, -1.0])
    ub = np.choose(kinds, [2.0, np.inf, 1.0, 0.5, np.inf])
    x0 = np.clip(rng.uniform(-0.5, 1.5, n_vars), lb, ub)
    a = rng.normal(size=(n_rows, n_vars))
    senses = tuple(rng.choice([LE, GE, EQ], size=n_rows))
    slack = rng.uniform(0.1, 1.0, n_rows)
    b = a @ x0 + np.select([np.array(senses) == LE, np.array(senses) == GE], [slack, -slack], 0.0)
    sense = str(rng.choice(["min", "max"]))
    return LinearProgram(sense, rng.normal(size=n_vars), a, senses, b, lb, ub)


def test_vectorized_residuals_match_the_loop_reference():
    # sums are reordered (bound terms, sparse products), so agreement is to
    # a few float64 ulps of each residual's scale, not bitwise
    rng = np.random.default_rng(42)
    compared = 0
    for k in range(30):
        if k % 2:
            lp = _mixed_lp(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
        else:
            lp = _random_bounded_lp(rng, rng.integers(2, 5), rng.integers(1, 4))
        for solve in (solve_lp, solve_lp_highs):
            sol = solve(lp)
            if not sol.optimal:
                continue
            # the optimum, and a perturbed point whose residuals are O(1)
            noisy = LpSolution(
                OPTIMAL,
                x=sol.x + rng.normal(scale=0.3, size=lp.n_vars),
                y=sol.y + rng.normal(scale=0.3, size=lp.n_rows),
            )
            for point in (sol, noisy):
                ref = _loop_residuals(lp, point)
                for prog in (lp, dataclasses.replace(lp, a=csc_matrix(lp.a))):
                    got = residuals(prog, point)
                    assert got.keys() == ref.keys()
                    for name, value in ref.items():
                        assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-15), name
                compared += 1
    assert compared >= 100


def test_sparse_matrix_solves_like_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lp = _mixed_lp(rng, 5, 4)
        sparse = dataclasses.replace(lp, a=csc_matrix(lp.a))
        for solve in (solve_lp, solve_lp_highs):
            s1, s2 = solve(lp), solve(sparse)
            assert s1.status == s2.status
            if s1.optimal:
                assert s2.value == pytest.approx(s1.value, abs=1e-9)
        assert dump_lp(sparse) == dump_lp(lp)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_warm_model_matches_cold_across_leading_columns(sense):
    # the shared columns alone satisfy the rows at x0, and the leading
    # columns may sit at 0, so every LP of the family is feasible
    rng = np.random.default_rng(5)
    n_rows, n_shared = 5, 6
    shared = rng.normal(size=(n_rows, n_shared))
    x0 = rng.uniform(0.2, 0.8, n_shared)
    senses = (LE, GE, EQ, LE, EQ)
    b = shared @ x0 + np.array([0.5, -0.5, 0.0, 0.3, 0.0])
    c_shared = rng.normal(size=n_shared)
    warm = WarmHighs(n_shared)
    for n_lead in (3, 1, 2, 0, 3):
        a = np.hstack([rng.normal(size=(n_rows, n_lead)), shared])
        c = np.concatenate([rng.normal(size=n_lead), c_shared])
        lp = LinearProgram(sense, c, a, senses, b, np.zeros(n_lead + n_shared),
                           np.full(n_lead + n_shared, 2.0), warm=warm)
        hot, cold = solve_lp_highs(lp), solve_lp_highs(dataclasses.replace(lp, warm=None))
        assert hot.optimal and cold.optimal
        assert hot.value == pytest.approx(cold.value, abs=1e-9)
        assert hot.value == pytest.approx(solve_lp(lp).value, abs=1e-7)
        # x in the LP's column order, y as shadow prices for its sense
        assert max(residuals(lp, hot).values()) <= 1e-7


def test_warm_model_rejects_an_lp_with_other_rows():
    warm = WarmHighs(2)
    lp = make_lp("max", [1.0, 1.0, 1.0], [([1, 1, 1], LE, 1.0)])
    assert solve_lp_highs(dataclasses.replace(lp, warm=warm)).optimal
    other = make_lp("max", [1.0, 1.0], [([1, 1], LE, 1.0), ([1, 0], LE, 0.5)])
    with pytest.raises(LpError, match="warm model"):
        solve_lp_highs(dataclasses.replace(other, warm=warm))


def test_warm_model_rebuilt_after_a_rejected_column():
    warm = WarmHighs(2)
    rows = [([1.0, 1.0, 1.0], LE, 1.0), ([2.0, 0.0, 1.0], LE, 0.5)]
    good = dataclasses.replace(make_lp("max", [3.0, 1.0, 2.0], rows), warm=warm)
    assert solve_lp_highs(good).optimal
    bad_rows = [([np.inf, 1.0, 1.0], LE, 1.0), rows[1]]
    bad = dataclasses.replace(make_lp("max", [3.0, 1.0, 2.0], bad_rows), warm=warm)
    assert solve_lp_highs(bad).status == solve_lp_highs(dataclasses.replace(bad, warm=None)).status
    assert solve_lp_highs(bad).status == "numerical_failure"
    again = solve_lp_highs(good)
    assert again.optimal
    assert again.value == pytest.approx(solve_lp(good).value, abs=1e-9)
