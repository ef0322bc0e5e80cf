import dataclasses
import importlib
import inspect
import pkgutil
from collections import Counter

import numpy as np
import pytest
from conftest import leading_request, make_lp
from hypothesis import given, settings
from scipy.sparse import csc_matrix
from test_lp_differential import hard_lps

import drmdp.lp

from drmdp.lp import (
    EQ,
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    PRIMAL_SIMPLEX,
    TIME_LIMIT,
    UNBOUNDED,
    UNBOUNDED_OR_INFEASIBLE,
    CscArrays,
    LeadingColumns,
    LinearProgram,
    LpError,
    LpSolution,
    HighsModelStatus,
    WarmHighs,
    _highs_status,
    dump_lp,
    get_solver,
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


def test_every_solver_keyword_defaults_to_highs():
    import drmdp

    defaults = {}
    for info in pkgutil.iter_modules(drmdp.__path__):
        module = importlib.import_module(f"drmdp.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            param = inspect.signature(fn).parameters.get("solver")
            if param is not None and not name.startswith("_") and fn.__module__ == module.__name__:
                defaults[name] = param.default
    assert {
        "backward_induction", "bellman_operator", "value_iteration",
        "evaluate_policy_worst_case", "worst_case_expectation", "solve_srobust",
        "oracle_worst_case", "solve_order_strategy", "run_experiment",
    } <= defaults.keys()
    (default,) = set(defaults.values())
    assert get_solver(default) is solve_lp_highs


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
                for a in (lp.a, CscArrays.of(lp.a)):
                    prog = dataclasses.replace(lp, a=a)
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
        sparse = dataclasses.replace(lp, a=CscArrays.of(lp.a))
        for solve in (solve_lp, solve_lp_highs):
            s1, s2 = solve(lp), solve(sparse)
            assert s1.status == s2.status
            if s1.optimal:
                assert s2.value == pytest.approx(s1.value, abs=1e-9)
        np.testing.assert_array_equal(sparse.dense_a(), lp.a)
        assert dump_lp(sparse) == dump_lp(lp)


def test_csc_record_holds_and_densifies_what_scipy_does():
    rng = np.random.default_rng(9)
    for shape in ((4, 5), (6, 2), (3, 0), (0, 2)):
        a = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        got, ref = CscArrays.of(a), csc_matrix(a)
        assert got.shape == ref.shape and got.nnz == ref.nnz
        for name in ("data", "indices", "indptr"):
            mine, scipys = getattr(got, name), getattr(ref, name)
            assert mine.dtype == scipys.dtype and mine.tobytes() == scipys.tobytes(), name
        dense = got.toarray()
        np.testing.assert_array_equal(dense, ref.toarray())
        assert dense.flags.f_contiguous == ref.toarray().flags.f_contiguous
    # stored zeros, a -0.0 among them, densify to +0.0 as scipy's do
    arrays = (np.array([-0.0, 1.0, 0.0, -2.0]), np.array([0, 1, 0, 1], np.int32), np.array([0, 2, 4], np.int32))
    got, ref = CscArrays(*arrays, (2, 2)).toarray(), csc_matrix(arrays, shape=(2, 2)).toarray()
    assert got.tobytes() == ref.tobytes()


def test_request_of_the_held_entries_writes_none(monkeypatch):
    # a geometry query sends the very entry array its model holds; a backup
    # sends a new one, whose changed entries are found and written
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 3))
    lp = LinearProgram("max", np.zeros(3), a, (LE,) * 4, np.ones(4), np.zeros(3), np.ones(3))
    lead = LeadingColumns.of(lp, WarmHighs())
    gathers = []
    real = drmdp.lp._HeldColumns.entry_cols
    monkeypatch.setattr(drmdp.lp._HeldColumns, "entry_cols", lambda held: gathers.append(1) or real(held))
    for c in rng.normal(size=(3, 3)):
        assert solve_lp_highs(dataclasses.replace(lead, c=c)).optimal
    assert gathers == []
    value = lead.value * 2.0
    got = solve_lp_highs(dataclasses.replace(lead, c=np.ones(3), value=value))
    assert gathers == [1]
    ref = solve_lp(make_lp("max", np.ones(3), [(row, LE, 1.0) for row in 2.0 * a], [(0.0, 1.0)] * 3))
    assert got.value == pytest.approx(ref.value, abs=1e-9)


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
    warm = WarmHighs()
    for n_lead in (3, 1, 2, 0, 3):
        a = np.hstack([rng.normal(size=(n_rows, n_lead)), shared])
        c = np.concatenate([rng.normal(size=n_lead), c_shared])
        lp = LinearProgram(sense, c, a, senses, b, np.zeros(n_lead + n_shared), np.full(n_lead + n_shared, 2.0))
        hot, cold = solve_lp_highs(leading_request(lp, n_shared, warm)), solve_lp_highs(lp)
        assert hot.optimal and cold.optimal
        assert hot.value == pytest.approx(cold.value, abs=1e-9)
        assert hot.value == pytest.approx(solve_lp(lp).value, abs=1e-7)
        # x in the LP's column order, y as shadow prices for its sense
        assert max(residuals(lp, hot).values()) <= 1e-7


def test_first_request_sets_the_shared_count():
    # the same LP split after one, two or three leading columns: the model
    # serves only the split it was built with
    lp = make_lp("max", [1.0, 2.0, 3.0], [([1, 1, 1], LE, 1.0), ([1, 2, 0], LE, 1.5)])
    warm = WarmHighs()
    assert warm.n_shared is None
    first = solve_lp_highs(leading_request(lp, 2, warm))
    assert first.optimal and warm.n_shared == 2
    assert first.value == pytest.approx(solve_lp(lp).value, abs=1e-9)
    for n_shared in (0, 1, 3):
        with pytest.raises(LpError, match="warm model"):
            solve_lp_highs(leading_request(lp, n_shared, warm))
    assert solve_lp_highs(leading_request(lp, 2, warm)).value == first.value


@pytest.mark.parametrize("sparse", [False, True])
def test_request_of_an_lp_holds_its_compressed_columns(sparse):
    # a dense matrix is compressed once, as CscArrays.of does; a CscArrays
    # matrix is taken as it is, a stored zero included
    lp = _mixed_lp(np.random.default_rng(8), 5, 4)
    csc = CscArrays.of(lp.a)
    if sparse:
        indptr = np.append(csc.indptr[:-1], csc.nnz + 1).astype(np.int32)
        csc = CscArrays(np.append(csc.data, 0.0), np.append(csc.indices, np.int32(0)), indptr, csc.shape)
        lp = dataclasses.replace(lp, a=csc)
    lead = LeadingColumns.of(lp)
    for got, ref in ((lead.starts, csc.indptr[:-1]), (lead.index, csc.indices), (lead.value, csc.data)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert not sparse or (lead.index is csc.indices and lead.value is csc.data)
    assert lead.shared.n_vars == 0 and lead.n_rows == lp.n_rows
    assert lead.c is lp.c and lead.lb is lp.lb and lead.ub is lp.ub
    np.testing.assert_array_equal(lead.lp().dense_a(), lp.dense_a())


def test_nan_entry_ends_the_run_before_it_is_written():
    # HiGHS takes a NaN entry and reports an optimum.  No NaN reaches it: a
    # leading or a shared one on the build, or a leading one in a swap;
    # the model is dropped and the next request builds a new one
    lp = make_lp("max", [1.0, 1.0, 1.0], [([1, 1, 1], LE, 1.0), ([2, 0, 1], LE, 0.5)])
    ref = solve_lp(lp).value
    for column, built in ((0, False), (2, False), (1, True)):
        warm = WarmHighs()
        if built:
            assert solve_lp_highs(leading_request(lp, 1, warm)).optimal
        a = lp.a.copy()
        a[1, column] = np.nan
        bad = leading_request(dataclasses.replace(lp, a=a), 1, warm)
        assert solve_lp_highs(bad).status == NUMERICAL_FAILURE
        assert warm._highs is None
        assert solve_lp_highs(leading_request(lp, 1, warm)).value == pytest.approx(ref, abs=1e-9)


def test_warm_model_rejects_an_lp_with_other_rows():
    warm = WarmHighs()
    lp = make_lp("max", [1.0, 1.0, 1.0], [([1, 1, 1], LE, 1.0)])
    assert solve_lp_highs(leading_request(lp, 2, warm)).optimal
    other = make_lp("max", [1.0, 1.0], [([1, 1], LE, 1.0), ([1, 0], LE, 0.5)])
    with pytest.raises(LpError, match="warm model"):
        solve_lp_highs(leading_request(other, 2, warm))


def test_warm_model_rebuilt_after_a_rejected_column():
    warm = WarmHighs()
    rows = [([1.0, 1.0, 1.0], LE, 1.0), ([2.0, 0.0, 1.0], LE, 0.5)]
    good = leading_request(make_lp("max", [3.0, 1.0, 2.0], rows), 2, warm)
    assert solve_lp_highs(good).optimal
    bad_rows = [([np.inf, 1.0, 1.0], LE, 1.0), rows[1]]
    bad = leading_request(make_lp("max", [3.0, 1.0, 2.0], bad_rows), 2, warm)
    assert solve_lp_highs(bad).status == solve_lp_highs(dataclasses.replace(bad, warm=None)).status
    assert solve_lp_highs(bad).status == "numerical_failure"
    again = solve_lp_highs(good)
    assert again.optimal
    assert again.value == pytest.approx(solve_lp(good).value, abs=1e-9)


def _unbounded_mixed_lp():
    """A feasible max LP with six variables and a <= and a >= row whose
    objective is unbounded; HiGHS's presolve calls it infeasible."""
    rng = np.random.default_rng(0)
    for _ in range(150):
        lp = _mixed_lp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)))
    return lp


def test_feasible_unbounded_lp_is_reported_unbounded():
    lp = _unbounded_mixed_lp()
    assert lp.sense == "max" and lp.n_vars == 6 and lp.row_senses == (LE, GE)
    assert solve_lp_highs(dataclasses.replace(lp, c=np.zeros(6))).optimal
    for solve in (solve_lp, solve_lp_highs):
        assert solve(lp).status == UNBOUNDED, solve.__name__
    warm = WarmHighs()
    assert solve_lp_highs(leading_request(lp, 0, warm)).status == UNBOUNDED
    # the retry leaves presolve on for the model's next LP
    assert warm._highs.getOptionValue("presolve")[1] == "choose"


def _lead_family(rng, n_rows=5, n_shared=6):
    """A shared part whose every LP is feasible and bounded: boxed columns,
    and a pair of penalised slack columns per row."""
    shared_a = np.hstack([rng.normal(size=(n_rows, n_shared)), np.eye(n_rows), -np.eye(n_rows)])
    n_cols = n_shared + 2 * n_rows
    senses = (LE, GE, EQ, LE, EQ)
    b = rng.normal(size=n_rows)

    def shared(sense):
        penalty = -1.0 if sense == "max" else 1.0
        c = np.concatenate([rng.normal(size=n_shared), np.full(2 * n_rows, penalty)])
        return LinearProgram(
            sense, c, CscArrays.of(shared_a), senses, b, np.zeros(n_cols), np.full(n_cols, 100.0)
        )

    return shared


def _pattern(rng, n_rows, counts):
    """Column starts and row indices of columns with the given entry
    counts."""
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int32)
    index = np.concatenate([np.sort(rng.choice(n_rows, k, replace=False)) for k in counts]).astype(np.int32)
    return starts, index


@pytest.mark.parametrize("sense", ["min", "max"])
def test_in_place_edits_match_cold_solves(sense, monkeypatch):
    rng = np.random.default_rng(21)
    shared = _lead_family(rng)(sense)
    warm = WarmHighs()
    paths = []
    for name in ("_edit_in_place", "_swap_in"):
        edit = getattr(WarmHighs, name)

        def recorded(self, lead, edit=edit, name=name):
            if self is warm:
                paths.append(name)
            return edit(self, lead)

        monkeypatch.setattr(WarmHighs, name, recorded)
    patterns = {"a": _pattern(rng, shared.n_rows, [2, 1, 3]), "b": _pattern(rng, shared.n_rows, [1, 2])}
    # "c" has the shape of "a" but other rows
    patterns["c"] = (patterns["a"][0], patterns["a"][1].copy())
    patterns["c"][1][:2] = np.setdiff1d(np.arange(shared.n_rows), patterns["a"][1][:2])[:2]
    costs = {name: rng.normal(size=len(starts)) for name, (starts, _) in patterns.items()}
    free = {name: (np.zeros(len(starts)), np.full(len(starts), 2.0)) for name, (starts, _) in patterns.items()}
    # (pattern, pinned, new costs, pattern arrays copied rather than shared)
    plan = [
        ("a", False, False, False), ("a", False, False, False), ("a", True, False, False),
        ("a", True, True, False), ("a", False, True, True), ("b", False, False, False),
        ("b", True, False, False), ("a", True, False, False), ("a", False, False, False),
        ("c", False, False, False), ("c", True, True, False),
    ]
    for name, pinned, new_costs, copied in plan:
        starts, index = patterns[name]
        if copied:
            starts, index = starts.copy(), index.copy()
        k = len(starts)
        if new_costs:
            costs[name] = rng.normal(size=k)
        lb, ub = (np.full(k, rng.uniform(0.0, 1.0)),) * 2 if pinned else free[name]
        value = rng.normal(size=index.shape[0])
        lead = LeadingColumns(shared, costs[name], lb, ub, starts, index, value, warm)
        hot, cold = solve_lp_highs(lead), solve_lp_highs(dataclasses.replace(lead, warm=None))
        assert hot.optimal and cold.optimal
        assert hot.value == pytest.approx(cold.value, abs=1e-9)
        assert max(residuals(lead.lp(), hot).values()) <= 1e-7
    # a pattern the model holds is edited in place, any other swapped in;
    # the first swap builds the model
    swap, edit = "_swap_in", "_edit_in_place"
    assert paths == [swap, edit, edit, edit, edit, swap, edit, swap, edit, swap, edit]


def test_unchanged_request_re_solves_in_no_iteration():
    rng = np.random.default_rng(4)
    shared = _lead_family(rng)("max")
    starts, index = _pattern(rng, shared.n_rows, [1, 3, 2])
    lead = LeadingColumns(shared, rng.normal(size=3), np.zeros(3), np.full(3, 2.0), starts, index,
                          rng.normal(size=index.shape[0]), WarmHighs())
    first, again = solve_lp_highs(lead), solve_lp_highs(lead)
    assert first.optimal and again.optimal
    assert again.iterations == 0
    assert again.value == first.value


def test_infinite_entry_written_in_place_rebuilds_the_model():
    rng = np.random.default_rng(9)
    shared = _lead_family(rng)("min")
    starts, index = _pattern(rng, shared.n_rows, [2, 2])
    warm = WarmHighs()

    def request(value):
        return LeadingColumns(shared, np.ones(2), np.zeros(2), np.full(2, 2.0), starts, index, value, warm)

    good = request(rng.normal(size=index.shape[0]))
    assert solve_lp_highs(good).optimal
    model = warm._highs
    bad_value = good.value.copy()
    bad_value[-1] = np.inf
    assert solve_lp_highs(request(bad_value)).status == NUMERICAL_FAILURE
    assert warm._highs is None
    again = solve_lp_highs(good)
    assert again.optimal and warm._highs is not model
    assert again.value == pytest.approx(solve_lp_highs(dataclasses.replace(good, warm=None)).value, abs=1e-9)


def _infeasible_lp(rng, sense):
    """Free variables under rows of every sense around a point, and one
    more row that no point of the others meets: a feasible "<=" row
    flipped into ">=" beyond its reach over a box around the point."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    point = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    senses = tuple(rng.choice([LE, GE, EQ], size=m))
    slack = {LE: 1.0, GE: -1.0, EQ: 0.0}
    b = a @ point + np.array([slack[s] for s in senses])
    # a box of half-width 1 around the point, then d.x at least its max + 1
    d = rng.normal(size=n)
    box = np.vstack([np.eye(n), -np.eye(n)])
    a = np.vstack([a, box, d])
    b = np.concatenate([b, point + 1.0, 1.0 - point, [d @ point + np.abs(d).sum() + 1.0]])
    senses = senses + (LE,) * (2 * n) + (GE,)
    return LinearProgram(sense, rng.normal(size=n), a, senses, b, np.full(n, -np.inf), np.full(n, np.inf))


@pytest.mark.parametrize("sense", ["min", "max"])
def test_highs_farkas_certificate_follows_the_simplex_convention(sense):
    # y is a shadow price for the stated sense: for max, y >= 0 on "<=",
    # y <= 0 on ">=" and y'b < 0; for min, the signs flip.  a'y = 0.
    rng = np.random.default_rng(31)
    sign = 1.0 if sense == "max" else -1.0
    for _ in range(40):
        lp = _infeasible_lp(rng, sense)
        senses = np.array(lp.row_senses)
        for solve in (solve_lp, solve_lp_highs):
            sol = solve(lp)
            assert sol.status == INFEASIBLE, solve.__name__
            y = sign * sol.certificate
            scale = np.abs(y).max()
            assert np.all(y[senses == LE] >= -1e-9 * scale)
            assert np.all(y[senses == GE] <= 1e-9 * scale)
            assert np.abs(lp.a.T @ y).max() <= 1e-9 * scale
            assert lp.b @ y < 0


def test_highs_limits_and_undecided_runs_get_their_own_status():
    assert _highs_status(HighsModelStatus.kUnboundedOrInfeasible) == UNBOUNDED_OR_INFEASIBLE
    assert _highs_status(HighsModelStatus.kIterationLimit) == ITERATION_LIMIT
    assert _highs_status(HighsModelStatus.kTimeLimit) == TIME_LIMIT
    assert _highs_status(HighsModelStatus.kSolveError) == NUMERICAL_FAILURE
    lp = _mixed_lp(np.random.default_rng(2), 4, 3)
    assert solve_lp_highs(lp).iterations > 0
    for options, status in (({"simplex_iteration_limit": 0}, ITERATION_LIMIT), ({"time_limit": 0.0}, TIME_LIMIT)):
        sol = solve_lp_highs(leading_request(lp, 0, WarmHighs(options)))
        assert sol.status == status and sol.certificate is None


def test_model_options_survive_the_cold_retry():
    # the retry runs the dual simplex without presolve, then the model's own
    # options return
    options = {"presolve": "off", "simplex_strategy": PRIMAL_SIMPLEX}
    warm = WarmHighs(options)
    lp = _unbounded_mixed_lp()
    assert solve_lp_highs(leading_request(lp, 0, warm)).status == UNBOUNDED
    assert solve_lp_highs(leading_request(dataclasses.replace(lp, c=np.zeros(6)), 0, warm)).optimal
    for name, value in options.items():
        assert warm._highs.getOptionValue(name)[1] == value


def test_pure_blands_rule_agrees_with_dantzig_and_highs():
    # with no Dantzig iteration allowed, every pivot follows Bland's rule
    outcomes = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hard_lps())
    def check(lp):
        dantzig, highs = solve_lp(lp), solve_lp_highs(lp)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drmdp.lp, "STALL_FACTOR", 0)
            bland = solve_lp(lp)
        outcomes[bland.status, dantzig.status] += 1
        # on the worst-scaled LPs a dense tableau can lose its accuracy
        # under either rule, and the residual check reports the failure
        if NUMERICAL_FAILURE not in (bland.status, dantzig.status):
            assert bland.status == dantzig.status
        assert not (bland.optimal and highs.status == INFEASIBLE)
        if bland.optimal and highs.optimal:
            assert max(residuals(lp, bland).values()) <= 1e-7
            assert abs(bland.value - highs.value) <= 1e-7 * max(1.0, abs(bland.value), abs(highs.value))

    check()
    assert sum(outcomes.values()) == 300
    # such failures are rare: about 1% of these LPs under Bland's rule
    assert sum(k for (b, d), k in outcomes.items() if b == d != NUMERICAL_FAILURE) >= 297
