"""Differential tests of the two LP backends on LPs drawn by hypothesis.

The LPs are small (up to 12 variables and 15 rows) but hard in the ways
that break simplex codes: integer data full of ties and zero right-hand
sides (degenerate vertices), rows repeated at other scales (redundant
rows) and rows and columns scaled by powers of ten (bad scaling).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drmdp.lp import EQ, GE, INFEASIBLE, LE, LinearProgram, residuals, solve_lp, solve_lp_highs

# variable bounds: nonnegative, free, boxed, and a fixed variable
BOUNDS = ((0.0, np.inf), (-np.inf, np.inf), (-2.0, 3.0), (1.0, 1.0))


def _vector(draw, size, elements):
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)


@st.composite
def hard_lps(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    coeff = st.integers(-3, 3)
    a = np.array(
        [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)], dtype=float
    ).reshape(m, n)
    senses = draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=m, max_size=m))
    lb, ub = np.array([draw(st.sampled_from(BOUNDS)) for _ in range(n)]).T
    if draw(st.booleans()):
        # feasible: the rows hold at an integer point, many of them tightly
        x0 = np.clip(_vector(draw, n, st.integers(-2, 3)), lb, ub)
        slack = _vector(draw, m, st.sampled_from([0.0, 0.0, 1.0, 2.0]))
        b = a @ x0 + np.select([np.array(senses) == LE, np.array(senses) == GE], [slack, -slack])
    else:
        b = _vector(draw, m, st.sampled_from([0.0, 0.0, -2.0, -1.0, 1.0, 2.0, 5.0]))
    # redundant rows: positive multiples of rows already drawn
    for i, k in draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([0.5, 1.0, 3.0])),
                              max_size=3)):
        a = np.vstack([a, k * a[i]])
        b = np.append(b, k * b[i])
        senses.append(senses[i])
    c = _vector(draw, n, coeff)
    # bad scaling: row i times 10**r_i, variable j measured in units of 10**s_j
    r = 10.0 ** _vector(draw, a.shape[0], st.integers(-3, 3))
    s = 10.0 ** _vector(draw, n, st.integers(-3, 3))
    sense = draw(st.sampled_from(["min", "max"]))
    return LinearProgram(sense, c * s, r[:, None] * a * s, senses, r * b, lb / s, ub / s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hard_lps())
def test_backends_agree_on_hard_lps(lp):
    simplex, highs = solve_lp(lp), solve_lp_highs(lp)
    if simplex.optimal:
        assert max(residuals(lp, simplex).values()) <= 1e-7
    if simplex.optimal and highs.optimal:
        scale = max(1.0, abs(simplex.value), abs(highs.value))
        assert abs(simplex.value - highs.value) <= 1e-7 * scale
    assert not (simplex.optimal and highs.status == INFEASIBLE)
    assert not (highs.optimal and simplex.status == INFEASIBLE)
