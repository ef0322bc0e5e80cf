"""The dense simplex's array-built standard form against a loop that
builds it one variable at a time: the same arrays bit for bit, and the
same columns in the same order, which both pricing rules read."""

import numpy as np
from hypothesis import given, settings
from test_lp_differential import hard_lps

from drmdp.lp import EQ, LE, _to_standard_form


def _loop_standard_form(lp):
    """x_j = lb_j + t, with a bound row when ub_j is finite too; ub_j - t;
    or t - t'.  Returns the arrays and each column's (variable, sign)."""
    c = lp.c if lp.sense == "min" else -lp.c
    a = lp.dense_a()
    cols, costs, columns, bound_rows = [], [], [], []
    shift = np.zeros(lp.n_vars)
    for j, (lo, hi) in enumerate(zip(lp.lb, lp.ub)):
        if np.isfinite(lo):
            shift[j], signs = lo, (1.0,)
            if np.isfinite(hi):
                bound_rows.append((len(cols), hi - lo))
        elif np.isfinite(hi):
            shift[j], signs = hi, (-1.0,)
        else:
            signs = (1.0, -1.0)
        for sign in signs:
            columns.append((j, sign))
            cols.append(a[:, j] if sign > 0 else -a[:, j])
            costs.append(c[j] if sign > 0 else -c[j])
    senses = list(lp.row_senses) + [LE] * len(bound_rows)
    slacks = [i for i, s in enumerate(senses) if s != EQ]
    m0, n = lp.n_rows, len(cols)
    a_full = np.zeros((len(senses), n + len(slacks)))
    a_full[:m0, :n] = np.column_stack(cols) if cols else np.zeros((m0, 0))
    for k, (col, _) in enumerate(bound_rows):
        a_full[m0 + k, col] = 1.0
    for k, i in enumerate(slacks):
        a_full[i, n + k] = 1.0 if senses[i] == LE else -1.0
    b_full = np.concatenate([lp.b - a @ shift, [rhs for _, rhs in bound_rows]])
    neg = b_full < 0
    a_full[neg] *= -1.0
    b_full[neg] *= -1.0
    c_full = np.concatenate([costs, np.zeros(len(slacks))])
    return (a_full, b_full, c_full, shift, np.where(neg, -1.0, 1.0)), columns


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hard_lps())
def test_standard_form_matches_a_per_variable_loop(lp):
    sf = _to_standard_form(lp)
    arrays, columns = _loop_standard_form(lp)
    for got, want in zip((sf.a, sf.b, sf.c, sf.shift, sf.row_signs), arrays):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert list(zip(sf.var.tolist(), sf.sign.tolist())) == columns
