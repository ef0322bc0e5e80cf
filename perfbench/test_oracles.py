"""Hand-worked cases for the benchmark's reference computations.

Run with `python3 -m pytest perfbench/test_oracles.py`; the repository's
own test run collects `tests/` only.
"""

import pytest

from oracles import newsvendor_optimal_cost, singleton_document_value

# inventories {-1, 0, 1}, demand 0 or 1 with equal odds, order 1, hold 2,
# backorder 3: terminal charges V(-1) = 3, V(0) = 0, V(1) = 2.
SMALL = dict(s_min=-1, s_max=1, order_cost=1.0, holding_cost=2.0,
             backorder_cost=3.0, demand_law=(0.5, 0.5))


def test_newsvendor_one_decision_period():
    # from 0: order 0 costs 0.5*V(0) + 0.5*V(-1) = 1.5; order 1 costs
    # 1 + 0.5*V(1) + 0.5*V(0) = 2.  Ordering 0, the cost is 0 or 3.
    mean, std = newsvendor_optimal_cost(horizon=2, **SMALL)
    assert mean == pytest.approx(1.5, abs=1e-12)
    assert std == pytest.approx(1.5, abs=1e-12)


def test_newsvendor_two_decision_periods():
    # period 2: V(-1) = 3 + min(3, 2.5, 3) = 5.5, V(0) = 1.5, V(1) = 2 + 1 = 3;
    # period 1 from 0: order 0 costs 0.5*1.5 + 0.5*5.5 = 3.5, order 1 costs
    # 1 + 0.5*3 + 0.5*1.5 = 3.25.  Ordering 1, then nothing: the four
    # demand pairs cost 5, 3, 1 and 4, so the variance is 51/4 - 3.25^2.
    mean, std = newsvendor_optimal_cost(horizon=3, **SMALL)
    assert mean == pytest.approx(3.25, abs=1e-12)
    assert std == pytest.approx((51 / 4 - 3.25**2) ** 0.5, abs=1e-12)


def _pinned(point, p_mat, r_mat, r_offset):
    n_rows = len(p_mat)
    return {
        "factor_map": {
            "p_mat": p_mat,
            "p_offset": [0.0] * n_rows,
            "r_mat": r_mat,
            "r_offset": r_offset,
        },
        "ambiguity": {"builder": "support_only",
                      "support": {"kind": "singleton", "point": point}},
    }


def _doc(root):
    eye2 = [[1, 0], [0, 1]]
    return {
        "format_version": 1,
        "stages": [[0], [1, 2], [3, 4]],
        "terminal_values": [1.0, -1.0],
        "states": [
            root,
            # one action: 0.5 + 0.25*1 + 0.75*(-1) = 0
            _pinned([0.25, 0.75], eye2, [[0, 0]], [0.5]),
            # rewards (2, 0) + (0, 1) = (2, 1), both move to the first
            # terminal state: q = (3, 2), value 3
            _pinned([1.0, 0.0], eye2 + eye2, [[2, 0], [0, 0]], [0.0, 1.0]),
            {"terminal": True},
            {"terminal": True},
        ],
    }


def test_singleton_document_value():
    # root moves to states 1 and 2 with equal odds: q = (1.5, 1.0)
    root = _pinned([0.5, 0.5], [[1, 0], [0, 1], [0, 1], [1, 0]], [[0, 0], [0, 0]], [0.0, -0.5])
    assert singleton_document_value(_doc(root)) == pytest.approx(1.5, abs=1e-12)


def test_singleton_document_rejects_a_wider_support():
    root = {
        "factor_map": {"p_mat": [[1, 0], [0, 1]], "p_offset": [0, 0],
                       "r_mat": [[0, 0]], "r_offset": [0.0]},
        "ambiguity": {"builder": "support_only", "support": {"kind": "simplex", "dim": 2}},
    }
    with pytest.raises(ValueError):
        singleton_document_value(_doc(root))
