"""Reference computations the benchmark checks the program against.

Both are plain numpy recursions written from the model definitions, not
from the program's code paths: no LP, no ambiguity set, no factor map
object.
"""

from __future__ import annotations

import numpy as np


def newsvendor_optimal_cost(horizon, s_min, s_max, order_cost, holding_cost,
                            backorder_cost, demand_law):
    """Mean and standard deviation of the total cost from inventory 0 under
    the optimal order policy for a fixed demand law.

    Periods 1..horizon-1 order a in 0..s_max-s and pay
    order_cost*a + max(holding_cost*s, -backorder_cost*s); demand d (the
    index into demand_law) then moves s to clamp(s + a - d).  Period
    `horizon` pays the holding/backorder charge alone.  The minimum runs
    over deterministic Markov order policies, which attain the optimum of
    a finite MDP; ties go to the smallest order.  The second moment follows
    the same recursion: E[(k + C')^2] = k^2 + 2k E[C'] + E[C'^2] for the
    period's cost k and the cost-to-go C'.
    """
    p = np.asarray(demand_law, dtype=float)
    invs = np.arange(s_min, s_max + 1)
    demands = np.arange(len(p))
    charge = np.maximum(holding_cost * invs, -backorder_cost * invs).astype(float)
    mean, second = charge.copy(), charge**2  # terminal period
    for _ in range(horizon - 1):
        new_mean, new_second = np.empty_like(mean), np.empty_like(second)
        for k, s in enumerate(invs):
            best = None
            for a in range(0, s_max - s + 1):
                nxt = np.clip(s + a - demands, s_min, s_max) - s_min
                cost = order_cost * a + p @ mean[nxt]
                if best is None or cost < best[0]:
                    best = (cost, order_cost * a, nxt)
            cost, order, nxt = best
            now = charge[k] + order
            new_mean[k] = charge[k] + cost
            new_second[k] = now**2 + 2 * now * (p @ mean[nxt]) + p @ second[nxt]
        mean, second = new_mean, new_second
    root = -s_min
    return float(mean[root]), float(np.sqrt(max(second[root] - mean[root] ** 2, 0.0)))


def singleton_document_value(doc):
    """Root value of a finite-horizon model document whose every ambiguity
    block is `support_only` on a singleton support.

    Reads the raw document mapping: each decision state's kernel is pinned
    by its support point xi, so the recursion is the expected-value DP
    V(s) = max_a [r_mat[a] xi + r_offset[a]
                  + sum_k (p_mat[a*n+k] xi + p_offset[a*n+k]) V_next[k]].
    """
    stages = doc["stages"]
    values = {s: float(v) for s, v in zip(stages[-1], doc["terminal_values"])}
    for t in range(len(stages) - 2, -1, -1):
        v_next = np.array([values[s] for s in stages[t + 1]])
        n_next = len(v_next)
        for s in stages[t]:
            state = doc["states"][s]
            support = state["ambiguity"]["support"]
            if state["ambiguity"]["builder"] != "support_only" or support["kind"] != "singleton":
                raise ValueError(f"state {s} is not pinned by a singleton support")
            xi = np.asarray(support["point"], dtype=float)
            fm = state["factor_map"]
            p = np.asarray(fm["p_mat"], dtype=float) @ xi + np.asarray(fm["p_offset"], dtype=float)
            r = np.asarray(fm["r_mat"], dtype=float) @ xi + np.asarray(fm["r_offset"], dtype=float)
            q = r + p.reshape(len(r), n_next) @ v_next
            values[s] = float(q.max())
    return values[stages[0][0]]
