"""Dynamic newsvendor model and the data-driven Wasserstein experiment.

Inventory s_t ∈ [s_min, s_max] evolves as s_{t+1} = clamp(s_t + a_t − d_t);
period cost is c_t a_t + max{h_t s_t, −b_t s_t} and the terminal period
charges max{h_T s, −b_T s}.  The uncertain factor of every state is the
demand distribution itself (a point in the simplex over demand values);
the experiment samples training distributions, solves the robust order
strategy per Wasserstein radius θ, and simulates out-of-sample cost on
fresh demand paths.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import FactorMap, build_wasserstein
from .engine import DrMdpModel, backward_induction
from .geometry import simplex


class NewsvendorError(Exception):
    pass


@dataclass(frozen=True)
class NewsvendorConfig:
    horizon: int = 5
    s_min: int = -5
    s_max: int = 10
    order_cost: float = 1.0
    holding_cost: float = 2.0
    backorder_cost: float = 3.0
    true_dist: tuple = (0.05, 0.4, 0.1, 0.4, 0.05)
    train_sizes: tuple = (5, 15)
    theta_grid: tuple = (0.0, 0.1, 0.2, 0.5, 1.0, 2.0)
    metric: object = 1
    repetitions: int = 200
    test_runs: int = 1000
    sample_draws: int = 20
    seed: int = 0

    def __post_init__(self):
        p = np.asarray(self.true_dist, dtype=float)
        if not (self.s_min < 0 < self.s_max):
            raise NewsvendorError("need s_min < 0 < s_max")
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
            raise NewsvendorError("true_dist must be a probability vector")
        if min(self.order_cost, self.holding_cost, self.backorder_cost) < 0:
            raise NewsvendorError("costs must be nonnegative")
        if self.horizon < 2:
            raise NewsvendorError("need at least two periods")
        if not all(isinstance(n, (int, np.integer)) and n > 0 for n in self.train_sizes):
            raise NewsvendorError(f"training-set sizes must be positive ints, got {self.train_sizes}")
        if not all(0 <= theta < np.inf for theta in self.theta_grid):
            raise NewsvendorError(f"radii must be finite and nonnegative, got {self.theta_grid}")
        object.__setattr__(self, "true_dist", tuple(p))

    @property
    def inventories(self):
        return tuple(range(self.s_min, self.s_max + 1))

    @property
    def n_demand(self) -> int:
        return len(self.true_dist)

    def clamp(self, s):
        return np.clip(s, self.s_min, self.s_max)

    def period_cost(self, s, a) -> float:
        return self.order_cost * a + max(self.holding_cost * s, -self.backorder_cost * s)

    def terminal_cost(self, s) -> float:
        return max(self.holding_cost * s, -self.backorder_cost * s)


def _state_factor_map(cfg: NewsvendorConfig, s: int) -> FactorMap:
    """Transition rows over all inventories: entry for s' sums the demand
    probabilities that drive clamp(s + a − d) to s'.  Rewards are the
    negated period costs (the engine maximizes)."""
    n_next = len(cfg.inventories)
    n_actions = cfg.s_max - s + 1
    orders = np.arange(n_actions)[:, None]
    demands = np.arange(cfg.n_demand)
    # next-inventory index of every (order, demand) pair; each pair owns
    # one entry, as demand d only ever fills column d
    nxt = cfg.clamp(s + orders - demands) - cfg.s_min
    p_mat = np.zeros((n_actions * n_next, cfg.n_demand))
    p_mat[orders * n_next + nxt, demands] = 1.0
    r_offset = np.array([-cfg.period_cost(s, a) for a in range(n_actions)])
    return FactorMap(
        n_actions,
        n_next,
        p_mat,
        np.zeros(n_actions * n_next),
        np.zeros((n_actions, cfg.n_demand)),
        r_offset,
    )


def build_newsvendor_model(cfg: NewsvendorConfig, ambiguity):
    """Staged model: stage 1 = {initial inventory 0}, stages 2..T−1 = all
    inventories, stage T = terminal inventories with cost-based values.

    Returns (model, index) with index[(t, s)] = global state id for the
    decision stages t = 1..T−1.
    """
    invs = cfg.inventories
    n_inv = len(invs)
    t_dec = cfg.horizon - 1  # decision periods 1..T-1
    stages = [(0,)]
    index = {(1, 0): 0}
    next_id = 1
    for t in range(2, t_dec + 1):
        stage = []
        for s in invs:
            index[(t, s)] = next_id
            stage.append(next_id)
            next_id += 1
        stages.append(tuple(stage))
    terminal = tuple(range(next_id, next_id + n_inv))
    stages.append(terminal)
    n_states = next_id + n_inv
    fms = [None] * n_states
    ambs = [None] * n_states
    fm_cache = {}
    for (t, s), sid in index.items():
        if s not in fm_cache:
            fm_cache[s] = _state_factor_map(cfg, s)
        fms[sid] = fm_cache[s]
        ambs[sid] = ambiguity
    terminal_values = np.array([-cfg.terminal_cost(s) for s in invs])
    labels = [("t1", 0)] + [
        (f"t{t}", s) for t in range(2, t_dec + 1) for s in invs
    ] + [("terminal", s) for s in invs]
    model = DrMdpModel(
        n_states,
        tuple(fms),
        tuple(ambs),
        stages=tuple(stages),
        terminal_values=terminal_values,
        state_labels=tuple(labels),
    )
    return model, index


def sample_training_set(p, n, rng, draws=20):
    """n sampled demand distributions: each is the empirical frequency vector
    of `draws` i.i.d. demand realizations (draws=0 returns p exactly)."""
    p = np.asarray(p, dtype=float)
    if n < 1:
        raise NewsvendorError("need at least one training sample")
    if draws == 0:
        return [p.copy() for _ in range(n)]
    counts = rng.multinomial(draws, p, size=n)
    return list(counts / draws)


def solve_order_strategy(cfg: NewsvendorConfig, samples, theta, solver="highs"):
    """Robust order strategy for a Wasserstein ball of radius θ around the
    empirical distribution of the training samples.  Returns (value at the
    initial state, policy, index)."""
    amb = build_wasserstein(samples, theta, simplex(cfg.n_demand), cfg.metric)
    model, index = build_newsvendor_model(cfg, amb)
    vf, policy, _ = backward_induction(model, solver=solver, certificates=False)
    return vf[0], policy, index


def simulate_policy(cfg: NewsvendorConfig, policy, index, runs, rng) -> float:
    """Monte Carlo mean total cost of a policy under the true demand law.

    Rollouts are vectorized over runs; actions are sampled from the
    randomized per-state distributions, demands from cfg.true_dist.
    """
    p = np.asarray(cfg.true_dist)
    states = np.zeros(runs, dtype=int)  # inventory, starts at 0
    total = np.zeros(runs)
    for t in range(1, cfg.horizon):
        actions = np.zeros(runs, dtype=int)
        for s in np.unique(states):
            sel = states == s
            dist = policy.distributions[index[(t, int(s))]] if t > 1 else policy.distributions[index[(1, 0)]]
            actions[sel] = rng.choice(len(dist), size=int(sel.sum()), p=dist)
        total += cfg.order_cost * actions + np.maximum(
            cfg.holding_cost * states, -cfg.backorder_cost * states
        )
        demands = rng.choice(cfg.n_demand, size=runs, p=p)
        states = cfg.clamp(states + actions - demands)
    total += np.maximum(cfg.holding_cost * states, -cfg.backorder_cost * states)
    return float(total.mean())


@dataclass
class ExperimentRecord:
    """Rows (theta, n, repetition, mean_cost) plus failure markers."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, theta, n, rep, mean_cost):
        if not np.isfinite(mean_cost):
            raise NewsvendorError("simulated cost must be finite")
        self.rows.append((float(theta), int(n), int(rep), float(mean_cost)))

    def costs(self, theta, n) -> np.ndarray:
        """Per-repetition mean costs for one (θ, N) cell, ordered by repetition."""
        return np.array(sorted_by_rep(self.rows, theta, n))

    def aggregate(self):
        """Per (θ, N): mean and standard deviation across repetitions."""
        out = []
        keys = sorted({(r[0], r[1]) for r in self.rows})
        for theta, n in keys:
            c = sorted_by_rep(self.rows, theta, n)
            out.append((theta, n, float(np.mean(c)), float(np.std(c))))
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["theta", "N", "repetition", "mean_cost"])
            w.writerows(self.rows)

    def aggregate_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["theta", "N", "mean", "std"])
            w.writerows(self.aggregate())


def sorted_by_rep(rows, theta, n):
    sel = [(r[2], r[3]) for r in rows if r[0] == theta and r[1] == n]
    return [c for _, c in sorted(sel)]


def paired_t_statistic(record: ExperimentRecord, theta_a, theta_b, n) -> float:
    """t statistic of mean(cost[θ_a] − cost[θ_b]) over the repetitions both
    cells hold, paired by repetition index; NaN on fewer than two pairs."""
    a, b = ({r[2]: r[3] for r in record.rows if r[0] == theta and r[1] == n} for theta in (theta_a, theta_b))
    diff = np.array([a[rep] - b[rep] for rep in sorted(a.keys() & b.keys())])
    if len(diff) < 2:
        return float("nan")
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    if se == 0.0:
        return float(np.sign(diff.mean()) * np.inf) if diff.mean() else 0.0
    return float(diff.mean() / se)


def _run_repetition(cfg: NewsvendorConfig, rep: int, solver: str):
    """One repetition: fresh training sets per N, one shared test seed per N
    so θ values are compared on identical demand paths."""
    rows, failures = [], []
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, rep)))
    for n in cfg.train_sizes:
        samples = sample_training_set(cfg.true_dist, n, rng, draws=cfg.sample_draws)
        sim_seed = rng.integers(2**63)
        for theta in cfg.theta_grid:
            try:
                _, policy, index = solve_order_strategy(cfg, samples, theta, solver=solver)
            except Exception as err:  # noqa: BLE001 - repetition marked, run continues
                failures.append((float(theta), int(n), int(rep), str(err)))
                continue
            sim_rng = np.random.default_rng(sim_seed)
            cost = simulate_policy(cfg, policy, index, cfg.test_runs, sim_rng)
            rows.append((theta, n, rep, cost))
    return rows, failures


def run_experiment(cfg: NewsvendorConfig, solver="highs", workers=1, progress=None) -> ExperimentRecord:
    """Out-of-sample study: per repetition draw a training set per N, solve
    the robust strategy per θ, simulate on a fresh test set shared across θ
    (paired comparisons), and record mean costs.

    Repetition seeds derive from (cfg.seed, repetition) and results are
    merged in repetition order, so reruns are bitwise identical for any
    worker count.  `progress(rep)` is called as each repetition is merged;
    with one worker every repetition runs in the calling thread.
    """
    record = ExperimentRecord()
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        results = run(lambda rep: _run_repetition(cfg, rep, solver), range(cfg.repetitions))
        for rep, (rows, failures) in enumerate(results):
            for row in rows:
                record.add(*row)
            record.failures.extend(failures)
            if progress is not None:
                progress(rep)
    return record
