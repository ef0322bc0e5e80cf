"""Backward induction and value iteration over robust Bellman backups.

Each state owns a factor map (affine kernel) and a lifted ambiguity set;
one backup solves that state's robust subproblem, or, with the policy
pinned, its worst case.  Finite-horizon models carry a stage partition
(the first stage is a single state and stage membership is unique) and run
one backward pass; infinite-horizon models carry a discount in (0, 1) and
iterate the γ-contraction to a fixed point.  Robust solves and fixed-policy
evaluation share the backup, the backward pass and the contraction loop.
A backup keeps its LP's duals and builds its worst-case certificate only
when asked: `backward_induction(certificates=True)` builds them all, and
`bellman_operator` returns a mapping that builds each on lookup, so value
iteration builds none.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .reformulation import (
    ReformulationError,
    _fixed_policy_backup,
    assemble_stage_objective,
    solve_srobust,
)

MAX_VALUE_ITERATIONS = 100_000


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class DrMdpModel:
    """States with per-state kernels and ambiguity sets.

    `n_states` is the number of factor maps, and `ambiguities` holds one
    entry per state as well.  Exactly one of `stages` (finite horizon:
    tuple of tuples of state indices; the first stage has a single state)
    and `discount` (infinite horizon) must be set.  A state's factor map
    emits transition rows over the *next stage's* states, in the order they
    appear in that stage (or over all states, in index order, for infinite
    horizon).  Terminal-stage states need no factor map; their values come
    from `terminal_values` (zero by default).  Each ambiguity set keeps its
    own compiled LP template and warm HiGHS model, so states that share a
    set share both, and both die with the set.
    """

    factor_maps: tuple  # per state; None allowed for terminal-stage states
    ambiguities: tuple  # per state; None allowed for terminal-stage states
    stages: tuple = None
    discount: float = None
    terminal_values: np.ndarray = None
    state_labels: tuple = None
    n_states: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "factor_maps", tuple(self.factor_maps))
        object.__setattr__(self, "ambiguities", tuple(self.ambiguities))
        object.__setattr__(self, "n_states", len(self.factor_maps))
        if (self.stages is None) == (self.discount is None):
            raise EngineError("exactly one of stages (finite) or discount (infinite) required")
        if len(self.ambiguities) != self.n_states:
            raise EngineError("factor_maps and ambiguities must have one entry per state")
        if self.state_labels is not None and len(self.state_labels) != self.n_states:
            raise EngineError("state_labels must have one entry per state")
        if self.is_finite:
            stages = tuple(tuple(int(s) for s in st) for st in self.stages)
            object.__setattr__(self, "stages", stages)
            seen = [s for st in stages for s in st]
            if sorted(seen) != list(range(self.n_states)):
                raise EngineError("stages must partition the states exactly once")
            if len(stages) < 2 or len(stages[0]) != 1:
                raise EngineError("need ≥ 2 stages with a single first-stage state")
            tv = self.terminal_values
            tv = np.zeros(len(stages[-1])) if tv is None else np.asarray(tv, dtype=float)
            if tv.shape != (len(stages[-1]),):
                raise EngineError("terminal_values must cover the final stage")
            if not np.all(np.isfinite(tv)):
                raise EngineError("terminal_values must be finite")
            object.__setattr__(self, "terminal_values", tv)
            for t, st in enumerate(stages[:-1]):
                for s in st:
                    self._check_state(s, len(stages[t + 1]))
        else:
            if not 0.0 < self.discount < 1.0:
                raise EngineError("discount must lie strictly inside (0, 1)")
            for s in range(self.n_states):
                self._check_state(s, self.n_states)

    def _check_state(self, s, n_next):
        fm, amb = self.factor_maps[s], self.ambiguities[s]
        if fm is None or amb is None:
            raise EngineError(f"state {s} needs a factor map and an ambiguity set")
        if fm.n_next != n_next:
            raise EngineError(f"state {s}: factor map emits {fm.n_next} next-states, expected {n_next}")
        if fm.factor_dim != amb.factor_dim:
            raise EngineError(f"state {s}: factor map and ambiguity set disagree on factor_dim")

    @property
    def is_finite(self) -> bool:
        return self.stages is not None

    @property
    def horizon(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class ValueFunction:
    """State values; finite-horizon values are per-state at the state's own
    stage (each state belongs to exactly one stage)."""

    values: np.ndarray

    def __getitem__(self, s) -> float:
        return float(self.values[s])


@dataclass(frozen=True)
class RandomizedPolicy:
    """Per-state distribution over that state's actions (None for terminal)."""

    distributions: tuple

    def __post_init__(self):
        dists = []
        for d in self.distributions:
            if d is None:
                dists.append(None)
                continue
            d = np.asarray(d, dtype=float)
            if not np.all(np.isfinite(d)):
                raise EngineError("action distribution has a non-finite entry")
            if abs(d.sum() - 1.0) > 1e-9 or np.any(d < -1e-12):
                raise EngineError("action distribution violates the simplex invariant")
            dists.append(np.clip(d, 0.0, None))
        object.__setattr__(self, "distributions", tuple(dists))


def _backups(model, states, v_next, solver, dists, stage, out):
    """Back up each of `states` against next-stage values v_next, discounted
    by the model's discount (1 on a finite horizon): robust, or pinned to
    dists[s] when dists is given.  Writes each state's value, action
    distribution and `SRobustSolution`, whose certificate is built on first
    access, into out = (values, distributions, solutions by state) and
    returns out."""
    values, policies, sols = out
    discount = 1.0 if model.is_finite else model.discount
    for s in states:
        obj = assemble_stage_objective(v_next, model.factor_maps[s], discount=discount)
        try:
            if dists is None:
                sol = solve_srobust(obj, model.ambiguities[s], solver=solver)
            else:
                sol = _fixed_policy_backup(obj, model.ambiguities[s], dists[s], solver)
        except ReformulationError as err:
            where = f"state {s}" if stage is None else f"state {s}, stage {stage}"
            raise EngineError(f"backup failed at {where}: {err}") from err
        values[s], policies[s], sols[s] = sol.value, sol.policy, sol
    return out


class _Certificates(Mapping):
    """State → worst-case certificate, each built from its backup's duals
    when first looked up."""

    def __init__(self, solutions):
        self._solutions = solutions

    def __getitem__(self, s):
        return self._solutions[s].certificate

    def __iter__(self):
        return iter(self._solutions)

    def __len__(self):
        return len(self._solutions)


def _backward_pass(model, solver, dists=None):
    """One backward sweep from the terminal values; see `_backups`."""
    out = np.zeros(model.n_states), [None] * model.n_states, {}
    values = out[0]
    values[list(model.stages[-1])] = model.terminal_values
    for t in range(model.horizon - 2, -1, -1):
        _backups(model, model.stages[t], values[list(model.stages[t + 1])], solver, dists, t, out)
    return out


def _sweep(model, v, solver, dists=None):
    """One discounted backup at every state; see `_backups`."""
    out = np.zeros(model.n_states), [None] * model.n_states, {}
    return _backups(model, range(model.n_states), v, solver, dists, None, out)


def _contract(model, epsilon, v0, sweep):
    """Apply `sweep`, at most MAX_VALUE_ITERATIONS times, until the
    contraction bound guarantees ‖v − v*‖_∞ ≤ ε; returns (values,
    distributions, sweeps)."""
    if model.is_finite:
        raise EngineError("fixed-point iteration requires an infinite-horizon model")
    if not 0 < epsilon < np.inf:
        raise EngineError(f"epsilon must be positive and finite, got {epsilon}")
    gamma = model.discount
    stop = epsilon * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    for it in range(1, MAX_VALUE_ITERATIONS + 1):
        v_new, dists, _ = sweep(v)
        if np.max(np.abs(v_new - v)) <= stop:
            return v_new, dists, it
        v = v_new
    raise EngineError(f"value iteration did not converge within {MAX_VALUE_ITERATIONS} sweeps")


def backward_induction(model: DrMdpModel, solver="highs", certificates=True):
    """Finite-horizon robust dynamic program.

    Returns (ValueFunction, RandomizedPolicy, certificates) where
    certificates[s] is the worst-case point-mass distribution supporting
    state s's backup (empty when certificates=False); the first-stage
    state's value is the distributionally robust value of the model.
    """
    if not model.is_finite:
        raise EngineError("backward_induction requires a finite-horizon model")
    values, dists, sols = _backward_pass(model, solver)
    certs = {s: sol.certificate for s, sol in sols.items()} if certificates else {}
    return ValueFunction(values), RandomizedPolicy(tuple(dists)), certs


def bellman_operator(model: DrMdpModel, v, solver="highs"):
    """One robust backup at every state; returns (new values, policies,
    certificates), each certificate built when first looked up."""
    if model.is_finite:
        raise EngineError("bellman_operator requires an infinite-horizon model")
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise EngineError("value vector must be finite with one entry per state")
    values, dists, sols = _sweep(model, v, solver)
    return values, dists, _Certificates(sols)


def value_iteration(model: DrMdpModel, epsilon: float, v0=None, solver="highs"):
    """Iterate the robust Bellman operator until the contraction bound
    guarantees ‖v − v*‖_∞ ≤ ε; returns (ValueFunction, RandomizedPolicy,
    iterations)."""
    v, dists, it = _contract(model, epsilon, v0, lambda v: bellman_operator(model, v, solver=solver))
    return ValueFunction(v), RandomizedPolicy(tuple(dists)), it


def evaluate_policy_worst_case(model: DrMdpModel, policy: RandomizedPolicy, solver="highs", epsilon=1e-6):
    """Worst-case value of a fixed policy at every state.

    Finite horizon: one backward pass with the policy pinned.  Infinite
    horizon: iterate the fixed-policy contraction to the ε stopping rule.
    """
    dists = policy.distributions
    if model.is_finite:
        decisions = [s for st in model.stages[:-1] for s in st]
    else:
        decisions = range(model.n_states)
    if len(dists) != model.n_states or any(dists[s] is None for s in decisions):
        raise EngineError("policy needs an action distribution at every decision state")
    if model.is_finite:
        return _backward_pass(model, solver, dists)[0]
    return _contract(model, epsilon, None, lambda v: _sweep(model, v, solver, dists))[0]


def classical_dp_finite(model: DrMdpModel, factors: dict) -> np.ndarray:
    """Direct non-robust recursion on a fixed kernel: factors[s] is the factor
    vector pinning state s's transitions and rewards.  Maximizes over
    deterministic actions; an independent oracle for singleton ambiguity and
    for saddle checks on worst-case certificates."""
    values = np.zeros(model.n_states)
    for k, s in enumerate(model.stages[-1]):
        values[s] = model.terminal_values[k]
    for t in range(model.horizon - 2, -1, -1):
        v_next = values[list(model.stages[t + 1])]
        for s in model.stages[t]:
            fm = model.factor_maps[s]
            xi = np.asarray(factors[s], dtype=float)
            q = fm.rewards(xi) + fm.transitions(xi) @ v_next
            values[s] = q.max()
    return values


def certificate_factors(certs: dict) -> dict:
    """Mixture means of per-state certificates: the fixed factor of the
    adversary's worst-case kernel, usable with classical_dp_finite."""
    return {s: c.mean for s, c in certs.items()}
