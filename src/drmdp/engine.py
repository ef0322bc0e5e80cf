"""Backward induction and value iteration over robust Bellman backups.

Each state owns a factor map (affine kernel) and a lifted ambiguity set;
one backup solves that state's robust subproblem, or, with the policy
pinned, its worst case.  Finite-horizon models carry a stage partition
(the first stage is a single state and stage membership is unique) and run
one backward pass; infinite-horizon models carry a discount in (0, 1) and
iterate the γ-contraction to a fixed point.  Robust solves and fixed-policy
evaluation share the backup, the backward pass and the contraction loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import FactorMap, LiftedAmbiguitySet
from .reformulation import (
    ReformulationError,
    assemble_stage_objective,
    solve_srobust,
    worst_case_expectation,
)

MAX_VALUE_ITERATIONS = 100_000


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class DrMdpModel:
    """States with per-state kernels and ambiguity sets.

    Exactly one of `stages` (finite horizon: tuple of tuples of state
    indices; the first stage has a single state) and `discount` (infinite
    horizon) must be set.  A state's factor map emits transition rows over
    the *next stage's* states, in the order they appear in that stage (or
    over all states, in index order, for infinite horizon).  Terminal-stage
    states need no factor map; their values come from `terminal_values`
    (zero by default).  Each ambiguity set keeps its own compiled LP
    template and warm HiGHS model, so states that share a set share both,
    and both die with the set.
    """

    n_states: int
    factor_maps: tuple  # per state; None allowed for terminal-stage states
    ambiguities: tuple  # per state; None allowed for terminal-stage states
    stages: tuple = None
    discount: float = None
    terminal_values: np.ndarray = None
    state_labels: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "factor_maps", tuple(self.factor_maps))
        object.__setattr__(self, "ambiguities", tuple(self.ambiguities))
        if (self.stages is None) == (self.discount is None):
            raise EngineError("exactly one of stages (finite) or discount (infinite) required")
        if len(self.factor_maps) != self.n_states or len(self.ambiguities) != self.n_states:
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


def _stage_backup(model, s, v_next, discount, solver, stage, pi):
    """State s's backup against next-stage values: the robust backup when
    pi is None, else the worst case of the fixed action distribution pi.
    Returns (value, action distribution, certificate)."""
    obj = assemble_stage_objective(v_next, model.factor_maps[s], discount=discount)
    amb = model.ambiguities[s]
    try:
        if pi is None:
            sol = solve_srobust(obj, amb, solver=solver)
            return sol.value, sol.policy, sol.certificate
        value, cert = worst_case_expectation(obj, amb, pi, solver=solver)
        return value, pi, cert
    except ReformulationError as err:
        where = f"state {s}" if stage is None else f"state {s}, stage {stage}"
        raise EngineError(f"backup failed at {where}: {err}") from err


def _backward_pass(model, solver, dists=None):
    """One backward sweep from the terminal values; robust at every state,
    or pinned to dists[s] when dists is given.  Returns (values,
    distributions, certificates)."""
    values = np.zeros(model.n_states)
    policies = [None] * model.n_states
    certs = {}
    for k, s in enumerate(model.stages[-1]):
        values[s] = model.terminal_values[k]
    for t in range(model.horizon - 2, -1, -1):
        v_next = values[list(model.stages[t + 1])]
        for s in model.stages[t]:
            pi = None if dists is None else dists[s]
            values[s], policies[s], certs[s] = _stage_backup(model, s, v_next, 1.0, solver, t, pi)
    return values, policies, certs


def _sweep(model, v, solver, dists=None):
    """One discounted backup at every state; see `_backward_pass`."""
    values = np.zeros(model.n_states)
    policies = [None] * model.n_states
    certs = {}
    for s in range(model.n_states):
        pi = None if dists is None else dists[s]
        values[s], policies[s], certs[s] = _stage_backup(
            model, s, v, model.discount, solver, None, pi
        )
    return values, policies, certs


def _contract(model, epsilon, v0, max_iter, sweep):
    """Apply `sweep` until the contraction bound guarantees ‖v − v*‖_∞ ≤ ε;
    returns (values, distributions, sweeps)."""
    if model.is_finite:
        raise EngineError("fixed-point iteration requires an infinite-horizon model")
    if epsilon <= 0:
        raise EngineError("epsilon must be positive")
    gamma = model.discount
    stop = epsilon * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    for it in range(1, max_iter + 1):
        v_new, dists, _ = sweep(v)
        if np.max(np.abs(v_new - v)) <= stop:
            return v_new, dists, it
        v = v_new
    raise EngineError(f"value iteration did not converge within {max_iter} sweeps")


def backward_induction(model: DrMdpModel, solver="simplex", certificates=True):
    """Finite-horizon robust dynamic program.

    Returns (ValueFunction, RandomizedPolicy, certificates) where
    certificates[s] is the worst-case point-mass distribution supporting
    state s's backup (empty when certificates=False); the first-stage
    state's value is the distributionally robust value of the model.
    """
    if not model.is_finite:
        raise EngineError("backward_induction requires a finite-horizon model")
    values, dists, certs = _backward_pass(model, solver)
    return ValueFunction(values), RandomizedPolicy(tuple(dists)), certs if certificates else {}


def bellman_operator(model: DrMdpModel, v, solver="simplex"):
    """One robust backup at every state; returns (new values, policies, certs)."""
    if model.is_finite:
        raise EngineError("bellman_operator requires an infinite-horizon model")
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise EngineError("value vector must be finite with one entry per state")
    return _sweep(model, v, solver)


def value_iteration(model: DrMdpModel, epsilon: float, v0=None, solver="simplex", max_iter=MAX_VALUE_ITERATIONS):
    """Iterate the robust Bellman operator until the contraction bound
    guarantees ‖v − v*‖_∞ ≤ ε; returns (ValueFunction, RandomizedPolicy,
    iterations)."""
    v, dists, it = _contract(
        model, epsilon, v0, max_iter, lambda v: bellman_operator(model, v, solver=solver)
    )
    return ValueFunction(v), RandomizedPolicy(tuple(dists)), it


def evaluate_policy_worst_case(model: DrMdpModel, policy: RandomizedPolicy, solver="simplex", epsilon=1e-6):
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
    return _contract(
        model, epsilon, None, MAX_VALUE_ITERATIONS, lambda v: _sweep(model, v, solver, dists)
    )[0]


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
