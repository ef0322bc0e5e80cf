"""Backward induction and value iteration over robust Bellman backups.

Each state owns a factor map (affine kernel) and a lifted ambiguity set;
one backup solves that state's robust subproblem.  Finite-horizon models
carry a stage partition (the first stage is a single state and stage
membership is unique); infinite-horizon models carry a discount in (0, 1)
and iterate the γ-contraction to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambiguity import FactorMap, LiftedAmbiguitySet
from .reformulation import (
    ReformulationError,
    SRobustTemplate,
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
    (zero by default).  Robust-LP templates compiled for the model's
    ambiguity sets live, and die, with the model.
    """

    n_states: int
    factor_maps: tuple  # per state; None allowed for terminal-stage states
    ambiguities: tuple  # per state; None allowed for terminal-stage states
    stages: tuple = None
    discount: float = None
    terminal_values: np.ndarray = None
    state_labels: tuple = None
    # (id(ambiguity), action count) -> SRobustTemplate; the model holds every
    # ambiguity set it keys, so an id cannot be reused while the entry lives
    _templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            if abs(d.sum() - 1.0) > 1e-9 or np.any(d < -1e-12):
                raise EngineError("action distribution violates the simplex invariant")
            dists.append(np.clip(d, 0.0, None))
        object.__setattr__(self, "distributions", tuple(dists))


def _stage_backup(model, s, v_next, discount, solver):
    obj = assemble_stage_objective(v_next, model.factor_maps[s], discount=discount)
    amb = model.ambiguities[s]
    key = (id(amb), obj.n_actions)
    template = model._templates.get(key)
    if template is None:
        template = model._templates[key] = SRobustTemplate(amb, obj.n_actions)
    try:
        return solve_srobust(obj, amb, solver=solver, template=template)
    except ReformulationError as err:
        raise EngineError(f"backup failed at state {s}: {err}") from err


def backward_induction(model: DrMdpModel, solver="simplex", certificates=True):
    """Finite-horizon robust dynamic program.

    Returns (ValueFunction, RandomizedPolicy, certificates) where
    certificates[s] is the worst-case point-mass distribution supporting
    state s's backup (empty when certificates=False); the first-stage
    state's value is the distributionally robust value of the model.
    """
    if not model.is_finite:
        raise EngineError("backward_induction requires a finite-horizon model")
    values = np.zeros(model.n_states)
    dists = [None] * model.n_states
    certs = {}
    for k, s in enumerate(model.stages[-1]):
        values[s] = model.terminal_values[k]
    for t in range(model.horizon - 2, -1, -1):
        v_next = values[list(model.stages[t + 1])]
        for s in model.stages[t]:
            sol = _stage_backup(model, s, v_next, 1.0, solver)
            values[s] = sol.value
            dists[s] = sol.policy
            if certificates:
                certs[s] = sol.certificate
    return ValueFunction(values), RandomizedPolicy(tuple(dists)), certs


def bellman_operator(model: DrMdpModel, v, solver="simplex"):
    """One robust backup at every state; returns (new values, policies, certs)."""
    if model.is_finite:
        raise EngineError("bellman_operator requires an infinite-horizon model")
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise EngineError("value vector must be finite with one entry per state")
    out = np.zeros(model.n_states)
    dists = [None] * model.n_states
    certs = {}
    for s in range(model.n_states):
        sol = _stage_backup(model, s, v, model.discount, solver)
        out[s] = sol.value
        dists[s] = sol.policy
        certs[s] = sol.certificate
    return out, dists, certs


def value_iteration(model: DrMdpModel, epsilon: float, v0=None, solver="simplex", max_iter=MAX_VALUE_ITERATIONS):
    """Iterate the robust Bellman operator until the contraction bound
    guarantees ‖v − v*‖_∞ ≤ ε; returns (ValueFunction, RandomizedPolicy,
    iterations)."""
    if epsilon <= 0:
        raise EngineError("epsilon must be positive")
    gamma = model.discount
    stop = epsilon * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    for it in range(1, max_iter + 1):
        v_new, dists, _ = bellman_operator(model, v, solver=solver)
        if np.max(np.abs(v_new - v)) <= stop:
            return ValueFunction(v_new), RandomizedPolicy(tuple(dists)), it
        v = v_new
    raise EngineError(f"value iteration did not converge within {max_iter} sweeps")


def evaluate_policy_worst_case(model: DrMdpModel, policy: RandomizedPolicy, solver="simplex", epsilon=1e-6):
    """Worst-case value of a fixed policy at every state.

    Finite horizon: one backward sweep with the policy pinned.  Infinite
    horizon: iterate the fixed-policy contraction to the ε stopping rule.
    """
    dists = policy.distributions
    if model.is_finite:
        values = np.zeros(model.n_states)
        for k, s in enumerate(model.stages[-1]):
            values[s] = model.terminal_values[k]
        for t in range(model.horizon - 2, -1, -1):
            v_next = values[list(model.stages[t + 1])]
            for s in model.stages[t]:
                obj = assemble_stage_objective(v_next, model.factor_maps[s])
                values[s], _ = worst_case_expectation(
                    obj, model.ambiguities[s], dists[s], solver=solver
                )
        return values
    gamma = model.discount
    stop = epsilon * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(model.n_states)
    for _ in range(MAX_VALUE_ITERATIONS):
        v_new = np.zeros(model.n_states)
        for s in range(model.n_states):
            obj = assemble_stage_objective(v, model.factor_maps[s], discount=gamma)
            v_new[s], _ = worst_case_expectation(
                obj, model.ambiguities[s], dists[s], solver=solver
            )
        if np.max(np.abs(v_new - v)) <= stop:
            return v_new
        v = v_new
    raise EngineError("fixed-policy evaluation did not converge")


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
