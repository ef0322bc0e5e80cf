"""Lifted ambiguity sets over an uncertain factor vector.

An ambiguity set is a family of two-stage distributions: a scenario index
n ∈ [N] is drawn with weights ω from a polytope W, and conditionally on n
the factor ξ lies in a compact polyhedral support D_n.  Condition groups
impose conditional mean equalities and/or piecewise-linear moment bounds
whose right-hand sides range over polyhedral moment sets.

A FactorMap carries the affine maps from ξ to the transition vector and
reward vector of a state, so the uncertain kernel can live in a small
factor space (identity maps recover ambiguity directly on the kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PolyhedralSet,
    PwlConvexFn,
    bounding_box,
    box,
    chebyshev_radius,
    feasibility_check,
    intersect,
    is_nonempty_bounded,
    norm_ball,
    norm_distance,
    product,
    singleton,
    support_value,
)

EPS_FLOOR = 1e-9


class AmbiguityError(Exception):
    pass


@dataclass(frozen=True)
class ConditionGroup:
    """Conditional constraints attached to a subset of scenarios.

    If `mean_equality` is set, the conditional mean of ξ given n ∈ scenarios
    is pinned to a variable μ.  `g_fns` maps each member scenario to a tuple
    of M piecewise-linear convex functions whose conditional expectations are
    bounded by a variable ν ∈ R^M.  The moment set constrains the stacked
    vector (μ, ν) — the μ block present only when mean_equality is set.
    """

    scenarios: tuple
    mean_equality: bool
    g_fns: dict
    moment_set: PolyhedralSet

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(int(n) for n in self.scenarios))
        if not self.scenarios:
            raise AmbiguityError("condition group has no scenarios")
        sizes = {len(self.g_fns.get(n, ())) for n in self.scenarios}
        if len(sizes) != 1:
            raise AmbiguityError("g-function count differs across scenarios in a group")

    @property
    def n_moments(self) -> int:
        return len(self.g_fns.get(self.scenarios[0], ()))


@dataclass(frozen=True)
class LiftedAmbiguitySet:
    """Scenario supports + condition groups + weight polytope.

    `factor_dim` includes any trailing auxiliary coordinates (`aug_dim` of
    them) introduced by builders to linearize otherwise nonlinear moment
    functions; affine kernel maps ignore those coordinates.

    The weight polytope lives in dimension N + weight_aux_dim: the first N
    coordinates are the scenario weights ω, the rest are auxiliary lifting
    variables used to express non-box weight constraints with few facets.
    """

    factor_dim: int
    supports: tuple
    groups: tuple
    weight_set: PolyhedralSet
    aug_dim: int = 0
    weight_aux_dim: int = 0
    # the set's compiled adversary rows and warm HiGHS model (an
    # SRobustTemplate), built on first use
    _template: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "supports", tuple(self.supports))
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.supports:
            raise AmbiguityError("at least one scenario support is required")
        for d in self.supports:
            if d.dim != self.factor_dim:
                raise AmbiguityError("support dimension differs from factor_dim")
        n = len(self.supports)
        if self.weight_set.dim != n + self.weight_aux_dim:
            raise AmbiguityError("weight-set dimension != N + weight_aux_dim")
        if self.factor_dim <= 0 or not 0 <= self.aug_dim < self.factor_dim:
            raise AmbiguityError("invalid aug_dim / factor_dim")
        for g in self.groups:
            if any(not 0 <= s < n for s in g.scenarios):
                raise AmbiguityError("group references unknown scenario")
            mu_dim = self.factor_dim if g.mean_equality else 0
            if g.moment_set.dim != mu_dim + g.n_moments:
                raise AmbiguityError("moment-set dimension mismatch")
            for fn_tuple in g.g_fns.values():
                for f in fn_tuple:
                    if f.dim != self.factor_dim:
                        raise AmbiguityError("g-function dimension mismatch")

    @property
    def n_scenarios(self) -> int:
        return len(self.supports)


@dataclass(frozen=True)
class FactorMap:
    """Affine maps p = p_mat ξ + p_offset and r = r_mat ξ + r_offset.

    p stacks the transition rows of all actions: entry a * n_next + s' is
    the probability of moving to next-state s' under action a.  r has one
    expected-reward entry per action.
    """

    n_actions: int
    n_next: int
    p_mat: np.ndarray
    p_offset: np.ndarray
    r_mat: np.ndarray
    r_offset: np.ndarray

    def __post_init__(self):
        pm = np.atleast_2d(np.asarray(self.p_mat, dtype=float))
        rm = np.atleast_2d(np.asarray(self.r_mat, dtype=float))
        po = np.asarray(self.p_offset, dtype=float).reshape(-1)
        ro = np.asarray(self.r_offset, dtype=float).reshape(-1)
        if pm.shape[0] != self.n_actions * self.n_next or po.shape[0] != pm.shape[0]:
            raise AmbiguityError("transition map has wrong row count")
        if rm.shape[0] != self.n_actions or ro.shape[0] != self.n_actions:
            raise AmbiguityError("reward map has wrong row count")
        if pm.shape[1] != rm.shape[1]:
            raise AmbiguityError("transition and reward maps disagree on factor_dim")
        for name, arr in (("p_mat", pm), ("p_offset", po), ("r_mat", rm), ("r_offset", ro)):
            if not np.all(np.isfinite(arr)):
                raise AmbiguityError(f"{name} must be finite")
            object.__setattr__(self, name, arr)

    @property
    def factor_dim(self) -> int:
        return self.p_mat.shape[1]

    def transitions(self, xi: np.ndarray) -> np.ndarray:
        return (self.p_mat @ xi + self.p_offset).reshape(self.n_actions, self.n_next)

    def rewards(self, xi: np.ndarray) -> np.ndarray:
        return self.r_mat @ xi + self.r_offset


def identity_factor_map(n_actions: int, n_next: int) -> FactorMap:
    """ξ = (stacked transition rows, rewards); ambiguity directly on the kernel."""
    np_ = n_actions * n_next
    dim = np_ + n_actions
    p_mat = np.zeros((np_, dim))
    p_mat[:, :np_] = np.eye(np_)
    r_mat = np.zeros((n_actions, dim))
    r_mat[:, np_:] = np.eye(n_actions)
    return FactorMap(n_actions, n_next, p_mat, np.zeros(np_), r_mat, np.zeros(n_actions))


def pad_factor_map(fm: FactorMap, extra_dims: int) -> FactorMap:
    """Append zero columns so the map accepts an augmented factor vector."""
    if extra_dims == 0:
        return fm
    pz = np.zeros((fm.p_mat.shape[0], extra_dims))
    rz = np.zeros((fm.r_mat.shape[0], extra_dims))
    return FactorMap(
        fm.n_actions,
        fm.n_next,
        np.hstack([fm.p_mat, pz]),
        fm.p_offset,
        np.hstack([fm.r_mat, rz]),
        fm.r_offset,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _uniform_weight_set(n: int) -> PolyhedralSet:
    return singleton(np.full(n, 1.0 / n))


def build_support_only(d: PolyhedralSet) -> LiftedAmbiguitySet:
    """All distributions supported on d: one scenario, no moment information."""
    if not is_nonempty_bounded(d):
        raise AmbiguityError("support must be nonempty and bounded")
    return LiftedAmbiguitySet(d.dim, (d,), (), _uniform_weight_set(1))


def build_uncertain_mean(
    d: PolyhedralSet,
    mean_lo,
    mean_hi,
    center,
    radius: float,
    norm=1,
) -> LiftedAmbiguitySet:
    """Support d with the mean known to lie in a box ∩ norm ball."""
    if not radius >= 0:
        raise AmbiguityError(f"radius must be nonnegative (inf for no ball), got {radius}")
    if norm not in (1, "inf"):
        raise AmbiguityError(f"norm must be 1 or 'inf', got {norm!r}")
    if not is_nonempty_bounded(d):
        raise AmbiguityError("support must be nonempty and bounded")
    mean_set = box(mean_lo, mean_hi)
    if radius < np.inf:
        mean_set = intersect(mean_set, norm_ball(center, radius, norm))
    ok, _ = feasibility_check(mean_set)
    if not ok:
        raise AmbiguityError("mean set is empty")
    group = ConditionGroup((0,), True, {0: ()}, mean_set)
    return LiftedAmbiguitySet(d.dim, (d,), (group,), _uniform_weight_set(1))


def build_phi_divergence_tv(samples, theta: float, eps_floor: float = EPS_FLOOR) -> LiftedAmbiguitySet:
    """Reweightings of an empirical distribution within total-variation θ.

    Weight polytope over (ω, u) with u_n ≥ |ω_n − 1/N| and Σu ≤ θ; the
    weights keep a floor of eps_floor so they stay strictly interior
    (setting eps_floor to 0 lets weights reach the simplex boundary, which
    validate() then reports as an interiority failure).
    """
    samples = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    if not 0 <= theta < np.inf:
        raise AmbiguityError(f"θ must be finite and nonnegative, got {theta}")
    if not samples:
        raise AmbiguityError("at least one sample required")
    n = len(samples)
    eye, zero = np.eye(n), np.zeros((n, n))
    # per scenario i: ω_i − u_i ≤ 1/N, −ω_i − u_i ≤ −1/N, −ω_i ≤ −eps_floor, −u_i ≤ 0
    blocks = ([eye, -eye], [-eye, -eye], [-eye, zero], [zero, -eye])
    rows = np.stack([np.hstack(b) for b in blocks], axis=1).reshape(4 * n, 2 * n)
    rhs = np.tile([1.0 / n, -1.0 / n, -eps_floor, 0.0], n)
    budget = np.repeat([0.0, 1.0], n)
    w = PolyhedralSet(2 * n, [*zip(rows, rhs), (budget, theta)], [(1.0 - budget, 1.0)])
    supports = tuple(singleton(s) for s in samples)
    return LiftedAmbiguitySet(samples[0].shape[0], supports, (), w, weight_aux_dim=n)


def build_wasserstein(
    samples,
    theta: float,
    d: PolyhedralSet,
    metric=1,
) -> LiftedAmbiguitySet:
    """Distributions within transport budget θ of the empirical distribution.

    One scenario per sample, uniform weights, full support d everywhere, and
    one group bounding the expected distance to the matched sample by θ.
    """
    samples = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    if not 0 <= theta < np.inf:
        raise AmbiguityError(f"θ must be finite and nonnegative, got {theta}")
    if not samples:
        raise AmbiguityError("at least one sample required")
    if not is_nonempty_bounded(d):
        raise AmbiguityError("support must be nonempty and bounded")
    for s in samples:
        if not d.contains(s, tol=1e-7):
            raise AmbiguityError("sample lies outside the support")
    n = len(samples)
    g_fns = {i: (norm_distance(samples[i], metric),) for i in range(n)}
    moment = box([0.0], [theta])
    group = ConditionGroup(tuple(range(n)), False, g_fns, moment)
    return LiftedAmbiguitySet(d.dim, (d,) * n, (group,), _uniform_weight_set(n))


def build_hybrid_wasserstein_mad(
    samples,
    theta: float,
    d: PolyhedralSet,
    metric,
    mean_lo,
    mean_hi,
    mad_bound: float,
) -> LiftedAmbiguitySet:
    """Wasserstein ball intersected with a mean-absolute-deviation bound.

    The deviation center m = e·μ0 is linearized as one extra trailing factor
    coordinate per scenario, so the deviation |e·ξ − m| stays piecewise
    linear.  Letting the center vary per scenario relaxes the common-center
    set outward; the result is a conservative (weakly lower) worst case.
    The mean-equality block ties the average center to the average of e·ξ.
    """
    if not mad_bound >= 0:
        raise AmbiguityError(f"MAD bound must be a number >= 0 (inf for none), got {mad_bound}")
    base = build_wasserstein(samples, theta, d, metric)
    nb = base.factor_dim
    mean_lo = np.atleast_1d(np.asarray(mean_lo, dtype=float))
    mean_hi = np.atleast_1d(np.asarray(mean_hi, dtype=float))
    if mean_lo.shape[0] != nb or mean_hi.shape[0] != nb:
        raise AmbiguityError("mean box dimension mismatch")
    if np.any(mean_lo > mean_hi):
        raise AmbiguityError("empty mean box")
    m_lo, m_hi = float(mean_lo.sum()), float(mean_hi.sum())
    n = base.n_scenarios
    dim = nb + 1
    supports = tuple(product(dn, box([m_lo], [m_hi])) for dn in base.supports)
    # Wasserstein distances ignore the augmented coordinate.
    wg = base.groups[0]
    w_group = ConditionGroup(
        wg.scenarios,
        False,
        {i: tuple(f.lift(dim) for f in fns) for i, fns in wg.g_fns.items()},
        wg.moment_set,
    )
    if not np.isfinite(mad_bound):
        # inactive bound: no deviation can exceed the support's e·ξ range
        bbx = bounding_box(base.supports[0])
        mad_bound = float(bbx[:, 1].sum() - min(bbx[:, 0].sum(), m_lo)) + abs(m_hi) + 1.0
    dev = PwlConvexFn(
        dim,
        ((
            (np.concatenate([np.ones(nb), [-1.0]]), 0.0),
            (np.concatenate([-np.ones(nb), [1.0]]), 0.0),
        ),),
    )
    # moment vector (μ_ξ, μ_m, ν): a box, and e·μ_ξ = μ_m
    tie = np.concatenate([np.ones(nb), [-1.0, 0.0]])
    moment = intersect(
        box(np.r_[mean_lo, m_lo, 0.0], np.r_[mean_hi, m_hi, mad_bound]),
        PolyhedralSet(dim + 1, eq=[(tie, 0.0)]),
    )
    mad_group = ConditionGroup(tuple(range(n)), True, {i: (dev,) for i in range(n)}, moment)
    return LiftedAmbiguitySet(
        dim, supports, (w_group, mad_group), base.weight_set, aug_dim=1
    )


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component: support plus optional conditional moments."""

    support: PolyhedralSet
    mean_set: PolyhedralSet = None
    g_fns: tuple = ()
    g_moment_set: PolyhedralSet = None


def build_mixture(components, weight_set: PolyhedralSet) -> LiftedAmbiguitySet:
    """Mixture of N component distributions with mixing weights in weight_set."""
    components = list(components)
    if not components:
        raise AmbiguityError("at least one component required")
    dim = components[0].support.dim
    groups = []
    for n, comp in enumerate(components):
        if comp.support.dim != dim:
            raise AmbiguityError("component supports disagree on dimension")
        if bool(comp.g_fns) != (comp.g_moment_set is not None):
            raise AmbiguityError("g-functions and their moment set must come together")
        has_mean = comp.mean_set is not None
        if not has_mean and not comp.g_fns:
            continue
        parts = []
        if has_mean:
            parts.append(comp.mean_set)
        if comp.g_fns:
            parts.append(comp.g_moment_set)
        moment = parts[0] if len(parts) == 1 else product(*parts)
        groups.append(ConditionGroup((n,), has_mean, {n: tuple(comp.g_fns)}, moment))
    return LiftedAmbiguitySet(
        dim, tuple(c.support for c in components), tuple(groups), weight_set
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple  # of (name, passed: bool, detail: str)

    def __post_init__(self):
        # a flag read off a numpy comparison is numpy.bool_; JSON takes bool only
        object.__setattr__(self, "checks", tuple((name, bool(ok), detail) for name, ok, detail in self.checks))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, d) for n, ok, d in self.checks if not ok]


def _weight_marginal_min(amb: LiftedAmbiguitySet) -> float:
    """min over the weight polytope of the smallest weight coordinate."""
    w = amb.weight_set
    return float(np.min(-support_value(w, -np.eye(w.dim)[: amb.n_scenarios])))


def validate(amb: LiftedAmbiguitySet, fm: FactorMap = None) -> ValidationReport:
    """LP-backed sanity checks: compactness, weight interiority, moment-set
    feasibility, strict-interior (Slater) surrogates, and — when a kernel
    map is supplied — transition-row validity over every support.

    Small compact polytopes answer their support queries from a vertex list
    instead of LPs, and a support object shared by several scenarios is
    checked once, though every scenario keeps its own check names.  A
    support keeps its Slater radius, so sets that share it measure it once.

    A passing report is evidence, not a certificate, that strong duality
    holds for the robust counterpart.
    """
    checks = _per_support(amb, _support_checks)
    w_ok = is_nonempty_bounded(amb.weight_set)
    checks.append(("weight_set_compact", w_ok, ""))
    if w_ok:
        ones = np.zeros(amb.weight_set.dim)
        ones[: amb.n_scenarios] = 1.0
        hi = support_value(amb.weight_set, ones)
        lo = -support_value(amb.weight_set, -ones)
        norm_ok = abs(hi - 1.0) <= 1e-9 and abs(lo - 1.0) <= 1e-9
        checks.append(("weight_normalization", norm_ok, f"sum range [{lo:.3g}, {hi:.3g}]"))
        wmin = _weight_marginal_min(amb)
        checks.append(("weight_interiority", wmin > 0.0, f"min weight {wmin:.2e}"))
    for j, g in enumerate(amb.groups):
        ok, _ = feasibility_check(g.moment_set)
        checks.append((f"group_{j}_moment_set_nonempty", ok, ""))
    if fm is not None:
        checks.extend(_factor_map_checks(amb, fm))
    return ValidationReport(tuple(checks))


def _per_support(amb: LiftedAmbiguitySet, check):
    """The checks check(d) returns for every scenario's support d, with the
    `{n}` in each name set to the scenario index.  check runs once per
    distinct support object."""
    done, checks = {}, []
    for n, d in enumerate(amb.supports):
        if id(d) not in done:
            done[id(d)] = check(d)
        checks.extend((name.format(n=n), ok, detail) for name, ok, detail in done[id(d)])
    return checks


def _support_checks(d: PolyhedralSet):
    ok = is_nonempty_bounded(d)
    checks = [("support_{n}_compact", ok, "nonempty and bounded" if ok else "empty or unbounded")]
    if ok and d.b_in.size:
        if d._slater_radius is None:
            object.__setattr__(d, "_slater_radius", _hull_radius(d))
        r = d._slater_radius
        checks.append(("support_{n}_slater", r > 1e-9, f"inequality-system inscribed radius {r:.2e}"))
    return checks


def _hull_radius(d: PolyhedralSet) -> float:
    """Inscribed radius of a nonempty support's inequality rows inside the
    affine hull of its equality rows.

    With x = x0 + N z, x0 the hull's least-norm point and N an orthonormal
    basis of the equality rows' null space, it is the Chebyshev radius of
    {z : A N z ≤ b − A x0}.  A row the hull holds constant (A_i N = 0)
    bounds it instead by its distance from the hull, so a support whose
    equality rows pin one point is strictly feasible exactly when every
    inequality is slack there.
    """
    if not d.b_eq.size:
        return chebyshev_radius(d)
    a_in, b_in, a_eq, b_eq = d.a_in, d.b_in, d.a_eq, d.b_eq
    u, sv, vt = np.linalg.svd(a_eq)
    rank = int(np.sum(sv > sv[0] * max(a_eq.shape) * np.finfo(float).eps))
    basis = vt[rank:].T
    a_z = a_in @ basis
    b_z = b_in - a_in @ (vt[:rank].T @ (u[:, :rank].T @ b_eq / sv[:rank]))
    norms = np.linalg.norm(a_in, axis=1)
    flat = np.linalg.norm(a_z, axis=1) <= 1e-9 * norms
    # a zero row, 0 ≤ b, reads its slack b: tight exactly when b = 0
    r = float(np.min(b_z[flat] / np.where(norms > 0.0, norms, 1.0)[flat], initial=np.inf))
    if not np.all(flat):
        r = min(r, chebyshev_radius(PolyhedralSet(basis.shape[1], zip(a_z[~flat], b_z[~flat]))))
    return r


def _factor_map_checks(amb: LiftedAmbiguitySet, fm: FactorMap):
    if fm.factor_dim != amb.factor_dim:
        return [("factor_map_dim", False, "factor_dim mismatch")]
    # each action's summed transition row, its negation, then every
    # transition row negated: one support_value call answers them all
    row_sums = fm.p_mat.reshape(fm.n_actions, fm.n_next, -1).sum(axis=1)
    sum_offsets = fm.p_offset.reshape(fm.n_actions, fm.n_next).sum(axis=1)
    directions = np.vstack([row_sums, -row_sums, -fm.p_mat])

    def row_checks(d):
        values = support_value(d, directions)
        hi = values[: fm.n_actions] + sum_offsets
        lo = -values[fm.n_actions : 2 * fm.n_actions] + sum_offsets
        entries = -values[2 * fm.n_actions :] + fm.p_offset
        sum_dev = float(np.max(np.abs(np.concatenate([hi, lo]) - 1.0), initial=0.0))
        worst_entry = float(np.min(entries, initial=np.inf))
        return [
            ("rows_sum_to_one_support_{n}", sum_dev <= 1e-9, f"max deviation {sum_dev:.2e}"),
            ("rows_nonnegative_support_{n}", worst_entry >= -1e-9, f"min entry {worst_entry:.2e}"),
        ]

    return [("factor_map_dim", True, "")] + _per_support(amb, row_checks)
