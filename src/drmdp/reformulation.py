"""Per-state robust subproblem compilation.

The stage objective of a state is affine in the uncertain factor:
value(π, ξ) = κ(π) + c(π)·ξ.  The adversary picks a distribution from a
lifted ambiguity set to minimize its expectation; the decision maker picks
a randomized action π to maximize the worst case.  Replacing each
conditional distribution by a point mass at its conditional mean (valid
because the objective is linear and the moment functions convex) and
scaling by the scenario weights, x_n = ω_n ξ̄_n, makes the adversary's
problem one LP, min (Mπ)'v s.t. A v {≤, =} b with v free.  ``_adversary_rows``
assembles A and b; M prices κ on the weights and C on the scaled means.

Every backup solves that LP's dual with π made a variable, the robust LP:
max b'y s.t. A'y − Mπ = 0, 1'π = 1, π ≥ 0, y ≤ 0 on ≤ rows.  An
``SRobustTemplate`` holds A' and b, compiled once per ambiguity set and
kept on the set.  Only the π columns' entries and bounds change between
backups: the template computes −M's entries of a stage objective and
hands them to the solver seam as the LP's leading columns, together with
the set's one warm-started model (``SRobustTemplate.warm``), into which
HiGHS writes them in place while the action count stays, by a column swap
when it changes;
``instantiate`` assembles the whole LP for the dense simplex, ``--dump-lp``
and the tests.  ``solve_srobust`` reads the robust randomized action from
the π block; ``worst_case_expectation`` pins π to a fixed policy through
its bounds, which makes the LP the dual of the adversary LP at that π.
Either way the duals of the LP's rows are a worst-case adversary point.
A backup keeps them, and its certificate, the point masses they describe,
is built from them only when first asked for.  ``oracle_worst_case`` is an
independent check that discretizes supports into grids and solves the
primal moment problem over point masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambiguity import FactorMap, LiftedAmbiguitySet
from .geometry import bounding_box, enumerate_vertices, feasibility_check
from .lp import EQ, LE, UNBOUNDED, CscArrays, LeadingColumns, LinearProgram, WarmHighs, get_solver


class ReformulationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Stage objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageObjective:
    """Affine-in-factor stage value: value(π, ξ) = κ·π + π'C ξ."""

    kappa_vec: np.ndarray  # (A,)
    c_mat: np.ndarray  # (A, factor_dim)

    def __post_init__(self):
        object.__setattr__(self, "kappa_vec", np.asarray(self.kappa_vec, dtype=float).reshape(-1))
        c = np.atleast_2d(np.asarray(self.c_mat, dtype=float))
        if c.shape[0] != self.kappa_vec.shape[0]:
            raise ReformulationError("kappa and c disagree on the action count")
        object.__setattr__(self, "c_mat", c)

    @property
    def n_actions(self) -> int:
        return self.kappa_vec.shape[0]

    @property
    def factor_dim(self) -> int:
        return self.c_mat.shape[1]

    def kappa(self, pi) -> float:
        return float(self.kappa_vec @ pi)

    def coeff(self, pi) -> np.ndarray:
        return self.c_mat.T @ np.asarray(pi, dtype=float)


def assemble_stage_objective(v_next, fm: FactorMap, discount: float = 1.0) -> StageObjective:
    """Fold a next-stage value vector into the factor-affine stage objective.

    The transition map's rows, reshaped to one block of n_next rows per
    action, are each priced at v_next, so that for every (π, ξ):
    rewards(ξ)·π + discount · Σ_a π_a (transitions(ξ)_a · v_next)
    = κ(π) + c(π)·ξ.
    """
    v_next = np.asarray(v_next, dtype=float).reshape(-1)
    na, n_next = fm.n_actions, fm.n_next
    if v_next.shape[0] != n_next:
        raise ReformulationError("value vector length differs from next-state count")
    # numbers near the float limit overflow to inf or NaN here, an entry the
    # backup LP then refuses as a numerical failure
    with np.errstate(over="ignore", invalid="ignore"):
        kappa_vec = fm.r_offset + discount * (fm.p_offset.reshape(na, n_next) @ v_next)
        c_mat = fm.r_mat + discount * (v_next @ fm.p_mat.reshape(na, n_next, -1))
    return StageObjective(kappa_vec, c_mat)


# ---------------------------------------------------------------------------
# Adversary rows: the one constraint assembler
# ---------------------------------------------------------------------------


class _Cols:
    """Running column layout: name -> slice into the variable vector."""

    def __init__(self):
        self.total = 0
        self.slices = {}

    def add(self, name, size) -> slice:
        s = slice(self.total, self.total + size)
        self.slices[name] = s
        self.total += size
        return s

    def __getitem__(self, name) -> slice:
        return self.slices[name]


def _adversary_rows(amb: LiftedAmbiguitySet):
    """The adversary's constraints A v {≤, =} b over free variables v.

    Variables: the weight-polytope coordinates "w" (scenario weights ω
    first, then any auxiliaries), the scaled group moments ω̄_j μ_j and
    ω̄_j ν_j, the scaled conditional means "x" (row n of the N × factor_dim
    block is x_n = ω_n ξ̄_n) and one epigraph variable per max-block of
    every moment function, group j's in the slice ("s", j) ordered by
    scenario, moment and block.  Rows: the weight polytope, the scaled
    moment sets F(μ̂_j, ν̂_j) {≤, =} ω̄_j h, the scaled supports
    A x_n {≤, =} ω_n b, the mean equalities Σ_{n∈j} x_n = μ̂_j, the piece
    epigraphs a·x_n + b ω_n ≤ s and the moment aggregates Σ s ≤ ν̂_j.  No
    row involves the policy or the action count.  Rows go in as matrix
    blocks: one per polytope, one per moment function's epigraph rows and
    one per group's aggregate rows.

    Returns (layout, moment_rows, A, senses, b), where moment_rows[j]
    indexes the aggregate rows of each group j with moment functions.
    """
    d, n = amb.factor_dim, amb.n_scenarios
    cols = _Cols()
    w = cols.add("w", amb.weight_set.dim)
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            cols.add(("mu", j), d)
        if g.n_moments:
            cols.add(("nu", j), g.n_moments)
    x = cols.add("x", n * d)
    xs = [slice(x.start + i * d, x.start + (i + 1) * d) for i in range(n)]
    for j, g in enumerate(amb.groups):
        if g.n_moments:
            cols.add(("s", j), sum(fn.n_blocks for i in g.scenarios for fn in g.g_fns[i]))

    blocks = []  # (matrix, senses, rhs) per block of rows, in row order

    def block(k, sense, rhs=0.0):
        """k rows of one sense, zero until the caller fills them in."""
        mat = np.zeros((k, cols.total))
        blocks.append((mat, (sense,) * k, np.broadcast_to(rhs, (k,))))
        return mat

    ws = amb.weight_set
    block(len(ws.b_in), LE, ws.b_in)[:, w] = ws.a_in
    block(len(ws.b_eq), EQ, ws.b_eq)[:, w] = ws.a_eq
    for j, g in enumerate(amb.groups):
        ms, mu_dim = g.moment_set, d if g.mean_equality else 0
        wsel = np.zeros(ws.dim)
        wsel[list(g.scenarios)] = 1.0
        for fmat, hvec, sense in ((ms.a_in, ms.b_in, LE), (ms.a_eq, ms.b_eq, EQ)):
            mat = block(len(hvec), sense)
            mat[:, w] = -np.outer(hvec, wsel)
            if mu_dim:
                mat[:, cols[("mu", j)]] = fmat[:, :mu_dim]
            if g.n_moments:
                mat[:, cols[("nu", j)]] = fmat[:, mu_dim:]
    for i, dset in enumerate(amb.supports):
        for a, b, sense in ((dset.a_in, dset.b_in, LE), (dset.a_eq, dset.b_eq, EQ)):
            mat = block(len(b), sense)
            mat[:, xs[i]] = a
            mat[:, i] = -b
    moment_rows = {}
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            mat = block(d, EQ)
            for i in g.scenarios:
                mat[:, xs[i]] += np.eye(d)
            mat[:, cols[("mu", j)]] = -np.eye(d)
        if not g.n_moments:
            continue
        eps = cols[("s", j)]
        col, moment_of = eps.start, []  # the moment each epigraph column bounds
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                mat = block(len(fn.b), LE)
                mat[:, xs[i]] = fn.a
                mat[:, i] = fn.b
                mat[np.arange(len(fn.b)), col + fn.block] = -1.0
                col += fn.n_blocks
                moment_of += [m] * fn.n_blocks
        start = sum(len(rhs) for _, _, rhs in blocks)
        moment_rows[j] = np.arange(start, start + g.n_moments)
        mat = block(g.n_moments, LE)
        mat[moment_of, np.arange(eps.start, eps.stop)] = 1.0
        mat[:, cols[("nu", j)]] = -np.eye(g.n_moments)

    mats, senses, rhs = zip(*blocks)
    return cols, moment_rows, np.vstack(mats), tuple(s for ss in senses for s in ss), np.concatenate(rhs)


def _unit(n, i, value=1.0):
    e = np.zeros(n)
    e[i] = value
    return e


# ---------------------------------------------------------------------------
# Worst case at a fixed policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorstCaseCertificate:
    """Point-mass representation of a worst-case distribution: scenario
    weights and per-scenario conditional means."""

    weights: np.ndarray
    means: np.ndarray  # (N, factor_dim)

    @property
    def mean(self) -> np.ndarray:
        """Mixture mean Σ_n ω_n ξ̄_n: the factor the worst case prices at."""
        return self.weights @ self.means


def worst_case_expectation(obj: StageObjective, amb: LiftedAmbiguitySet, pi, solver="highs"):
    """Worst-case expected stage value at a fixed policy.

    Solves the set's robust LP with its π columns pinned to pi, on the same
    template and warm model as the robust backups.  Returns (value,
    certificate); the certificate, read from the LP's row duals, reproduces
    the value as a finite mixture of point masses at the conditional means.
    """
    sol = _fixed_policy_backup(obj, amb, pi, solver)
    return sol.value, sol.certificate


def _point_masses(amb: LiftedAmbiguitySet, v) -> WorstCaseCertificate:
    """Certificate from an adversary point v, laid out as the set's
    template's adversary variables: weights ω and scaled means
    x_n = ω_n ξ̄_n.

    Each mean is x_n / ω_n; a scenario without weight sits at a witness
    point of its support.  The weights are clipped at 0 and renormalised.
    """
    n, layout = amb.n_scenarios, _template(amb).layout
    weights = v[layout["w"]][:n]
    scaled_means = v[layout["x"]].reshape(n, amb.factor_dim)
    means = np.zeros((n, amb.factor_dim))
    live = weights > 1e-12
    means[live] = scaled_means[live] / weights[live, None]
    for i in np.flatnonzero(~live):
        _, means[i] = feasibility_check(amb.supports[i])
    weights = np.clip(weights, 0.0, None)
    return WorstCaseCertificate(weights / weights.sum(), means)


# ---------------------------------------------------------------------------
# S-robust LP (maximize over policies): the adversary LP's transpose
# ---------------------------------------------------------------------------


class SRobustTemplate:
    """Reusable compilation of one ambiguity set's adversary rows.

    The template stores A' (sparse, column-compressed), b and the row
    senses once.  The robust LP is the dual of the adversary LP with the
    policy made a variable: max b'y subject to A'y − Mπ = 0 (one row per
    adversary variable), 1'π = 1, π ≥ 0 and y ≤ 0 on the adversary's ≤
    rows.  Its y columns are the same for every backup of the set
    (`shared`); a stage objective contributes only the π columns −M in
    front of them, so every action count shares one template, and pinning
    π by its bounds gives the fixed-policy LP.

    `leading_columns` gathers the π columns' entries from the stage
    objective, with their pattern, costs and bounds cached per action
    count, as a request that `_solve` hands to the seam together with the
    set's persistent HiGHS model (`warm`).  A
    backup, robust or fixed-policy, re-solves from the basis the previous
    backup of the set left and builds no whole LP: with the previous
    backup's action count it rewrites only the entries that changed, in
    place, and with another one it swaps its π columns in.  `instantiate`
    assembles the whole LP for the dense simplex, `--dump-lp` and the tests.
    The model lives and dies with the set, so warm state never crosses
    sets.  The template keeps the set's sizes, not the set, and the model
    keeps only the last request, which refers to the template's `shared`
    LP but not to the template, so none of them form a cycle.
    """

    def __init__(self, amb: LiftedAmbiguitySet):
        self._build(amb)

    def _build(self, amb):
        self.n_scenarios, self.factor_dim = amb.n_scenarios, amb.factor_dim
        self.layout, self.moment_rows, amat, self.senses, self.b = _adversary_rows(amb)
        self.at = CscArrays.of(amat.T)
        n_vars, n_rows = self.at.shape
        y_ub = np.where(np.array(self.senses) == LE, 0.0, np.inf)
        # rows A'y − Mπ = 0, then 1'π = 1, over the y columns, which have no
        # entry in the last row
        rhs = np.zeros(n_vars + 1)
        rhs[n_vars] = 1.0
        at = CscArrays(self.at.data, self.at.indices, self.at.indptr, (n_vars + 1, n_rows))
        self.shared = LinearProgram(
            "max", self.b, at, (EQ,) * (n_vars + 1), rhs, np.full(n_rows, -np.inf), y_ub
        )
        # rows of the π columns: M's entries at the scenario weights and the
        # scaled means, then the 1 of 1'π = 1
        w, x = self.layout["w"], self.layout["x"]
        pi_rows = np.r_[w.start : w.start + self.n_scenarios, x.start : x.stop, n_vars]
        self._pi_rows = pi_rows.astype(self.at.indices.dtype)
        self._columns = {}  # action count -> _PiColumns
        self.warm = WarmHighs()

    def _pi_columns(self, na):
        """The cached pattern, gather index, costs and bounds of na π
        columns."""
        cols = self._columns.get(na)
        if cols is None:
            n, d, k = self.n_scenarios, self.factor_dim, len(self._pi_rows)
            starts = np.arange(0, na * k, k, dtype=self.at.indptr.dtype)
            # positions in (κ, C row by row, −1): κ_a on every weight, C_a
            # on every scaled mean, then the −1 that negates to 1'π's 1
            a = np.arange(na)[:, None]
            gather = np.hstack(
                [np.repeat(a, n, axis=1), np.tile(na + d * a + np.arange(d), n), np.full((na, 1), na + na * d)]
            )
            cols = _PiColumns(starts, np.tile(self._pi_rows, na), gather.ravel(), np.zeros(na), np.full(na, np.inf))
            for arr in vars(cols).values():
                arr.flags.writeable = False
            self._columns[na] = cols
        return cols

    def leading_columns(self, obj: StageObjective, pi=None) -> LeadingColumns:
        """A stage objective's π columns, for the set's warm model.  Column a
        holds −M's entries of action a, zeros included, then the 1 of
        1'π = 1: (Mπ)'v = κ(π) Σ_n ω_n + Σ_n c(π)·x_n puts κ_a on every
        scenario weight and C_a on every scaled mean.  The π columns range
        over [0, ∞), or are pinned to [pi, pi] when a policy is given."""
        if obj.factor_dim != self.factor_dim:
            raise ReformulationError("stage objective and ambiguity set disagree on factor_dim")
        cols = self._pi_columns(obj.n_actions)
        value = np.concatenate((obj.kappa_vec, obj.c_mat.ravel(), _MINUS_ONE))[cols.gather]
        np.negative(value, out=value)
        lb, ub = (cols.zeros, cols.inf) if pi is None else (pi, pi)
        return LeadingColumns(self.shared, cols.zeros, lb, ub, cols.starts, cols.index, value)

    def instantiate(self, obj: StageObjective) -> LinearProgram:
        """The whole robust LP, the π columns first and then the y columns."""
        return self.leading_columns(obj).lp()


_MINUS_ONE = np.array([-1.0])


@dataclass(frozen=True)
class _PiColumns:
    """What na π columns share across backups: their column starts and
    row indices, the gather index that takes their entries from a stage
    objective, and read-only zero costs and [0, ∞) bounds."""

    starts: np.ndarray
    index: np.ndarray
    gather: np.ndarray
    zeros: np.ndarray
    inf: np.ndarray


def _template(amb: LiftedAmbiguitySet) -> SRobustTemplate:
    """The set's template, compiled on first use and kept on the set."""
    if amb._template is None:
        object.__setattr__(amb, "_template", SRobustTemplate(amb))
    return amb._template


def build_srobust_lp(obj: StageObjective, amb: LiftedAmbiguitySet) -> LinearProgram:
    """One LP computing max_π (worst-case expectation).

    Variable blocks: the policy π on the simplex, then the multipliers y of
    the adversary rows.  Its optimal value is the robust value.
    """
    return _template(amb).instantiate(obj)


@dataclass(frozen=True)
class SRobustSolution:
    """Robust randomized action (or the pinned policy) with its value, the
    moment multipliers γ_j ≥ 0 and the LP's row duals, a worst-case
    adversary point; the certificate is built from them on first access."""

    policy: np.ndarray
    value: float
    gamma: dict
    duals: np.ndarray = field(repr=False)
    amb: LiftedAmbiguitySet = field(repr=False, compare=False)

    @cached_property
    def certificate(self) -> WorstCaseCertificate:
        return _point_masses(self.amb, self.duals)

    def saddle_residual(self, obj: StageObjective) -> float:
        """Saddle gap |max_a (κ_a + C_a·ξ̄*) − value|, with ξ̄* the
        certificate's mixture mean: how much the best reply to the
        worst case beats the robust value."""
        best_reply = np.max(obj.kappa_vec + obj.c_mat @ self.certificate.mean)
        return abs(float(best_reply) - self.value)


def solve_srobust(obj: StageObjective, amb: LiftedAmbiguitySet, solver="highs") -> SRobustSolution:
    """Solve max_π inf_P E[value] as one LP; its duals give the certificate.

    The LP's rows are the adversary's variables, so its duals are a
    worst-case adversary point: the weight rows give ω and the scaled-mean
    rows give x_n = ω_n ξ̄_n.  States that share an ambiguity set share its
    template.
    """
    return _solve(obj, amb, None, solver)


def _fixed_policy_backup(obj: StageObjective, amb: LiftedAmbiguitySet, pi, solver) -> SRobustSolution:
    """The set's robust LP with π pinned to the policy pi: its value is the
    worst-case expectation at pi, and its certificate a worst case."""
    # a copy: the warm model tells changed bounds from kept ones by identity
    pi = np.array(pi, dtype=float)
    if pi.shape != (obj.n_actions,) or not np.all(np.isfinite(pi)):
        raise ReformulationError(f"policy must have {obj.n_actions} finite entries, one per action")
    if abs(pi.sum() - 1.0) > 1e-9 or np.any(pi < -1e-9):
        raise ReformulationError("policy must lie in the probability simplex")
    return _solve(obj, amb, pi, solver)


def _solve(obj: StageObjective, amb: LiftedAmbiguitySet, pi, solver) -> SRobustSolution:
    """One backup through the solver seam, π pinned to pi unless pi is
    None; raises on a non-optimum or on a robust policy that does not sum
    to 1."""
    template = _template(amb)
    lead = template.leading_columns(obj, pi)
    sol = get_solver(solver)(lead, template.warm)
    if sol.status == UNBOUNDED:
        # unbounded duals: the adversary's rows admit no point
        raise ReformulationError(f"{_lp_name(lead, pi)} is unbounded: the ambiguity set admits no distribution")
    if not sol.optimal:
        raise ReformulationError(f"{_lp_name(lead, pi)} ended with status {sol.status}")
    na = obj.n_actions
    if pi is None:
        pi = np.maximum(sol.x[:na], 0.0)
        total = pi.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
            raise ReformulationError(f"{_lp_name(lead, None)} returned a policy summing to {total:.6g}")
        pi /= total
    y = sol.x[na:]
    return SRobustSolution(pi, sol.value, {j: -y[r] for j, r in template.moment_rows.items()}, sol.y, amb)


def _lp_name(lead: LeadingColumns, pi) -> str:
    """A backup LP's kind and shape, for its error messages."""
    name = "robust LP" if pi is None else "fixed-policy LP"
    return f"{name} ({lead.n_rows} rows × {lead.n_vars} columns)"


# ---------------------------------------------------------------------------
# Discretization oracle
# ---------------------------------------------------------------------------


def _grid_points(dset, step):
    bb = bounding_box(dset)
    axes = [np.arange(bb[k, 0], bb[k, 1] + 1e-12, step) for k in range(dset.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = [p for p in pts if dset.contains(p, tol=1e-9)]
    out = list(enumerate_vertices(dset))
    for p in keep:
        if not any(np.max(np.abs(p - q)) <= 1e-9 for q in out):
            out.append(p)
    return np.array(out)


def oracle_worst_case(obj: StageObjective, amb: LiftedAmbiguitySet, pi, grid_step, solver="highs"):
    """Worst case over grid-supported distributions — an upper bound on the
    true worst case, converging as the grid refines.

    Independent of the dualized compilation: distributions are explicit
    probability masses and moment functions are evaluated numerically.
    """
    if amb.factor_dim > 4 or amb.n_scenarios > 4:
        raise ReformulationError("oracle guard: factor_dim ≤ 4 and N ≤ 4 required")
    pi = np.asarray(pi, dtype=float)
    grids = [_grid_points(dset, grid_step) for dset in amb.supports]
    n = amb.n_scenarios
    d = amb.factor_dim
    cols = _Cols()
    w = cols.add("w", amb.weight_set.dim)
    qs = [cols.add(("q", i), len(grids[i])) for i in range(n)]
    moments = []
    for j, g in enumerate(amb.groups):
        mu = cols.add(("mu", j), d) if g.mean_equality else None
        nu = cols.add(("nu", j), g.n_moments) if g.n_moments else None
        moments.append((mu, nu))

    rows = []

    def row(vec_pairs, sense, rhs):
        v = np.zeros(cols.total)
        for sl, coeffs in vec_pairs:
            v[sl] += coeffs
        rows.append((v, sense, rhs))

    ws = amb.weight_set
    for a, b in zip(ws.a_in, ws.b_in):
        row([(w, a)], LE, b)
    for a, b in zip(ws.a_eq, ws.b_eq):
        row([(w, a)], EQ, b)
    for i in range(n):
        sel = np.zeros(amb.weight_set.dim)
        sel[i] = -1.0
        row([(qs[i], np.ones(len(grids[i]))), (w, sel)], EQ, 0.0)
    for j, g in enumerate(amb.groups):
        mu, nu = moments[j]
        if g.mean_equality:
            for k in range(d):
                pairs = [(qs[i], grids[i][:, k]) for i in g.scenarios]
                pairs.append((mu, _unit(d, k, -1.0)))
                row(pairs, EQ, 0.0)
        for m in range(g.n_moments):
            pairs = []
            for i in g.scenarios:
                fn = g.g_fns[i][m]
                pairs.append((qs[i], np.array([fn(p) for p in grids[i]])))
            pairs.append((nu, _unit(g.n_moments, m, -1.0)))
            row(pairs, LE, 0.0)
        ms, mu_dim = g.moment_set, d if g.mean_equality else 0
        wsel = np.zeros(ws.dim)
        wsel[list(g.scenarios)] = 1.0
        for fmat, hvec, sense in ((ms.a_in, ms.b_in, LE), (ms.a_eq, ms.b_eq, EQ)):
            for ridx in range(fmat.shape[0]):
                pairs = [(w, -hvec[ridx] * wsel)]
                if mu_dim:
                    pairs.append((mu, fmat[ridx, :mu_dim]))
                if g.n_moments:
                    pairs.append((nu, fmat[ridx, mu_dim:]))
                row(pairs, sense, 0.0)

    c = np.zeros(cols.total)
    cc = obj.coeff(pi)
    for i in range(n):
        c[qs[i]] = grids[i] @ cc
    lb = np.full(cols.total, -np.inf)
    for i in range(n):
        lb[qs[i]] = 0.0
    amat = np.array([r[0] for r in rows])
    lp = LinearProgram(
        "min",
        c,
        amat,
        tuple(r[1] for r in rows),
        np.array([r[2] for r in rows]),
        lb,
        np.full(cols.total, np.inf),
    )
    sol = get_solver(solver)(lp)
    if not sol.optimal:
        raise ReformulationError(f"oracle LP ended with status {sol.status}")
    return sol.value + obj.kappa(pi)
