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
An ``SRobustTemplate`` holds A' and b, compiled once per ambiguity set and
kept on the set, and serves both LPs a backup can need:

* ``adversary_lp`` — that LP for a fixed π; ``worst_case_expectation``
  solves it for fixed-policy evaluation.
* ``instantiate`` / ``build_srobust_lp`` — its transpose with π made a
  variable: max b'y s.t. A'y − Mπ = 0, 1'π = 1, π ≥ 0, y ≤ 0 on ≤ rows.
  Its π block is the robust randomized action, and the duals of its rows
  are an adversary point, so ``solve_srobust`` reads the saddle
  certificate from the one LP a robust backup solves.  Only the π
  columns change between backups, so on HiGHS the set's backups share
  one warm-started model (``SRobustTemplate.warm``).
* ``oracle_worst_case`` — an independent check that discretizes supports
  into grids and solves the primal moment problem over point masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from .ambiguity import FactorMap, LiftedAmbiguitySet
from .geometry import enumerate_vertices, feasibility_check
from .lp import EQ, LE, LinearProgram, WarmHighs, get_solver


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

    def evaluate(self, pi, xi) -> float:
        return self.kappa(pi) + float(self.coeff(pi) @ xi)


def assemble_stage_objective(v_next, fm: FactorMap, discount: float = 1.0) -> StageObjective:
    """Fold a next-stage value vector into the factor-affine stage objective.

    The continuation enters through the block matrix that pairs each
    action's transition row with v_next, so that for every (π, ξ):
    rewards(ξ)·π + discount · Σ_a π_a (transitions(ξ)_a · v_next)
    = κ(π) + c(π)·ξ.
    """
    v_next = np.asarray(v_next, dtype=float).reshape(-1)
    if v_next.shape[0] != fm.n_next:
        raise ReformulationError("value vector length differs from next-state count")
    blocks = np.zeros((fm.n_actions, fm.n_actions * fm.n_next))
    for a in range(fm.n_actions):
        blocks[a, a * fm.n_next : (a + 1) * fm.n_next] = v_next
    kappa_vec = fm.r_offset + discount * blocks @ fm.p_offset
    c_mat = fm.r_mat + discount * blocks @ fm.p_mat
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


def _pieces_of(fn):
    """Flatten a PwlConvexFn into (block_index, a, b) piece triples."""
    out = []
    for l, block in enumerate(fn.terms):
        for a, b in block:
            out.append((l, a, b))
    return out


def _group_moment_rows(amb: LiftedAmbiguitySet):
    """Per group: the moment set split into (F_in, h_in, F_eq, h_eq) and the
    column offsets of the μ and ν blocks inside the moment vector."""
    out = []
    for g in amb.groups:
        f_in, h_in = g.moment_set.ineq_matrix()
        f_eq, h_eq = g.moment_set.eq_matrix()
        mu_dim = amb.factor_dim if g.mean_equality else 0
        out.append((f_in, h_in, f_eq, h_eq, mu_dim, g.n_moments))
    return out


def _adversary_rows(amb: LiftedAmbiguitySet):
    """The adversary's constraints A v {≤, =} b over free variables v.

    Variables: the weight-polytope coordinates "w" (scenario weights ω
    first, then any auxiliaries), the scaled group moments ω̄_j μ_j and
    ω̄_j ν_j, the scaled conditional means "x" (row n of the N × factor_dim
    block is x_n = ω_n ξ̄_n) and one epigraph variable per max-block of
    every moment function.  Rows: the weight polytope, the scaled moment
    sets F(μ̂_j, ν̂_j) {≤, =} ω̄_j h, the scaled supports A x_n {≤, =} ω_n b,
    the mean equalities Σ_{n∈j} x_n = μ̂_j, the piece epigraphs
    a·x_n + b ω_n ≤ s and the moment aggregates Σ s ≤ ν̂_j.  No row
    involves the policy or the action count.

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
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                for l in range(len(fn.terms)):
                    cols.add(("s", j, i, m, l), 1)

    rows = []

    def row(vec_pairs, sense, rhs=0.0):
        v = np.zeros(cols.total)
        for sl, coeffs in vec_pairs:
            v[sl] += coeffs
        rows.append((v, sense, rhs))

    for a, b in amb.weight_set.ineq:
        row([(w, a)], LE, b)
    for a, b in amb.weight_set.eq:
        row([(w, a)], EQ, b)
    for j, (f_in, h_in, f_eq, h_eq, mu_dim, n_m) in enumerate(_group_moment_rows(amb)):
        wsel = np.zeros(amb.weight_set.dim)
        wsel[list(amb.groups[j].scenarios)] = 1.0
        for fmat, hvec, sense in ((f_in, h_in, LE), (f_eq, h_eq, EQ)):
            for f, h in zip(fmat, hvec):
                pairs = [(w, -h * wsel)]
                if mu_dim:
                    pairs.append((cols[("mu", j)], f[:mu_dim]))
                if n_m:
                    pairs.append((cols[("nu", j)], f[mu_dim:]))
                row(pairs, sense)
    for i, dset in enumerate(amb.supports):
        wi = slice(i, i + 1)
        for a, b in dset.ineq:
            row([(xs[i], a), (wi, -b)], LE)
        for a, b in dset.eq:
            row([(xs[i], a), (wi, -b)], EQ)
    moment_rows = {}
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            for k in range(d):
                pairs = [(xs[i], _unit(d, k)) for i in g.scenarios]
                pairs.append((cols[("mu", j)], _unit(d, k, -1.0)))
                row(pairs, EQ)
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                for l, a, b in _pieces_of(fn):
                    row([(xs[i], a), (slice(i, i + 1), b), (cols[("s", j, i, m, l)], -1.0)], LE)
        if g.n_moments:
            moment_rows[j] = np.arange(len(rows), len(rows) + g.n_moments)
        for m in range(g.n_moments):
            pairs = [
                (cols[("s", j, i, m, l)], 1.0)
                for i in g.scenarios
                for l in range(len(g.g_fns[i][m].terms))
            ]
            pairs.append((cols[("nu", j)], _unit(g.n_moments, m, -1.0)))
            row(pairs, LE)

    amat = np.array([r[0] for r in rows]).reshape(len(rows), cols.total)
    return cols, moment_rows, amat, tuple(r[1] for r in rows), np.array([r[2] for r in rows])


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

    def expectation(self, obj: StageObjective, pi) -> float:
        cc = obj.coeff(pi)
        return obj.kappa(pi) + float(self.weights @ (self.means @ cc))


def worst_case_expectation(obj: StageObjective, amb: LiftedAmbiguitySet, pi, solver="simplex"):
    """Worst-case expected stage value at a fixed policy.

    Returns (value, certificate); the certificate reproduces the value as a
    finite mixture of point masses at the conditional means.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (obj.n_actions,) or not np.all(np.isfinite(pi)):
        raise ReformulationError(f"policy must have {obj.n_actions} finite entries, one per action")
    if abs(pi.sum() - 1.0) > 1e-9 or np.any(pi < -1e-9):
        raise ReformulationError("policy must lie in the probability simplex")
    template = _template(amb)
    lp = template.adversary_lp(obj, pi)
    sol = get_solver(solver)(lp)
    if sol.status == "infeasible":
        raise ReformulationError(
            "fixed-policy subproblem infeasible: the ambiguity set admits no distribution"
        )
    if not sol.optimal:
        raise ReformulationError(
            f"adversary LP ({lp.n_rows} rows × {lp.n_vars} columns) ended with status {sol.status}"
        )
    return sol.value, _point_masses(amb, template.layout, sol.x)


def _point_masses(amb: LiftedAmbiguitySet, layout, v) -> WorstCaseCertificate:
    """Certificate from an adversary point v: weights ω and scaled means
    x_n = ω_n ξ̄_n.

    Each mean is x_n / ω_n; a scenario without weight sits at a witness
    point of its support.  The weights are clipped at 0 and renormalised.
    """
    n = amb.n_scenarios
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
    senses once.  ``adversary_lp`` prices them at a fixed π.  The robust LP
    is the dual of the adversary LP with the policy made a variable:
    max b'y subject to A'y − Mπ = 0 (one row per adversary variable),
    1'π = 1, π ≥ 0 and y ≤ 0 on the adversary's ≤ rows.  ``instantiate``
    puts the π columns −M of a stage objective in front of the fixed y
    columns, so every action count shares one template.

    The template also owns the set's persistent HiGHS model of that LP
    (``warm``): a robust backup on the HiGHS backend swaps in its π columns
    and re-solves from the basis the previous backup of the set left.  The
    model lives and dies with the set, so warm state never crosses sets.
    The template keeps the set's sizes, not the set, and the model keeps
    no reference to the template, so none of them form a cycle.
    """

    def __init__(self, amb: LiftedAmbiguitySet):
        self._build(amb)

    def _build(self, amb):
        self.n_scenarios, self.factor_dim = amb.n_scenarios, amb.factor_dim
        self.layout, self.moment_rows, amat, self.senses, self.b = _adversary_rows(amb)
        self.at = csc_matrix(amat.T)
        n_vars = self.at.shape[0]
        self.y_ub = np.where(np.array(self.senses) == LE, 0.0, np.inf)
        # rows where M has entries: the scenario weights, then the scaled means
        w, x = self.layout["w"], self.layout["x"]
        self._m_rows = np.r_[w.start : w.start + self.n_scenarios, x.start : x.stop]
        self._pi_rows = np.append(self._m_rows, n_vars).astype(self.at.indices.dtype)
        self.warm = WarmHighs(self.at.shape[1])

    def _cost_entries(self, obj: StageObjective) -> np.ndarray:
        """M's entries, one row per action, at the adversary variables
        ``_m_rows``: (Mπ)'v = κ(π) Σ_n ω_n + Σ_n c(π)·x_n puts κ_a on every
        scenario weight and C_a on every scaled mean."""
        if obj.factor_dim != self.factor_dim:
            raise ReformulationError("stage objective and ambiguity set disagree on factor_dim")
        n = self.n_scenarios
        return np.hstack([np.repeat(obj.kappa_vec[:, None], n, 1), np.tile(obj.c_mat, (1, n))])

    def adversary_lp(self, obj: StageObjective, pi) -> LinearProgram:
        """The inner minimization at a fixed π: min (Mπ)'v over the
        adversary rows, v free; its value is the worst-case expectation."""
        free = np.full(self.layout.total, np.inf)
        c = np.zeros(self.layout.total)
        c[self._m_rows] = pi @ self._cost_entries(obj)
        return LinearProgram("min", c, self.at.T, self.senses, self.b, -free, free)

    def instantiate(self, obj: StageObjective):
        """Put a stage objective's π columns in front of the fixed y
        columns; returns (lp, layout) with column blocks "pi" and "y".  The
        LP carries the set's warm HiGHS model."""
        na = obj.n_actions
        n_vars, n_rows = self.at.shape
        at, pi_rows = self.at, self._pi_rows
        # π column a holds −M's entries of action a, then the 1 of 1'π = 1,
        # zeros included; A' follows unchanged
        pi_nnz = na * len(pi_rows)
        data = np.empty(pi_nnz + at.nnz)
        pi_vals = data[:pi_nnz].reshape(na, len(pi_rows))
        pi_vals[:, :-1] = -self._cost_entries(obj)
        pi_vals[:, -1] = 1.0
        data[pi_nnz:] = at.data
        indices = np.empty(pi_nnz + at.nnz, dtype=at.indices.dtype)
        indices[:pi_nnz].reshape(na, len(pi_rows))[:] = pi_rows
        indices[pi_nnz:] = at.indices
        indptr = np.empty(na + 1 + n_rows, dtype=at.indptr.dtype)
        indptr[: na + 1] = np.arange(0, pi_nnz + 1, len(pi_rows))
        indptr[na + 1 :] = at.indptr[1:] + pi_nnz
        a = csc_matrix((data, indices, indptr), shape=(n_vars + 1, na + n_rows))
        rhs = np.zeros(n_vars + 1)
        rhs[n_vars] = 1.0
        cols = _Cols()
        cols.add("pi", na)
        cols.add("y", n_rows)
        lp = LinearProgram(
            "max",
            np.concatenate([np.zeros(na), self.b]),
            a,
            (EQ,) * (n_vars + 1),
            rhs,
            np.concatenate([np.zeros(na), np.full(n_rows, -np.inf)]),
            np.concatenate([np.full(na, np.inf), self.y_ub]),
            warm=self.warm,
        )
        return lp, cols


def _template(amb: LiftedAmbiguitySet) -> SRobustTemplate:
    """The set's template, compiled on first use and kept on the set."""
    if amb._template is None:
        object.__setattr__(amb, "_template", SRobustTemplate(amb))
    return amb._template


def build_srobust_lp(obj: StageObjective, amb: LiftedAmbiguitySet):
    """One LP computing max_π (worst-case expectation); returns (lp, layout).

    Variable blocks: the policy π on the simplex and the multipliers y of
    the adversary rows.  Its optimal value is the robust value.
    """
    return _template(amb).instantiate(obj)


@dataclass(frozen=True)
class SRobustSolution:
    """Robust randomized action with its value, the moment multipliers
    γ_j ≥ 0 and a worst-case certificate."""

    policy: np.ndarray
    value: float
    gamma: dict
    certificate: WorstCaseCertificate

    def saddle_residual(self, obj: StageObjective) -> float:
        """Saddle gap |max_a (κ_a + C_a·ξ̄*) − value|, with ξ̄* the
        certificate's mixture mean: how much the best reply to the
        worst case beats the robust value."""
        best_reply = np.max(obj.kappa_vec + obj.c_mat @ self.certificate.mean)
        return abs(float(best_reply) - self.value)


def solve_srobust(obj: StageObjective, amb: LiftedAmbiguitySet, solver="simplex") -> SRobustSolution:
    """Solve max_π inf_P E[value] as one LP; its duals give the certificate.

    The LP's rows are the adversary's variables, so its duals are a
    worst-case adversary point: the weight rows give ω and the scaled-mean
    rows give x_n = ω_n ξ̄_n.  States that share an ambiguity set share its
    template.
    """
    template = _template(amb)
    lp, cols = template.instantiate(obj)
    sol = get_solver(solver)(lp)
    if not sol.optimal:
        raise ReformulationError(
            f"robust LP ({lp.n_rows} rows × {lp.n_vars} columns) ended with status {sol.status}"
        )
    pi = np.clip(sol.x[cols["pi"]], 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise ReformulationError(
            f"robust LP ({lp.n_rows} rows × {lp.n_vars} columns) returned a policy summing to {total:.6g}"
        )
    pi /= total
    y = sol.x[cols["y"]]
    return SRobustSolution(
        policy=pi,
        value=sol.value,
        gamma={j: -y[r] for j, r in template.moment_rows.items()},
        certificate=_point_masses(amb, template.layout, sol.y),
    )


# ---------------------------------------------------------------------------
# Discretization oracle
# ---------------------------------------------------------------------------


def _grid_points(dset, step):
    from .geometry import bounding_box

    bb = bounding_box(dset)
    axes = [np.arange(bb[k, 0], bb[k, 1] + 1e-12, step) for k in range(dset.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = [p for p in pts if dset.contains(p, tol=1e-9)]
    verts = enumerate_vertices(dset).vertices
    out = list(verts)
    for p in keep:
        if not any(np.max(np.abs(p - q)) <= 1e-9 for q in out):
            out.append(p)
    return np.array(out)


def oracle_worst_case(obj: StageObjective, amb: LiftedAmbiguitySet, pi, grid_step, solver="simplex"):
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

    for a, b in amb.weight_set.ineq:
        row([(w, a)], LE, b)
    for a, b in amb.weight_set.eq:
        row([(w, a)], EQ, b)
    for i in range(n):
        sel = np.zeros(amb.weight_set.dim)
        sel[i] = -1.0
        row([(qs[i], np.ones(len(grids[i]))), (w, sel)], EQ, 0.0)
    gm = _group_moment_rows(amb)
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
        f_in, h_in, f_eq, h_eq, mu_dim, n_m = gm[j]
        wsel = np.zeros(amb.weight_set.dim)
        wsel[list(g.scenarios)] = 1.0
        for fmat, hvec, sense in ((f_in, h_in, LE), (f_eq, h_eq, EQ)):
            for ridx in range(fmat.shape[0]):
                pairs = [(w, -hvec[ridx] * wsel)]
                if mu_dim:
                    pairs.append((mu, fmat[ridx, :mu_dim]))
                if n_m:
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
