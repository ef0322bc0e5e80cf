"""Per-state robust subproblem compilation.

The stage objective of a state is affine in the uncertain factor:
value(π, ξ) = κ(π) + c(π)·ξ.  The adversary picks a distribution from a
lifted ambiguity set to minimize its expectation; the decision maker picks
a randomized action π to maximize the worst case.  Both directions compile
to finite LPs:

* ``build_srobust_lp`` — the outer maximization with explicit multiplier
  blocks (δ, α, β_j, γ_j): both semi-infinite robust constraint families
  are LP-dualized in place, yielding one monolithic LP whose π block is the
  robust randomized action.  Being the dual of the adversary problem, its
  duals are a worst-case distribution: ``solve_srobust`` reads the saddle
  certificate from them, so a robust backup solves this one LP only.
* ``build_adversary_lp`` — the inner minimization for a fixed π, written
  with perspective variables x_n = ω_n ξ̄_n after replacing each conditional
  distribution by a point mass at its conditional mean (valid because the
  objective is linear and the moment functions convex); it serves
  fixed-policy evaluation.  Both LPs take the moment/weight polytope from
  one assembler.
* ``oracle_worst_case`` — an independent check that discretizes supports
  into grids and solves the primal moment problem over point masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import FactorMap, LiftedAmbiguitySet
from .geometry import enumerate_vertices, feasibility_check
from .lp import EQ, LE, LinearProgram, get_solver

SADDLE_TOL = 1e-6


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
# Shared constraint assembly helpers
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


# ---------------------------------------------------------------------------
# Adversary LP (fixed policy)
# ---------------------------------------------------------------------------


def build_adversary_lp(obj: StageObjective, amb: LiftedAmbiguitySet, pi):
    """Inner minimization for fixed π as one LP; returns (lp, layout).

    Variables: the moment/weight-polytope coordinates (weights, auxiliaries
    and scaled group moments ω̄_j μ_j, ω̄_j ν_j), the scaled conditional
    means x_n = ω_n ξ̄_n, and per-piece epigraph variables for the moment
    functions.  The LP value plus κ(π) is the worst-case expectation.
    """
    pi = np.asarray(pi, dtype=float)
    d = amb.factor_dim
    n = amb.n_scenarios
    cols, (p_in, q_in), (p_eq, q_eq) = _ambiguity_polytope(amb)
    poly = slice(0, cols.total)
    xs = [cols.add(("x", i), d) for i in range(n)]
    svars = {}
    for j, g in enumerate(amb.groups):
        for i in g.scenarios:
            for m, fn in enumerate(g.g_fns[i]):
                for l in range(len(fn.terms)):
                    svars[(j, i, m, l)] = cols.add(("s", j, i, m, l), 1)

    rows = []

    def row(vec_pairs, sense, rhs):
        v = np.zeros(cols.total)
        for sl, coeffs in vec_pairs:
            v[sl] += coeffs
        rows.append((v, sense, rhs))

    # weight rows and scaled moment-set membership
    for pmat, sense, qvec in ((p_in, LE, q_in), (p_eq, EQ, q_eq)):
        for v, b in zip(pmat, qvec):
            row([(poly, v)], sense, b)
    for i, dset in enumerate(amb.supports):
        wi = slice(i, i + 1)
        for a, b in dset.ineq:
            row([(xs[i], a), (wi, -b)], LE, 0.0)
        for a, b in dset.eq:
            row([(xs[i], a), (wi, -b)], EQ, 0.0)
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            mu = cols[("mu", j)]
            for k in range(d):
                pairs = [(xs[i], _unit(d, k)) for i in g.scenarios]
                pairs.append((mu, _unit(d, k, -1.0)))
                row(pairs, EQ, 0.0)
        for m in range(g.n_moments):
            pairs = []
            for i in g.scenarios:
                fn = g.g_fns[i][m]
                for l, a, b in _pieces_of(fn):
                    sv = svars[(j, i, m, l)]
                    row([(xs[i], a), (slice(i, i + 1), np.array([b])), (sv, np.array([-1.0]))], LE, 0.0)
            for i in g.scenarios:
                fn = g.g_fns[i][m]
                for l in range(len(fn.terms)):
                    pairs.append((svars[(j, i, m, l)], np.array([1.0])))
            pairs.append((cols[("nu", j)], _unit(g.n_moments, m, -1.0)))
            row(pairs, LE, 0.0)

    c = np.zeros(cols.total)
    cc = obj.coeff(pi)
    for i in range(n):
        c[xs[i]] = cc
    amat = np.array([r[0] for r in rows])
    lp = LinearProgram(
        "min",
        c,
        amat,
        tuple(r[1] for r in rows),
        np.array([r[2] for r in rows]),
        np.full(cols.total, -np.inf),
        np.full(cols.total, np.inf),
    )
    return lp, cols


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
    if abs(pi.sum() - 1.0) > 1e-9 or np.any(pi < -1e-9):
        raise ReformulationError("policy must lie in the probability simplex")
    lp, cols = build_adversary_lp(obj, amb, pi)
    sol = get_solver(solver)(lp)
    if sol.status == "infeasible":
        raise ReformulationError(
            "fixed-policy subproblem infeasible: the ambiguity set admits no distribution"
        )
    if not sol.optimal:
        raise ReformulationError(f"adversary LP ended with status {sol.status}")
    n = amb.n_scenarios
    scaled = np.array([sol.x[cols[("x", i)]] for i in range(n)])
    cert = _point_masses(amb, sol.x[cols["w"]][:n], scaled)
    return sol.value + obj.kappa(pi), cert


def _point_masses(amb: LiftedAmbiguitySet, weights, scaled_means) -> WorstCaseCertificate:
    """Certificate from scenario weights ω and scaled means x_n = ω_n ξ̄_n.

    Each mean is x_n / ω_n; a scenario without weight sits at a witness
    point of its support.  The weights are clipped at 0 and renormalised.
    """
    means = np.zeros((amb.n_scenarios, amb.factor_dim))
    live = weights > 1e-12
    means[live] = scaled_means[live] / weights[live, None]
    for i in np.flatnonzero(~live):
        _, means[i] = feasibility_check(amb.supports[i])
    weights = np.clip(weights, 0.0, None)
    return WorstCaseCertificate(weights / weights.sum(), means)


# ---------------------------------------------------------------------------
# S-robust LP (maximize over policies)
# ---------------------------------------------------------------------------


def _ambiguity_polytope(amb: LiftedAmbiguitySet):
    """The joint moment/weight polytope: coordinates (w, μ_1, ν_1, …) with
    the weight rows and the scaled moment-set rows F(μ̂_j, ν̂_j) ≤ ω̄_j h;
    returns the coordinate layout, (G_in, g_in) and (G_eq, g_eq)."""
    cols = _Cols()
    w = cols.add("w", amb.weight_set.dim)
    for j, g in enumerate(amb.groups):
        if g.mean_equality:
            cols.add(("mu", j), amb.factor_dim)
        if g.n_moments:
            cols.add(("nu", j), g.n_moments)
    blocks_in, blocks_eq = [], []
    weight_rows = (amb.weight_set.ineq_matrix(), amb.weight_set.eq_matrix())
    for (a, b), sink in zip(weight_rows, (blocks_in, blocks_eq)):
        block = np.zeros((a.shape[0], cols.total))
        block[:, w] = a
        sink.append((block, b))
    for j, (f_in, h_in, f_eq, h_eq, mu_dim, n_m) in enumerate(_group_moment_rows(amb)):
        wsel = np.zeros(amb.weight_set.dim)
        wsel[list(amb.groups[j].scenarios)] = 1.0
        for fmat, hvec, sink in ((f_in, h_in, blocks_in), (f_eq, h_eq, blocks_eq)):
            block = np.zeros((fmat.shape[0], cols.total))
            block[:, w] = -np.outer(hvec, wsel)
            if mu_dim:
                block[:, cols[("mu", j)]] = fmat[:, :mu_dim]
            if n_m:
                block[:, cols[("nu", j)]] = fmat[:, mu_dim:]
            sink.append((block, np.zeros(fmat.shape[0])))

    def stack(blocks):
        return np.vstack([m for m, _ in blocks]), np.concatenate([v for _, v in blocks])

    return cols, stack(blocks_in), stack(blocks_eq)


class SRobustTemplate:
    """Reusable compilation of the robust-policy LP for one ambiguity set
    and action count.

    The constraint skeleton depends only on the ambiguity set; a stage
    objective touches the π-columns of the factor-stationarity rows (c) and
    the scenario value rows (κ).  ``instantiate`` fills those blocks into a
    copy of the skeleton, so sweeping many states that share an ambiguity
    set costs one matrix copy per state instead of a full rebuild.
    """

    def __init__(self, amb: LiftedAmbiguitySet, n_actions: int):
        self.amb = amb
        self.n_actions = n_actions
        self._build()

    def _build(self):
        amb = self.amb
        na = self.n_actions
        d = amb.factor_dim
        n = amb.n_scenarios
        vcols, (g_in_mat, g_in_rhs), (g_eq_mat, g_eq_rhs) = _ambiguity_polytope(amb)

        cols = _Cols()
        pi = cols.add("pi", na)
        delta = cols.add("delta", 1)
        alpha = cols.add("alpha", n)
        betas, gammas = {}, {}
        for j, g in enumerate(amb.groups):
            if g.mean_equality:
                betas[j] = cols.add(("beta", j), d)
            if g.n_moments:
                gammas[j] = cols.add(("gamma", j), g.n_moments)
        eta = cols.add("eta", len(g_in_rhs))
        rho = cols.add("rho", len(g_eq_rhs))
        psi_in, psi_eq, psi_pc = {}, {}, {}
        scen_pieces = {}
        for i, dset in enumerate(amb.supports):
            psi_in[i] = cols.add(("psi_in", i), len(dset.ineq))
            psi_eq[i] = cols.add(("psi_eq", i), len(dset.eq))
            pieces = []
            for j in amb.groups_of(i):
                g = amb.groups[j]
                for m, fn in enumerate(g.g_fns[i]):
                    for l, a, b in _pieces_of(fn):
                        pieces.append((j, m, l, a, b))
            scen_pieces[i] = pieces
            psi_pc[i] = cols.add(("psi_pc", i), len(pieces))

        lb = np.full(cols.total, -np.inf)
        ub = np.full(cols.total, np.inf)
        lb[pi] = 0.0
        for j in gammas:
            lb[gammas[j]] = 0.0
        lb[eta] = 0.0
        for i in range(n):
            lb[psi_in[i]] = 0.0
            lb[psi_pc[i]] = 0.0

        rows = []
        stat_rows = []  # per scenario: its factor-stationarity row per coordinate
        value_rows = []

        def row(vec_pairs, sense, rhs):
            v = np.zeros(cols.total)
            for sl, coeffs in vec_pairs:
                v[sl] += coeffs
            rows.append((v, sense, rhs))

        ones = np.ones(na)
        row([(pi, ones)], EQ, 1.0)

        # (i) stationarity of the moment/weight polytope dualization:
        # for each polytope coordinate, Σ η G + Σ ρ H equals the coefficient
        # (α on weights, β/γ on moments, 0 on auxiliaries) of the bound row.
        for coord in range(vcols.total):
            pairs = [(eta, g_in_mat[:, coord]), (rho, g_eq_mat[:, coord])]
            if coord < n:
                e = np.zeros(n)
                e[coord] = -1.0
                pairs.append((alpha, e))
            for j, g in enumerate(amb.groups):
                if g.mean_equality:
                    sl = vcols[("mu", j)]
                    if sl.start <= coord < sl.stop:
                        e = np.zeros(d)
                        e[coord - sl.start] = -1.0
                        pairs.append((betas[j], e))
                if g.n_moments:
                    sl = vcols[("nu", j)]
                    if sl.start <= coord < sl.stop:
                        e = np.zeros(g.n_moments)
                        e[coord - sl.start] = -1.0
                        pairs.append((gammas[j], e))
            row(pairs, EQ, 0.0)
        # bound row: δ dominates the dualized support value of the polytope
        row(
            [
                (eta, g_in_rhs),
                (rho, g_eq_rhs),
                (delta, np.array([-1.0])),
            ],
            LE,
            0.0,
        )

        # (ii) per scenario: dualized maximization over the support.
        for i, dset in enumerate(amb.supports):
            a_in, b_in = dset.ineq_matrix()
            a_eq, b_eq = dset.eq_matrix()
            pieces = scen_pieces[i]
            pc_a = (
                np.array([a for _, _, _, a, _ in pieces]).reshape(len(pieces), d)
                if pieces
                else np.zeros((0, d))
            )
            # factor-coordinate stationarity
            stat_rows.append(range(len(rows), len(rows) + d))
            for k in range(d):
                pairs = [
                    (psi_in[i], a_in[:, k]),
                    (psi_eq[i], a_eq[:, k]),
                    (psi_pc[i], pc_a[:, k]),
                ]
                for j in amb.groups_of(i):
                    if amb.groups[j].mean_equality:
                        e = np.zeros(d)
                        e[k] = 1.0
                        pairs.append((betas[j], e))
                row(pairs, EQ, 0.0)
            # per max-block: the piece multipliers aggregate to γ
            block_members = {}
            for idx, (j, m, l, _, _) in enumerate(pieces):
                block_members.setdefault((j, m, l), []).append(idx)
            for (j, m, _), members in block_members.items():
                sel = np.zeros(len(pieces))
                sel[members] = 1.0
                e = np.zeros(amb.groups[j].n_moments)
                e[m] = -1.0
                row([(psi_pc[i], sel), (gammas[j], e)], EQ, 0.0)
            # value row: α_n + κ(π) dominates the dualized support maximum
            value_rows.append(len(rows))
            row(
                [
                    (psi_in[i], b_in),
                    (psi_eq[i], b_eq),
                    (psi_pc[i], -np.array([b for *_, b in pieces]) if pieces else np.zeros(0)),
                    (alpha, _unit(n, i, -1.0)),
                ],
                LE,
                0.0,
            )

        c = np.zeros(cols.total)
        c[delta] = -1.0
        self.cols = cols
        self.a0 = np.array([r[0] for r in rows])
        self.senses = tuple(r[1] for r in rows)
        self.rhs = np.array([r[2] for r in rows])
        self.lb, self.ub, self.c = lb, ub, c
        self.stat_rows = np.array(stat_rows, dtype=int).reshape(n, d)
        self.value_rows = np.array(value_rows, dtype=int)

    def instantiate(self, obj: StageObjective):
        """Fill a stage objective into the skeleton; returns (lp, layout)."""
        if obj.factor_dim != self.amb.factor_dim:
            raise ReformulationError("stage objective and ambiguity set disagree on factor_dim")
        if obj.n_actions != self.n_actions:
            raise ReformulationError("template compiled for a different action count")
        a = self.a0.copy()
        pi = self.cols["pi"]
        for k in range(self.amb.factor_dim):
            a[np.ix_(self.stat_rows[:, k], range(pi.start, pi.stop))] = obj.c_mat[:, k]
        a[np.ix_(self.value_rows, range(pi.start, pi.stop))] = -obj.kappa_vec
        lp = LinearProgram("max", self.c, a, self.senses, self.rhs, self.lb, self.ub)
        return lp, self.cols


def build_srobust_lp(obj: StageObjective, amb: LiftedAmbiguitySet):
    """One LP computing max_π (worst-case expectation); returns (lp, layout).

    Variable blocks: π (simplex), the bound δ, scenario multipliers α,
    mean multipliers β_j, moment multipliers γ_j ≥ 0, multipliers (η, ρ)
    dualizing the moment/weight polytope, and per-scenario multipliers ψ_n
    dualizing the support maximization.  The optimal value is −δ*.
    """
    return SRobustTemplate(amb, obj.n_actions).instantiate(obj)


def _unit(n, i, value=1.0):
    e = np.zeros(n)
    e[i] = value
    return e


@dataclass(frozen=True)
class SRobustSolution:
    """Robust randomized action with its value, supporting multipliers and
    worst-case certificate."""

    policy: np.ndarray
    value: float
    alpha: np.ndarray
    beta: dict
    gamma: dict
    delta: float
    certificate: WorstCaseCertificate

    def saddle_residual(self, obj: StageObjective) -> float:
        """Saddle gap |max_a (κ_a + C_a·ξ̄*) − value|, with ξ̄* the
        certificate's mixture mean: how much the best reply to the
        worst case beats the robust value."""
        best_reply = np.max(obj.kappa_vec + obj.c_mat @ self.certificate.mean)
        return abs(float(best_reply) - self.value)


def solve_srobust(
    obj: StageObjective,
    amb: LiftedAmbiguitySet,
    solver="simplex",
    template: SRobustTemplate = None,
) -> SRobustSolution:
    """Solve max_π inf_P E[value] as one LP; its duals give the certificate.

    The LP dualizes the adversary problem, so its duals are a worst-case
    distribution: the value rows' duals are the scenario weights ω and the
    negated factor-stationarity duals are the scaled means x_n = ω_n ξ̄_n.
    Pass a precompiled template when sweeping many states that share one
    ambiguity set.
    """
    if template is None:
        template = SRobustTemplate(amb, obj.n_actions)
    lp, cols = template.instantiate(obj)
    sol = get_solver(solver)(lp)
    if not sol.optimal:
        raise ReformulationError(f"robust subproblem LP ended with status {sol.status}")
    pi = np.clip(sol.x[cols["pi"]], 0.0, None)
    pi /= pi.sum()
    cert = _point_masses(amb, sol.y[template.value_rows], -sol.y[template.stat_rows])
    gamma = {j: sol.x[cols[("gamma", j)]].copy() for j, g in enumerate(amb.groups) if g.n_moments}
    beta = {
        j: sol.x[cols[("beta", j)]].copy()
        for j, g in enumerate(amb.groups)
        if g.mean_equality
    }
    return SRobustSolution(
        policy=pi,
        value=sol.value,
        alpha=sol.x[cols["alpha"]].copy(),
        beta=beta,
        gamma=gamma,
        delta=float(sol.x[cols["delta"]][0]),
        certificate=cert,
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
