"""Linear-programming kernel: a HiGHS adapter and a dense simplex.

Robust backups, fixed-policy evaluations and the oracles take their LP
backend from the seam `get_solver`; the default everywhere is scipy's
HiGHS under this module's solution contract.  A backend is called as
`backend(request, warm=None)`, the request either a `LinearProgram` or a
`LeadingColumns` request: the columns that lead an LP's shared ones, with
the LP over its rows and shared columns alone.  An LP's matrix is a dense
array or a `CscArrays` record; a request's shared matrix is a `CscArrays`.
`warm` is a `WarmHighs` handle: requests that share every row and all but
their leading columns are solved on its one persistent HiGHS model, which
takes only what differs in the leading columns and re-runs from the basis
the previous solve left.  Leading columns of the held pattern are edited
in place, entry by entry, which keeps that basis valid; others are swapped
in.  HiGHS solves a request without a handle on a fresh model, and a whole
`LinearProgram` as the request `LeadingColumns.of` makes of it, every
column leading; the dense simplex ignores the handle and assembles the
whole LP.  HiGHS is driven through scipy's private
`_highspy` bindings, the only ones that edit a model in place, loaded from
their extension file so that no other scipy module loads with them.

The self-contained two-phase dense simplex (`solve_lp`) returns primal and
dual solutions plus optimality certificates.  It favours robustness over
speed: Dantzig pricing with a switch to Bland's rule after a stall,
explicit Farkas certificates on infeasibility, and a hard
"numerical_failure" status instead of silent wrong answers.  The seam
offers it as "simplex"; it is criterion 8's subject and the tests'
reference, and no path of the library calls it by default.  The HiGHS
adapter reports an infeasible LP with the same Farkas certificate, taken
from HiGHS's dual ray.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np


_HIGHS_PACKAGE = "scipy.optimize._highspy"


class _AttachCore:
    """A `sys.meta_path` finder that, when scipy's HiGHS package loads, sets
    its `_core` attribute to the bindings `_highs_bindings` loaded, then
    leaves the path.  The import system sets a submodule on its package only
    when it loads the submodule itself, so without this finder the attribute
    chain `scipy.optimize._highspy._core` would be missing."""

    def __init__(self, core):
        self.core = core

    def find_spec(self, fullname, path, target=None):
        if fullname != _HIGHS_PACKAGE:
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        exec_package = spec.loader.exec_module

        def exec_module(module):
            exec_package(module)
            module._core = self.core

        spec.loader.exec_module = exec_module
        return spec


def _highs_bindings():
    """scipy's compiled HiGHS module, loaded from its file: importing it by
    name would first run `scipy.optimize`'s package, which imports linprog,
    scipy.spatial, scipy.special and more that nothing here uses.  It is
    registered under its own name, so a later `import scipy.optimize` gets
    this very module, and an `_AttachCore` finder sets it on its package
    when that loads.  One already loaded is taken as it is."""
    name = _HIGHS_PACKAGE + "._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS bindings are not where drmdp looks for them: none of {paths}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    sys.meta_path.insert(0, _AttachCore(module))
    return module


_core = _highs_bindings()
HighsModelStatus, HighsStatus, ObjSense = _core.HighsModelStatus, _core.HighsStatus, _core.ObjSense
_Highs, kHighsInf = _core._Highs, _core.kHighsInf

PIVOT_TOL = 1e-9
# the dense simplex prices by Dantzig's rule for this many times (rows +
# columns) iterations of a phase, then by Bland's rule, which cannot cycle
STALL_FACTOR = 3
# the dense simplex gives up as "numerical_failure" after this many times
# (rows + columns) plus this many iterations over both phases
ITER_LIMIT_FACTOR = 50
ITER_LIMIT_BASE = 2000
# largest residual (see `residuals`) the dense simplex returns as optimal
SIMPLEX_RESIDUAL_TOL = 1e-7

LE, EQ, GE = "<=", "=", ">="
# the side of each row sense: +1 on "<=", -1 on ">=", 0 on "="
_ROW_SIDE = {LE: 1, GE: -1, EQ: 0}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"
# HiGHS only: statuses a run can still end with after its cold retry
UNBOUNDED_OR_INFEASIBLE = "unbounded_or_infeasible"
ITERATION_LIMIT = "iteration_limit"
TIME_LIMIT = "time_limit"


class LpError(Exception):
    """Structural problem with a LinearProgram (dimension mismatch etc.)."""


@dataclass(frozen=True)
class CscArrays:
    """A compressed-column matrix under scipy.sparse's attribute names:
    column j holds data[indptr[j]:indptr[j + 1]] in the rows indices[...]."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, a) -> CscArrays:
        """The nonzero entries of the dense matrix `a`, each column's in row
        order, with int32 indices, as scipy.sparse would hold them."""
        cols, rows = np.nonzero(a.T)
        indptr = np.searchsorted(cols, np.arange(a.shape[1] + 1)).astype(np.int32)
        return cls(a.T[cols, rows], rows.astype(np.int32), indptr, a.shape)

    @property
    def nnz(self) -> int:
        return self.data.shape[0]

    def toarray(self) -> np.ndarray:
        """The dense matrix in column-major order, entries added onto zeros
        as scipy.sparse does."""
        a = np.zeros(self.shape, order="F")
        np.add.at(a, (self.indices, np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))), self.data)
        return a


@dataclass(frozen=True)
class LinearProgram:
    """min/max c'x subject to tagged rows and per-variable bounds.

    Rows are (coefficients, sense, rhs) with sense one of "<=", "=", ">=".
    Bounds may be -inf / +inf.  The matrix `a` is a dense array or a
    `CscArrays`; anything else raises LpError.
    """

    sense: str
    c: np.ndarray
    a: np.ndarray
    row_senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        if self.sense not in ("min", "max"):
            raise LpError(f"unknown objective sense {self.sense!r}")
        n = c.shape[0]
        if isinstance(self.a, CscArrays):
            a = self.a
        else:
            try:
                a = np.atleast_2d(np.asarray(self.a, dtype=float))
            except (TypeError, ValueError):
                raise LpError(f"matrix must be a dense array or a CscArrays, not {type(self.a).__name__}")
            if a.size == 0:
                a = a.reshape(0, n)
        if a.shape[1] != n:
            raise LpError(f"constraint matrix has {a.shape[1]} columns, cost has {n}")
        m = a.shape[0]
        if b.shape != (m,) or len(self.row_senses) != m:
            raise LpError("row count mismatch between matrix, senses and rhs")
        if lb.shape != (n,) or ub.shape != (n,):
            raise LpError("bound vectors must match the variable count")
        if not np.all(np.isfinite(b)):
            raise LpError("right-hand sides must be finite")
        unknown = set(self.row_senses) - {LE, EQ, GE}
        if unknown:
            raise LpError(f"unknown row sense {sorted(map(repr, unknown))[0]}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "row_senses", tuple(self.row_senses))

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    def dense_a(self) -> np.ndarray:
        """The constraint matrix as a dense array."""
        return self.a if isinstance(self.a, np.ndarray) else self.a.toarray()


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    value: float = np.nan
    # Farkas-style dual ray for infeasible problems, per original row, with
    # the signs of a shadow price for the stated sense: for a max problem
    # y >= 0 on "<=" rows, y <= 0 on ">=" rows and y'b < 0, and, when every
    # variable is free, a'y = 0; the signs flip for a min problem
    certificate: np.ndarray | None = None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def residuals(lp: LinearProgram, sol: LpSolution) -> dict[str, float]:
    """Primal/dual feasibility and complementarity residuals (scaled).

    Dual sign convention: y holds shadow prices for the *stated* sense, i.e.
    d(value)/d(b_i) = y_i.  For a max problem y_i >= 0 on "<=" rows; for a
    min problem y_i <= 0 on "<=" rows.  Reduced costs r = c - a'y vanish for
    variables strictly between their bounds.  A `CscArrays` matrix is
    densified first.
    """
    if not sol.optimal:
        raise LpError("residuals only defined for optimal solutions")
    x, y = sol.x, sol.y
    side = np.array([_ROW_SIDE[s] for s in lp.row_senses], dtype=np.int8)
    le, ge = side > 0, side < 0
    # ndarray.max has a third of np.max's call cost; the maxima stay apart:
    # numpy breaks 0.0/-0.0 ties by position, so merging could flip a zero's sign
    scale = 1.0 + max(np.abs(lp.b).max(initial=0.0), np.abs(x).max(initial=0.0))
    a = lp.dense_a()
    ax = a @ x
    excess, shortfall = ax - lp.b, lp.b - ax
    # row violation: excess on "<=", shortfall on ">=", either way on "="
    row_excess = np.where(le, excess, np.where(ge, shortfall, np.abs(excess)))
    primal = max(row_excess.max(initial=0.0), (lp.lb - x).max(initial=0.0), (x - lp.ub).max(initial=0.0))

    sign = 1.0 if lp.sense == "min" else -1.0
    # min: y <= 0 on "<=" rows and y >= 0 on ">=" rows; flipped for max
    dual = max((sign * y[le]).max(initial=0.0), (-sign * y[ge]).max(initial=0.0))
    r = lp.c - a.T @ y
    # Reduced-cost sign: for min, r_j >= 0 at a lower bound, <= 0 at an upper
    # bound; flipped for max.  Variables off both bounds need r_j == 0, and
    # fixed variables (at both bounds) may take any r_j.
    dscale = 1.0 + np.abs(lp.c).max(initial=0.0)
    at_lb = x - lp.lb <= 1e-7 * scale
    at_ub = lp.ub - x <= 1e-7 * scale
    rj = sign * r
    wrong_sign = np.where(at_lb, -rj, np.where(at_ub, rj, np.abs(rj)))
    wrong_sign[at_lb & at_ub] = 0.0
    dual = max(dual, (wrong_sign / dscale).max(initial=0.0))
    # Complementary slackness on rows: y_i != 0 only on tight rows.
    slack = np.where(le, shortfall, excess)
    comp = np.abs(y * slack)[side != 0].max(initial=0.0) / (scale * dscale)
    # Strong duality: c'x == y'b + bound contributions.
    on_lb = at_lb & (lp.lb != 0)
    on_ub = ~on_lb & at_ub & (lp.ub != 0)
    bound_part = r[on_lb] @ lp.lb[on_lb] + r[on_ub] @ lp.ub[on_ub]
    gap = abs((lp.c @ x) - (y @ lp.b + bound_part)) / (scale * dscale)
    return {"primal": primal / scale, "dual": dual, "comp": comp, "gap": gap}


# ---------------------------------------------------------------------------
# Bundled two-phase dense simplex.
# ---------------------------------------------------------------------------


@dataclass
class _StandardForm:
    """min c'x, Ax = b >= 0, x >= 0.  Original variable j is shift_j plus
    the sum of sign * x over its structural columns, those with var == j."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    var: np.ndarray  # the original variable of each structural column
    sign: np.ndarray  # +-1 per structural column
    shift: np.ndarray  # per original variable
    row_signs: np.ndarray  # +-1 per standard row, original rows first


def _to_standard_form(lp: LinearProgram) -> _StandardForm:
    """x_j = lb_j + t with a bound row t <= ub_j - lb_j when both bounds are
    finite, x_j = ub_j - t when only ub_j is, x_j = t - t' when neither is.
    Columns keep the variables' order, a free variable's two adjacent; the
    bound rows follow the original rows in variable order, and the slacks
    follow the rows; both simplex pricing rules read that order."""
    lo, hi = np.isfinite(lp.lb), np.isfinite(lp.ub)
    free, boxed = ~lo & ~hi, lo & hi
    var = np.repeat(np.arange(lp.n_vars), 1 + free)
    first = np.cumsum(1 + free) - (1 + free)
    sign = np.where(lo | free, 1.0, -1.0)[var]
    sign[first[free] + 1] = -1.0
    shift = np.where(lo, lp.lb, np.where(hi, lp.ub, 0.0))
    c = lp.c if lp.sense == "min" else -lp.c
    a = lp.dense_a()
    m0, n_struct, n_bound = lp.n_rows, var.size, int(boxed.sum())
    side = np.concatenate([[_ROW_SIDE[s] for s in lp.row_senses], np.ones(n_bound)])
    slack_rows = np.flatnonzero(side)
    a_full = np.zeros((m0 + n_bound, n_struct + slack_rows.size))
    a_full[:m0, :n_struct] = a[:, var] * sign
    a_full[m0 + np.arange(n_bound), first[boxed]] = 1.0
    a_full[slack_rows, n_struct + np.arange(slack_rows.size)] = side[slack_rows]
    b_full = np.concatenate([lp.b - a @ shift, (lp.ub - lp.lb)[boxed]])
    neg = b_full < 0
    a_full[neg] *= -1.0
    b_full[neg] *= -1.0
    row_signs = np.where(neg, -1.0, 1.0)
    c_full = np.concatenate([c[var] * sign, np.zeros(slack_rows.size)])
    return _StandardForm(a_full, b_full, c_full, var, sign, shift, row_signs)


def _pivot(tab, basis, i, j):
    """Pivot tableau `tab` on entry (i, j): column j enters at row i."""
    tab[i] /= tab[i, j]
    colv = tab[:, j].copy()
    colv[i] = 0.0
    tab -= np.outer(colv, tab[i])
    tab[:, j] = 0.0
    tab[i, j] = 1.0
    basis[i] = j


def _simplex_phase(tab, basis, costs, allowed, start_iter):
    """Run simplex iterations on tableau `tab` (m x (n+1), rhs last column),
    counting on from `start_iter`, the iterations of earlier phases.

    Returns (status, iterations).  `allowed` is a boolean mask of columns
    permitted to enter.  Dantzig pricing for STALL_FACTOR * (m + n)
    iterations of the phase, then Bland; "numerical_failure" once the
    count over all phases reaches ITER_LIMIT_FACTOR * (m + n) +
    ITER_LIMIT_BASE.
    """
    m = tab.shape[0]
    n = tab.shape[1] - 1
    stall_after = start_iter + STALL_FACTOR * (m + n)
    max_iter = ITER_LIMIT_FACTOR * (m + n) + ITER_LIMIT_BASE
    it = start_iter
    while True:
        # reduced costs r = c - c_B' tab
        r = costs[:n] - costs[basis] @ tab[:, :n]
        r[~allowed] = np.inf
        if it < stall_after:
            j = int(np.argmin(r))
            if r[j] >= -PIVOT_TOL:
                return OPTIMAL, it
        else:
            neg = np.flatnonzero(r < -PIVOT_TOL)
            if neg.size == 0:
                return OPTIMAL, it
            j = int(neg[0])
        col = tab[:, j]
        pos = col > PIVOT_TOL
        if not np.any(pos):
            return UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[pos] = tab[pos, n] / col[pos]
        if it < stall_after:
            i = int(np.argmin(ratios))
        else:
            # Bland: among minimal ratios, leave the smallest basis index
            cand = np.flatnonzero(ratios <= ratios.min() + 1e-12)
            i = int(cand[np.argmin(basis[cand])])
        _pivot(tab, basis, i, j)
        it += 1
        if it >= max_iter:
            return NUMERICAL_FAILURE, it


def solve_lp(lp: LinearProgram, warm=None) -> LpSolution:
    """Two-phase dense simplex; deterministic given identical input.

    An optimum whose largest residual exceeds SIMPLEX_RESIDUAL_TOL is
    reported as "numerical_failure".  `LeadingColumns` are assembled into
    their whole LP first, and `warm`, the seam's HiGHS handle, is not
    used."""
    if isinstance(lp, LeadingColumns):
        lp = lp.lp()
    sf = _to_standard_form(lp)
    m, n_sc = sf.a.shape
    m0 = lp.n_rows
    n_tot = n_sc + m  # structural+slack, then artificials
    tab = np.zeros((m, n_tot + 1))
    tab[:, :n_sc] = sf.a
    tab[:, n_sc:n_tot] = np.eye(m)
    tab[:, n_tot] = sf.b
    basis = np.arange(n_sc, n_tot)

    # Phase 1
    costs1 = np.concatenate([np.zeros(n_sc), np.ones(m)])
    status, it = _simplex_phase(tab, basis, costs1, np.ones(n_tot, dtype=bool), 0)
    if status == NUMERICAL_FAILURE:
        return LpSolution(NUMERICAL_FAILURE, iterations=it)
    if float(costs1[basis] @ tab[:, n_tot]) > 1e-7 * (1.0 + np.abs(sf.b).max(initial=0.0)):
        # Farkas certificate from phase-1 duals: y_i = 1 - r_art_i
        y_std = 1.0 - (costs1[n_sc:n_tot] - costs1[basis] @ tab[:, n_sc:n_tot])
        cert = sf.row_signs[:m0] * y_std[:m0]
        return LpSolution(INFEASIBLE, certificate=-cert if lp.sense == "max" else cert, iterations=it)

    # Drive basic artificials out where possible; drop redundant rows by
    # leaving the artificial basic at zero but barring it from increasing.
    for i in np.flatnonzero(basis >= n_sc):
        nz = np.flatnonzero(np.abs(tab[i, :n_sc]) > 1e-9)
        if nz.size:
            _pivot(tab, basis, i, nz[0])

    # Phase 2
    costs2 = np.concatenate([sf.c, np.zeros(m)])
    status, it = _simplex_phase(tab, basis, costs2, np.arange(n_tot) < n_sc, it)
    if status != OPTIMAL:
        return LpSolution(status, iterations=it)
    x_std = np.zeros(n_tot)
    x_std[basis] = tab[:, n_tot]
    # duals over standard rows from artificial columns: y_i = -r_art_i
    y_std = -(-costs2[basis] @ tab[:, n_sc:n_tot])
    # 0.0 + t is t bit for bit here: a structural basic variable took its
    # row in a pivot, which leaves no -0.0 on the right-hand side
    x = sf.shift.copy()
    np.add.at(x, sf.var, sf.sign * x_std[: sf.var.size])
    y = sf.row_signs[:m0] * y_std[:m0]
    sol = LpSolution(OPTIMAL, x=x, y=-y if lp.sense == "max" else y, value=float(lp.c @ x), iterations=it)
    # pivoting error can leave a basis that is not optimal, or not even
    # feasible: such an answer is a failure, not an optimum
    if not all(r <= SIMPLEX_RESIDUAL_TOL for r in residuals(lp, sol).values()):
        return LpSolution(NUMERICAL_FAILURE, iterations=it)
    return sol


# ---------------------------------------------------------------------------
# Pluggable solver seam.
# ---------------------------------------------------------------------------


# HiGHS's large_matrix_value: addCols rejects an entry this large or larger
_HIGHS_MAX_ENTRY = 1e15
# HiGHS's simplex_strategy values for its dual and its primal simplex
DUAL_SIMPLEX, PRIMAL_SIMPLEX = 1, 4
# a cold retry runs without presolve and on the dual simplex, whose
# infeasible end leaves the Farkas ray; then the model's own options return
_RETRY_OPTIONS = {"presolve": "off", "simplex_strategy": DUAL_SIMPLEX}
_HIGHS_DEFAULTS = {"presolve": "choose", "simplex_strategy": DUAL_SIMPLEX}


def _highs_status(status) -> str:
    """The solution-contract status of a HiGHS model status."""
    if status == HighsModelStatus.kOptimal:
        return OPTIMAL
    if status == HighsModelStatus.kInfeasible:
        return INFEASIBLE
    if status == HighsModelStatus.kUnbounded:
        return UNBOUNDED
    if status == HighsModelStatus.kUnboundedOrInfeasible:
        return UNBOUNDED_OR_INFEASIBLE
    if status == HighsModelStatus.kIterationLimit:
        return ITERATION_LIMIT
    if status == HighsModelStatus.kTimeLimit:
        return TIME_LIMIT
    return NUMERICAL_FAILURE


@dataclass(frozen=True)
class LeadingColumns:
    """An LP given as the columns that lead its shared ones: their costs,
    bounds and entries in compressed-column form (`starts` holds each
    column's first position in `index` and `value`).  `shared` is the LP
    over the rows and the shared columns alone, its matrix a `CscArrays`.
    HiGHS solves the request on the `WarmHighs` handle it is given with it
    by writing only its leading columns, or on a fresh model; the dense
    simplex solves the assembled `lp()`."""

    shared: LinearProgram
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    starts: np.ndarray
    index: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if not isinstance(self.shared.a, CscArrays):
            raise LpError("a request's shared matrix must be a CscArrays")

    @classmethod
    def of(cls, lp: LinearProgram) -> LeadingColumns:
        """The LP as a request whose every column leads, its
        compressed-column arrays those of its `CscArrays` matrix or read
        off its dense one; the shared part holds the rows and no column."""
        a = lp.a if isinstance(lp.a, CscArrays) else CscArrays.of(lp.a)
        no_cols = np.zeros(0)
        empty = CscArrays(no_cols, np.zeros(0, np.int32), np.zeros(1, np.int32), (lp.n_rows, 0))
        shared = LinearProgram(lp.sense, no_cols, empty, lp.row_senses, lp.b, no_cols, no_cols)
        return cls(shared, lp.c, lp.lb, lp.ub, a.indptr[:-1], a.indices, a.data)

    @property
    def n_rows(self) -> int:
        return self.shared.n_rows

    @property
    def n_vars(self) -> int:
        return self.c.shape[0] + self.shared.n_vars

    def lp(self) -> LinearProgram:
        """The whole LP, leading columns first."""
        sh, nnz = self.shared, self.value.shape[0]
        a = CscArrays(
            np.concatenate([self.value, sh.a.data]),
            np.concatenate([self.index, sh.a.indices]),
            np.concatenate([self.starts, sh.a.indptr + nnz]),
            (self.n_rows, self.n_vars),
        )
        return LinearProgram(
            sh.sense,
            np.concatenate([self.c, sh.c]),
            a,
            sh.row_senses,
            sh.b,
            np.concatenate([self.lb, sh.lb]),
            np.concatenate([self.ub, sh.ub]),
        )


class WarmHighs:
    """One persistent HiGHS model for a family of LPs that share their
    objective sense, their rows and their shared columns, the last ones,
    and differ only in the columns before those (the leading columns).

    `run` is the one solve.  A request whose leading columns have the
    pattern (column starts and row indices) the model holds is written in
    place: only the entries whose values changed go in, through
    `changeCoeff`, and the costs and bounds only when the request brings
    other arrays than the last one did.  The basis stays valid, so the run
    re-starts from the previous optimum.  A request with another pattern
    deletes the model's leading columns and adds its own; HiGHS keeps the
    basis status of the rows and the shared columns across that swap.  The
    first run builds the model from the request's shared part, whose
    column count it keeps as `n_shared`; a request with other rows or
    another count of shared columns raises LpError.  An entry that is NaN
    or too large for HiGHS, or a cost that is not finite, ends the run as
    "numerical_failure" before it is written, and the next request builds
    a new model.  A run that does not end optimal is repeated once from
    scratch, with presolve off and on the dual simplex, before its status
    is reported, so neither a stale basis nor presolve's guess turns a
    solvable LP into a failure or an unbounded one into an infeasible one;
    an infeasible one carries HiGHS's dual ray as its Farkas certificate.
    `options` are HiGHS options the model runs with (the retry aside).
    The handle keeps the last request, whose leading columns the model
    holds, and a lock serialises solves on it.  A request's arrays are
    read, not copied, so they must not change after the solve.
    """

    def __init__(self, options=None):
        # HiGHS options the model is built with, over HiGHS's defaults
        self.options = dict(options or {})
        self._lock = threading.Lock()
        self._highs = None
        # the request whose leading columns the model holds, their model
        # columns, and the model column of each of their entries, worked
        # out on the first in-place edit of that pattern
        self._held = self._cols = self._entry_cols = None
        # the shared column count, set by the request that builds the model
        self.n_shared = None

    def run(self, lead: LeadingColumns) -> LpSolution:
        """Write the request's leading columns into the model, run, and read
        the solution with x in the request's column order (leading columns
        first) and y as shadow prices for its sense."""
        with self._lock:
            if self._highs is not None and (
                lead.n_rows != self._highs.getNumRow() or lead.shared.n_vars != self.n_shared
            ):
                raise LpError("LP does not share the rows and columns of its warm model")
            held = self._held
            edit = self._edit_in_place if held is not None and _same_pattern(held, lead) else self._swap_in
            if not edit(lead):
                # an entry `_writable` refuses or an edit HiGHS rejects:
                # drop the model; the next LP builds a new one
                self._highs = self._held = None
                return LpSolution(NUMERICAL_FAILURE)
            status, its = self._run()
            if status != HighsModelStatus.kOptimal:
                self._highs.clearSolver()
                self._set_options(_RETRY_OPTIONS)
                status, cold_its = self._run()
                self._set_options({**_HIGHS_DEFAULTS, **self.options})
                its += cold_its
            status = _highs_status(status)
            if status != OPTIMAL:
                cert = self._farkas(lead.shared.sense) if status == INFEASIBLE else None
                return LpSolution(status, certificate=cert, iterations=its)
            sol = self._highs.getSolution()
            col_value = np.array(sol.col_value, dtype=float)
            y = np.array(sol.row_dual, dtype=float)
        # the model holds the shared columns first, the leading ones after
        n_shared = lead.shared.n_vars
        x = np.concatenate([col_value[n_shared:], col_value[:n_shared]])
        c = np.concatenate([lead.c, lead.shared.c])
        return LpSolution(OPTIMAL, x=x, y=y, value=float(c @ x), iterations=its)

    def _swap_in(self, lead: LeadingColumns) -> bool:
        """Replace the model's leading columns by the request's; on first
        use, build the model from its rows and shared columns.  Its
        objective sense is the request's, so the row duals are already
        shadow prices for the stated sense.  False, before any write, if an
        entry fails `_writable` or a cost is not finite, and false if HiGHS
        rejects an edit."""
        sh = lead.shared
        if not (_writable(lead.value) and np.isfinite(lead.c).all()) or (
            self._highs is None and not (_writable(sh.a.data) and np.isfinite(sh.c).all())
        ):
            return False
        if self._highs is None:
            self.n_shared = sh.n_vars
            self._highs = _Highs()
            self._highs.setOptionValue("output_flag", False)
            self._highs.setOptionValue("log_to_console", False)
            self._set_options(self.options)
            sense = ObjSense.kMaximize if sh.sense == "max" else ObjSense.kMinimize
            self._highs.changeObjectiveSense(sense)
            senses = np.array(sh.row_senses)
            lhs = np.where(senses == LE, -kHighsInf, sh.b)
            rhs = np.where(senses == GE, kHighsInf, sh.b)
            # the rows go in empty; the columns bring their entries
            no_entries = (np.zeros(sh.n_rows, np.int32), np.zeros(0, np.int32), np.zeros(0))
            edits = [
                self._highs.addRows(sh.n_rows, lhs, rhs, 0, *no_entries),
                self._highs.addCols(
                    self.n_shared,
                    sh.c,
                    sh.lb,
                    sh.ub,
                    sh.a.nnz,
                    sh.a.indptr[:-1],
                    sh.a.indices,
                    sh.a.data,
                ),
            ]
        else:
            edits = [self._highs.deleteCols(self._cols.shape[0], self._cols)]
        n_lead = lead.c.shape[0]
        edits.append(
            self._highs.addCols(
                n_lead, lead.c, lead.lb, lead.ub, lead.value.shape[0], lead.starts, lead.index, lead.value
            )
        )
        self._held, self._entry_cols = lead, None
        self._cols = np.arange(self.n_shared, self.n_shared + n_lead, dtype=np.int32)
        return HighsStatus.kError not in edits

    def _edit_in_place(self, lead: LeadingColumns) -> bool:
        """Write the entries, costs and bounds in which the request differs
        from the held leading columns, which have its pattern.  False if a
        changed entry fails `_writable` or a changed cost is not finite."""
        held, highs, cols = self._held, self._highs, self._cols
        if lead.c is not held.c and not np.isfinite(lead.c).all():
            return False
        edits = []
        # the very array the model holds (a geometry query's) has no change
        if lead.value is not held.value:
            changed = (lead.value != held.value).nonzero()[0]
            value = lead.value[changed]
            if not _writable(value):
                return False
            if self._entry_cols is None:
                self._entry_cols = np.repeat(cols, np.diff(np.append(held.starts, held.index.shape[0])))
            rows, entry_cols = lead.index[changed].tolist(), self._entry_cols[changed].tolist()
            edits = list(map(highs.changeCoeff, rows, entry_cols, value.tolist()))
        if lead.c is not held.c:
            edits.append(highs.changeColsCost(cols.shape[0], cols, lead.c))
        if lead.lb is not held.lb or lead.ub is not held.ub:
            edits.append(highs.changeColsBounds(cols.shape[0], cols, lead.lb, lead.ub))
        self._held = lead
        return HighsStatus.kError not in edits

    def _farkas(self, sense):
        """The dual ray of an infeasible run as a Farkas certificate.  HiGHS
        gives it with a min problem's signs whatever the sense (y <= 0 on
        "<=" rows, y'b > 0), so a max problem's is negated."""
        _, exists, ray = self._highs.getDualRay()
        if not exists:
            return None
        ray = np.array(ray, dtype=float)
        return -ray if sense == "max" else ray

    def _set_options(self, options):
        for name, value in options.items():
            self._highs.setOptionValue(name, value)

    def _run(self):
        """One HiGHS run; returns (model status, simplex + IPM iterations)."""
        highs = self._highs
        highs.run()
        its = highs.getInfoValue("simplex_iteration_count")[1] + highs.getInfoValue("ipm_iteration_count")[1]
        return highs.getModelStatus(), its


def _same_pattern(a: LeadingColumns, b: LeadingColumns) -> bool:
    """Whether two requests' leading columns have one pattern: column
    starts and row indices."""
    same = (x is y or np.array_equal(x, y) for x, y in ((a.starts, b.starts), (a.index, b.index)))
    return all(same)


def _writable(value) -> bool:
    """Whether every entry of `value` is a number below HiGHS's
    large_matrix_value in size: changeCoeff takes a larger one, and every
    write takes NaN, which the run then fails on or misreads."""
    # NaN fails the comparison too
    return np.abs(value).max(initial=0.0) < _HIGHS_MAX_ENTRY


def solve_lp_highs(lp, warm=None) -> LpSolution:
    """HiGHS adapter conforming to the same solution contract.

    The request is solved on the persistent model of `warm`, a `WarmHighs`
    handle, or on a fresh model when `warm` is None; a `LinearProgram` is
    solved as the request `LeadingColumns.of` makes of it.
    """
    if isinstance(lp, LinearProgram):
        lp = LeadingColumns.of(lp)
    return (warm or WarmHighs()).run(lp)


_SOLVERS = {"simplex": solve_lp, "highs": solve_lp_highs}


def get_solver(name: str):
    try:
        return _SOLVERS[name]
    except KeyError:
        raise LpError(f"unknown LP solver {name!r}; choose from {sorted(_SOLVERS)}")


def dump_lp(lp: LinearProgram) -> str:
    """Fixed-format LP text (CPLEX-LP flavour) for external cross-checking;
    variable j is named x{j}."""
    n = lp.n_vars
    names = [f"x{j}" for j in range(n)]

    def expr(coefs):
        parts = []
        for j, v in enumerate(coefs):
            if v == 0:
                continue
            sign = "+" if v >= 0 else "-"
            parts.append(f"{sign} {abs(v):.17g} {names[j]}")
        return " ".join(parts) if parts else "0 " + names[0]

    lines = ["Maximize" if lp.sense == "max" else "Minimize"]
    lines.append(" obj: " + expr(lp.c))
    lines.append("Subject To")
    a = lp.dense_a()
    for i in range(lp.n_rows):
        lines.append(f" c{i}: " + expr(a[i]) + f" {lp.row_senses[i]} {lp.b[i]:.17g}")
    lines.append("Bounds")
    for j in range(n):
        lo, hi = lp.lb[j], lp.ub[j]
        lo_s = "-inf" if np.isneginf(lo) else f"{lo:.17g}"
        hi_s = "+inf" if np.isposinf(hi) else f"{hi:.17g}"
        lines.append(f" {lo_s} <= {names[j]} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"
