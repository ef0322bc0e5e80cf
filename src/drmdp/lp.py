"""Linear-programming kernel: a dense simplex and a HiGHS adapter.

A self-contained two-phase simplex with primal and dual solutions plus
optimality certificates.  Every robust-counterpart compilation and every
verification oracle in this package funnels through :func:`solve_lp`, so the
solver favours robustness over speed: Dantzig pricing with a switch to
Bland's rule after a stall, explicit Farkas certificates on infeasibility,
and a hard "numerical_failure" status instead of silent wrong answers.

The seam (`get_solver`) also offers scipy's HiGHS under the same solution
contract.  An LP may carry a scipy.sparse matrix, which HiGHS takes as is
and the dense paths densify, and a `WarmHighs` handle: LPs that share every
row and all but their leading columns are then solved on one persistent
HiGHS model, swapping only the leading columns and re-running from the
basis the previous solve left.  Without scipy's `_Highs` class the handle
is ignored and each LP is solved cold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, issparse

PIVOT_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"


class LpError(Exception):
    """Structural problem with a LinearProgram (dimension mismatch etc.)."""


@dataclass(frozen=True)
class LinearProgram:
    """min/max c'x subject to tagged rows and per-variable bounds.

    Rows are (coefficients, sense, rhs) with sense one of "<=", "=", ">=".
    Bounds may be -inf / +inf.  The matrix `a` is a dense array or a
    scipy.sparse matrix.  `warm` optionally names the `WarmHighs` model the
    HiGHS adapter solves this LP on; every other solver ignores it.
    """

    sense: str
    c: np.ndarray
    a: np.ndarray
    row_senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    warm: WarmHighs | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        if self.sense not in ("min", "max"):
            raise LpError(f"unknown objective sense {self.sense!r}")
        n = c.shape[0]
        if issparse(self.a):
            a = self.a.astype(float, copy=False)
        else:
            a = np.atleast_2d(np.asarray(self.a, dtype=float))
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
        return self.a.toarray() if issparse(self.a) else self.a


def make_lp(sense, c, rows, bounds=None) -> LinearProgram:
    """Convenience constructor; rows is a list of (coeffs, sense, rhs)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if rows:
        a = np.array([np.asarray(r[0], dtype=float) for r in rows])
        senses = tuple(r[1] for r in rows)
        b = np.array([float(r[2]) for r in rows])
    else:
        a = np.zeros((0, n))
        senses = ()
        b = np.zeros(0)
    if bounds is None:
        lb = np.zeros(n)
        ub = np.full(n, np.inf)
    else:
        lb = np.array([lo for lo, _ in bounds], dtype=float)
        ub = np.array([hi for _, hi in bounds], dtype=float)
    return LinearProgram(sense, c, a, senses, b, lb, ub)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    value: float = np.nan
    # Farkas-style dual ray for infeasible problems (per original row).
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
    variables strictly between their bounds.  Dense and sparse matrices
    alike cost one product with a and one with a'.
    """
    if not sol.optimal:
        raise LpError("residuals only defined for optimal solutions")
    x, y = sol.x, sol.y
    senses = np.array(lp.row_senses)
    le, ge = senses == LE, senses == GE
    scale = 1.0 + max(np.abs(lp.b).max(initial=0.0), np.abs(x).max(initial=0.0))
    ax = lp.a @ x
    # row violation: excess on "<=", shortfall on ">=", either way on "="
    row_excess = np.where(le, ax - lp.b, np.where(ge, lp.b - ax, np.abs(ax - lp.b)))
    primal = max(
        np.max(row_excess, initial=0.0),
        np.max(lp.lb - x, initial=0.0),
        np.max(x - lp.ub, initial=0.0),
    )

    sign = 1.0 if lp.sense == "min" else -1.0
    # min: y <= 0 on "<=" rows and y >= 0 on ">=" rows; flipped for max
    dual = max(np.max(sign * y[le], initial=0.0), np.max(-sign * y[ge], initial=0.0))
    r = lp.c - lp.a.T @ y
    # Reduced-cost sign: for min, r_j >= 0 at a lower bound, <= 0 at an upper
    # bound; flipped for max.  Variables off both bounds need r_j == 0, and
    # fixed variables (at both bounds) may take any r_j.
    dscale = 1.0 + np.abs(lp.c).max(initial=0.0)
    at_lb = x - lp.lb <= 1e-7 * scale
    at_ub = lp.ub - x <= 1e-7 * scale
    rj = sign * r
    wrong_sign = np.where(at_lb, -rj, np.where(at_ub, rj, np.abs(rj)))
    wrong_sign[at_lb & at_ub] = 0.0
    dual = max(dual, np.max(wrong_sign / dscale, initial=0.0))
    # Complementary slackness on rows: y_i != 0 only on tight rows.
    slack = np.where(le, lp.b - ax, ax - lp.b)
    comp = np.max(np.abs(y * slack)[le | ge], initial=0.0) / (scale * dscale)
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
    """min c'x, Ax = b >= 0, x >= 0 plus bookkeeping to map back."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    # per original variable: (kind, cols, offset); kind in {shift, neg, split}
    var_map: list[tuple]
    n_orig_rows: int
    row_signs: np.ndarray  # +-1 per standard row, original rows first


def _to_standard_form(lp: LinearProgram) -> _StandardForm:
    n = lp.n_vars
    cols: list[np.ndarray] = []  # column of each structural var over orig rows
    c_std: list[float] = []
    var_map: list[tuple] = []
    shift = np.zeros(n)  # x = shift + sum(cols)
    extra_rows: list[tuple[np.ndarray, str, float]] = []  # bound rows

    c = lp.c if lp.sense == "min" else -lp.c
    a = lp.dense_a()
    next_col = 0
    for j in range(n):
        lo, hi = lp.lb[j], lp.ub[j]
        if np.isfinite(lo):
            # x_j = lo + xhat, xhat >= 0 (optional upper bound row)
            var_map.append(("shift", next_col, lo))
            cols.append(a[:, j])
            c_std.append(c[j])
            shift[j] = lo
            if np.isfinite(hi):
                extra_rows.append((next_col, LE, hi - lo))
            next_col += 1
        elif np.isfinite(hi):
            # x_j = hi - xhat
            var_map.append(("neg", next_col, hi))
            cols.append(-a[:, j])
            c_std.append(-c[j])
            shift[j] = hi
            next_col += 1
        else:
            var_map.append(("split", next_col, 0.0))
            cols.append(a[:, j])
            c_std.append(c[j])
            cols.append(-a[:, j])
            c_std.append(-c[j])
            next_col += 2

    m0 = lp.n_rows
    n_struct = next_col
    a_struct = np.column_stack(cols) if cols else np.zeros((m0, 0))
    b_adj = lp.b - a @ shift

    n_bound = len(extra_rows)
    m = m0 + n_bound
    # slacks: one per inequality row
    senses = list(lp.row_senses) + [s for _, s, _ in extra_rows]
    n_slack = sum(1 for s in senses if s != EQ)
    a_full = np.zeros((m, n_struct + n_slack))
    b_full = np.zeros(m)
    a_full[:m0, :n_struct] = a_struct
    b_full[:m0] = b_adj
    for k, (col, _, rhs) in enumerate(extra_rows):
        a_full[m0 + k, col] = 1.0
        b_full[m0 + k] = rhs
    slack_i = n_struct
    for i, s in enumerate(senses):
        if s == LE:
            a_full[i, slack_i] = 1.0
            slack_i += 1
        elif s == GE:
            a_full[i, slack_i] = -1.0
            slack_i += 1
    row_signs = np.ones(m)
    neg = b_full < 0
    a_full[neg] *= -1.0
    b_full[neg] *= -1.0
    row_signs[neg] = -1.0
    c_full = np.concatenate([np.asarray(c_std), np.zeros(n_slack)])
    return _StandardForm(a_full, b_full, c_full, var_map, m0, row_signs)


def _simplex_phase(tab, basis, costs, allowed, start_iter, stall_after, max_iter, tol=PIVOT_TOL):
    """Run simplex iterations on tableau `tab` (m x (n+1), rhs last column).

    Returns (status, iterations).  `allowed` is a boolean mask of columns
    permitted to enter.  Dantzig pricing until `stall_after` total
    iterations, then Bland.
    """
    m = tab.shape[0]
    n = tab.shape[1] - 1
    it = start_iter
    while True:
        # reduced costs r = c - c_B' tab
        cb = costs[basis]
        r = costs[:n] - cb @ tab[:, :n]
        r[~allowed] = np.inf
        if it < stall_after:
            j = int(np.argmin(r))
            if r[j] >= -tol:
                return OPTIMAL, it
        else:
            neg = np.flatnonzero(r < -tol)
            if neg.size == 0:
                return OPTIMAL, it
            j = int(neg[0])
        col = tab[:, j]
        pos = col > tol
        if not np.any(pos):
            return UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[pos] = tab[pos, n] / col[pos]
        if it < stall_after:
            i = int(np.argmin(ratios))
        else:
            # Bland: among minimal ratios, leave the smallest basis index
            rmin = ratios.min()
            cand = np.flatnonzero(ratios <= rmin + 1e-12)
            i = int(min(cand, key=lambda k: basis[k]))
        piv = tab[i, j]
        tab[i] /= piv
        colv = tab[:, j].copy()
        colv[i] = 0.0
        tab -= np.outer(colv, tab[i])
        tab[:, j] = 0.0
        tab[i, j] = 1.0
        basis[i] = j
        it += 1
        if it >= max_iter:
            return NUMERICAL_FAILURE, it


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex; deterministic given identical input."""
    sf = _to_standard_form(lp)
    m, n_sc = sf.a.shape
    n_tot = n_sc + m  # structural+slack, then artificials
    tab = np.zeros((m, n_tot + 1))
    tab[:, :n_sc] = sf.a
    tab[:, n_sc:n_tot] = np.eye(m)
    tab[:, n_tot] = sf.b
    basis = np.array([n_sc + i for i in range(m)], dtype=int)

    stall_after = 3 * (m + n_tot)
    max_iter = 50 * (m + n_tot) + 2000

    # Phase 1
    costs1 = np.concatenate([np.zeros(n_sc), np.ones(m)])
    allowed = np.ones(n_tot, dtype=bool)
    status, it = _simplex_phase(tab, basis, costs1, allowed, 0, stall_after, max_iter)
    if status == NUMERICAL_FAILURE:
        return LpSolution(NUMERICAL_FAILURE, iterations=it)
    phase1_val = float(costs1[basis] @ tab[:, n_tot])
    if phase1_val > 1e-7 * (1.0 + np.abs(sf.b).max(initial=0.0)):
        # Farkas certificate from phase-1 duals: y_i = 1 - r_art_i
        cb = costs1[basis]
        r_art = costs1[n_sc:n_tot] - cb @ tab[:, n_sc:n_tot]
        y_std = 1.0 - r_art
        cert = np.zeros(lp.n_rows)
        cert[:] = (sf.row_signs[: sf.n_orig_rows] * y_std[: sf.n_orig_rows])
        if lp.sense == "max":
            cert = -cert
        return LpSolution(INFEASIBLE, certificate=cert, iterations=it)

    # Drive basic artificials out where possible; drop redundant rows by
    # leaving the artificial basic at zero but barring it from increasing.
    for i in range(m):
        if basis[i] >= n_sc:
            row = tab[i, :n_sc]
            nz = np.flatnonzero(np.abs(row) > 1e-9)
            if nz.size:
                j = int(nz[0])
                piv = tab[i, j]
                tab[i] /= piv
                colv = tab[:, j].copy()
                colv[i] = 0.0
                tab -= np.outer(colv, tab[i])
                tab[:, j] = 0.0
                tab[i, j] = 1.0
                basis[i] = j

    # Phase 2
    costs2 = np.concatenate([sf.c, np.zeros(m)])
    allowed = np.ones(n_tot, dtype=bool)
    allowed[n_sc:] = False
    status, it = _simplex_phase(tab, basis, costs2, allowed, it, stall_after + it, max_iter)
    if status == NUMERICAL_FAILURE:
        return LpSolution(NUMERICAL_FAILURE, iterations=it)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, iterations=it)

    x_std = np.zeros(n_tot)
    x_std[basis] = tab[:, n_tot]
    # duals over standard rows from artificial columns: y_i = -r_art_i
    cb = costs2[basis]
    r_art = -cb @ tab[:, n_sc:n_tot]
    y_std = -r_art

    # Map back to original variables.
    x = np.zeros(lp.n_vars)
    for j, (kind, col, off) in enumerate(sf.var_map):
        if kind == "shift":
            x[j] = off + x_std[col]
        elif kind == "neg":
            x[j] = off - x_std[col]
        else:
            x[j] = x_std[col] - x_std[col + 1]
    y = sf.row_signs[: sf.n_orig_rows] * y_std[: sf.n_orig_rows]
    value = float(lp.c @ x)
    if lp.sense == "max":
        y = -y
    return LpSolution(OPTIMAL, x=x, y=y, value=value, iterations=it)


# ---------------------------------------------------------------------------
# Pluggable solver seam.
# ---------------------------------------------------------------------------


def _load_highs_direct():
    from scipy.optimize._highspy._core import HighsModelStatus, kHighsInf
    from scipy.optimize._highspy._highs_wrapper import _highs_wrapper

    return _highs_wrapper, HighsModelStatus, kHighsInf


def _load_highs_model():
    from scipy.optimize._highspy._core import HighsStatus, ObjSense, _Highs

    return _Highs, ObjSense, HighsStatus


try:
    _HIGHS_DIRECT = _load_highs_direct()
except ImportError:  # pragma: no cover - depends on the scipy build
    _HIGHS_DIRECT = None

try:
    _HIGHS_MODEL = _load_highs_model()
except ImportError:  # pragma: no cover - depends on the scipy build
    _HIGHS_MODEL = None


def _highs_status(status, model_status) -> str:
    """The solution-contract status of a HiGHS model status."""
    if status == model_status.kOptimal:
        return OPTIMAL
    if status == model_status.kInfeasible:
        return INFEASIBLE
    if status == model_status.kUnbounded:
        return UNBOUNDED
    return NUMERICAL_FAILURE


def _highs_rows(lp: LinearProgram, highs_inf):
    """Row intervals lhs ≤ Ax ≤ rhs in HiGHS' infinity."""
    senses = np.array(lp.row_senses)
    return np.where(senses == LE, -highs_inf, lp.b), np.where(senses == GE, highs_inf, lp.b)


def _highs_cols(lp: LinearProgram, highs_inf):
    """Column bounds in HiGHS' infinity."""
    return np.where(np.isinf(lp.lb), -highs_inf, lp.lb), np.where(np.isinf(lp.ub), highs_inf, lp.ub)


class WarmHighs:
    """One persistent HiGHS model for a family of LPs that share their
    objective sense, their rows and their last `n_shared` columns and differ
    only in the columns before those (the leading columns).

    Each solve deletes the previous leading columns, adds the new ones and
    re-runs from the basis the previous solve left; HiGHS keeps the basis
    status of the rows and the shared columns across the swap.  A run that
    does not end optimal is repeated once from scratch before its status is
    reported, so a stale basis never turns a solvable LP into a failure.
    The handle holds no reference to whatever owns it, and a lock
    serialises solves on it.
    """

    def __init__(self, n_shared: int):
        self.n_shared = n_shared
        self._lock = threading.Lock()
        self._highs = None
        self._n_lead = 0

    def solve(self, lp: LinearProgram) -> LpSolution:
        _, model_status, highs_inf = _HIGHS_DIRECT
        n_lead = lp.n_vars - self.n_shared
        a = lp.a.tocsc() if issparse(lp.a) else csc_matrix(lp.a)
        lb, ub = _highs_cols(lp, highs_inf)
        with self._lock:
            if n_lead < 0 or (self._highs is not None and lp.n_rows != self._highs.getNumRow()):
                raise LpError("LP does not share the rows and columns of its warm model")
            if not self._swap_in(lp, a, n_lead, lb, ub):
                # HiGHS rejected an entry (an infinite coefficient, say):
                # drop the half-edited model; the next LP builds a new one
                self._highs = None
                return LpSolution(NUMERICAL_FAILURE)
            status, its = self._run()
            if status != model_status.kOptimal:
                self._highs.clearSolver()
                status, cold_its = self._run()
                its += cold_its
            status = _highs_status(status, model_status)
            if status != OPTIMAL:
                return LpSolution(status, iterations=its)
            sol = self._highs.getSolution()
            col_value = np.array(sol.col_value, dtype=float)
            y = np.array(sol.row_dual, dtype=float)
        # the model holds the shared columns first, the leading ones after
        x = np.concatenate([col_value[self.n_shared :], col_value[: self.n_shared]])
        return LpSolution(OPTIMAL, x=x, y=y, value=float(lp.c @ x), iterations=its)

    def _swap_in(self, lp, a, n_lead, lb, ub) -> bool:
        """Replace the model's leading columns by the LP's; on first use,
        build the model from the LP's rows and shared columns.  Its
        objective sense is the LP's, so the row duals are already shadow
        prices for the stated sense.  False if HiGHS rejects an edit."""
        highs_cls, obj_sense, highs_status = _HIGHS_MODEL
        if self._highs is None:
            self._highs = highs_cls()
            self._highs.setOptionValue("output_flag", False)
            self._highs.setOptionValue("log_to_console", False)
            sense = obj_sense.kMaximize if lp.sense == "max" else obj_sense.kMinimize
            self._highs.changeObjectiveSense(sense)
            lhs, rhs = _highs_rows(lp, _HIGHS_DIRECT[2])
            # the rows go in empty; the columns bring their entries
            no_entries = (np.zeros(lp.n_rows, np.int32), np.zeros(0, np.int32), np.zeros(0))
            shared = a[:, n_lead:]
            edits = [
                self._highs.addRows(lp.n_rows, lhs, rhs, 0, *no_entries),
                self._highs.addCols(
                    self.n_shared,
                    lp.c[n_lead:],
                    lb[n_lead:],
                    ub[n_lead:],
                    shared.nnz,
                    shared.indptr[:-1],
                    shared.indices,
                    shared.data,
                ),
            ]
        else:
            old_lead = np.arange(self.n_shared, self.n_shared + self._n_lead, dtype=np.int32)
            edits = [self._highs.deleteCols(self._n_lead, old_lead)]
        nnz = a.indptr[n_lead]
        edits.append(
            self._highs.addCols(
                n_lead,
                lp.c[:n_lead],
                lb[:n_lead],
                ub[:n_lead],
                nnz,
                a.indptr[:n_lead],
                a.indices[:nnz],
                a.data[:nnz],
            )
        )
        self._n_lead = n_lead
        return highs_status.kError not in edits

    def _run(self):
        """One HiGHS run; returns (model status, simplex + IPM iterations)."""
        self._highs.run()
        info = self._highs.getInfo()
        its = info.simplex_iteration_count + info.ipm_iteration_count
        return self._highs.getModelStatus(), its


def solve_lp_highs(lp: LinearProgram) -> LpSolution:
    """HiGHS adapter conforming to the same solution contract.

    An LP with a warm handle is solved on the handle's persistent model.
    Any other LP goes cold to the bundled HiGHS bindings in row-interval
    form (lhs ≤ Ax ≤ rhs), which skips the generic linprog input pipeline;
    the public linprog path remains as a fallback.
    """
    if _HIGHS_DIRECT is None:
        return _solve_lp_highs_public(lp)
    if lp.warm is not None and _HIGHS_MODEL is not None:
        return lp.warm.solve(lp)
    wrapper, model_status, highs_inf = _HIGHS_DIRECT
    c = np.ascontiguousarray(lp.c if lp.sense == "min" else -lp.c, dtype=float)
    lhs, rhs = _highs_rows(lp, highs_inf)
    lb, ub = _highs_cols(lp, highs_inf)
    a = csc_matrix(lp.a)
    res = wrapper(
        c,
        a.indptr,
        a.indices,
        np.asarray(a.data, dtype=float),
        np.ascontiguousarray(lhs, dtype=float),
        np.ascontiguousarray(rhs, dtype=float),
        np.ascontiguousarray(lb, dtype=float),
        np.ascontiguousarray(ub, dtype=float),
        np.empty(0, dtype=np.uint8),
        {"output_flag": False, "log_to_console": False},
    )
    status = _highs_status(res.get("status"), model_status)
    if status == OPTIMAL and res.get("x") is None:
        status = NUMERICAL_FAILURE
    if status != OPTIMAL:
        return LpSolution(status)
    x = np.asarray(res["x"], dtype=float)
    y = np.asarray(res["lambda"], dtype=float)
    if lp.sense == "max":
        y = -y
    value = float(lp.c @ x)
    its = int(res.get("simplex_nit") or 0) + int(res.get("ipm_nit") or 0)
    return LpSolution(OPTIMAL, x=x, y=y, value=value, iterations=its)


def _solve_lp_highs_public(lp: LinearProgram) -> LpSolution:
    """scipy.optimize.linprog fallback with the same solution contract."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    c = lp.c if lp.sense == "min" else -lp.c
    a = lp.dense_a()
    senses = np.array(lp.row_senses)
    le = senses == LE
    ge = senses == GE
    eq = senses == EQ
    a_ub_rows = []
    b_ub = []
    ub_orig_idx = []
    for i in range(lp.n_rows):
        if le[i]:
            a_ub_rows.append(a[i])
            b_ub.append(lp.b[i])
            ub_orig_idx.append((i, 1.0))
        elif ge[i]:
            a_ub_rows.append(-a[i])
            b_ub.append(-lp.b[i])
            ub_orig_idx.append((i, -1.0))
    a_eq = a[eq] if np.any(eq) else None
    b_eq = lp.b[eq] if np.any(eq) else None
    a_ub = csr_matrix(np.array(a_ub_rows)) if a_ub_rows else None
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=csr_matrix(a_eq) if a_eq is not None else None,
        b_eq=b_eq,
        bounds=list(zip(lp.lb, lp.ub)),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(INFEASIBLE)
    if res.status == 3:
        return LpSolution(UNBOUNDED)
    if not res.success:
        return LpSolution(NUMERICAL_FAILURE)
    y = np.zeros(lp.n_rows)
    if a_ub is not None:
        for k, (i, sgn) in enumerate(ub_orig_idx):
            y[i] = sgn * res.ineqlin.marginals[k]
    if a_eq is not None:
        y[np.flatnonzero(eq)] = res.eqlin.marginals
    value = float(lp.c @ res.x)
    if lp.sense == "max":
        y = -y
    return LpSolution(OPTIMAL, x=res.x.copy(), y=y, value=value, iterations=int(res.nit))


_SOLVERS = {"simplex": solve_lp, "highs": solve_lp_highs}


def get_solver(name: str):
    try:
        return _SOLVERS[name]
    except KeyError:
        raise LpError(f"unknown LP solver {name!r}; choose from {sorted(_SOLVERS)}")


def dump_lp(lp: LinearProgram, names: list[str] | None = None) -> str:
    """Fixed-format LP text (CPLEX-LP flavour) for external cross-checking."""
    n = lp.n_vars
    if names is None:
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
