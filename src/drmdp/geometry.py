"""Polyhedral sets and piecewise-linear convex functions.

The geometric vocabulary for ambiguity sets: compact polyhedra in
inequality/equality form, sum-of-max-of-affine convex functions (norm
distances, deviations, affine maps), and a brute-force vertex enumerator
used as an independent oracle by the higher layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, LpError, solve_lp

VERTEX_DEDUP_TOL = 1e-7
FEAS_TOL = 1e-9
VERTEX_DIM_GUARD = 8


class GeometryError(Exception):
    pass


class NotCompactError(GeometryError):
    """A set required to be compact has an unbounded coordinate."""


def _rows(entries, dim, what):
    out = []
    for a, b in entries:
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape[0] != dim:
            raise GeometryError(f"{what} row has dimension {a.shape[0]}, set has {dim}")
        out.append((a, float(b)))
    return tuple(out)


@dataclass(frozen=True)
class PolyhedralSet:
    """{x : a.x <= b for (a,b) in ineq, c.x = d for (c,d) in eq}."""

    dim: int
    ineq: tuple = ()
    eq: tuple = ()

    def __post_init__(self):
        if self.dim <= 0:
            raise GeometryError("dimension must be positive")
        object.__setattr__(self, "ineq", _rows(self.ineq, self.dim, "inequality"))
        object.__setattr__(self, "eq", _rows(self.eq, self.dim, "equality"))

    def contains(self, x, tol=FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise GeometryError("point dimension mismatch")
        ok = all(a @ x <= b + tol for a, b in self.ineq)
        return ok and all(abs(c @ x - d) <= tol for c, d in self.eq)

    def ineq_matrix(self):
        if not self.ineq:
            return np.zeros((0, self.dim)), np.zeros(0)
        return np.array([a for a, _ in self.ineq]), np.array([b for _, b in self.ineq])

    def eq_matrix(self):
        if not self.eq:
            return np.zeros((0, self.dim)), np.zeros(0)
        return np.array([c for c, _ in self.eq]), np.array([d for _, d in self.eq])

    def lp_rows(self):
        rows = [(a, LE, b) for a, b in self.ineq]
        rows += [(c, EQ, d) for c, d in self.eq]
        return rows


def box(lo, hi) -> PolyhedralSet:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = lo.shape[0]
    ineq = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        ineq.append((e.copy(), hi[i]))
        ineq.append((-e, -lo[i]))
    return PolyhedralSet(dim, ineq)


def simplex(dim: int) -> PolyhedralSet:
    ineq = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = -1.0
        ineq.append((e, 0.0))
    return PolyhedralSet(dim, ineq, [(np.ones(dim), 1.0)])


def singleton(point) -> PolyhedralSet:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    dim = point.shape[0]
    eq = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        eq.append((e, point[i]))
    return PolyhedralSet(dim, eq=eq)


def norm_ball(center, radius, norm) -> PolyhedralSet:
    """Polyhedral 1-norm or inf-norm ball around `center`."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    if radius < 0:
        raise GeometryError("radius must be nonnegative")
    ineq = []
    if norm == "inf":
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            ineq.append((e.copy(), center[i] + radius))
            ineq.append((-e, radius - center[i]))
    elif norm == 1:
        # all sign patterns of sum_i s_i (x_i - c_i) <= radius
        for signs in np.ndindex(*([2] * dim)):
            s = np.array([1.0 if k == 0 else -1.0 for k in signs])
            ineq.append((s, radius + s @ center))
    else:
        raise GeometryError("norm must be 1 or 'inf'")
    return PolyhedralSet(dim, ineq)


def intersect(*sets: PolyhedralSet) -> PolyhedralSet:
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise GeometryError("cannot intersect sets of different dimension")
    ineq = [r for s in sets for r in s.ineq]
    eq = [r for s in sets for r in s.eq]
    return PolyhedralSet(dim, ineq, eq)


def product(*sets: PolyhedralSet) -> PolyhedralSet:
    """Cartesian product, block-diagonal constraint layout."""
    dim = sum(s.dim for s in sets)
    ineq, eq = [], []
    off = 0
    for s in sets:
        for a, b in s.ineq:
            row = np.zeros(dim)
            row[off : off + s.dim] = a
            ineq.append((row, b))
        for c, d in s.eq:
            row = np.zeros(dim)
            row[off : off + s.dim] = c
            eq.append((row, d))
        off += s.dim
    return PolyhedralSet(dim, ineq, eq)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def feasibility_check(s: PolyhedralSet):
    """Returns (True, witness) or (False, farkas_certificate)."""
    lp = LinearProgram(
        "min",
        np.zeros(s.dim),
        np.array([r[0] for r in s.lp_rows()]).reshape(-1, s.dim),
        tuple(r[1] for r in s.lp_rows()),
        np.array([r[2] for r in s.lp_rows()]),
        np.full(s.dim, -np.inf),
        np.full(s.dim, np.inf),
    )
    sol = solve_lp(lp)
    if sol.optimal:
        return True, sol.x
    if sol.status == "infeasible":
        return False, sol.certificate
    raise GeometryError(f"feasibility LP ended with status {sol.status}")


def _extreme(s: PolyhedralSet, direction, sense):
    rows = s.lp_rows()
    lp = LinearProgram(
        sense,
        np.asarray(direction, dtype=float),
        np.array([r[0] for r in rows]).reshape(-1, s.dim),
        tuple(r[1] for r in rows),
        np.array([r[2] for r in rows]),
        np.full(s.dim, -np.inf),
        np.full(s.dim, np.inf),
    )
    return solve_lp(lp)


def support_value(s: PolyhedralSet, direction) -> float:
    """max direction.x over the set; raises NotCompactError if unbounded."""
    sol = _extreme(s, direction, "max")
    if sol.status == "unbounded":
        raise NotCompactError("set not compact")
    if not sol.optimal:
        raise GeometryError(f"support LP status {sol.status}")
    return sol.value


def bounding_box(s: PolyhedralSet) -> np.ndarray:
    """Per-coordinate [lo, hi] via 2*dim LP solves; (dim, 2) array."""
    out = np.zeros((s.dim, 2))
    for i in range(s.dim):
        e = np.zeros(s.dim)
        e[i] = 1.0
        for k, sense in ((0, "min"), (1, "max")):
            sol = _extreme(s, e, sense)
            if sol.status == "unbounded":
                raise NotCompactError(f"set not compact: coordinate {i} unbounded")
            if not sol.optimal:
                raise GeometryError(f"bounding-box LP status {sol.status}")
            out[i, k] = sol.value
    return out


def is_nonempty_bounded(s: PolyhedralSet) -> bool:
    ok, _ = feasibility_check(s)
    if not ok:
        return False
    try:
        bounding_box(s)
    except NotCompactError:
        return False
    return True


@dataclass(frozen=True)
class VertexList:
    dim: int
    vertices: np.ndarray  # (k, dim)


def enumerate_vertices(s: PolyhedralSet, dim_guard=VERTEX_DIM_GUARD) -> VertexList:
    """All basic feasible solutions, deduplicated.

    Brute force over active-row combinations; refuses above the dimension
    guard because the combinatorics explode.
    """
    if s.dim > dim_guard:
        raise GeometryError(f"vertex enumeration refused above dimension {dim_guard}")
    a_eq, b_eq = s.eq_matrix()
    a_in, b_in = s.ineq_matrix()
    n_eq = a_eq.shape[0]
    need = s.dim - min(n_eq, s.dim)
    found = []
    for idx in combinations(range(a_in.shape[0]), min(need, a_in.shape[0])) if need else [()]:
        amat = np.vstack([a_eq] + [a_in[list(idx)]]) if idx else a_eq.reshape(-1, s.dim)
        bvec = np.concatenate([b_eq] + [b_in[list(idx)]]) if idx else b_eq
        if amat.shape[0] < s.dim:
            continue
        x, res, rank, _ = np.linalg.lstsq(amat, bvec, rcond=None)
        if rank < s.dim:
            continue
        if np.max(np.abs(amat @ x - bvec), initial=0.0) > 1e-8:
            continue
        if s.contains(x, tol=1e-8):
            found.append(x)
    unique: list[np.ndarray] = []
    for v in found:
        if not any(np.max(np.abs(v - u)) <= VERTEX_DEDUP_TOL for u in unique):
            unique.append(v)
    verts = np.array(unique) if unique else np.zeros((0, s.dim))
    return VertexList(s.dim, verts)


def chebyshev_radius(s: PolyhedralSet) -> float:
    """Radius of the largest inscribed ball, with equality rows treated as
    inequality pairs (so flat sets report 0); strict-feasibility surrogate."""
    a_in, b_in = s.ineq_matrix()
    a_eq, b_eq = s.eq_matrix()
    n = s.dim
    c = np.zeros(n + 1)
    c[n] = 1.0
    rows = []
    for i in range(a_in.shape[0]):
        rows.append((np.concatenate([a_in[i], [np.linalg.norm(a_in[i])]]), LE, b_in[i]))
    for i in range(a_eq.shape[0]):
        nrm = np.linalg.norm(a_eq[i])
        rows.append((np.concatenate([a_eq[i], [nrm]]), LE, b_eq[i]))
        rows.append((np.concatenate([-a_eq[i], [nrm]]), LE, -b_eq[i]))
    rows.append((c, LE, 1e6))  # cap to keep the LP bounded for cones
    lp = LinearProgram(
        "max",
        c,
        np.array([r[0] for r in rows]),
        tuple(r[1] for r in rows),
        np.array([r[2] for r in rows]),
        np.concatenate([np.full(n, -np.inf), [0.0]]),
        np.full(n + 1, np.inf),
    )
    sol = solve_lp(lp)
    if not sol.optimal:
        return 0.0
    return float(sol.value)


# ---------------------------------------------------------------------------
# Piecewise-linear convex functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PwlConvexFn:
    """f(x) = sum over max-blocks of max over pieces of (a.x + b).

    Convexity is automatic from the representation.  Norm distances and
    affine maps are expressible; see the constructors below.
    """

    dim: int
    terms: tuple  # tuple of blocks; block = tuple of (a: ndarray, b: float)

    def __post_init__(self):
        blocks = []
        for block in self.terms:
            if not block:
                raise GeometryError("max-block must be nonempty")
            blocks.append(_rows(block, self.dim, "pwl piece"))
        object.__setattr__(self, "terms", tuple(blocks))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise GeometryError("pwl evaluation dimension mismatch")
        return float(sum(max(a @ x + b for a, b in block) for block in self.terms))

    def lift(self, total_dim: int, offset: int = 0) -> "PwlConvexFn":
        """Embed into a larger variable space at the given offset."""
        blocks = []
        for block in self.terms:
            pieces = []
            for a, b in block:
                row = np.zeros(total_dim)
                row[offset : offset + self.dim] = a
                pieces.append((row, b))
            blocks.append(tuple(pieces))
        return PwlConvexFn(total_dim, tuple(blocks))


def affine_fn(a, b=0.0) -> PwlConvexFn:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return PwlConvexFn(a.shape[0], ((tuple([(a, float(b))])),))


def one_norm_distance(center) -> PwlConvexFn:
    """||x - center||_1: one max-block per coordinate, two pieces each."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    blocks = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        blocks.append(((e.copy(), -center[i]), (-e, center[i])))
    return PwlConvexFn(dim, tuple(blocks))


def inf_norm_distance(center) -> PwlConvexFn:
    """||x - center||_inf: one max-block with 2*dim pieces."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    pieces = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pieces.append((e.copy(), -center[i]))
        pieces.append((-e, center[i]))
    return PwlConvexFn(dim, (tuple(pieces),))


def norm_distance(center, norm) -> PwlConvexFn:
    if norm == 1:
        return one_norm_distance(center)
    if norm == "inf":
        return inf_norm_distance(center)
    raise GeometryError("supported metrics: 1-norm, inf-norm")
