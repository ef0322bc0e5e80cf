"""Polyhedral sets and piecewise-linear convex functions.

The geometric vocabulary for ambiguity sets: compact polyhedra in
inequality/equality form, sum-of-max-of-affine convex functions (norm
distances, deviations, affine maps), and a brute-force vertex enumerator
used as an independent oracle by the higher layers.

Vertex enumeration also answers support queries on small polytopes.  The
first query on a set tries to prove it a compact polytope with few active
sets; if that succeeds, the set keeps its vertex list, and support values,
bounding boxes and boundedness come from it without an LP.  Every other set
answers with one LP per question, and that LP path stays the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

# Geometry LPs go to the dense simplex, not the library's HiGHS default:
# they are tiny (the TV weight polytope's bounding-box LP has 6 variables
# and 14 rows, and took 0.66 ms per solve on the simplex against 1.0 ms on a
# fresh HiGHS model, 300 solves each, 2-vCPU x86), and feasibility_check
# returns the simplex's Farkas certificate.
from .lp import EQ, GE, LE, LinearProgram, LpError, solve_lp

VERTEX_DEDUP_TOL = 1e-7
FEAS_TOL = 1e-9
VERTEX_DIM_GUARD = 8
# Largest count of active sets, C(m, need) + C(m, need - 1), that a set's
# vertex form may visit (m inequality rows, need = dim less the rank of the
# equality rows).  Building the form costs about 0.22 ms plus 9 us per
# active set, and one dense-simplex LP on these sets about 0.46 ms (2-vCPU
# x86, numpy 2.4), so a form within this count costs under two LPs: less
# than the 1 + 2 * dim LPs of the compactness check it replaces.
VERTEX_FORM_MAX_ACTIVE_SETS = 64


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
    # (k, dim) vertex array once the set is proven a small compact
    # polytope, (0, dim) once it is not; built on the first support query
    _vertex_form: object = field(default=None, init=False, repr=False, compare=False)

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
    sol = _extreme(s, np.zeros(s.dim), "min")
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


def support_value(s: PolyhedralSet, direction):
    """max direction.x over the set; raises NotCompactError if unbounded.

    A 2-D `direction` holds one direction per row and gives an array with
    one maximum per row.
    """
    direction = np.asarray(direction, dtype=float)
    verts = _vertex_form_of(s)
    if verts is not None:
        return (verts @ direction.T).max(axis=0)
    if direction.ndim == 2:
        return np.array([support_value(s, d) for d in direction])
    sol = _extreme(s, direction, "max")
    if sol.status == "unbounded":
        raise NotCompactError("set not compact")
    if not sol.optimal:
        raise GeometryError(f"support LP status {sol.status}")
    return sol.value


def bounding_box(s: PolyhedralSet) -> np.ndarray:
    """Per-coordinate [lo, hi] from the vertex form, else via 2*dim LP
    solves; (dim, 2) array."""
    verts = _vertex_form_of(s)
    if verts is not None:
        return np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)
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
    if _vertex_form_of(s) is not None:
        return True
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


def _rank(a) -> int:
    return int(np.linalg.matrix_rank(a)) if a.shape[0] else 0


def enumerate_vertices(s: PolyhedralSet, dim_guard=VERTEX_DIM_GUARD) -> VertexList:
    """All basic feasible solutions, deduplicated.

    Brute force over active-row combinations, solved as one batch: every
    equality row plus `need` inequality rows, where `need` is dim less the
    rank of the equality rows.  Refuses above the dimension guard because
    the combinatorics explode.
    """
    if s.dim > dim_guard:
        raise GeometryError(f"vertex enumeration refused above dimension {dim_guard}")
    a_eq, b_eq = s.eq_matrix()
    a_in, b_in = s.ineq_matrix()
    need = s.dim - _rank(a_eq)
    combos = list(combinations(range(a_in.shape[0]), need))
    k = len(combos)
    if k == 0:
        return VertexList(s.dim, np.zeros((0, s.dim)))
    idx = np.array(combos, dtype=int).reshape(k, need)
    amat = np.concatenate([np.broadcast_to(a_eq, (k,) + a_eq.shape), a_in[idx]], axis=1)
    bvec = np.concatenate([np.broadcast_to(b_eq, (k,) + b_eq.shape), b_in[idx]], axis=1)
    # least squares through the SVD; a combination of rank < dim has no vertex
    left, sv, right = np.linalg.svd(amat, full_matrices=False)
    cutoff = np.finfo(float).eps * max(amat.shape[1:]) * sv[:, :1]
    full = np.all(sv > cutoff, axis=1)
    coef = np.einsum("kri,kr->ki", left, bvec) / np.where(full[:, None], sv, 1.0)
    x = np.einsum("kij,ki->kj", right, coef)
    ok = full & (np.max(np.abs(np.einsum("kri,ki->kr", amat, x) - bvec), axis=1) <= 1e-8)
    ok &= np.all(x @ a_in.T <= b_in + 1e-8, axis=1)
    ok &= np.all(np.abs(x @ a_eq.T - b_eq) <= 1e-8, axis=1)
    unique: list[np.ndarray] = []
    for v in x[ok]:
        if not any(np.max(np.abs(v - u)) <= VERTEX_DEDUP_TOL for u in unique):
            unique.append(v)
    verts = np.array(unique) if unique else np.zeros((0, s.dim))
    return VertexList(s.dim, verts)


def _has_extreme_ray(a_eq, a_in, need) -> bool:
    """Whether {r : a_in r <= 0, a_eq r = 0}, the recession cone of a set
    with a vertex, has an extreme ray.  Each ray is the null direction of an
    active subsystem of rank dim - 1 (every equality row plus need - 1
    inequality rows) that meets every inequality with one sign or the
    other."""
    dim = a_in.shape[1]
    combos = list(combinations(range(a_in.shape[0]), need - 1))
    k = len(combos)
    idx = np.array(combos, dtype=int).reshape(k, need - 1)
    # a zero row keeps the SVD's right factor square when rows are few
    amat = np.concatenate(
        [np.broadcast_to(a_eq, (k,) + a_eq.shape), a_in[idx], np.zeros((k, 1, dim))], axis=1
    )
    _, sv, right = np.linalg.svd(amat)
    rank = np.sum(sv > 1e-9 * np.maximum(sv[:, :1], 1.0), axis=1)
    rays = right[rank == dim - 1, -1]
    norms = np.linalg.norm(a_in, axis=1)
    slack = rays @ (a_in / np.where(norms > 0.0, norms, 1.0)[:, None]).T
    return bool(np.any(np.all(slack <= FEAS_TOL, axis=1) | np.all(slack >= -FEAS_TOL, axis=1)))


def _vertex_form_of(s: PolyhedralSet):
    """The set's vertex array if it is a compact polytope small enough to
    enumerate, else None; computed on the first call and kept on the set."""
    verts = s._vertex_form
    if verts is None:
        verts = np.zeros((0, s.dim))
        a_eq, _ = s.eq_matrix()
        a_in, _ = s.ineq_matrix()
        m, need = a_in.shape[0], s.dim - _rank(a_eq)
        active_sets = comb(m, need) + (comb(m, need - 1) if need else 0)
        if s.dim <= VERTEX_DIM_GUARD and active_sets <= VERTEX_FORM_MAX_ACTIVE_SETS:
            found = enumerate_vertices(s).vertices
            if found.shape[0] and not (need and _has_extreme_ray(a_eq, a_in, need)):
                verts = found
        object.__setattr__(s, "_vertex_form", verts)
    return verts if verts.shape[0] else None


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
