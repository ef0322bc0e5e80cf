"""Polyhedral sets and piecewise-linear convex functions.

The geometric vocabulary for ambiguity sets: compact polyhedra in
inequality/equality form, sum-of-max-of-affine convex functions (norm
distances, deviations, affine maps), and a brute-force vertex enumerator
used as an independent oracle by the higher layers.

A polyhedron is built from (row, rhs) pairs and kept as read-only float
arrays, A_in x <= b_in and A_eq x = b_eq.  Every consumer reads those
arrays: membership, the LPs below, vertex enumeration, the validation
checks and the adversary LP's row blocks.  A piecewise-linear function is
kept the same way, as its pieces' rows, offsets and max-block indices, and
evaluation, lifting and the adversary LP's epigraph blocks read those.

Vertex enumeration also answers support queries on small polytopes.  The
first query on a set tries to prove it a compact polytope with few active
sets; if that succeeds, the set keeps its vertex list, and support values,
bounding boxes, boundedness and feasibility come from it without an LP.
Every other query is one LP over the set's rows, asked as a max (min d.x
is -max (-d).x) on a HiGHS model the set builds on its first LP and
keeps: the model's rows and columns never change, each query writes only
the column costs, and HiGHS re-solves from the basis the last query left.
The Chebyshev radius solves its own LP on a fresh model.  Every geometry
LP goes through this module's `solve_lp` to HiGHS, never to the dense
simplex, and none through the solver seam, whose HiGHS counts stay those
of the backups.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import lp as _lp
from .lp import EQ, INFEASIBLE, LE, PRIMAL_SIMPLEX, UNBOUNDED, LeadingColumns, LinearProgram, WarmHighs

# HiGHS options of every geometry model: presolve costs more than it saves
# on LPs this small, and a query that changes only the costs leaves the
# last basis feasible, from which the primal simplex re-solves faster than
# the dual
_MODEL_OPTIONS = {"presolve": "off", "simplex_strategy": PRIMAL_SIMPLEX}
VERTEX_DEDUP_TOL = 1e-7
FEAS_TOL = 1e-9
VERTEX_DIM_GUARD = 8
# Largest count of active sets, C(m, need) + C(m, need - 1), that a set's
# vertex form may visit (m inequality rows, need = dim less the rank of the
# equality rows).  Building the form costs about 0.2 ms plus 14 us per
# active set, and the compactness check it replaces, 1 + 2 * dim LPs on a
# new warm HiGHS model, 1.2 to 1.7 ms on 3- to 5-dimensional simplices,
# boxes and 1-norm balls (2-vCPU x86, numpy 2.4, scipy 1.17), so a form
# within this count costs less.
VERTEX_FORM_MAX_ACTIVE_SETS = 64


class GeometryError(Exception):
    pass


class NotCompactError(GeometryError):
    """A set required to be compact has an unbounded coordinate."""


def _rows(entries, dim, what):
    """(row, rhs) pairs as a (k, dim) matrix and a k-vector."""
    rows, rhs = [], []
    for a, b in entries:
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape[0] != dim:
            raise GeometryError(f"{what} row has dimension {a.shape[0]}, set has {dim}")
        rows.append(a)
        rhs.append(float(b))
    mat, vec = np.array(rows).reshape(len(rows), dim), np.array(rhs, dtype=float)
    if np.isnan(mat).any() or np.isnan(vec).any():
        raise GeometryError(f"{what} row holds NaN")
    return mat, vec


@dataclass(frozen=True, eq=False)
class PolyhedralSet:
    """{x : a_in x <= b_in, a_eq x = b_eq}.

    Built from (row, rhs) pairs, `ineq` and `eq`, and kept as the read-only
    float arrays a_in (k, dim), b_in (k,), a_eq and b_eq, which every
    consumer reads directly.  An inequality bounded by +inf constrains
    nothing and is dropped; an inequality bounded by -inf, or an equality
    with an infinite right-hand side, raises GeometryError.
    """

    dim: int
    ineq: InitVar[tuple] = ()
    eq: InitVar[tuple] = ()
    a_in: np.ndarray = field(init=False)
    b_in: np.ndarray = field(init=False)
    a_eq: np.ndarray = field(init=False)
    b_eq: np.ndarray = field(init=False)
    # (k, dim) vertex array once the set is proven a small compact
    # polytope, (0, dim) once it is not; built on the first support query
    _vertex_form: object = field(default=None, init=False, repr=False)
    # the LP max c.x over the set as a request, with the set's own warm
    # HiGHS model, both built on the first LP query; each query swaps in
    # its costs
    _lp_model: object = field(default=None, init=False, repr=False, compare=False)
    # the Slater radius `ambiguity.validate` measures, kept from its first check
    _slater_radius: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, ineq, eq):
        if self.dim <= 0:
            raise GeometryError("dimension must be positive")
        a_in, b_in = _rows(ineq, self.dim, "inequality")
        a_eq, b_eq = _rows(eq, self.dim, "equality")
        if np.any(b_in == -np.inf):
            raise GeometryError("inequality bound is -inf: the set is empty")
        if not np.all(np.isfinite(b_eq)):
            raise GeometryError("equality right-hand side must be finite")
        # a row bounded by +inf constrains nothing
        kept = b_in < np.inf
        for name, arr in zip(("a_in", "b_in", "a_eq", "b_eq"), (a_in[kept], b_in[kept], a_eq, b_eq)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def contains(self, x, tol=FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise GeometryError("point dimension mismatch")
        ok = np.all(self.a_in @ x <= self.b_in + tol)
        return bool(ok and np.all(np.abs(self.a_eq @ x - self.b_eq) <= tol))


def box(lo, hi) -> PolyhedralSet:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if len(lo) != len(hi):
        raise GeometryError(f"box bounds differ in length: lo has {len(lo)} entries, hi has {len(hi)}")
    dim = lo.shape[0]
    # x_i <= hi_i, then -x_i <= -lo_i, coordinate by coordinate
    rows = np.kron(np.eye(dim), [[1.0], [-1.0]])
    return PolyhedralSet(dim, zip(rows, np.column_stack([hi, -lo]).ravel()))


def simplex(dim: int) -> PolyhedralSet:
    return PolyhedralSet(dim, zip(-np.eye(dim), np.zeros(dim)), [(np.ones(dim), 1.0)])


def singleton(point) -> PolyhedralSet:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return PolyhedralSet(point.shape[0], eq=zip(np.eye(point.shape[0]), point))


def norm_ball(center, radius, norm) -> PolyhedralSet:
    """Polyhedral 1-norm or inf-norm ball around `center`."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    if not 0 <= radius < np.inf:
        raise GeometryError(f"radius must be finite and nonnegative, got {radius}")
    if norm == "inf":
        return box(center - radius, center + radius)
    if norm != 1:
        raise GeometryError("norm must be 1 or 'inf'")
    # all sign patterns of sum_i s_i (x_i - c_i) <= radius
    signs = 1.0 - 2.0 * np.array(list(np.ndindex(*([2] * dim))))
    # cumsum adds left to right, so each s @ center is bit-identical to the
    # dot product of that row alone
    return PolyhedralSet(dim, zip(signs, radius + np.cumsum(signs * center, axis=1)[:, -1]))


def intersect(*sets: PolyhedralSet) -> PolyhedralSet:
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise GeometryError("cannot intersect sets of different dimension")
    return PolyhedralSet(
        dim,
        zip(np.vstack([s.a_in for s in sets]), np.concatenate([s.b_in for s in sets])),
        zip(np.vstack([s.a_eq for s in sets]), np.concatenate([s.b_eq for s in sets])),
    )


def _block_diag(*blocks) -> np.ndarray:
    """The matrices `blocks` along the diagonal of one zero matrix, as
    scipy.linalg.block_diag lays them out; a block may have no rows."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def product(*sets: PolyhedralSet) -> PolyhedralSet:
    """Cartesian product, block-diagonal constraint layout."""
    return PolyhedralSet(
        sum(s.dim for s in sets),
        zip(_block_diag(*(s.a_in for s in sets)), np.concatenate([s.b_in for s in sets])),
        zip(_block_diag(*(s.a_eq for s in sets)), np.concatenate([s.b_eq for s in sets])),
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def solve_lp(request, warm):
    """Solve one geometry LP on HiGHS, on the model of the `WarmHighs`
    handle `warm`."""
    return _lp.solve_lp_highs(request, warm)


def feasibility_check(s: PolyhedralSet):
    """Returns (True, witness) or (False, farkas_certificate): a
    certificate y has y >= 0 on the inequality rows, a'y = 0 and b'y < 0.
    A set with a vertex form answers with a vertex."""
    verts = _vertex_form_of(s)
    if verts is not None:
        return True, verts[0].copy()
    sol = _extreme(s, np.zeros(s.dim))
    if sol.optimal:
        return True, sol.x
    if sol.status == INFEASIBLE:
        return False, sol.certificate
    raise GeometryError(f"feasibility LP ended with status {sol.status}")


def _extreme(s: PolyhedralSet, direction):
    """max direction.x over the set, solved on the set's warm model."""
    if s._lp_model is None:
        free = np.full(s.dim, np.inf)
        senses = (LE,) * len(s.b_in) + (EQ,) * len(s.b_eq)
        rows, rhs = np.vstack([s.a_in, s.a_eq]), np.concatenate([s.b_in, s.b_eq])
        lp = LinearProgram("max", np.zeros(s.dim), rows, senses, rhs, -free, free)
        object.__setattr__(s, "_lp_model", (LeadingColumns.of(lp), WarmHighs(_MODEL_OPTIONS)))
    model, warm = s._lp_model
    # the costs are copied: the model tells new ones from the held ones by identity
    c = np.array(direction, dtype=float)
    request = LeadingColumns(model.shared, c, model.lb, model.ub, model.starts, model.index, model.value)
    return solve_lp(request, warm)


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
    sol = _extreme(s, direction)
    if sol.status == UNBOUNDED:
        raise NotCompactError("set not compact")
    if not sol.optimal:
        raise GeometryError(f"support LP status {sol.status}")
    return sol.value


def bounding_box(s: PolyhedralSet) -> np.ndarray:
    """Per-coordinate [lo, hi] as a (dim, 2) array: the support values of
    -e_0, +e_0, -e_1, +e_1, ..., with lo = -max(-x_i)."""
    signs = np.array([-1.0, 1.0])
    return signs * support_value(s, np.kron(np.eye(s.dim), signs[:, None])).reshape(s.dim, 2)


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


def _rank(a) -> int:
    return int(np.linalg.matrix_rank(a)) if a.shape[0] else 0


def enumerate_vertices(s: PolyhedralSet) -> np.ndarray:
    """All basic feasible solutions, deduplicated, as a (k, dim) array.

    Brute force over active-row combinations, solved as one batch: every
    equality row plus `need` inequality rows, where `need` is dim less the
    rank of the equality rows.  Refuses above the dimension guard because
    the combinatorics explode.
    """
    if s.dim > VERTEX_DIM_GUARD:
        raise GeometryError(f"vertex enumeration refused above dimension {VERTEX_DIM_GUARD}")
    a_eq, b_eq, a_in, b_in = s.a_eq, s.b_eq, s.a_in, s.b_in
    need = s.dim - _rank(a_eq)
    combos = list(combinations(range(a_in.shape[0]), need))
    k = len(combos)
    if k == 0:
        return np.zeros((0, s.dim))
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
    return np.array(unique) if unique else np.zeros((0, s.dim))


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
        a_eq, a_in = s.a_eq, s.a_in
        m, need = a_in.shape[0], s.dim - _rank(a_eq)
        active_sets = comb(m, need) + (comb(m, need - 1) if need else 0)
        if s.dim <= VERTEX_DIM_GUARD and active_sets <= VERTEX_FORM_MAX_ACTIVE_SETS:
            found = enumerate_vertices(s)
            if found.shape[0] and not (need and _has_extreme_ray(a_eq, a_in, need)):
                verts = found
        object.__setattr__(s, "_vertex_form", verts)
    return verts if verts.shape[0] else None


def chebyshev_radius(s: PolyhedralSet) -> float:
    """Radius of the largest inscribed ball, with equality rows treated as
    inequality pairs (so flat sets report 0); strict-feasibility surrogate."""
    n = s.dim
    c = np.zeros(n + 1)
    c[n] = 1.0
    # each equality row as the pair a.x <= d, -a.x <= -d
    a_eq = np.stack([s.a_eq, -s.a_eq], axis=1).reshape(-1, n)
    a = np.vstack([s.a_in, a_eq])
    lp = LinearProgram(
        "max",
        c,
        np.vstack([np.column_stack([a, np.linalg.norm(a, axis=1)]), c]),
        (LE,) * (a.shape[0] + 1),
        # the last row caps the radius to keep the LP bounded for cones
        np.concatenate([s.b_in, np.column_stack([s.b_eq, -s.b_eq]).ravel(), [1e6]]),
        np.concatenate([np.full(n, -np.inf), [0.0]]),
        np.full(n + 1, np.inf),
    )
    sol = solve_lp(LeadingColumns.of(lp), WarmHighs(_MODEL_OPTIONS))
    if not sol.optimal:
        return 0.0
    return float(sol.value)


# ---------------------------------------------------------------------------
# Piecewise-linear convex functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PwlConvexFn:
    """f(x) = sum over max-blocks of max over pieces of (a.x + b).

    Built from `terms`, a tuple of nonempty max-blocks of (a, b) pieces,
    and kept as read-only arrays: the piece rows a (k, dim), the offsets
    b (k,) and block (k,), the index of each piece's max-block.  Pieces
    keep their order, so block runs from 0 up to n_blocks - 1.

    Convexity is automatic from the representation.  Norm distances and
    affine maps are expressible; see the constructors below.
    """

    dim: int
    terms: InitVar[tuple]
    n_blocks: int = field(init=False)
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    block: np.ndarray = field(init=False)

    def __post_init__(self, terms):
        terms = tuple(tuple(block) for block in terms)
        if not all(terms):
            raise GeometryError("max-block must be nonempty")
        a, b = _rows((piece for block in terms for piece in block), self.dim, "pwl piece")
        block = np.repeat(np.arange(len(terms)), [len(t) for t in terms])
        block.flags.writeable = False
        for name, value in (("n_blocks", len(terms)), ("a", a), ("b", b), ("block", block)):
            object.__setattr__(self, name, value)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise GeometryError("pwl evaluation dimension mismatch")
        best = np.full(self.n_blocks, -np.inf)
        np.maximum.at(best, self.block, self.a @ x + self.b)
        return float(best.sum())

    def lift(self, total_dim: int) -> "PwlConvexFn":
        """Embed into a larger variable space, zero columns after its own."""
        a = np.zeros((len(self.b), total_dim))
        a[:, : self.dim] = self.a
        blocks = (self.block == l for l in range(self.n_blocks))
        return PwlConvexFn(total_dim, (zip(a[sel], self.b[sel]) for sel in blocks))


def affine_fn(a, b=0.0) -> PwlConvexFn:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return PwlConvexFn(a.shape[0], ((tuple([(a, float(b))])),))


def _signed_pieces(center):
    """The pieces x_i - c_i and c_i - x_i, coordinate by coordinate."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    rows = np.kron(np.eye(center.shape[0]), [[1.0], [-1.0]])
    return list(zip(rows, np.column_stack([-center, center]).ravel()))


def one_norm_distance(center) -> PwlConvexFn:
    """||x - center||_1: one max-block per coordinate, two pieces each."""
    pieces = _signed_pieces(center)
    return PwlConvexFn(len(pieces) // 2, tuple(zip(pieces[::2], pieces[1::2])))


def inf_norm_distance(center) -> PwlConvexFn:
    """||x - center||_inf: one max-block with 2*dim pieces."""
    pieces = _signed_pieces(center)
    return PwlConvexFn(len(pieces) // 2, (pieces,))


def norm_distance(center, norm) -> PwlConvexFn:
    if norm == 1:
        return one_norm_distance(center)
    if norm == "inf":
        return inf_norm_distance(center)
    raise GeometryError("supported metrics: 1-norm, inf-norm")
