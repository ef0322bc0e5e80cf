from itertools import combinations

import numpy as np
import pytest

import drmdp.geometry as geometry
from drmdp.geometry import (
    GeometryError,
    NotCompactError,
    PolyhedralSet,
    PwlConvexFn,
    affine_fn,
    bounding_box,
    box,
    chebyshev_radius,
    enumerate_vertices,
    feasibility_check,
    inf_norm_distance,
    intersect,
    is_nonempty_bounded,
    norm_ball,
    one_norm_distance,
    product,
    simplex,
    singleton,
    support_value,
    _extreme,
    _vertex_form_of,
)


def test_contains_simplex():
    s = simplex(3)
    assert s.contains([0.2, 0.3, 0.5])
    assert not s.contains([0.5, 0.5, 0.5])
    assert not s.contains([-0.1, 0.6, 0.5])


def test_feasibility_witness_and_certificate():
    ok, w = feasibility_check(simplex(3))
    assert ok and simplex(3).contains(w)
    empty = PolyhedralSet(2, [([1, 0], -1.0), ([-1, 0], -1.0)])
    ok, cert = feasibility_check(empty)
    assert not ok and cert is not None


def test_bounding_box_derived_example():
    # {x1 + x2 <= 1, x >= 0, x1 >= 0.25}: box is x1 in [0.25, 1], x2 in [0, 0.75]
    s = PolyhedralSet(
        2,
        [([1, 1], 1.0), ([-1, 0], 0.0), ([0, -1], 0.0), ([-1, 0], -0.25)],
    )
    bb = bounding_box(s)
    assert bb == pytest.approx(np.array([[0.25, 1.0], [0.0, 0.75]]), abs=1e-9)


def test_bounding_box_unbounded_raises():
    half = PolyhedralSet(2, [([1, 0], 1.0)])
    with pytest.raises(NotCompactError):
        bounding_box(half)
    assert not is_nonempty_bounded(half)
    assert is_nonempty_bounded(simplex(4))


def test_vertex_enumeration_simplex_cut():
    # standard 3-simplex intersected with {x1 <= 0.5}
    s = intersect(simplex(3), PolyhedralSet(3, [([1, 0, 0], 0.5)]))
    verts = enumerate_vertices(s)
    expected = {(0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    got = {tuple(np.round(v, 9)) for v in verts}
    assert got == expected


def test_vertex_enumeration_box():
    verts = enumerate_vertices(box([0, -1], [1, 2]))
    assert verts.shape == (4, 2)
    for v in verts:
        assert v[0] in (0.0, 1.0) and v[1] in (-1.0, 2.0)


def test_vertex_dim_guard():
    with pytest.raises(GeometryError):
        enumerate_vertices(box(np.zeros(9), np.ones(9)))


def test_support_value_and_chebyshev():
    assert support_value(simplex(3), [3.0, 1.0, 2.0]) == pytest.approx(3.0, abs=1e-9)
    assert chebyshev_radius(box([0, 0], [2, 2])) == pytest.approx(1.0, abs=1e-7)
    assert chebyshev_radius(singleton([1.0, 2.0])) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(NotCompactError):
        support_value(PolyhedralSet(1, [([-1.0], 0.0)]), [1.0])


def test_norm_ball_membership():
    b1 = norm_ball([1.0, 0.0], 0.5, 1)
    assert b1.contains([1.2, 0.2]) and not b1.contains([1.4, 0.2])
    bi = norm_ball([0.0, 0.0], 1.0, "inf")
    assert bi.contains([1.0, -1.0]) and not bi.contains([1.1, 0.0])


def test_product_layout():
    p = product(simplex(2), box([0.0], [1.0]))
    assert p.dim == 3
    assert p.contains([0.5, 0.5, 0.7])
    assert not p.contains([0.5, 0.5, 1.2])


def test_block_diagonal_matches_scipy_on_blocks_with_and_without_rows():
    from scipy.linalg import block_diag

    rng = np.random.default_rng(5)
    shapes = [[(2, 3)], [(2, 2), (3, 1)], [(0, 2), (2, 3)], [(1, 2), (0, 3), (2, 1)], [(0, 2), (0, 1)]]
    for blocks in ([rng.normal(size=shape) for shape in case] for case in shapes):
        got, ref = geometry._block_diag(*blocks), block_diag(*blocks)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    # simplices carry an equality row, boxes none
    for sets in ([box([0.0], [1.0]), box([0.0, 0.0], [1.0, 2.0])], [simplex(2), box([0.0], [1.0]), simplex(3)]):
        p = product(*sets)
        np.testing.assert_array_equal(p.a_in, block_diag(*(s.a_in for s in sets)))
        np.testing.assert_array_equal(p.a_eq, block_diag(*(s.a_eq for s in sets)))


def test_pwl_norm_distances():
    f1 = one_norm_distance([1.0, -1.0])
    fi = inf_norm_distance([1.0, -1.0])
    x = np.array([2.0, 1.0])
    assert f1(x) == pytest.approx(3.0)
    assert fi(x) == pytest.approx(2.0)
    assert f1([1.0, -1.0]) == pytest.approx(0.0)


def test_pwl_affine_and_lift():
    f = affine_fn([2.0, -1.0], 0.5)
    assert f([1.0, 1.0]) == pytest.approx(1.5)
    g = f.lift(4)
    assert g([1.0, 1.0, 9.0, 9.0]) == pytest.approx(1.5)


def test_pwl_convexity_midpoint_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        blocks = []
        for _ in range(rng.integers(1, 3)):
            pieces = tuple(
                (rng.normal(size=dim), rng.normal()) for _ in range(rng.integers(1, 4))
            )
            blocks.append(pieces)
        f = PwlConvexFn(dim, tuple(blocks))
        x, y = rng.normal(size=dim), rng.normal(size=dim)
        mid = f(0.5 * (x + y))
        assert mid <= 0.5 * (f(x) + f(y)) + 1e-12


# Evaluation through the arrays reorders the arithmetic of the pair-by-pair
# reference (one matrix-vector product, a numpy sum), so values may differ
# in the last bits; this bound was fixed before the first comparison.
# Pieces are only copied, so the arrays match the reference bit for bit.
PWL_TOL = 1e-12


def _loop_value(terms, x):
    """Reference evaluation, pair by pair: sum over blocks of max(a.x + b)."""
    return sum(max(a @ x + b for a, b in block) for block in terms)


def _loop_norm_terms(center, norm):
    """Reference 1- and inf-norm pieces, built coordinate by coordinate."""
    blocks = []
    for i, c in enumerate(center):
        e = np.zeros(len(center))
        e[i] = 1.0
        blocks.append([(e, -c), (-e, c)])
    return blocks if norm == 1 else [[piece for block in blocks for piece in block]]


def _assert_pieces(fn, terms):
    """fn's arrays hold the pieces of terms in order, bit for bit."""
    assert fn.n_blocks == len(terms)
    rows = [a for block in terms for a, _ in block]
    np.testing.assert_array_equal(fn.a, np.array(rows).reshape(len(rows), fn.dim))
    np.testing.assert_array_equal(fn.b, [b for block in terms for _, b in block])
    np.testing.assert_array_equal(fn.block, [l for l, block in enumerate(terms) for _ in block])


def test_pwl_arrays_match_the_pair_by_pair_reference():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        center, a, b = rng.normal(size=dim), rng.normal(size=dim), float(rng.normal())
        terms = [
            [(rng.normal(size=dim), float(rng.normal())) for _ in range(rng.integers(1, 5))]
            for _ in range(rng.integers(1, 5))
        ]
        cases = [
            (PwlConvexFn(dim, terms), terms),
            (affine_fn(a, b), [[(a, b)]]),
            (one_norm_distance(center), _loop_norm_terms(center, 1)),
            (inf_norm_distance(center), _loop_norm_terms(center, "inf")),
        ]
        pad = int(rng.integers(0, 3)) + int(rng.integers(0, 3))
        total = dim + pad
        for fn, terms in cases:
            _assert_pieces(fn, terms)
            lifted = fn.lift(total)
            _assert_pieces(lifted, [[(np.r_[a, np.zeros(pad)], b) for a, b in block] for block in terms])
            for x in rng.normal(size=(5, dim)):
                ref = _loop_value(terms, x)
                y = np.r_[x, rng.normal(size=pad)]
                assert abs(fn(x) - ref) <= PWL_TOL * (1.0 + abs(ref))
                assert abs(lifted(y) - ref) <= PWL_TOL * (1.0 + abs(ref))
        for x in rng.normal(size=(5, dim)):
            assert cases[2][0](x) == pytest.approx(np.abs(x - center).sum(), abs=PWL_TOL)
            assert cases[3][0](x) == pytest.approx(np.abs(x - center).max(), abs=PWL_TOL)


def test_pwl_rejects_empty_blocks_and_wrong_dimension_pieces():
    piece = (np.ones(2), 0.0)
    with pytest.raises(GeometryError, match="nonempty"):
        PwlConvexFn(2, ((piece,), ()))
    with pytest.raises(GeometryError, match="dimension"):
        PwlConvexFn(2, ((piece, (np.ones(3), 0.0)),))
    with pytest.raises(GeometryError, match="dimension"):
        PwlConvexFn(2, ((piece,),))(np.ones(3))


def test_vertices_match_support_values():
    # max over vertices equals the LP support value, random directions
    rng = np.random.default_rng(5)
    s = intersect(simplex(4), PolyhedralSet(4, [([1, 1, 0, 0], 0.6)]))
    verts = enumerate_vertices(s)
    assert verts.shape[0] > 0
    for _ in range(10):
        d = rng.normal(size=4)
        assert max(verts @ d) == pytest.approx(support_value(s, d), abs=1e-7)


def test_dimension_validation():
    with pytest.raises(GeometryError):
        PolyhedralSet(2, [([1.0], 0.0)])
    with pytest.raises(GeometryError):
        intersect(simplex(2), simplex(3))


def test_box_rejects_bounds_of_two_lengths():
    with pytest.raises(GeometryError, match=r"box bounds differ in length: lo has 2 entries, hi has 1$"):
        box([0.0, 0.0], [1.0])
    with pytest.raises(GeometryError, match=r"lo has 1 entries, hi has 3$"):
        box(0.0, [1.0, 1.0, 1.0])


def test_enumerate_vertices_dependent_equality_rows():
    # the free dimensions come from the rank of the equality rows, not their count
    twice = intersect(simplex(3), simplex(3))
    got = {tuple(np.round(v, 9)) for v in enumerate_vertices(twice)}
    assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    segment = PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 0.0)], [([1, 1], 1.0), ([2, 2], 2.0)])
    got = {tuple(np.round(v, 9)) for v in enumerate_vertices(segment)}
    assert got == {(1.0, 0.0), (0.0, 1.0)}


# ---------------------------------------------------------------------------
# Vertex form against the LP reference
# ---------------------------------------------------------------------------


def _lp_support(s, direction):
    """The LP path's support value: one `_extreme` LP."""
    sol = _extreme(s, direction)
    if sol.status == "unbounded":
        raise NotCompactError("set not compact")
    if not sol.optimal:
        raise GeometryError(f"support LP status {sol.status}")
    return sol.value


def _lp_box(s):
    return np.array([[-_lp_support(s, -e), _lp_support(s, e)] for e in np.eye(s.dim)])


def _lp_nonempty_bounded(s):
    if not _extreme(s, np.zeros(s.dim)).optimal:
        return False
    try:
        _lp_box(s)
    except NotCompactError:
        return False
    return True


def _outcome(fn, *args):
    """fn's answer, or the class of the geometry error it raised."""
    try:
        return fn(*args)
    except GeometryError as err:
        return type(err)


def _assert_matches_lp(s, rng):
    directions = rng.normal(size=(4, s.dim))
    for d in directions:
        got, want = _outcome(support_value, s, d), _outcome(_lp_support, s, d)
        if isinstance(want, type):
            assert got is want
        else:
            assert got == pytest.approx(want, abs=1e-9)
    got, want = _outcome(bounding_box, s), _outcome(_lp_box, s)
    if isinstance(want, type):
        assert got is want
    else:
        assert got == pytest.approx(want, abs=1e-9)
    assert is_nonempty_bounded(s) == _lp_nonempty_bounded(s)


def _random_polytope(rng):
    """Random rows around an interior point, sometimes with an equality row
    through it and sometimes that row again, scaled: compact or not."""
    dim = int(rng.integers(1, 4))
    m = int(rng.integers(1, 7))
    point = rng.normal(size=dim)
    a = rng.normal(size=(m, dim))
    b = a @ point + rng.uniform(0.1, 1.0, size=m)
    eq = []
    if dim > 1 and rng.random() < 0.4:
        c = rng.normal(size=dim)
        eq = [(c, c @ point)]
        if rng.random() < 0.5:
            eq.append((2.0 * c, 2.0 * (c @ point)))
    return PolyhedralSet(dim, list(zip(a, b)), eq)


def test_vertex_form_matches_lp_on_random_polytopes():
    rng = np.random.default_rng(11)
    compact = 0
    for _ in range(150):
        s = _random_polytope(rng)
        _assert_matches_lp(s, rng)
        compact += _vertex_form_of(s) is not None
    # both paths are exercised
    assert 30 <= compact <= 140


def _loop_contains(s, x, tol):
    """Reference membership test, one row at a time."""
    a_in, b_in, a_eq, b_eq = s.a_in, s.b_in, s.a_eq, s.b_eq
    ok = all(a @ x <= b + tol for a, b in zip(a_in, b_in))
    return ok and all(abs(c @ x - d) <= tol for c, d in zip(a_eq, b_eq))


def test_contains_matches_the_row_by_row_reference():
    rng = np.random.default_rng(17)
    outcomes = {True: 0, False: 0}
    within_tol_outside = 0
    for _ in range(200):
        s = _random_polytope(rng)
        a_in, b_in, a_eq, b_eq = s.a_in, s.b_in, s.a_eq, s.b_eq
        for tol in (geometry.FEAS_TOL, 1e-7):
            # a point on face i, within the equality rows' hyperplane, then
            # moved off the face by offset * tol; no offset, nor twice one
            # (the doubled equality row), lands on the tolerance itself,
            # where the last bit of a reordered sum decides
            for offset in (-0.3, 0.3, 1.7):
                i = int(rng.integers(len(b_in)))
                x = rng.normal(size=s.dim)
                direction = a_in[i]
                if len(b_eq):
                    c = a_eq[0]
                    x = x - (c @ x - b_eq[0]) / (c @ c) * c
                    direction = direction - (direction @ c) / (c @ c) * c
                x = x + (b_in[i] - a_in[i] @ x) / (a_in[i] @ direction) * direction
                x = x + offset * tol / (a_in[i] @ direction) * direction
                if len(b_eq) and rng.random() < 0.5:
                    x = x + offset * tol * a_eq[0] / (a_eq[0] @ a_eq[0])
                got = s.contains(x, tol)
                assert got == _loop_contains(s, x, tol)
                outcomes[got] += 1
                within_tol_outside += got and not _loop_contains(s, x, 0.0)
    assert min(outcomes.values()) >= 200 and within_tol_outside >= 50


def _loop_vertices(s):
    """Reference enumerator: one least-squares solve per active set."""
    a_eq, b_eq, a_in, b_in = s.a_eq, s.b_eq, s.a_in, s.b_in
    need = s.dim - (np.linalg.matrix_rank(a_eq) if a_eq.shape[0] else 0)
    found = []
    for idx in combinations(range(a_in.shape[0]), need):
        amat = np.vstack([a_eq, a_in[list(idx)]])
        bvec = np.concatenate([b_eq, b_in[list(idx)]])
        if amat.shape[0] < s.dim:
            continue
        x, _, rank, _ = np.linalg.lstsq(amat, bvec, rcond=None)
        if rank < s.dim or np.max(np.abs(amat @ x - bvec)) > 1e-8 or not s.contains(x, tol=1e-8):
            continue
        if not any(np.max(np.abs(x - u)) <= 1e-7 for u in found):
            found.append(x)
    return np.array(found).reshape(-1, s.dim)


def test_batched_enumeration_matches_loop():
    rng = np.random.default_rng(4)
    for _ in range(150):
        s = _random_polytope(rng)
        got, want = enumerate_vertices(s), _loop_vertices(s)
        assert got.shape == want.shape
        assert got == pytest.approx(want, abs=1e-9)


# (set, whether it gets a vertex form)
SPECIAL_SETS = {
    "half-space": (PolyhedralSet(2, [([1, 0], 1.0)]), False),
    "slab": (PolyhedralSet(2, [([1, 0], 1.0), ([-1, 0], 0.0)]), False),
    "line": (PolyhedralSet(2, eq=[([1, 1], 1.0)]), False),
    "quadrant": (PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 0.0)]), False),
    "ray": (PolyhedralSet(2, [([-1, 0], 0.0)], [([1, -1], 0.0)]), False),
    "empty": (PolyhedralSet(2, [([1, 0], -1.0), ([-1, 0], -1.0)]), False),
    "inconsistent equalities": (
        PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 0.0)], [([1, 1], 1.0), ([2, 2], 3.0)]),
        False,
    ),
    "dependent equalities": (intersect(simplex(3), simplex(3)), True),
    "segment": (
        PolyhedralSet(2, [([-1, 0], 0.0), ([0, -1], 0.0)], [([1, 1], 1.0), ([2, 2], 2.0)]),
        True,
    ),
    "simplex": (simplex(3), True),
    "box": (box([0, -1, 2], [1, 2, 3]), True),
    "singleton": (singleton([0.2, 0.3]), True),
    "many facets": (norm_ball([0.0, 0.0, 0.0], 1.0, 1), False),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_SETS))
def test_vertex_form_keeps_lp_answers_and_errors(name):
    s, has_form = SPECIAL_SETS[name]
    _assert_matches_lp(s, np.random.default_rng(2))
    assert (_vertex_form_of(s) is not None) == has_form


def test_vertex_form_answers_without_lps(monkeypatch):
    calls = []
    real = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp", lambda lp: calls.append(lp) or real(lp))
    s = intersect(simplex(4), PolyhedralSet(4, [([1, 1, 0, 0], 0.6)]))
    assert is_nonempty_bounded(s)
    assert bounding_box(s) == pytest.approx(np.array([[0, 0.6], [0, 0.6], [0, 1], [0, 1]]), abs=1e-12)
    rows = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 3.0]])
    assert support_value(s, rows) == pytest.approx([1.2, 3.0], abs=1e-12)
    ok, witness = feasibility_check(s)
    assert ok and s.contains(witness)
    assert not calls
