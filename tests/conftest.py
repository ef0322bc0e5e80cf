"""Shared builders for randomized model-based tests."""

import numpy as np

from drmdp.ambiguity import (
    FactorMap,
    MixtureComponent,
    build_hybrid_wasserstein_mad,
    build_mixture,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
    identity_factor_map,
    pad_factor_map,
)
from drmdp.engine import DrMdpModel
from drmdp.geometry import PolyhedralSet, box, simplex, singleton
from drmdp.lp import CscArrays, LeadingColumns, LinearProgram


def make_lp(sense, c, rows, bounds=None) -> LinearProgram:
    """An LP from a list of (coeffs, sense, rhs) rows; bounds default to
    [0, inf) on every variable."""
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


def stage_value(obj, pi, xi) -> float:
    """A stage objective's value κ(π) + c(π)·ξ at one factor ξ."""
    return obj.kappa(pi) + float(obj.coeff(pi) @ xi)


def certificate_value(cert, obj, pi) -> float:
    """A stage objective's expectation at π under a certificate's point
    masses: κ(π) + Σ_n ω_n c(π)·ξ̄_n."""
    return obj.kappa(pi) + float(cert.weights @ (cert.means @ obj.coeff(pi)))


def leading_request(lp, n_shared, warm):
    """A whole LP as a request on the warm model `warm`: its columns before
    the last `n_shared` lead, and those last ones are the shared part."""
    n_lead = lp.n_vars - n_shared
    a = lp.a if isinstance(lp.a, CscArrays) else CscArrays.of(lp.a)
    nnz = a.indptr[n_lead]
    shared_a = CscArrays(a.data[nnz:], a.indices[nnz:], a.indptr[n_lead:] - nnz, (lp.n_rows, n_shared))
    shared = LinearProgram(
        lp.sense, lp.c[n_lead:], shared_a, lp.row_senses, lp.b, lp.lb[n_lead:], lp.ub[n_lead:]
    )
    return LeadingColumns(
        shared, lp.c[:n_lead], lp.lb[:n_lead], lp.ub[:n_lead], a.indptr[:n_lead], a.indices[:nnz], a.data[:nnz], warm
    )


# the six ambiguity families random_simplex_ambiguity builds on request
FAMILIES = ("wasserstein", "support", "tv", "mean", "hybrid", "mixture")


def random_simplex_ambiguity(rng, dim, kind=None):
    """A random ambiguity set over factor vectors in the dim-simplex.

    Without a kind it draws from support-only, Wasserstein and uncertain
    mean; any of FAMILIES can be asked for.  A hybrid set appends one
    factor coordinate (the deviation center)."""
    kind = kind or rng.choice(["support", "wasserstein", "mean"])
    d = simplex(dim)
    if kind == "support":
        return build_support_only(d)
    if kind == "wasserstein":
        k = int(rng.integers(1, 4))
        samples = [rng.dirichlet(np.ones(dim)) for _ in range(k)]
        return build_wasserstein(samples, float(rng.uniform(0.0, 1.0)), d)
    if kind == "tv":
        samples = [rng.dirichlet(np.ones(dim)) for _ in range(int(rng.integers(2, 4)))]
        return build_phi_divergence_tv(samples, float(rng.uniform(0.1, 0.6)))
    if kind == "hybrid":
        samples = [rng.dirichlet(np.ones(dim)) for _ in range(2)]
        mean = np.mean(samples, axis=0)
        lo, hi = np.clip(mean - 0.2, 0.0, 1.0), np.clip(mean + 0.2, 0.0, 1.0)
        return build_hybrid_wasserstein_mad(
            samples, float(rng.uniform(0.1, 0.5)), d, 1, lo, hi, float(rng.uniform(0.05, 0.3))
        )
    if kind == "mixture":
        center = rng.dirichlet(np.ones(dim))
        components = [
            MixtureComponent(d),
            MixtureComponent(d, mean_set=box(center - 0.1, center + 0.1)),
        ]
        w = float(rng.uniform(0.2, 0.4))
        weights = PolyhedralSet(
            2,
            [([1, 0], 1 - w), ([-1, 0], -w), ([0, 1], 1 - w), ([0, -1], -w)],
            [([1, 1], 1.0)],
        )
        return build_mixture(components, weights)
    center = rng.dirichlet(np.ones(dim))
    return build_uncertain_mean(
        d, np.zeros(dim), np.ones(dim), center, float(rng.uniform(0.05, 0.5))
    )


def shared_row_factor_map(rng, n_actions, n_next):
    """All actions share one uncertain transition row (the factor); rewards
    are fixed per action."""
    dim = n_next
    p_mat = np.tile(np.eye(dim), (n_actions, 1))
    r_mat = np.zeros((n_actions, dim))
    return FactorMap(
        n_actions,
        n_next,
        p_mat,
        np.zeros(n_actions * n_next),
        r_mat,
        rng.normal(size=n_actions),
    )


def _fitted(fm, amb):
    """The factor map padded to the set's factor dimension."""
    return pad_factor_map(fm, amb.factor_dim - fm.factor_dim)


def random_infinite_model(rng, n_states=2, gamma=0.9, kind=None, actions=None):
    """A discounted model.  With `actions` (one count per state) every state
    shares one ambiguity set of the given kind."""
    if actions is not None:
        shared = random_simplex_ambiguity(rng, n_states, kind)
    fms, ambs = [], []
    for s in range(n_states):
        n_actions = int(rng.integers(1, 4)) if actions is None else actions[s]
        fm = shared_row_factor_map(rng, n_actions, n_states)
        amb = random_simplex_ambiguity(rng, n_states, kind) if actions is None else shared
        fms.append(_fitted(fm, amb))
        ambs.append(amb)
    return DrMdpModel(n_states, tuple(fms), tuple(ambs), discount=gamma)


def random_staged_model(rng, mid_states=2, n_terminal=2, kind=None, actions=None):
    """Three stages: one root, a middle layer, and a terminal layer.  With
    `actions` (one count per middle state) the middle states share one
    ambiguity set of the given kind."""
    stages = (
        (0,),
        tuple(range(1, 1 + mid_states)),
        tuple(range(1 + mid_states, 1 + mid_states + n_terminal)),
    )
    n_states = 1 + mid_states + n_terminal
    fms = [None] * n_states
    ambs = [None] * n_states
    n_actions = int(rng.integers(1, 4))
    fm = shared_row_factor_map(rng, n_actions, mid_states)
    ambs[0] = random_simplex_ambiguity(rng, mid_states, kind)
    fms[0] = _fitted(fm, ambs[0])
    if actions is not None:
        shared = random_simplex_ambiguity(rng, n_terminal, kind)
    for k, s in enumerate(stages[1]):
        n_actions = int(rng.integers(1, 4)) if actions is None else actions[k]
        fm = shared_row_factor_map(rng, n_actions, n_terminal)
        ambs[s] = random_simplex_ambiguity(rng, n_terminal, kind) if actions is None else shared
        fms[s] = _fitted(fm, ambs[s])
    return DrMdpModel(
        n_states,
        tuple(fms),
        tuple(ambs),
        stages=stages,
        terminal_values=rng.normal(size=n_terminal),
    )


def singleton_kernel_model(rng, stages_shape=(1, 2, 2)):
    """Finite-horizon model whose ambiguity sets are singletons: the robust
    value must coincide with classical dynamic programming."""
    sizes = list(stages_shape)
    offsets = np.cumsum([0] + sizes)
    stages = tuple(tuple(range(offsets[i], offsets[i + 1])) for i in range(len(sizes)))
    n_states = offsets[-1]
    fms = [None] * n_states
    ambs = [None] * n_states
    factors = {}
    for t in range(len(sizes) - 1):
        n_next = sizes[t + 1]
        for s in stages[t]:
            n_actions = int(rng.integers(1, 4))
            fm = identity_factor_map(n_actions, n_next)
            xi = np.concatenate(
                [
                    np.concatenate([rng.dirichlet(np.ones(n_next)) for _ in range(n_actions)]),
                    rng.normal(size=n_actions),
                ]
            )
            fms[s] = fm
            ambs[s] = build_support_only(singleton(xi))
            factors[s] = xi
    model = DrMdpModel(
        n_states,
        tuple(fms),
        tuple(ambs),
        stages=stages,
        terminal_values=rng.normal(size=sizes[-1]),
    )
    return model, factors
