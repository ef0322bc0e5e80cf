"""The benchmark's three workloads: inputs, timed units and output checks.

Each workload makes a fixed, seeded list of units, runs one untimed
warm-up unit during set-up, then runs the list while a clock stamps the
end of every unit.  The program is driven only through its public entry
points, looked up on their modules at call time so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
import traceback

import numpy as np
import yaml

import drmdp.ambiguity as ambiguity
import drmdp.engine as engine
import drmdp.modelfile as modelfile
import drmdp.newsvendor as newsvendor

from oracles import newsvendor_optimal_cost, singleton_document_value


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _floats(a):
    return [float(x) for x in np.ravel(a)]


def _rows(m):
    return [_floats(r) for r in np.atleast_2d(m)]


class Workload:
    """A fixed list of units.  Subclasses fill `make_inputs`, `warm_up`,
    `run_units` and `check`."""

    name = None
    nominal_unit_s = None  # unit time on the reference machine, sizes a run

    def __init__(self, seed, seconds):
        self.seed = seed
        self.n_units = max(3, math.ceil(seconds / self.nominal_unit_s))
        self.failed_units = 0

    def run_units(self, stamp):
        """Run the timed units, calling stamp() as each one ends."""
        raise NotImplementedError

    def check(self):
        """Problems found in the outputs of the units that did not fail."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# newsvendor-study
# ---------------------------------------------------------------------------


class NewsvendorStudy(Workload):
    """`run_experiment` in the shape of the criterion-6 study; a unit is one
    repetition (six radii, N = 5 and 15, 1000 test paths)."""

    name = "newsvendor-study"
    nominal_unit_s = 4.2
    TEST_RUNS = 1000
    MC_SIGMAS = 4.0  # one-sided margin, in standard errors

    def make_inputs(self):
        rng = _rng(self.seed, 1)
        study_seed, warm_seed = (int(x) for x in rng.integers(2**31, size=2))
        self.cfg = newsvendor.NewsvendorConfig(
            repetitions=self.n_units, test_runs=self.TEST_RUNS, seed=study_seed
        )
        self.warm_cfg = newsvendor.NewsvendorConfig(
            repetitions=1, test_runs=self.TEST_RUNS, seed=warm_seed
        )
        cfg = self.cfg
        self.training_sets = {
            n: rng.multinomial(cfg.sample_draws, cfg.true_dist, size=n) / cfg.sample_draws
            for n in cfg.train_sizes
        }

    def warm_up(self):
        newsvendor.run_experiment(self.warm_cfg, solver="highs", workers=1)

    def run_units(self, stamp):
        self.record = newsvendor.run_experiment(
            self.cfg, solver="highs", workers=1, progress=lambda rep: stamp()
        )
        self.failed_units = len({f[2] for f in self.record.failures})

    def _oracle(self, demand_law):
        cfg = self.cfg
        return newsvendor_optimal_cost(
            cfg.horizon, cfg.s_min, cfg.s_max, cfg.order_cost, cfg.holding_cost,
            cfg.backorder_cost, demand_law,
        )

    def check(self):
        cfg, record = self.cfg, self.record
        problems = [f"repetition {f[2]} failed at θ={f[0]}, N={f[1]}: {f[3]}"
                    for f in record.failures]
        best, sigma = self._oracle(cfg.true_dist)
        # any policy's expected cost is at least the optimum; the simulated
        # mean misses its expectation by a standard error sigma/sqrt(runs),
        # with sigma taken as twice the optimal policy's (robust policies
        # measured 0.8-1.4 times it)
        floor = best - self.MC_SIGMAS * 2.0 * sigma / math.sqrt(cfg.test_runs)
        for theta in cfg.theta_grid:
            for n in cfg.train_sizes:
                costs = record.costs(theta, n)
                if len(costs) != cfg.repetitions - self.failed_units:
                    problems.append(f"θ={theta}, N={n}: {len(costs)} rows")
                elif not np.all(np.isfinite(costs)):
                    problems.append(f"θ={theta}, N={n}: non-finite cost")
                elif costs.min() < floor:
                    problems.append(
                        f"θ={theta}, N={n}: mean cost {costs.min():.4f} below the "
                        f"optimum {best:.4f} less {best - floor:.4f}"
                    )
        for n, samples in self.training_sets.items():
            problems += self._check_root_values(n, samples)
        return problems

    def _check_root_values(self, n, samples):
        """Robust root values on one training set: at θ = 0 the ball is the
        empirical distribution, whose mean demand law the DP prices exactly;
        larger balls can only lower the value."""
        cfg = self.cfg
        roots = []
        for theta in cfg.theta_grid:
            model = modelfile.ModelDocument(newsvendor_document(cfg, samples, theta)).build()
            vf, _, _ = engine.backward_induction(model, solver="highs", certificates=False)
            roots.append(vf[0])
        problems = []
        expected = -self._oracle(samples.mean(axis=0))[0]
        if abs(roots[0] - expected) > 1e-6:
            problems.append(f"N={n}: θ=0 root {roots[0]:.10g}, empirical-mean DP {expected:.10g}")
        rise = max(b - a for a, b in zip(roots, roots[1:]))
        if rise > 1e-7:
            problems.append(f"N={n}: root value rises by {rise:.3g} along θ")
        return problems


def newsvendor_document(cfg, samples, theta):
    """The inventory model as a model document, written from its definition:
    stage 1 holds inventory 0, stages 2..T-1 and the terminal stage hold
    every inventory, and each state's factor is the demand law."""
    invs = list(range(cfg.s_min, cfg.s_max + 1))
    n_inv, n_dem = len(invs), cfg.n_demand
    t_dec = cfg.horizon - 1

    def charge(s):
        return max(cfg.holding_cost * s, -cfg.backorder_cost * s)

    def decision_state(s):
        n_actions = cfg.s_max - s + 1
        p_mat = np.zeros((n_actions * n_inv, n_dem))
        for a in range(n_actions):
            for d in range(n_dem):
                nxt = min(max(s + a - d, cfg.s_min), cfg.s_max)
                p_mat[a * n_inv + nxt - cfg.s_min, d] = 1.0
        return {
            "factor_map": {
                "p_mat": _rows(p_mat),
                "p_offset": [0.0] * (n_actions * n_inv),
                "r_mat": _rows(np.zeros((n_actions, n_dem))),
                "r_offset": [-(cfg.order_cost * a + charge(s)) for a in range(n_actions)],
            },
            "ambiguity": "ball",
        }

    states = [decision_state(0)]
    stages = [[0]]
    for _ in range(2, t_dec + 1):
        stages.append(list(range(len(states), len(states) + n_inv)))
        states += [decision_state(s) for s in invs]
    stages.append(list(range(len(states), len(states) + n_inv)))
    states += [{"terminal": True} for _ in invs]
    return {
        "format_version": 1,
        "stages": stages,
        "terminal_values": [-charge(s) for s in invs],
        "ambiguities": {
            "ball": {
                "builder": "wasserstein",
                "support": {"kind": "simplex", "dim": n_dem},
                "samples": _rows(samples),
                "radius": float(theta),
            }
        },
        "states": states,
    }


# ---------------------------------------------------------------------------
# Generated model documents
# ---------------------------------------------------------------------------

BUILDERS = ("wasserstein", "uncertain_mean", "tv", "support_only")


def _ambiguity_block(rng, builder, dim):
    """An inline ambiguity block over factors in the dim-simplex."""
    simplex = {"kind": "simplex", "dim": dim}
    if builder == "support_only":
        return {"builder": builder, "support": simplex}
    if builder == "wasserstein":
        return {
            "builder": builder,
            "support": simplex,
            "samples": _rows(rng.dirichlet(np.ones(dim), size=2)),
            "radius": float(rng.uniform(0.05, 0.5)),
        }
    if builder == "tv":
        return {
            "builder": builder,
            "samples": _rows(rng.dirichlet(np.ones(dim), size=3)),
            "radius": float(rng.uniform(0.1, 0.5)),
        }
    return {
        "builder": builder,
        "support": simplex,
        "mean_lo": [0.0] * dim,
        "mean_hi": [1.0] * dim,
        "center": _floats(rng.dirichlet(np.ones(dim))),
        "radius": float(rng.uniform(0.05, 0.5)),
    }


def _decision_state(rng, n_actions, n_next, ambiguity_block, slope):
    """All actions share one uncertain transition row, the factor; rewards
    are affine in it with slopes drawn from [-slope, slope]."""
    return {
        "factor_map": {
            "p_mat": _rows(np.tile(np.eye(n_next), (n_actions, 1))),
            "p_offset": [0.0] * (n_actions * n_next),
            "r_mat": _rows(rng.uniform(-slope, slope, size=(n_actions, n_next))),
            "r_offset": _floats(rng.normal(size=n_actions)),
        },
        "ambiguity": ambiguity_block,
    }


_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml when present


def _dump(doc):
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)


class DocumentWorkload(Workload):
    """Units are model documents given as YAML text."""

    def make_inputs(self):
        rng = _rng(self.seed, self.stream)
        self.docs = [self.document(rng) for _ in range(self.n_units)]
        self.texts = [_dump(doc) for doc in self.docs]
        self.warm_text = _dump(self.document(rng))
        self.outputs = []

    def warm_up(self):
        self.solve(self.warm_text)

    def run_units(self, stamp):
        for i, text in enumerate(self.texts):
            try:
                self.outputs.append((i, self.solve(text)))
            except Exception:  # noqa: BLE001 - a failed unit is counted, the run goes on
                traceback.print_exc()
                self.failed_units += 1
            stamp()


class DiscountedVI(DocumentWorkload):
    """Infinite-horizon documents solved as `drmdp solve` does: parse,
    build, value iteration at ε, one more operator application for the
    residual."""

    name = "discounted-vi"
    nominal_unit_s = 1.3
    stream = 2
    N_STATES = 4
    N_ACTIONS = 2
    DISCOUNT = 0.8
    EPSILON = 1e-6
    LP_TOL = 1e-8

    def document(self, rng):
        states = [
            _decision_state(rng, self.N_ACTIONS, self.N_STATES,
                            _ambiguity_block(rng, BUILDERS[s % len(BUILDERS)], self.N_STATES),
                            slope=0.5)
            for s in range(self.N_STATES)
        ]
        return {"format_version": 1, "discount": self.DISCOUNT, "states": states}

    def solve(self, text):
        model = modelfile.parse_model_text(text).build()
        vf, _, iterations = engine.value_iteration(model, self.EPSILON, solver="highs")
        again, _, _ = engine.bellman_operator(model, vf.values, solver="highs")
        return vf.values, float(np.max(np.abs(again - vf.values))), iterations

    def check(self):
        gamma, eps = self.DISCOUNT, self.EPSILON
        problems = []
        for i, (values, residual, _) in self.outputs:
            states = self.docs[i]["states"]
            scale = max(1.0, float(np.max(np.abs(values))))
            # stopping rule plus contraction: ‖T v − v‖ ≤ γ·ε(1−γ)/(2γ)
            if residual > eps * (1 - gamma) / 2 + self.LP_TOL * scale:
                problems.append(f"document {i}: residual {residual:.3g}")
            # every factor lies in the simplex, so each reward lies between
            # the row's offset plus the smallest and largest slope
            lo = min(min(r) + o for st in states
                     for r, o in zip(st["factor_map"]["r_mat"], st["factor_map"]["r_offset"]))
            hi = max(max(r) + o for st in states
                     for r, o in zip(st["factor_map"]["r_mat"], st["factor_map"]["r_offset"]))
            if values.min() < lo / (1 - gamma) - eps or values.max() > hi / (1 - gamma) + eps:
                problems.append(f"document {i}: values outside the reward bounds")
        return problems


class ValidateSolve(DocumentWorkload):
    """Finite-horizon documents checked and solved as `drmdp validate` and
    `drmdp solve` do: parse and build, validate every state, backward
    induction with certificates, then the classical-DP saddle residual."""

    name = "validate-solve"
    nominal_unit_s = 0.21
    stream = 3
    STAGE_SIZES = (1, 3, 3, 3)
    N_ACTIONS = 2
    SADDLE_TOL = 1e-6
    SINGLETON_TOL = 1e-8
    N_SINGLETON_DOCS = 3

    def document(self, rng, singleton=False):
        sizes = self.STAGE_SIZES
        offsets = np.cumsum((0,) + sizes)
        stages = [list(range(int(offsets[t]), int(offsets[t + 1]))) for t in range(len(sizes))]
        states = []
        for t in range(len(sizes) - 1):
            n_next = sizes[t + 1]
            for _ in stages[t]:
                if singleton:
                    block = {"builder": "support_only",
                             "support": {"kind": "singleton",
                                         "point": _floats(rng.dirichlet(np.ones(n_next)))}}
                    slope = 0.5
                else:
                    block = _ambiguity_block(rng, BUILDERS[len(states) % len(BUILDERS)], n_next)
                    # rewards free of the factor keep each state's best
                    # action the same for every kernel, so the robust policy
                    # is deterministic.  A randomized one can get from the
                    # adversary LP a worst case that is not a saddle point,
                    # and the residual then reads far from 0.
                    slope = 0.0
                states.append(_decision_state(rng, self.N_ACTIONS, n_next, block, slope))
        states += [{"terminal": True} for _ in stages[-1]]
        return {
            "format_version": 1,
            "stages": stages,
            "terminal_values": _floats(rng.normal(size=sizes[-1])),
            "states": states,
        }

    def make_inputs(self):
        super().make_inputs()
        rng = _rng(self.seed, self.stream + 100)
        self.singleton_docs = [self.document(rng, singleton=True)
                               for _ in range(self.N_SINGLETON_DOCS)]

    def solve(self, text):
        model = modelfile.parse_model_text(text).build()
        passed = all(
            ambiguity.validate(model.ambiguities[s], model.factor_maps[s]).passed
            for s in range(model.n_states)
            if model.ambiguities[s] is not None
        )
        vf, _, certs = engine.backward_induction(model, solver="highs")
        root = model.stages[0][0]
        classical = engine.classical_dp_finite(model, engine.certificate_factors(certs))
        return passed, abs(classical[root] - vf[root]), vf[root]

    def check(self):
        problems = []
        for i, (passed, residual, _) in self.outputs:
            if not passed:
                problems.append(f"document {i}: validation failed")
            if residual > self.SADDLE_TOL:
                problems.append(f"document {i}: saddle residual {residual:.3g}")
        for k, doc in enumerate(self.singleton_docs):
            passed, residual, root = self.solve(_dump(doc))
            expected = singleton_document_value(doc)
            if not passed or residual > self.SADDLE_TOL or abs(root - expected) > self.SINGLETON_TOL:
                problems.append(
                    f"singleton document {k}: root {root:.12g}, expected-value DP "
                    f"{expected:.12g}, residual {residual:.3g}, validation passed {passed}"
                )
        return problems


WORKLOADS = {w.name: w for w in (NewsvendorStudy, DiscountedVI, ValidateSolve)}
