"""Per-layer tracing from outside the program.

The tracer replaces a function where its caller looks the name up (a module
global, a class attribute or the solver dispatch dict) with a wrapper that
records a span: name, start, end, the enclosing span and the unit it ran
in.  Self time is a span's duration less that of its direct children.
A hook whose target no longer exists is skipped, and the metrics that rest
on it are reported missing.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import drmdp.ambiguity as ambiguity
import drmdp.engine as engine
import drmdp.geometry as geometry
import drmdp.lp as lp
import drmdp.modelfile as modelfile
import drmdp.newsvendor as newsvendor
import drmdp.reformulation as reformulation

# (span name, owner, attribute): one entry per place a caller looks a name up
HOOKS = (
    ("lp.highs", lambda: lp._SOLVERS, "highs"),
    ("lp.simplex", lambda: lp._SOLVERS, "simplex"),
    ("geometry.lp", lambda: geometry, "solve_lp"),
    *(("geometry.call", lambda: ambiguity, name) for name in (
        "is_nonempty_bounded", "feasibility_check", "support_value",
        "chebyshev_radius", "bounding_box")),
    ("geometry.call", lambda: reformulation, "feasibility_check"),
    ("geometry.call", lambda: reformulation, "enumerate_vertices"),
    ("reformulation.template_build", lambda: reformulation.SRobustTemplate, "_build"),
    ("reformulation.instantiate", lambda: reformulation.SRobustTemplate, "instantiate"),
    ("reformulation.backup", lambda: engine, "solve_srobust"),
    ("reformulation.adversary", lambda: reformulation, "worst_case_expectation"),
    ("engine.sweep", lambda: engine, "bellman_operator"),
    ("engine.induction", lambda: engine, "backward_induction"),
    ("engine.induction", lambda: newsvendor, "backward_induction"),
    *(("ambiguity.build", lambda: modelfile, name) for name in (
        "build_support_only", "build_wasserstein", "build_phi_divergence_tv",
        "build_uncertain_mean")),
    ("ambiguity.build", lambda: newsvendor, "build_wasserstein"),
    ("ambiguity.validate", lambda: ambiguity, "validate"),
    ("modelfile.parse", lambda: modelfile, "parse_model_text"),
    ("modelfile.build", lambda: modelfile.ModelDocument, "build"),
    ("newsvendor.model_build", lambda: newsvendor, "build_newsvendor_model"),
    ("newsvendor.simulate", lambda: newsvendor, "simulate_policy"),
)

LP_SPANS = ("lp.highs", "lp.simplex", "geometry.lp")
SIMPLEX_SPANS = ("lp.simplex", "geometry.lp")

# per-unit metrics: name -> (statistic, spans summed).  The dense simplex
# counts wherever it is called from; geometry.ms is time inside geometry
# helpers called from other modules.
PER_UNIT = {
    "lp.highs.solves": ("calls", ("lp.highs",)),
    "lp.highs.ms": ("ms", ("lp.highs",)),
    "lp.highs.iterations": ("iterations", ("lp.highs",)),
    "lp.simplex.solves": ("calls", SIMPLEX_SPANS),
    "lp.simplex.ms": ("ms", SIMPLEX_SPANS),
    "lp.simplex.iterations": ("iterations", SIMPLEX_SPANS),
    "reformulation.template_builds": ("calls", ("reformulation.template_build",)),
    "reformulation.template_build_ms": ("ms", ("reformulation.template_build",)),
    "reformulation.instantiate_ms": ("ms", ("reformulation.instantiate",)),
    "reformulation.backups": ("calls", ("reformulation.backup",)),
    "reformulation.adversary_solves": ("calls", ("reformulation.adversary",)),
    "reformulation.adversary_ms": ("ms", ("reformulation.adversary",)),
    "engine.sweeps": ("calls", ("engine.sweep",)),
    "engine.sweep_self_ms": ("self_ms", ("engine.sweep",)),
    "engine.inductions": ("calls", ("engine.induction",)),
    "engine.induction_self_ms": ("self_ms", ("engine.induction",)),
    "geometry.lp_solves": ("calls", ("geometry.lp",)),
    "geometry.ms": ("ms", ("geometry.call",)),
    "ambiguity.builds": ("calls", ("ambiguity.build",)),
    "ambiguity.build_ms": ("ms", ("ambiguity.build",)),
    "ambiguity.validate_ms": ("ms", ("ambiguity.validate",)),
    "modelfile.parse_ms": ("ms", ("modelfile.parse",)),
    "newsvendor.model_build_ms": ("ms", ("newsvendor.model_build",)),
    "newsvendor.simulate_ms": ("ms", ("newsvendor.simulate",)),
}
UNIT_OF = {"calls": "count", "iterations": "count", "ms": "ms", "self_ms": "ms"}


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counts, kept in memory while the hooks are installed."""

    def __init__(self):
        self.spans = []  # (id, parent id, unit, name, start, end)
        self.unit = 0
        self._stack = []  # [span id, name, children's total duration]
        self._installed = []
        self.hooked = set()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.iterations = defaultdict(int)
        self.lp_in_backup = 0

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack, spans, calls = self._stack, self.spans, self.calls
        is_lp = name in LP_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            frame = [sid, name, 0.0]
            if is_lp and any(f[1] == "reformulation.backup" for f in stack):
                self.lp_in_backup += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans.append((sid, parent, self.unit, name, start, end))
            if is_lp:
                self.iterations[name] += getattr(result, "iterations", 0)
            return result

        return traced

    def install(self):
        for name, owner_of, attr in HOOKS:
            try:
                owner = owner_of()
            except AttributeError:  # the owning class or dict is gone
                continue
            fn = _get(owner, attr)
            if fn is None:
                continue
            self._installed.append((owner, attr, fn))
            _set(owner, attr, self._wrap(name, fn))
            self.hooked.add(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            _set(owner, attr, fn)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "unit", "name", "start", "end"],
                       "spans": self.spans}, fh)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, units, unit_ms):
        """Per-layer metrics: counts and ms per timed unit, ratios over the
        run, and the traced median unit time.

        Returns (metrics, missing): a metric whose spans could not be
        hooked is left out and named in `missing`."""
        calls = self.calls
        stats = {
            "calls": calls,
            "iterations": self.iterations,
            "ms": {n: 1000.0 * t for n, t in self.total.items()},
            "self_ms": {n: 1000.0 * t for n, t in self.self_time.items()},
        }
        table = {
            name: (spans, sum(stats[stat].get(n, 0) for n in spans) / units, UNIT_OF[stat])
            for name, (stat, spans) in PER_UNIT.items()
        }
        for name, spans, num, den in (
            ("lp.iterations_per_solve", ("lp.highs",),
             self.iterations["lp.highs"], calls["lp.highs"]),
            ("reformulation.lp_solves_per_backup", ("reformulation.backup",) + LP_SPANS,
             self.lp_in_backup, calls["reformulation.backup"]),
            ("modelfile.builds_per_document", ("modelfile.parse", "modelfile.build"),
             calls["modelfile.build"], calls["modelfile.parse"]),
        ):
            table[name] = (spans, num / den if den else 0.0, "ratio")
        table["trace.unit_ms_p50"] = ((), statistics.median(unit_ms), "ms")
        out, missing = {}, []
        for name, (spans, value, unit) in table.items():
            if all(n in self.hooked for n in spans):
                out[name] = {"value": value, "unit": unit}
            else:
                missing.append(name)
        return out, missing
