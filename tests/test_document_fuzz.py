"""A document fuzzer: the bundled fixtures with keys deleted and values
swapped for odd ones, each run as `drmdp validate` and `drmdp solve` run it.

Every document must either stop with a documented error, ModelFileError
at parse (exit 2) or a solver error from validate or solve (exit 3), or
solve to finite values with a finite residual.  The explicit examples are
documents that once escaped: each named `terminal` value, and the
documents of the non-finite model numbers, the infinite simplex dimension,
the validate-time solver errors and the infinite support and mean-box
bounds.
"""

import copy
from pathlib import Path

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmdp.ambiguity import validate
from drmdp.cli import _SOLVER_ERRORS
from drmdp.engine import (
    backward_induction,
    bellman_operator,
    certificate_factors,
    classical_dp_finite,
    value_iteration,
)
from drmdp.modelfile import ModelFileError, parse_model_text

DATA = Path(__file__).parent.parent / "src" / "drmdp" / "data"
FIXTURES = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(DATA.glob("*.yaml"))}


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()
NAN, INF = float("nan"), float("inf")
# NaN, ±inf, null, huge, negative, empty, ragged and wrongly typed values
ODD_VALUES = (
    NAN, INF, -INF, None, 1e308, -1e308, -1, -0.5, 0, 2.5, [], {}, [[0.5], [0.5, 0.5]],
    [1, "x"], "x", True, [NAN, 1.0], [[INF, 0.0]],
)


def _paths(node, prefix=()):
    """The path of every node under `node`, as the keys and indices that
    lead to it."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _edited(name, edits):
    """The fixture `name` with each (path, value) edit applied in turn:
    DELETE removes the node, any other value replaces it."""
    doc = copy.deepcopy(FIXTURES[name])
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


@st.composite
def documents(draw):
    """A fixture's name and one or two edits of its nodes."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(_edited(name, edits)))
        if not paths:
            break
        edits.append((draw(st.sampled_from(paths)), draw(st.sampled_from((DELETE,) + ODD_VALUES))))
    return name, tuple(edits)


def _state0(key, value):
    return (("states", 0, key), value)


MEAN_BLOCK = {"builder": "uncertain_mean", "support": {"kind": "simplex", "dim": 2},
              "mean_lo": [-INF, -INF], "mean_hi": [INF, INF], "center": [0.3, 0.7], "radius": 0.2}


def _run(name, edits):
    """The stage a document stopped at with a documented error, or "solved"."""
    try:
        model = parse_model_text(yaml.safe_dump(_edited(name, edits))).build()
    except ModelFileError:
        return "parse"
    stopped = []
    try:
        for amb, fm in zip(model.ambiguities, model.factor_maps):
            if amb is not None:
                validate(amb, fm)
    except _SOLVER_ERRORS:
        stopped.append("validate")
    try:
        if model.is_finite:
            vf, _, certs = backward_induction(model)
            root = model.stages[0][0]
            residual = abs(classical_dp_finite(model, certificate_factors(certs))[root] - vf[root])
        else:
            vf, _, _ = value_iteration(model, 1e-6)
            residual = float(np.max(np.abs(bellman_operator(model, vf.values)[0] - vf.values)))
    except _SOLVER_ERRORS:
        return "+".join(stopped + ["solve"])
    assert np.all(np.isfinite(vf.values)) and np.isfinite(residual), (vf.values, residual)
    return "+".join(stopped + ["solved"])


@settings(derandomize=True, max_examples=800, deadline=None)
@given(documents())
# `terminal` that is not a YAML boolean
@example(("finite_two_state", (_state0("terminal", "false"),)))
@example(("finite_two_state", ((("states", 1, "terminal"), None),)))
@example(("finite_two_state", ((("states", 1, "terminal"), "no"),)))
@example(("finite_two_state", ((("states", 2, "terminal"), 2),)))
# non-finite model numbers
@example(("finite_two_state", ((("states", 0, "factor_map", "r_offset", 0), NAN),)))
@example(("finite_two_state", ((("states", 0, "factor_map", "p_offset", 0), NAN),)))
@example(("finite_two_state", ((("terminal_values", 0), NAN),)))
@example(("boundary_weights", ((("states", 0, "ambiguity", "samples", 0, 0), None),)))
# a simplex of dimension -inf
@example(("finite_two_state", ((("states", 0, "ambiguity", "support", "dim"), -INF),)))
# solver errors at validate
@example(("boundary_weights", ((("states", 0, "ambiguity", "eps_floor"), 1e308),)))
# infinite bounds of a support and of a mean box
@example(("finite_two_state", ((("states", 0, "ambiguity", "support"), {"kind": "box", "lo": [0, 0],
                                                                          "hi": [INF, 1]}),)))
@example(("finite_two_state", (_state0("ambiguity", MEAN_BLOCK),)))
# an infinite Wasserstein sample, and model numbers whose sums overflow
@example(("infinite_two_state", ((("ambiguities", "ball", "samples", 0, 0), -INF),)))
@example(("invalid_rows", ((("states", 0, "factor_map", "p_mat", 0, 0), 1e308),
                           (("states", 0, "factor_map", "p_offset", 0), 1e308))))
@example(("infinite_two_state", ((("states", 1, "factor_map", "p_mat", 0, 1), -1e308),
                                 (("states", 1, "factor_map", "p_mat", 1, 1), -1e308))))
@example(("boundary_weights", ((("states", 0, "factor_map", "r_offset", 0), -1e308),
                               (("terminal_values", 1), -1e308))))
def test_every_document_stops_with_a_documented_error_or_solves_finite(case):
    _run(*case)


def test_the_explicit_examples_stop_where_the_exit_codes_say():
    # exit 2 at parse, exit 3 at validate, a finite solve for the mean box
    assert _run("finite_two_state", (_state0("terminal", "false"),)) == "parse"
    assert _run("finite_two_state", ((("terminal_values", 0), NAN),)) == "parse"
    assert _run("finite_two_state", ((("states", 0, "ambiguity", "support", "dim"), -INF),)) == "parse"
    assert _run("boundary_weights", ((("states", 0, "ambiguity", "eps_floor"), 1e308),)) == "validate+solve"
    assert _run("finite_two_state", (_state0("ambiguity", MEAN_BLOCK),)) == "solved"
    assert _run("infinite_two_state", ((("ambiguities", "ball", "samples", 0, 0), -INF),)) == "parse"
    # transition rows whose sums overflow fail their check; a stage
    # objective that overflows ends its backup as a numerical failure
    huge_rows = ((("states", 0, "factor_map", "p_mat", 0, 0), 1e308),
                 (("states", 0, "factor_map", "p_offset", 0), 1e308))
    model = parse_model_text(yaml.safe_dump(_edited("invalid_rows", huge_rows))).build()
    report = validate(model.ambiguities[0], model.factor_maps[0])
    assert not dict((name, ok) for name, ok, _ in report.checks)["rows_sum_to_one_support_0"]
    huge_values = ((("states", 0, "factor_map", "r_offset", 0), -1e308), (("terminal_values", 1), -1e308))
    assert _run("boundary_weights", huge_values) == "solve"
