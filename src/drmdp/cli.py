"""Command-line interface: solve model files, run the newsvendor study,
and validate models.

Exit codes: 0 success, 2 parse/validation failure or an output path that
cannot be written, 3 solver failure.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .ambiguity import validate as validate_ambiguity
from .engine import (
    EngineError,
    backward_induction,
    bellman_operator,
    certificate_factors,
    classical_dp_finite,
    value_iteration,
)
from .geometry import GeometryError
from .lp import LpError, dump_lp
from .modelfile import ModelFileError, parse_model_file
from .newsvendor import NewsvendorConfig, NewsvendorError, paired_t_statistic, run_experiment
from .reformulation import ReformulationError, assemble_stage_objective, build_srobust_lp

EXIT_INVALID = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (EngineError, GeometryError, LpError, ReformulationError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _writing(path):
    """Exit 2 naming `path` on an OSError from the block, which writes there."""
    try:
        yield
    except OSError as err:
        _fail(EXIT_INVALID, f"cannot write {path}: {err}")


def _load_model(model_path):
    try:
        return parse_model_file(model_path).build()
    except ModelFileError as err:
        _fail(EXIT_INVALID, str(err))


@click.group()
def main():
    """Robust Markov decision process solver and experiment driver."""


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=1e-6, show_default=True,
              help="Accuracy target for infinite-horizon value iteration.")
@click.option("--dump-lp", "dump_lp_path", type=click.Path(dir_okay=False), default=None,
              help="Write the root state's robust subproblem as LP text.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True,
              help="Output directory for value/policy CSVs and the summary JSON.")
def solve(model_path, epsilon, dump_lp_path, out):
    """Solve MODEL_PATH and write value.csv, policy.csv, summary.json."""
    if not 0.0 < epsilon < np.inf:
        _fail(EXIT_INVALID, f"bad flag value: --epsilon must be finite and positive, got {epsilon}")
    model = _load_model(model_path)
    out_dir = Path(out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    if dump_lp_path is not None and not Path(dump_lp_path).parent.is_dir():
        _fail(EXIT_INVALID, f"cannot write {dump_lp_path}: {Path(dump_lp_path).parent} is not a directory")
    try:
        if model.is_finite:
            vf, policy, certs = backward_induction(model)
            root = model.stages[0][0]
            classical = classical_dp_finite(model, certificate_factors(certs))
            residual_name, residual = "saddle_residual", abs(classical[root] - vf[root])
            iterations = model.horizon - 1
            v_next = vf.values[list(model.stages[1])]
        else:
            vf, policy, iterations = value_iteration(model, epsilon)
            root = 0
            again, _, _ = bellman_operator(model, vf.values)
            residual_name, residual = "bellman_residual", float(np.max(np.abs(again - vf.values)))
            v_next = vf.values
        if dump_lp_path is not None:
            obj = assemble_stage_objective(
                v_next, model.factor_maps[root],
                discount=1.0 if model.is_finite else model.discount,
            )
            lp = build_srobust_lp(obj, model.ambiguities[root])
            with _writing(dump_lp_path):
                Path(dump_lp_path).write_text(dump_lp(lp))
    except _SOLVER_ERRORS as err:
        _fail(EXIT_SOLVER, str(err))
    if not (np.all(np.isfinite(vf.values)) and np.isfinite(residual)):
        _fail(EXIT_SOLVER, f"non-finite result: value at root {vf[root]}, {residual_name} {residual}")
    labels = model.state_labels or [f"s{s}" for s in range(model.n_states)]
    with _writing(out_dir):
        with open(out_dir / "value.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["state", "label", "value"])
            for s in range(model.n_states):
                w.writerow([s, labels[s], repr(vf[s])])
        with open(out_dir / "policy.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["state", "label", "action", "probability"])
            for s, dist in enumerate(policy.distributions):
                if dist is None:
                    continue
                for a, prob in enumerate(dist):
                    w.writerow([s, labels[s], a, repr(float(prob))])
        summary = {
            "value_at_root": vf[root],
            residual_name: residual,
            "iterations": iterations,
            "horizon": "finite" if model.is_finite else "infinite",
            "n_states": model.n_states,
        }
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    click.echo(f"value at root state: {vf[root]:.10g} ({residual_name} {residual:.3g})")


@main.command()
@click.option("--radii", default="0,0.1,0.2,0.5,1,2", show_default=True,
              help="Comma-separated Wasserstein radii.")
@click.option("--train-sizes", default="5,15", show_default=True,
              help="Comma-separated training-set sizes.")
@click.option("--reps", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--test-runs", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--keep-going", is_flag=True,
              help="Report repetition failures without aborting (exit 0).")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads for parallel repetitions.")
def newsvendor(radii, train_sizes, reps, test_runs, seed, out_dir, keep_going, threads):
    """Run the inventory experiment and write per-repetition and aggregate CSVs."""
    try:
        theta_grid = tuple(float(x) for x in radii.split(","))
        sizes = tuple(int(x) for x in train_sizes.split(","))
        cfg = NewsvendorConfig(
            theta_grid=theta_grid,
            train_sizes=sizes,
            repetitions=reps,
            test_runs=test_runs,
            seed=seed,
        )
    except (ValueError, NewsvendorError) as err:
        _fail(EXIT_INVALID, f"bad flag value: {err}")
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    record = run_experiment(cfg, workers=threads)
    with _writing(out):
        record.to_csv(out / "costs.csv")
        record.aggregate_to_csv(out / "aggregate.csv")
    lo, hi = min(theta_grid), max(theta_grid)
    for n in sizes:
        t = paired_t_statistic(record, hi, lo, n)
        if hi > lo and not np.isnan(t):
            trend = "mean increases" if t > 2 else "no significant increase"
            click.echo(f"N={n}: mean cost θ={hi} vs θ={lo}: t={t:.2f} ({trend})")
    if len(sizes) > 1:
        stds = {n: float(np.std(record.costs(lo, n))) for n in sizes}
        small, large = min(sizes), max(sizes)
        verdict = "std shrinks with N" if stds[large] < stds[small] else "std does not shrink"
        click.echo(f"θ={lo}: std N={small}: {stds[small]:.4f}, N={large}: {stds[large]:.4f} ({verdict})")
    if record.failures:
        for theta, n, rep, msg in record.failures:
            click.echo(f"failed repetition {rep} (θ={theta}, N={n}): {msg}", err=True)
        if not keep_going:
            sys.exit(EXIT_SOLVER)


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
def validate(model_path):
    """Check MODEL_PATH: parse, build, and run per-state ambiguity checks."""
    model = _load_model(model_path)
    all_ok = True
    for s in range(model.n_states):
        amb = model.ambiguities[s]
        if amb is None:
            continue
        try:
            report = validate_ambiguity(amb, model.factor_maps[s])
        except _SOLVER_ERRORS as err:
            _fail(EXIT_SOLVER, f"state {s}: {err}")
        for name, ok, detail in report.checks:
            status = "ok" if ok else "FAIL"
            click.echo(f"state {s}: {name}: {status} ({detail})")
        all_ok = all_ok and report.passed
    click.echo("all checks passed" if all_ok else "validation failed")
    if not all_ok:
        sys.exit(EXIT_INVALID)


if __name__ == "__main__":
    main()
