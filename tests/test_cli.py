import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from drmdp.cli import main

DATA = Path(__file__).parent.parent / "src" / "drmdp" / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def test_solve_finite_matches_golden(runner, tmp_path):
    res = runner.invoke(
        main, ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    golden = json.loads((GOLDEN / "finite_two_state_summary.json").read_text())
    assert summary["value_at_root"] == pytest.approx(golden["value_at_root"], abs=1e-9)
    assert summary["saddle_residual"] <= 1e-8
    assert (tmp_path / "value.csv").read_text().splitlines()[0] == "state,label,value"
    policy_lines = (tmp_path / "policy.csv").read_text().splitlines()
    assert policy_lines[0] == "state,label,action,probability"
    assert len(policy_lines) == 3  # one decision state, two actions


@pytest.mark.parametrize(
    "name, reported, absent",
    [
        ("infinite_two_state.yaml", "bellman_residual", "saddle_residual"),
        ("finite_two_state.yaml", "saddle_residual", "bellman_residual"),
    ],
)
def test_solve_names_the_residual_it_reports(runner, tmp_path, name, reported, absent):
    # a discounted model reports ‖Tv − v‖∞, a finite one the saddle gap
    res = runner.invoke(main, ["solve", str(DATA / name), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert absent not in summary
    assert 0.0 <= summary[reported] <= 1e-6
    assert f"({reported} " in res.output


def test_solve_builds_the_document_once(runner, tmp_path, monkeypatch):
    import drmdp.modelfile as modelfile

    builds = []
    wasserstein = modelfile.build_wasserstein
    monkeypatch.setattr(
        modelfile, "build_wasserstein", lambda *args: builds.append(args) or wasserstein(*args)
    )
    res = runner.invoke(
        main, ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert len(builds) == 1  # the file has one ambiguity block


def test_solve_failure_names_state_stage_shape_and_status(runner, tmp_path, monkeypatch):
    import drmdp.lp as lp

    monkeypatch.setitem(lp._SOLVERS, "highs", lambda prog, warm: lp.LpSolution(lp.NUMERICAL_FAILURE))
    res = runner.invoke(
        main, ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path)]
    )
    assert res.exit_code == 3
    assert re.search(
        r"state 0, stage 0: robust LP \(\d+ rows × \d+ columns\) "
        r"ended with status numerical_failure", res.output
    ), res.output


def test_solve_malformed_file_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("format_version: 1\nstates: [\n")
    res = runner.invoke(main, ["solve", str(bad), "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "line" in res.output


def test_solve_epsilon_consistency(runner, tmp_path):
    values = {}
    for eps in ("1e-3", "1e-6"):
        out = tmp_path / eps
        res = runner.invoke(
            main,
            ["solve", str(DATA / "infinite_two_state.yaml"), "--epsilon", eps, "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        values[eps] = json.loads((out / "summary.json").read_text())["value_at_root"]
    assert abs(values["1e-3"] - values["1e-6"]) <= 1e-3 + 1e-6


def test_solve_dump_lp(runner, tmp_path):
    lp_path = tmp_path / "root.lp"
    res = runner.invoke(
        main,
        ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path),
         "--dump-lp", str(lp_path)],
    )
    assert res.exit_code == 0, res.output
    text = lp_path.read_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and text.rstrip().endswith("End")


@pytest.mark.parametrize("name", ["boundary_weights", "finite_two_state", "infinite_two_state", "invalid_rows"])
def test_solve_dump_lp_writes_the_golden_bytes(runner, tmp_path, name):
    # the golden files are the dumps written while the template's matrix
    # was a scipy.sparse one
    lp_path = tmp_path / "root.lp"
    res = runner.invoke(
        main, ["solve", str(DATA / f"{name}.yaml"), "--out", str(tmp_path), "--dump-lp", str(lp_path)]
    )
    assert res.exit_code == 0, res.output
    assert lp_path.read_bytes() == (GOLDEN / f"{name}_root.lp").read_bytes()


def test_newsvendor_deterministic_and_trends(runner, tmp_path):
    args = [
        "newsvendor", "--radii", "0,2", "--train-sizes", "4", "--reps", "3",
        "--test-runs", "50", "--seed", "7",
    ]
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, args + ["--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        assert "mean cost" in res.output
        outputs.append((out / "costs.csv").read_text())
    assert outputs[0] == outputs[1]
    agg = (tmp_path / "a" / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "theta,N,mean,std"
    assert len(agg) == 3


def test_newsvendor_single_radius_prints_no_t_statistic(runner, tmp_path):
    res = runner.invoke(main, ["newsvendor", "--radii", "0.5", "--train-sizes", "3", "--reps", "2",
                               "--test-runs", "20", "--seed", "1", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "t=" not in res.output
    assert (tmp_path / "aggregate.csv").read_text().splitlines()[1].startswith("0.5,3,")


def test_newsvendor_threads_do_not_change_results(runner, tmp_path):
    args = ["newsvendor", "--radii", "0,0.5", "--train-sizes", "3", "--reps", "4",
            "--test-runs", "40", "--seed", "3"]
    res1 = runner.invoke(main, args + ["--out-dir", str(tmp_path / "serial"), "--threads", "1"])
    res2 = runner.invoke(main, args + ["--out-dir", str(tmp_path / "pool"), "--threads", "3"])
    assert res1.exit_code == 0 and res2.exit_code == 0
    assert (tmp_path / "serial" / "costs.csv").read_text() == (
        tmp_path / "pool" / "costs.csv"
    ).read_text()


@pytest.mark.parametrize("keep_going, code", [(False, 3), (True, 0)])
def test_newsvendor_reports_a_failed_repetition(runner, tmp_path, monkeypatch, keep_going, code):
    import drmdp.newsvendor as newsvendor

    solve = newsvendor.solve_order_strategy
    hi_calls = []

    def failing(cfg, samples, theta, solver):
        # θ=2 fails in repetition 1; reps 0 and 2 still pair with θ=0
        if theta == 2.0:
            hi_calls.append(theta)
            if len(hi_calls) == 2:
                raise RuntimeError("stalled")
        return solve(cfg, samples, theta, solver=solver)

    monkeypatch.setattr(newsvendor, "solve_order_strategy", failing)
    args = ["newsvendor", "--radii", "0,2", "--train-sizes", "4", "--reps", "3", "--test-runs", "30",
            "--threads", "1", "--out-dir", str(tmp_path)]
    res = runner.invoke(main, args + (["--keep-going"] if keep_going else []))
    assert res.exit_code == code, res.output
    assert "failed repetition 1 (θ=2.0, N=4): stalled" in res.output
    assert re.search(r"N=4: mean cost θ=2\.0 vs θ=0\.0: t=-?\d", res.output), res.output
    assert len((tmp_path / "costs.csv").read_text().splitlines()) == 1 + 5


def test_newsvendor_bad_flags_exit_2(runner, tmp_path):
    res = runner.invoke(
        main, ["newsvendor", "--radii", "0,zap", "--out-dir", str(tmp_path)]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("flag, value", [("--train-sizes", "0"), ("--train-sizes", "5,-3"), ("--radii", "-1,0")])
def test_newsvendor_bad_sizes_and_radii_exit_2_before_any_solve(runner, tmp_path, flag, value):
    res = runner.invoke(main, ["newsvendor", flag, value, "--reps", "1", "--out-dir", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "bad flag value" in res.output and "Traceback" not in res.output
    assert not (tmp_path / "costs.csv").exists()


def test_newsvendor_reports_the_std_trend(runner, tmp_path):
    args = ["newsvendor", "--radii", "0,1", "--train-sizes", "4,6", "--reps", "2", "--test-runs", "30",
            "--out-dir", str(tmp_path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert re.search(r"θ=0\.0: std N=4: \d+\.\d{4}, N=6: \d+\.\d{4} \(std (shrinks with N|does not shrink)\)",
                     res.output), res.output


def test_validate_nan_radius_exit_2(runner, tmp_path):
    bad = tmp_path / "nan.yaml"
    bad.write_text((DATA / "finite_two_state.yaml").read_text().replace("radius: 0.2", "radius: .nan"))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2
    assert "θ must be finite and nonnegative, got nan" in res.output and "Traceback" not in res.output


def test_validate_good_model(runner):
    res = runner.invoke(main, ["validate", str(DATA / "finite_two_state.yaml")])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output


def test_validate_invalid_rows(runner):
    res = runner.invoke(main, ["validate", str(DATA / "invalid_rows.yaml")])
    assert res.exit_code == 2
    assert "FAIL" in res.output and "row" in res.output.lower()


def test_validate_boundary_weights(runner):
    res = runner.invoke(main, ["validate", str(DATA / "boundary_weights.yaml")])
    assert res.exit_code == 2
    assert "interior" in res.output.lower()


def test_validate_malformed_value_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text((DATA / "infinite_two_state.yaml").read_text().replace(
        "radius: 0.2", "radius: 0.2\n    metric: 2"))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2
    assert "ambiguities.ball" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_solve_bad_epsilon_exit_2_before_any_solve(runner, tmp_path, epsilon):
    res = runner.invoke(
        main, ["solve", str(DATA / "infinite_two_state.yaml"), f"--epsilon={epsilon}", "--out", str(tmp_path)]
    )
    assert res.exit_code == 2, res.output
    assert "--epsilon must be finite and positive" in res.output and "Traceback" not in res.output
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "name, old, new, fragment",
    [
        ("finite_two_state", "r_offset: [0.5, 1.0]", "r_offset: [.nan, 1.0]", "r_offset must be finite"),
        ("finite_two_state", "terminal_values: [1.0, -1.0]", "terminal_values: [.nan, -1.0]",
         "terminal_values must be finite"),
        ("finite_two_state", "dim: 2}", "dim: -.inf}", "support.dim: cannot convert float infinity"),
        ("boundary_weights", "samples: [[0.2], [0.8]]", "samples: [[null], [0.8]]", "equality row holds NaN"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_model_numbers_exit_2(runner, tmp_path, command, name, old, new, fragment):
    text = (DATA / f"{name}.yaml").read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new))
    args = [command, str(bad)] + (["--out", str(tmp_path)] if command == "solve" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert fragment in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_factor_map_row_mismatch_exit_2(runner, tmp_path, command):
    # three transition rows cannot be split among two actions
    text = (DATA / "finite_two_state.yaml").read_text()
    bad = tmp_path / "rows.yaml"
    bad.write_text(text.replace("p_mat: [[1, 0], [0, 1], [1, 0], [0, 1]]", "p_mat: [[1, 0], [0, 1], [1, 0]]"))
    args = [command, str(bad)] + (["--out", str(tmp_path)] if command == "solve" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "states[0].factor_map: transition map has wrong row count" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_support_unbounded_by_an_infinite_bound_exit_2(runner, tmp_path, command):
    text = (DATA / "finite_two_state.yaml").read_text()
    bad = tmp_path / "strip.yaml"
    bad.write_text(text.replace("support: {kind: simplex, dim: 2}", "support: {kind: box, lo: [0, 0], hi: [.inf, 1]}"))
    args = [command, str(bad)] + (["--out", str(tmp_path)] if command == "solve" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "states[0].ambiguity: support must be nonempty and bounded" in res.output
    assert "Traceback" not in res.output


def test_infinite_mean_box_solves_like_a_finite_one(runner, tmp_path):
    # the mean box's infinite bounds constrain nothing, so the 1-norm ball
    # alone bounds the mean, as the box [0, 1]^2 leaves it too
    text = (DATA / "finite_two_state.yaml").read_text()
    block = "    builder: wasserstein\n    support: {kind: simplex, dim: 2}\n    samples: [[0.3, 0.7]]\n    radius: 0.2\n"
    assert block in text
    mean = "    builder: uncertain_mean\n    support: {kind: simplex, dim: 2}\n    mean_lo: {lo}\n    mean_hi: {hi}\n"
    mean += "    center: [0.3, 0.7]\n    radius: 0.2\n"
    printed = []
    for lo, hi in (("[-.inf, -.inf]", "[.inf, .inf]"), ("[0, 0]", "[1, 1]")):
        doc = tmp_path / "mean.yaml"
        doc.write_text(text.replace(block, mean.replace("{lo}", lo).replace("{hi}", hi)))
        res = runner.invoke(main, ["validate", str(doc)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["solve", str(doc), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        printed.append(re.search(r"value at root state: (\S+)", res.output).group(1))
    assert printed == ["0.4", "0.4"]


def test_validate_solver_failure_exit_3(runner, tmp_path):
    # a weight floor of 1e308 leaves HiGHS no finite way through the
    # feasibility LP
    bad = tmp_path / "floor.yaml"
    bad.write_text((DATA / "boundary_weights.yaml").read_text().replace("eps_floor: 0.0", "eps_floor: 1.0e+308"))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 3, res.output
    assert "state 0: feasibility LP ended with status numerical_failure" in res.output
    assert "Traceback" not in res.output


def test_solve_non_finite_result_exit_3(runner, tmp_path, monkeypatch):
    import drmdp.cli as cli

    monkeypatch.setattr(cli, "classical_dp_finite", lambda model, factors: np.full(model.n_states, np.nan))
    res = runner.invoke(main, ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "non-finite result" in res.output and "saddle_residual nan" in res.output
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("option", ["--dump-lp", "--out"])
def test_solve_unwritable_output_exit_2_before_any_solve(runner, tmp_path, monkeypatch, option):
    # a dump file in a missing directory, or an output directory under a file
    import drmdp.cli as cli

    solves = []
    monkeypatch.setattr(cli, "backward_induction", lambda *args: solves.append(args))
    (tmp_path / "file").write_text("")
    target = tmp_path / ("missing/root.lp" if option == "--dump-lp" else "file/sub")
    args = ["solve", str(DATA / "finite_two_state.yaml"), "--out", str(tmp_path), option, str(target)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"cannot write {target}" in res.output and "Traceback" not in res.output
    assert solves == []


def test_newsvendor_unwritable_out_dir_exit_2_before_any_repetition(runner, tmp_path, monkeypatch):
    import drmdp.cli as cli

    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "sub"
    res = runner.invoke(main, ["newsvendor", "--reps", "1", "--out-dir", str(target)])
    assert res.exit_code == 2, res.output
    assert f"cannot write {target}" in res.output and "Traceback" not in res.output
    assert runs == []


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("- name: root\n", "- name: root\n  terminal: 'false'\n", "states[0].terminal: expected true or false"),
        ("- name: down\n  terminal: true", "- name: down\n  terminal: null", "states[2].terminal: expected true or false"),
    ],
    ids=["decision state 'false'", "terminal state null"],
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_terminal_that_is_not_a_boolean_exit_2(runner, tmp_path, command, old, new, fragment):
    text = (DATA / "finite_two_state.yaml").read_text()
    assert old in text
    bad = tmp_path / "terminal.yaml"
    bad.write_text(text.replace(old, new))
    args = [command, str(bad)] + (["--out", str(tmp_path)] if command == "solve" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert fragment in res.output and "Traceback" not in res.output
