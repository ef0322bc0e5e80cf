"""A flag fuzzer for `drmdp newsvendor`: odd values of --radii,
--train-sizes, --seed, --reps and --test-runs, run through the CLI.

Every run must exit 0, exit 2 with an error line, or exit 3 naming a
failed repetition; none may end in an uncaught exception.  Each case gives
odd values to at most two flags and small valid ones to the rest: training
sizes, repetition and test-run counts are at most 3, so each run is small.
The explicit examples are a negative seed, which once raised inside the
study, and a radius of 1e308, whose backups fail by name.
"""

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmdp.cli import main

# empty, NaN, ±inf, negative, zero, huge and non-numeric entries
ODD = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "x")
RADII = ("0", "0.5", "2", "-0")
COUNTS = ("1", "2", "3")


def _lists(entries):
    """Comma-joined lists of one to three entries, duplicates allowed."""
    return st.lists(st.sampled_from(entries), min_size=1, max_size=3).map(",".join)


# per flag: a strategy for small valid values, and one for odd values
FLAGS = {
    "--radii": (_lists(RADII), _lists(ODD + RADII)),
    "--train-sizes": (_lists(COUNTS), _lists(ODD + COUNTS)),
    "--seed": (st.sampled_from(("0", "1", str(2**64))), st.sampled_from(ODD)),
    "--reps": (st.sampled_from(COUNTS), st.sampled_from(ODD)),
    "--test-runs": (st.sampled_from(COUNTS), st.sampled_from(ODD)),
}


@st.composite
def flag_sets(draw):
    """Every flag with a small valid value, except up to two with odd ones."""
    odd = draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=2, unique=True))
    return {name: draw(FLAGS[name][name in odd]) for name in FLAGS}


def _run(flags, tmp_path):
    # small defaults for the flags the case leaves out
    args = {"--train-sizes": "3", "--reps": "1", "--test-runs": "3", **flags}
    argv = ["newsvendor", "--out-dir", str(tmp_path)]
    for name, value in args.items():
        argv += [name, value]
    return CliRunner().invoke(main, argv)


def _check(res):
    assert res.exit_code in (0, 2, 3), (res.exit_code, res.output, res.exception)
    if res.exit_code == 2:
        assert "error:" in res.output.lower(), res.output
    if res.exit_code == 3:
        assert "failed repetition" in res.output, res.output
    assert "Traceback" not in res.output


@settings(derandomize=True, max_examples=30, deadline=None)
@given(flag_sets())
@example({"--seed": "-1"})
@example({"--radii": "1e308"})
def test_every_flag_set_exits_0_2_or_3(tmp_path_factory, flags):
    _check(_run(flags, tmp_path_factory.mktemp("nv")))


def test_a_huge_radius_fails_its_repetition_by_name(tmp_path):
    res = _run({"--radii": "1e308"}, tmp_path)
    assert res.exit_code == 3
    assert "failed repetition 0 (θ=1e+308, N=3): backup failed at state" in res.output
