"""The benchmark's three workloads, three units each, with their checks.

perfbench/workloads.py drives the library through its public names:
`NewsvendorConfig`'s settings and instance constants, `run_experiment`,
`ModelDocument(raw).build()`, `validate` and the solvers.  A change that
breaks one of them fails here, in the tier-1 suite, rather than only when
the benchmark runs.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["newsvendor-study", "discounted-vi", "validate-solve"])
def test_workload_runs_three_units_and_passes_its_checks(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    work = workloads.WORKLOADS[name](1, 0)  # no seconds: the three-unit floor
    work.make_inputs()
    work.warm_up()
    stamps = []
    work.run_units(lambda: stamps.append(None))
    assert len(stamps) == work.n_units == 3
    assert work.check() == []
    assert work.failed_units == 0
