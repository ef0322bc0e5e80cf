"""Per-layer counts of the benchmark tracer against the library's own.

The tracer in perfbench/tracing.py counts a HiGHS solve where the solver
seam dispatches it.  A backup that reached HiGHS some other way would read
as zero `lp.highs.*` with every output unchanged; here it fails instead.
"""

from pathlib import Path

import drmdp.engine as engine
import drmdp.modelfile as modelfile

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "drmdp" / "data"


def _traced(monkeypatch, run):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return tracer.calls, result


def test_traced_solves_match_backups_and_sweeps(monkeypatch):
    infinite = modelfile.parse_model_file(DATA / "infinite_two_state.yaml").build()
    finite = modelfile.parse_model_file(DATA / "finite_two_state.yaml").build()
    calls, iterations = _traced(
        monkeypatch, lambda: engine.value_iteration(infinite, 1e-6, solver="highs")[2]
    )
    assert iterations > 1
    assert calls["engine.sweep"] == iterations
    assert calls["reformulation.backup"] == iterations * infinite.n_states
    assert calls["lp.highs"] == calls["reformulation.backup"]
    calls, _ = _traced(monkeypatch, lambda: engine.backward_induction(finite, solver="highs"))
    decisions = sum(len(stage) for stage in finite.stages[:-1])
    assert calls["reformulation.backup"] == decisions > 0
    assert calls["lp.highs"] == calls["reformulation.backup"]
    assert calls["engine.induction"] == 1
