"""The benchmark tracer's hooks against the library.

The tracer in perfbench/tracing.py wraps each function where its caller
looks the name up.  It skips a hook whose target is gone, and the metrics
resting on that hook then read "missing".  This test turns such a rename
into a failure.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_hook_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.HOOKS
    for name, owner_of, attr in tracing.HOOKS:
        owner = owner_of()
        assert callable(tracing._get(owner, attr)), f"{name}: {owner!r} has no {attr!r}"
