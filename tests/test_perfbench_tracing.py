"""The benchmark's tracer stays in step with the code it patches.

perfbench/layers.py wraps dpsgd functions and methods by name. A rename
or removal there would otherwise surface only in a traced benchmark run
(--trace 1); here it fails the test suite.
"""
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dpsgd_state() -> dict:
    """Every attribute of every loaded dpsgd module, and of every class
    those modules define, keyed by owner and name."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("dpsgd"):
            continue
        for attr, value in vars(mod).items():
            state[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("dpsgd"):
                owner = (value.__module__, value.__qualname__)
                for cls_attr, member in vars(value).items():
                    state[(*owner, cls_attr)] = member
    return state


def test_trace_install_finds_every_target_and_restore_undoes_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    unbound = []

    class CheckedTracer(Tracer):
        def patch_function(self, fn, name, **hooks):
            before = len(self._patches)
            super().patch_function(fn, name, **hooks)
            if len(self._patches) == before:
                unbound.append(name)  # no dpsgd module binds fn

    before = _dpsgd_state()
    tracer = CheckedTracer()
    try:
        # patch_method raises AttributeError on a name the class lacks
        layers.install(tracer)
        assert unbound == []
        assert _dpsgd_state() != before
    finally:
        tracer.restore()
    after = _dpsgd_state()
    assert sorted(map(str, after.keys() - before.keys())) == []
    assert sorted(map(str, before.keys() - after.keys())) == []
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
