"""Every name the benchmark tracer wraps must still exist in ndscope.

``perfbench/tracer.py`` looks its targets up by name when ``--trace 1``
installs it: a function as a module attribute, a method as an entry in
its class's own ``__dict__``.  Renaming or deleting one of them breaks
the traced benchmark run, so this test fails first.  The tracer module is
loaded from its file and never installed.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    # executed from its source text, so nothing is written next to it
    ns = {"__name__": "_bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), ns)
    return [(layer, name) for layer, names in ns["TARGETS"].items()
            for name in names]


@pytest.mark.parametrize("layer,name", _targets())
def test_target_resolves(layer, name):
    mod = importlib.import_module("ndscope." + layer)
    if "." in name:
        cls_name, meth = name.split(".")
        assert meth in vars(getattr(mod, cls_name))
        return
    fn = getattr(mod, name)
    # an alias of another module's function would be wrapped twice
    assert callable(fn) and fn.__module__ == mod.__name__
