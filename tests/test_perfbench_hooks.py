"""Every layer the benchmark tracer hooks still exists in the package.

The tracer in ``perfbench/spans.py`` reports a vanished layer as missing
and keeps running, so a renamed or unimported function would only show up
as a traced benchmark run with a stray line.  This test fails instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    # the tracer module is read, not imported as a package: no bytecode is
    # written next to it
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.HOOKS


@pytest.mark.parametrize("hook", _hooks(), ids=lambda h: f"{h.module}.{h.function}")
def test_hook_resolves(hook):
    # the modules the benchmark child and its workloads import before
    # installing the tracer
    import qudisc  # noqa: F401
    import qudisc.cli  # noqa: F401
    import qudisc.oracle  # noqa: F401

    module = sys.modules.get(hook.module)
    assert module is not None, f"{hook.module} is not imported"
    assert callable(getattr(module, hook.function, None)), f"{hook.layer} is missing"
