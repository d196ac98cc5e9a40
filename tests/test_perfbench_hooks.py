"""Every layer the benchmark tracer hooks still exists in the package.

The tracer in ``perfbench/spans.py`` reports a vanished layer as missing
and keeps running, so a renamed or unimported function would only show up
as a traced benchmark run with a stray line.  This test fails instead,
as it does when a hook sums an argument the function no longer takes,
which would break the traced run itself.
The dense workloads' warm-up call must likewise pass the workload's own
output check, or every benchmark run of them is marked incorrect."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, read by file path rather than imported as a
    package, so that no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _hooks():
    return _load("spans").HOOKS


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


@pytest.mark.parametrize("hook", [h for h in _hooks() if h.amount],
                         ids=lambda h: f"{h.module}.{h.function}")
def test_hook_amount_is_a_parameter(hook):
    import qudisc.cli  # noqa: F401
    import qudisc.oracle  # noqa: F401

    function = getattr(sys.modules[hook.module], hook.function)
    assert hook.amount in inspect.signature(function).parameters


def test_dense_warm_up_passes_its_check(monkeypatch):
    # the dense workloads warm up on qubit_copies_op((1, 1, 1)); its output
    # must pass the workload's own check against the reference
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    monkeypatch.setitem(sys.modules, "reference", _load("reference"))  # the check imports it
    bench = workloads.QubitCopies(seed=1)
    bench.ops = [(1, 1, 1)]
    errors, _ = bench.check([workloads.qubit_copies_op((1, 1, 1))], controls=False)
    assert errors == []


def test_verify_grid_passes_its_check(monkeypatch):
    # one default `qudisc verify` and its --inject-q-fault control must pass
    # the verify_grid workload's own check, or every benchmark run of it is
    # marked incorrect
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    bench = workloads.VerifyGrid(seed=1)
    errors, _ = bench.check([bench.run(op) for op in bench.ops], controls=True)
    assert errors == []


def test_closed_form_round_passes_its_check(monkeypatch):
    # one seed-1 closed_form round must pass the workload's own check, or
    # every benchmark run of it is marked incorrect
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    monkeypatch.setitem(sys.modules, "reference", _load("reference"))  # the check imports it
    bench = workloads.ClosedForm(seed=1)
    errors, _ = bench.check([bench.run(op) for op in bench.ops], controls=False)
    assert errors == []


def test_clear_caches_empties_the_oracle_caches(monkeypatch):
    # every benchmark operation starts as a fresh process would, with no
    # geometry and no shared orbit reduction left over
    from qudisc import ProblemConfig, oracle

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    caches = (oracle._orbit_block, oracle._jordan_geometry)
    oracle.jordan_angles(ProblemConfig(2, 1, 1, 1))
    assert all(cache.cache_info().currsize for cache in caches)
    workloads.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
